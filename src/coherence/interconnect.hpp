// On-chip/cross-socket interconnect cost and energy accounting.
//
// Topology: two sockets of num_cores/2 cores each (the Fig. 7 machine:
// 2 x 12-core). A message between a core and a home slice (or another
// core) pays per-hop latency and energy; crossing the socket boundary
// pays the QPI/UPI premium. The paper's headline is the *energy* cut
// (~53%): every directory indirection and invalidation shows up here.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace iw::coherence {

struct InterconnectConfig {
  unsigned num_cores{24};
  unsigned sockets{2};
  Cycles hop_latency{18};          // mesh segment traversal
  Cycles socket_latency{110};      // cross-socket link
  double hop_energy_pj{12.0};      // per mesh traversal, per message
  double socket_energy_pj{95.0};   // per cross-socket traversal
  double line_transfer_energy_pj{38.0};  // 64B payload movement
};

struct InterconnectStats {
  std::uint64_t messages{0};
  std::uint64_t line_transfers{0};
  std::uint64_t socket_crossings{0};
  double energy_pj{0.0};
};

class Interconnect {
 public:
  /// Endpoint ids run over [0, max(ids, num_cores)): a coherence model
  /// with more cores than the configured NoC passes its own core ids.
  /// Each id's socket and in-socket position are tabled here, once.
  explicit Interconnect(InterconnectConfig cfg, unsigned ids = 0);

  /// core / (num_cores / sockets), so ids past num_cores land on
  /// sockets past the last.
  [[nodiscard]] unsigned socket_of(unsigned core) const {
    return place_[core].socket;
  }

  /// One control message from `from` to `to` (cores, or a home slice
  /// colocated with core id `to`). Returns latency; accumulates energy.
  Cycles message(unsigned from, unsigned to, bool carries_line = false) {
    ++stats_.messages;
    Cycles latency = 0;
    double energy = 0.0;
    const Place a = place_[from];
    const Place b = place_[to];
    if (a.socket != b.socket) {
      ++stats_.socket_crossings;
      latency += cfg_.socket_latency;
      energy += cfg_.socket_energy_pj;
      // Hops to/from the socket link on each side (~half the die each).
      latency += cross_hops_ * cfg_.hop_latency;
      energy += cross_hops_ * cfg_.hop_energy_pj;
    } else {
      // In-socket distance: ring/mesh distance between positions.
      const unsigned hops = 1 + (a.position > b.position
                                     ? a.position - b.position
                                     : b.position - a.position);
      latency += hops * cfg_.hop_latency;
      energy += hops * cfg_.hop_energy_pj;
    }
    if (carries_line) {
      ++stats_.line_transfers;
      energy += cfg_.line_transfer_energy_pj;
    }
    stats_.energy_pj += energy;
    return latency;
  }

  /// Home slice (LLC bank) for a line: address-interleaved.
  [[nodiscard]] unsigned home_of(Addr line) const {
    return static_cast<unsigned>((line >> 6) % cfg_.num_cores);
  }

  [[nodiscard]] const InterconnectStats& stats() const { return stats_; }
  [[nodiscard]] const InterconnectConfig& config() const { return cfg_; }

 private:
  struct Place {
    unsigned socket;
    unsigned position;  // id % (num_cores / sockets)
  };

  InterconnectConfig cfg_;
  std::vector<Place> place_;  // by endpoint id
  unsigned cross_hops_;       // per_socket / 2 + 1
  InterconnectStats stats_;
};

}  // namespace iw::coherence
