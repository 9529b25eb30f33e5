// The coherence simulator: per-core private caches, a directory-based
// MESI protocol over a two-socket interconnect, and the paper's
// selective-coherence-deactivation extension (§V-B).
//
// With deactivation enabled, accesses to regions the language proved
// task-private (disentangled) bypass the directory entirely: misses
// fetch straight from the home LLC/memory (2-hop instead of 3-hop, no
// sharer bookkeeping, no invalidation traffic), and lines live in the
// kIncoherent state. At region handoffs (task joins/steals) the prior
// owner's incoherent lines are written back and dropped — correctness
// is the language's disentanglement guarantee, enforced by flushes.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "coherence/cache.hpp"
#include "coherence/directory.hpp"
#include "coherence/interconnect.hpp"
#include "coherence/trace.hpp"
#include "common/flat_table.hpp"
#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "substrate/substrate.hpp"

namespace iw::coherence {

struct LatencyTable {
  Cycles private_hit{4};
  Cycles llc_hit{42};
  Cycles directory_lookup{16};
  Cycles memory{170};
  Cycles memory_remote{300};
  Cycles invalidate_ack{20};  // per invalidated sharer, at the sharer
  Cycles flush_line{24};      // handoff writeback, per line
};

struct SimConfig {
  unsigned num_cores{24};
  CacheConfig private_cache{256 * 1024, 8, 64};
  InterconnectConfig noc{};
  LatencyTable lat{};
  bool selective_deactivation{false};
  /// Treat kReadOnly regions as deactivatable too (no sharer tracking).
  bool deactivate_read_only{true};
  /// Opt-in uncore contention jitter: each access adds uniform
  /// [0, access_jitter_max] extra cycles drawn from the simulator's
  /// explicit RNG. 0 (the default) draws nothing — see the determinism
  /// contract on CoherenceSim.
  Cycles access_jitter_max{0};
};

struct SimStats {
  std::uint64_t accesses{0};
  std::uint64_t private_hits{0};
  std::uint64_t directory_lookups{0};
  std::uint64_t directory_updates{0};  // eviction notifications
  std::uint64_t invalidations{0};
  std::uint64_t three_hop_transfers{0};
  std::uint64_t memory_fetches{0};
  std::uint64_t handoff_flushes{0};
  Cycles total_latency{0};
  InterconnectStats noc;

  [[nodiscard]] double avg_latency() const {
    return accesses ? static_cast<double>(total_latency) /
                          static_cast<double>(accesses)
                    : 0.0;
  }

  /// Uncore energy: interconnect plus directory array accesses. Entries
  /// that are never allocated (deactivated data) never pay it — the
  /// "dynamic directories" effect the paper builds on [21].
  [[nodiscard]] double uncore_energy_pj(double dir_access_pj = 22.0) const {
    return noc.energy_pj +
           dir_access_pj *
               static_cast<double>(directory_lookups + directory_updates);
  }
};

/// Determinism contract: the protocol model is a pure function of
/// (config, access/handoff order) — it draws no randomness of its own.
/// All stochastic behavior goes through the explicitly seeded Rng the
/// constructor *requires* (no internal/default seeding), and only the
/// opt-in access_jitter_max feature consumes draws; with it at 0 (the
/// default) the RNG is never advanced and same-config runs are
/// bit-identical regardless of seed. Callers on a substrate should pass
/// substrate->rng_stream("coherence") so one seed flag steers every
/// layer's streams coherently.
class CoherenceSim {
 public:
  /// `rng` is the simulator's only randomness source. Pass an Rng seeded
  /// from your experiment's seed (or a substrate rng_stream).
  CoherenceSim(SimConfig cfg, Rng rng);

  /// Run every access and handoff on the stack substrate: latencies are
  /// charged to the owning core's clock, coherence.* metrics stream to
  /// the registry, and misses/handoffs appear as spans on the shared
  /// trace timeline. Unbound (the default), the simulator keeps its
  /// standalone analytic behavior: identical stats, no sinks, no clocks.
  void bind_substrate(substrate::StackSubstrate* sub);
  [[nodiscard]] substrate::StackSubstrate* substrate() const { return sub_; }

  /// Run a full annotated trace (accesses + handoffs, in order).
  SimStats run(const Trace& trace);

  /// Single-access entry point (exposed for unit tests).
  Cycles access(const Access& a, const Region& region);

  /// Handoff processing (flush under deactivation).
  void handoff(const Handoff& h, const Trace& trace);

  /// Current after every access and handoff (the NoC counters included).
  [[nodiscard]] SimStats stats() const;
  [[nodiscard]] PrivateCache& cache(unsigned core) { return *caches_[core]; }
  [[nodiscard]] Directory& directory() { return dir_; }

 private:
  /// access() without the registry delta: the protocol, the jitter
  /// draw and the substrate charge.
  Cycles serve(const Access& a, const Region& region);
  [[nodiscard]] bool deactivated(const Region& r) const;
  Cycles fetch_from_home(Addr line, unsigned requester, unsigned home);
  Cycles coherent_access(const Access& a, const Region& region);
  Cycles incoherent_access(const Access& a, const Region& region);
  void evict(unsigned core, const CacheLine& line);
  /// Stream the per-access stats delta into the bound registry (only
  /// called with cells bound).
  void publish_delta(const SimStats& before, Cycles lat);

  SimConfig cfg_;
  Rng rng_;
  FlatTable<> llc_seen_;  // lines fetched from memory at least once
  std::vector<std::unique_ptr<PrivateCache>> caches_;
  Directory dir_;
  Interconnect noc_;
  SimStats stats_;  // every field but noc, which noc_ keeps

  substrate::StackSubstrate* sub_{nullptr};
  /// Cached registry cells (bind-time lookups; hot paths must not pay
  /// the map). Null while unbound or metrics are off.
  struct MetricCells {
    std::uint64_t* accesses{nullptr};
    std::uint64_t* private_hits{nullptr};
    std::uint64_t* directory_lookups{nullptr};
    std::uint64_t* directory_updates{nullptr};
    std::uint64_t* invalidations{nullptr};
    std::uint64_t* three_hop{nullptr};
    std::uint64_t* memory_fetches{nullptr};
    std::uint64_t* handoff_flushes{nullptr};
    LatencyHistogram* access_latency{nullptr};
  };
  MetricCells cells_;
};

}  // namespace iw::coherence
