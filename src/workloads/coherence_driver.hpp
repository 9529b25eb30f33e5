// A DES core driver whose work is memory: each step interleaves compute
// cycles with accesses played through a CoherenceSim that is bound to
// the machine-as-substrate. This is the composed-stack workload — the
// same cores that field heartbeat IPIs also pay their coherence misses,
// so a directory stall delays the next poll and a dropped IPI shows up
// next to the miss that preceded it, all on one cycle axis.
//
// Determinism: per-core RNG streams are fixed at construction; the
// frontier and the linear scan guarantee bit-identical step
// interleavings, so same-seed runs produce bit-identical access
// sequences and traces. The directory is shared across cores outside
// the IPI fabric, so the first step on a kParallelEpoch machine aborts
// (Machine::require_sequential).
#pragma once

#include <cstdint>
#include <vector>

#include "coherence/simulator.hpp"
#include "coherence/trace.hpp"
#include "common/rng.hpp"
#include "hwsim/core.hpp"

namespace iw::workloads {

class CoherenceDriver final : public hwsim::CoreDriver {
 public:
  struct Config {
    Cycles compute_per_step{200};
    unsigned accesses_per_step{4};
    /// Lines in each core's task-private region.
    std::uint64_t private_lines{512};
    /// Lines in the one truly-shared region (contended).
    std::uint64_t shared_lines{128};
    double write_fraction{0.3};
    /// Probability an access goes to the shared region.
    double shared_fraction{0.15};
    /// Steps each core executes before going idle (0 = endless).
    std::uint64_t steps_per_core{0};
    unsigned line_bytes{64};
  };

  /// `sim` must outlive the driver and be configured for >= `num_cores`
  /// cores; bind it to the machine before running so access latencies
  /// charge the issuing core's clock. `rng` seeds the per-core streams.
  CoherenceDriver(coherence::CoherenceSim& sim, unsigned num_cores,
                  Config cfg, Rng rng);

  bool runnable(hwsim::Core& core) override;
  void step(hwsim::Core& core) override;

  /// Hand core `c`'s private region to `to` (task steal): under
  /// deactivation the old owner's incoherent lines flush.
  void handoff_private(CoreId from, CoreId to);

  [[nodiscard]] std::uint64_t total_accesses() const { return accesses_; }
  [[nodiscard]] std::uint64_t steps_done(CoreId c) const {
    return steps_[c];
  }
  [[nodiscard]] const coherence::Trace& regions() const { return layout_; }

 private:
  coherence::CoherenceSim& sim_;
  Config cfg_;
  /// Region table only (no recorded accesses): regions_[0] is shared,
  /// regions_[1 + c] is core c's private region.
  coherence::Trace layout_;
  /// Which region each core currently owns (moves on handoff).
  std::vector<std::uint32_t> owned_region_;
  std::vector<Rng> rngs_;
  std::vector<std::uint64_t> steps_;
  std::uint64_t accesses_{0};
};

}  // namespace iw::workloads
