// Fixed-cost spin: the work every core of the heartbeat workloads does
// between beats. The scheduler benchmarks (bench/des_workload.hpp), the
// fault sweep and the forensic tools' replay workload
// (tools/replay_workload.hpp) all run it.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "hwsim/core.hpp"

namespace iw::workloads {

/// Endless spin work: every core always runnable, `step` cycles per
/// step. Stateless, so there is nothing to snapshot, and one instance
/// may drive every core. Certifies its steps for fast-forward: a spin
/// step consumes cycles and touches nothing else, so the trajectory to
/// any horizon is closed-form. The same certificate is the core's send
/// horizon under per-core epochs: a spinning core can post nothing
/// before its next delivery.
class SpinDriver final : public hwsim::CoreDriver {
 public:
  explicit SpinDriver(Cycles step) : step_(step) {}
  bool runnable(hwsim::Core&) override { return true; }
  void step(hwsim::Core& core) override { core.consume(step_); }

  bool plan_fast_forward(hwsim::Core& core, Cycles horizon,
                         hwsim::FastForwardPlan* plan) override {
    // Stepping while clock < horizon executes ceil(gap / step_) steps,
    // the last one carrying the clock to the first multiple at/past the
    // horizon — exactly what the stepped loop would do.
    const Cycles gap = horizon - core.clock();
    const std::uint64_t steps = (gap + step_ - 1) / step_;
    plan->end_clock = core.clock() + steps * step_;
    plan->steps = steps;
    return true;
  }
  // apply_fast_forward: nothing to commit (the spin has no state).

 private:
  Cycles step_;
};

}  // namespace iw::workloads
