// The workload both forensic tools (ttreplay, fault_bisect) drive: a
// heartbeat-supervised machine with every core spinning. It exists so
// the two tools bisect and replay the *same* trajectory — a divergence
// localized by ttreplay can be handed to fault_bisect unchanged.
//
// The spin driver (workloads/spin_driver.hpp) is stateless, so the only
// snapshot participant the workload adds is the heartbeat backend
// itself — which self-registers in its constructor. Construction order
// still matters: build the workload only after the injector is in its
// final mode (recording or scripted), because starting the heartbeat
// arms timers and that already consumes fault opportunities.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "heartbeat/delivery.hpp"
#include "hwsim/machine.hpp"
#include "workloads/spin_driver.hpp"

namespace iw::tools {

/// Heartbeat-supervised spin workload: every core spins 200 cycles per
/// step. The interbeat statistics the supervisor keeps per worker are
/// the tools' failure oracle: a fault schedule "fails" when some
/// worker's worst interbeat gap exceeds `gap_factor` periods.
class ReplayWorkload {
 public:
  ReplayWorkload(hwsim::Machine& m, Cycles period, bool fault_tolerant)
      : machine_(m), hb_(m), period_(period) {
    for (unsigned c = 0; c < m.num_cores(); ++c) {
      m.core(c).set_driver(&driver_);
    }
    if (fault_tolerant) {
      heartbeat::FaultToleranceConfig ft;
      ft.enabled = true;
      hb_.set_fault_tolerance(ft);
    }
    hb_.start(period, m.num_cores());
  }

  [[nodiscard]] heartbeat::NautilusHeartbeat& heartbeat() { return hb_; }
  [[nodiscard]] Cycles period() const { return period_; }

  /// Worst interbeat gap any worker has seen, in periods.
  [[nodiscard]] double max_gap_periods() const {
    double worst = 0.0;
    for (unsigned c = 0; c < machine_.num_cores(); ++c) {
      const double g = hb_.state(c).interbeat.max();
      if (g > worst) worst = g;
    }
    return worst / static_cast<double>(period_);
  }

  /// The failure predicate shared by fault_bisect and its selftest.
  [[nodiscard]] bool failed(double gap_factor) const {
    return max_gap_periods() > gap_factor;
  }

 private:
  hwsim::Machine& machine_;
  workloads::SpinDriver driver_{200};
  heartbeat::NautilusHeartbeat hb_;
  Cycles period_;
};

}  // namespace iw::tools
