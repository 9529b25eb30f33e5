// POSIX interval timer model (timer_create + hrtimers).
//
// Unlike the LAPIC (absolute cadence, cycle-exact), the kernel timer path
// adds per-expiry slack and cannot sustain periods below a per-CPU floor:
// each expiry costs kernel work (hrtimer interrupt, signal queueing), so
// requested 20 µs periods degrade into best-effort delivery — the Linux
// half of Fig. 3.
#pragma once

#include <cstdint>
#include <functional>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "hwsim/event_queue.hpp"
#include "hwsim/snapshot.hpp"
#include "linuxmodel/linux_stack.hpp"

namespace iw::linuxmodel {

/// Expiry callback: runs as kernel work on the owning core.
using TimerCallback = std::function<void(hwsim::Core&, Cycles expiry_time)>;

class PosixTimer final : public hwsim::TimerSink,
                         public hwsim::SnapshotParticipant {
 public:
  PosixTimer(LinuxStack& stack, CoreId core);
  ~PosixTimer();

  /// Arm with the requested period (cycles). The effective period is
  /// max(requested, per-CPU floor); each expiry lands with drawn slack.
  void arm_periodic(Cycles requested_period, TimerCallback cb);

  void stop();

  [[nodiscard]] std::uint64_t expiries() const { return expiries_; }
  [[nodiscard]] Cycles effective_period() const { return effective_period_; }
  [[nodiscard]] bool armed() const { return armed_; }

  // TimerSink: the hrtimer expiry came due on the owning core.
  void on_timer(hwsim::Core& core, Cycles at, std::uint64_t gen) override;

  // SnapshotParticipant: arming state, the hrtimer chain's generation
  // and cursor, and the slack Rng stream (restoring it keeps the
  // post-restore expiry slack draws identical to the uninterrupted
  // run). The in-flight expiry event lives in the core's callback
  // inbox, recorded in the machine's image; cb_ is structural.
  void save_state(hwsim::SnapshotWriter& w) const override;
  void restore_state(hwsim::SnapshotReader& r) override;

 private:
  void schedule_next(Cycles ideal);

  LinuxStack& stack_;
  CoreId core_;
  /// Dispatch-table identity (Machine::register_timer_sink): gives
  /// in-flight expiries a portable encoding in snapshot v2.
  hwsim::SinkId sink_id_{hwsim::kNoSink};
  Rng rng_;
  bool armed_{false};
  Cycles effective_period_{0};
  Cycles last_fire_{0};
  /// Ideal (slack-free) time of the single in-flight expiry; the hrtimer
  /// chain schedules the next expiry only from inside the current one,
  /// so one slot suffices.
  Cycles pending_ideal_{0};
  std::uint64_t generation_{0};
  std::uint64_t expiries_{0};
  TimerCallback cb_;
};

}  // namespace iw::linuxmodel
