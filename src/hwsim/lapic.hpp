// Per-core local APIC timer. One-shot and periodic modes; the periodic
// mode keeps an absolute cadence (fires at t0 + k*period) independent of
// handler latency, which is what the heartbeat experiments rely on.
//
// Fires ride the core's inline timer-event path (TimerSink): arming and
// re-arming never allocates, which matters because periodic LAPIC fires
// are the dominant scheduled event in every heartbeat experiment.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "hwsim/event_queue.hpp"
#include "hwsim/snapshot.hpp"

namespace iw::hwsim {

class Core;

class LapicTimer final : public TimerSink, public SnapshotParticipant {
 public:
  LapicTimer(Core& core, int vector);
  ~LapicTimer();

  /// Arm a one-shot interrupt `delta` cycles from the core's clock.
  /// Pays the LAPIC programming cost on the core.
  void oneshot(Cycles delta);

  /// Arm a periodic interrupt with the given period (first fire one
  /// period from now). Pays the programming cost once.
  void periodic(Cycles period);

  /// Disarm: in-flight fires are discarded.
  void stop();

  [[nodiscard]] bool armed() const { return armed_; }
  [[nodiscard]] std::uint64_t fires() const { return fires_; }
  [[nodiscard]] int vector() const { return vector_; }

  // TimerSink: a scheduled fire came due on the owning core.
  void on_timer(Core& core, Cycles at, std::uint64_t gen) override;

  // SnapshotParticipant: arming mode and the generation counter. The
  // in-flight fire events themselves live in the core's callback inbox,
  // which the machine's snapshot image records; restoring generation_
  // alongside keeps their gen checks consistent, so a fire scheduled
  // after the snapshot point (gen bumped post-snapshot) is correctly
  // absent after restore and cannot resurrect.
  void save_state(SnapshotWriter& w) const override;
  void restore_state(SnapshotReader& r) override;

 private:
  void schedule_fire(Cycles at);

  Core& core_;
  /// Dispatch-table identity (Machine::register_timer_sink): gives
  /// in-flight fires a portable encoding in snapshot v2.
  SinkId sink_id_{kNoSink};
  int vector_;
  bool armed_{false};
  Cycles period_{0};  // 0 = one-shot
  std::uint64_t generation_{0};
  std::uint64_t fires_{0};
};

}  // namespace iw::hwsim
