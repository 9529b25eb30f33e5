// Heartbeat delivery backends (paper Fig. 2).
//
// Nautilus path (left):  LAPIC timer fires on CPU 0 -> IPI broadcast ->
// per-CPU interrupt handlers set the worker's promotion flag. Cycle-
// exact cadence, sub-µs delivery, cost = one interrupt dispatch.
//
// Linux path (right): a POSIX timer expires (with hrtimer floor+slack)
// and signals must carry the event to every worker — either relayed by a
// master thread (one tgkill per worker, serialized on the master) or via
// per-thread timers (kernel expiry work on every CPU). Delivery is µs-
// scale, heavy-tailed, and "unsteady" — the figure's word for it.
//
// Fault tolerance (Nautilus path): when a FaultPlan makes the IPI fabric
// lossy, the CPU 0 supervisor — which already runs every period inside
// the LAPIC handler — watches whether each worker saw the previous
// round's IPI. After `degrade_after` consecutive lossy rounds it falls
// back to software-polled delivery (probe IPIs still go out so it can
// notice the fault window ending); after `recover_after` clean rounds it
// returns to pure interrupt-driven delivery. Both transitions mark the
// workers' BeatState `resumed` so the first gap of the new regime is not
// folded into the steady-state inter-beat statistics.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "hwsim/lapic.hpp"
#include "hwsim/machine.hpp"
#include "hwsim/snapshot.hpp"
#include "nautilus/irq.hpp"
#include "obs/metrics.hpp"
#include "linuxmodel/signals.hpp"
#include "linuxmodel/timers.hpp"

namespace iw::heartbeat {

/// Per-worker delivery bookkeeping shared by both backends.
struct BeatState {
  bool pending{false};
  /// Distinguishes "never delivered" from "delivered at cycle 0": a
  /// last_delivery==0 sentinel silently dropped the first inter-beat gap
  /// of any run whose first beat landed at virtual cycle 0.
  bool has_delivered{false};
  std::uint64_t delivered{0};
  Cycles last_delivery{0};
  /// Virtual time the pending beat's timer fired (LAPIC fire for the
  /// Nautilus path, timer expiry for Linux). Feeds fire→poll latency.
  Cycles last_origin{0};
  /// Set when delivery just switched regime (interrupt ↔ polled): the
  /// next gap spans the transition and would poison the steady-state
  /// inter-beat stats, so it is recorded only in the beat_gap histogram.
  bool resumed{false};
  /// Redeliveries suppressed because a beat for the same fire window
  /// already landed (duplicated IPI, spurious re-fire, probe+poll race).
  std::uint64_t duplicates_suppressed{0};
  OnlineStats interbeat;  // gaps between deliveries (cycles)
};

class HeartbeatBackend {
 public:
  virtual ~HeartbeatBackend() = default;

  /// Begin delivering beats with the given target period to workers on
  /// cores [0, num_workers).
  virtual void start(Cycles period, unsigned num_workers) = 0;
  virtual void stop() = 0;

  /// Worker-side poll at a compiler-inserted point: consumes a pending
  /// beat. Returns true if one was pending. `now` (the polling core's
  /// clock) feeds the fire→poll_consumed latency histogram when
  /// metrics are attached; kNever skips the recording.
  bool poll(CoreId core, Cycles now = kNever);

  /// Earliest cycle at which another core could post a beat into
  /// `core`, read at the current point of the run: a TPAL worker folds
  /// only chunks that start before it (DESIGN.md §12, "TPAL chunks").
  /// kNever when only `core`'s own events carry beats to it, which
  /// Core::fold_limit already bounds. The default, 0, promises nothing.
  [[nodiscard]] virtual Cycles send_bound(CoreId /*core*/) const {
    return 0;
  }

  [[nodiscard]] const BeatState& state(CoreId core) const;
  [[nodiscard]] const std::vector<BeatState>& states() const {
    return states_;
  }

  /// Beats delivered per virtual second on `core` between first and
  /// last delivery (0 if fewer than 2 beats).
  [[nodiscard]] double delivered_rate_hz(CoreId core, ClockFreq freq) const;

  /// Coefficient of variation of inter-beat gaps on `core`.
  [[nodiscard]] double jitter_cv(CoreId core) const;

 protected:
  explicit HeartbeatBackend(hwsim::Machine* machine = nullptr)
      : machine_(machine) {}

  /// Record a beat delivered to `core` at `now`. `origin` is the virtual
  /// time the beat's timer fired (kNever = same as now).
  void mark_delivery(CoreId core, Cycles now, Cycles origin = kNever);

  /// Serialize/restore the per-worker BeatState vector (including the
  /// running inter-beat stats) — shared by both backends' participant
  /// implementations.
  void save_states(hwsim::SnapshotWriter& w) const;
  void restore_states(hwsim::SnapshotReader& r);

  /// Like mark_delivery, but at most one beat per fire window: if the
  /// worker already delivered a beat for this `origin`, the call is a
  /// no-op (counted in BeatState::duplicates_suppressed). This is the
  /// dedupe point that keeps duplicated IPIs, spurious re-fires, and the
  /// degraded mode's probe+poll pair from double-counting. Returns true
  /// if the beat was recorded.
  bool mark_delivery_once(CoreId core, Cycles now, Cycles origin);

  /// Observability sinks (may be null in unit tests).
  hwsim::Machine* machine_{nullptr};
  /// Metric name for the fire→poll latency (backend-specific source).
  const char* fire_to_poll_metric_{obs::names::kLapicFireToPollConsumed};
  std::vector<BeatState> states_;
};

/// Fault-tolerance policy for the Nautilus heartbeat. Disabled by
/// default: the supervisor, dedupe, and polling machinery add no work
/// (and no trace/metric records) to a fault-free configuration.
struct FaultToleranceConfig {
  bool enabled{false};
  /// Missed-beat detector: at each fire, a worker whose last delivery is
  /// more than gap_factor * period old has missed a beat.
  double gap_factor{1.5};
  /// Consecutive lossy rounds (some worker did not see the round's IPI)
  /// before degrading to software-polled delivery.
  unsigned degrade_after{3};
  /// Consecutive clean rounds (all probe IPIs seen) before recovering to
  /// interrupt-driven delivery.
  unsigned recover_after{3};
  /// Worker cycles consumed by each software poll in degraded mode.
  Cycles poll_cost{300};
  /// Fire-to-poll delay in degraded mode (software polling is slower
  /// than the IPI latency — that is the "graceful" in the degradation).
  Cycles poll_latency{2'000};
  /// Resend IPIs the fabric reports dropped (bounded backoff). Papers
  /// over isolated drops; the polling fallback handles persistent loss.
  bool ipi_retry{false};
};

/// Nautilus: LAPIC on CPU 0, IPI broadcast to workers (Fig. 2 left).
class NautilusHeartbeat final : public HeartbeatBackend,
                                public hwsim::SnapshotParticipant,
                                public hwsim::EventSink {
 public:
  explicit NautilusHeartbeat(hwsim::Machine& machine, int vector = 0x40);
  ~NautilusHeartbeat() override;
  void start(Cycles period, unsigned num_workers) override;
  void stop() override;
  [[nodiscard]] Cycles send_bound(CoreId core) const override;

  // EventSink: a degraded-mode software poll came due on a worker core
  // (payload = the fire window being polled for; the worker is the
  // event's core). Plain data, so polls in flight at snapshot time
  // survive v2 transport into a fresh machine.
  void on_core_event(hwsim::Core& core, Cycles at,
                     const hwsim::EventPayload& payload) override;

  /// Install the fault-tolerance policy. Call before start().
  void set_fault_tolerance(const FaultToleranceConfig& cfg);

  [[nodiscard]] bool degraded() const { return degraded_; }
  [[nodiscard]] std::uint64_t missed_beats() const { return missed_beats_; }
  [[nodiscard]] std::uint64_t polled_beats() const {
    return polled_beats_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t degraded_entries() const {
    return degraded_entries_;
  }
  [[nodiscard]] std::uint64_t recoveries() const { return recoveries_; }
  [[nodiscard]] const nautilus::ReliableIpi* reliable_ipi() const {
    return reliable_.get();
  }

  // SnapshotParticipant: the full supervisor state machine (degraded
  // flag, round counters, per-worker ipi_seen evidence) plus the shared
  // BeatState vector — a snapshot taken mid-degraded-mode restores
  // straight back into degraded polling. The owned LapicTimer and
  // ReliableIpi register themselves.
  void save_state(hwsim::SnapshotWriter& w) const override;
  void restore_state(hwsim::SnapshotReader& r) override;

 private:
  /// CPU 0 supervisor, run once per fresh LAPIC fire: score the round
  /// that just ended and drive the degrade/recover state machine.
  void supervise(Cycles fire);
  void enter_degraded(Cycles fire);
  void leave_degraded(Cycles fire);
  void mark_resumed();

  int vector_;
  hwsim::SinkId sink_id_{hwsim::kNoSink};
  unsigned num_workers_{0};
  Cycles period_{0};
  /// Virtual time of the most recent LAPIC fire (set by the CPU 0
  /// handler before the IPI fan-out; the DES runs handlers in causal
  /// order, so worker deliveries always see the fire that caused them).
  /// Under per-core epochs it is written only in serial deliveries.
  Cycles last_fire_{0};
  std::unique_ptr<hwsim::LapicTimer> timer_;

  FaultToleranceConfig ft_;
  std::unique_ptr<nautilus::ReliableIpi> reliable_;
  /// Per-worker: the fire whose IPI (or probe) this worker last saw.
  std::vector<Cycles> ipi_seen_;
  Cycles prev_fire_{0};
  bool degraded_{false};
  unsigned bad_rounds_{0};
  unsigned good_rounds_{0};
  std::uint64_t missed_beats_{0};
  /// Every worker's degraded poll counts here, in parallel epochs too
  /// (a relaxed atomic: only the sum is ever read).
  std::atomic<std::uint64_t> polled_beats_{0};
  std::uint64_t degraded_entries_{0};
  std::uint64_t recoveries_{0};
};

enum class LinuxHeartbeatMode {
  kRelay,           // master thread tgkills every worker per beat
  kPerThreadTimer,  // one POSIX timer per worker CPU
};

/// Linux: POSIX timers + signal delivery (Fig. 2 right).
class LinuxHeartbeat final : public HeartbeatBackend,
                             public hwsim::SnapshotParticipant,
                             public hwsim::EventSink {
 public:
  LinuxHeartbeat(linuxmodel::LinuxStack& stack, LinuxHeartbeatMode mode);
  ~LinuxHeartbeat() override;
  void start(Cycles period, unsigned num_workers) override;
  void stop() override;
  [[nodiscard]] Cycles send_bound(CoreId core) const override;

  // EventSink: a queued per-thread signal delivery reached its target
  // (payload = the timer expiry time the signal carries).
  void on_core_event(hwsim::Core& core, Cycles at,
                     const hwsim::EventPayload& payload) override;

  [[nodiscard]] linuxmodel::SignalPath& signals() { return signals_; }

  // SnapshotParticipant: the BeatState vector. The owned PosixTimers
  // and the SignalPath register themselves.
  void save_state(hwsim::SnapshotWriter& w) const override;
  void restore_state(hwsim::SnapshotReader& r) override;

 private:
  linuxmodel::LinuxStack& stack_;
  LinuxHeartbeatMode mode_;
  hwsim::SinkId sink_id_{hwsim::kNoSink};
  linuxmodel::SignalPath signals_;
  /// Relay-mode delivery action (arg = the fire the signal carries).
  linuxmodel::SignalActionId beat_action_{linuxmodel::kNoSignalAction};
  std::vector<std::unique_ptr<linuxmodel::PosixTimer>> timers_;
};

}  // namespace iw::heartbeat
