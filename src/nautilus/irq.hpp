// Interrupt steering (paper §III: "interrupts are fully steerable, and
// thus can largely be avoided on most hardware threads"). A steering
// table maps device vectors to target cores; devices consult it when
// raising interrupts, and handlers install per-core.
//
// This file also carries the kernel-side interrupt *reliability*
// machinery: ReliableIpi (bounded retry with exponential backoff when
// the fabric drops a send) and CoreWatchdog (a periodic per-core
// progress check that fires when a core sits on pending interrupts
// without advancing). Both exist for the fault-injection story: the
// fabric below may lie, and the kernel above must degrade gracefully
// instead of silently losing heartbeats.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "hwsim/core.hpp"
#include "hwsim/machine.hpp"
#include "hwsim/snapshot.hpp"

namespace iw::nautilus {

class IrqSteering {
 public:
  explicit IrqSteering(hwsim::Machine& machine) : machine_(machine) {}

  /// Route `vector` to `target`, installing `handler` there. Any previous
  /// route's handler is removed from its old core.
  void route(int vector, CoreId target, hwsim::IrqHandler handler);

  /// Core currently receiving `vector` (default: core 0).
  [[nodiscard]] CoreId target_of(int vector) const;

  /// Raise `vector` through the steering table at absolute time `t`.
  void raise(int vector, Cycles t);

  /// Number of cores receiving no device interrupts at all (the property
  /// Nautilus exploits to keep worker cores quiet).
  [[nodiscard]] unsigned quiet_cores() const;

 private:
  hwsim::Machine& machine_;
  std::unordered_map<int, CoreId> routes_;
};

/// Reliable IPI delivery: when the fabric reports a drop, re-send from
/// the originating core after an exponentially growing backoff, up to a
/// bounded number of attempts. A real kernel infers the drop from a
/// missing ack/timeout; the simulation reads the fabric's verdict
/// directly (hwsim::IpiStatus), which models the same recovery loop
/// without inventing an ack protocol the paper's stack does not have.
struct ReliableIpiConfig {
  unsigned max_attempts{4};  // 1 original + up to 3 retries
  Cycles backoff{1'500};     // first retry delay; doubles per attempt
};

class ReliableIpi final : public hwsim::SnapshotParticipant,
                          public hwsim::EventSink {
 public:
  using Config = ReliableIpiConfig;

  explicit ReliableIpi(hwsim::Machine& machine, Config cfg = {});
  ~ReliableIpi();

  // EventSink: a scheduled retry came due on the sending core
  // (payload = {target core, vector, attempt number}).
  void on_core_event(hwsim::Core& core, Cycles at,
                     const hwsim::EventPayload& payload) override;

  /// Send `vector` from `from` to `to`; on kDropped, schedules retries
  /// on the sender's timeline. Returns the *first* attempt's status (the
  /// caller's synchronous view; retries are asynchronous).
  hwsim::IpiStatus send(hwsim::Core& from, CoreId to, int vector);

  /// Fabric-level variant for fan-out paths that already paid one ICR
  /// write for the whole broadcast: posts at `sent` without consuming a
  /// per-destination send cost, but retries (which are fresh ICR writes)
  /// still pay it.
  hwsim::IpiStatus post(hwsim::Core& from, CoreId to, int vector,
                        Cycles sent);

  [[nodiscard]] std::uint64_t retries() const { return retries_; }
  /// Sends abandoned after max_attempts consecutive drops.
  [[nodiscard]] std::uint64_t exhausted() const { return exhausted_; }

  // SnapshotParticipant: the counters. In-flight retry chains are
  // sink events ({to, vector, attempt} payloads) in core callback
  // inboxes; the machine snapshot captures those queues, so a retry
  // scheduled before the snapshot survives a restore and one scheduled
  // after does not — exactly the pre-snapshot delivery state.
  void save_state(hwsim::SnapshotWriter& w) const override;
  void restore_state(hwsim::SnapshotReader& r) override;

 private:
  void handle_drop(hwsim::Core& from, CoreId to, int vector);
  void schedule_retry(hwsim::Core& from, CoreId to, int vector,
                      unsigned attempt);

  hwsim::Machine& machine_;
  Config cfg_;
  hwsim::SinkId sink_id_{hwsim::kNoSink};
  std::uint64_t retries_{0};
  std::uint64_t exhausted_{0};
};

/// Per-core progress watchdog. Every `period` cycles it snapshots each
/// core; a core that made no progress (clock, steps, and IRQ deliveries
/// all unchanged) while holding pending interrupts is stuck — masked
/// forever, wedged in a stalled step, or starved — and the alarm fires
/// (plus a faults.watchdog_fires count and a trace instant). The check
/// chain keeps the machine non-quiescent while armed; disarm() lets the
/// machine drain.
class CoreWatchdog final : public hwsim::SnapshotParticipant,
                           public hwsim::EventSink {
 public:
  using Alarm = std::function<void(CoreId stuck, Cycles at)>;

  CoreWatchdog(hwsim::Machine& machine, Cycles period, Alarm alarm = {});
  ~CoreWatchdog();

  // EventSink: one link of the periodic check chain (payload = the
  // arming generation; the check time is the event time itself).
  void on_machine_event(hwsim::Machine& machine, Cycles at,
                        const hwsim::EventPayload& payload) override;

  void arm();
  void disarm() { armed_ = false; }
  [[nodiscard]] bool armed() const { return armed_; }
  [[nodiscard]] std::uint64_t fires() const { return fires_; }

  // SnapshotParticipant: armed flag, generation counter, fire count,
  // and the per-core progress probes. Restoring gen_ together with the
  // machine's queue records is the stale-fire defense: a check chain armed
  // *after* the snapshot (gen_ = G+1) is absent from the restored
  // queues, and the restored gen_ = G matches only the chain that was
  // actually pending at capture time.
  void save_state(hwsim::SnapshotWriter& w) const override;
  void restore_state(hwsim::SnapshotReader& r) override;

 private:
  struct Snapshot {
    Cycles clock{0};
    std::uint64_t steps{0};
    std::uint64_t irqs{0};
  };

  void snapshot_all();
  void check(Cycles at, std::uint64_t gen);

  hwsim::Machine& machine_;
  hwsim::SinkId sink_id_{hwsim::kNoSink};
  Cycles period_;
  Alarm alarm_;
  bool armed_{false};
  // Bumped on every arm(); a pending check whose generation is stale
  // exits without rescheduling, so disarm/re-arm never forks two chains.
  std::uint64_t gen_{0};
  std::uint64_t fires_{0};
  std::vector<Snapshot> last_;
};

}  // namespace iw::nautilus
