// POSIX signal delivery model.
//
// The heartbeat comparison (paper Fig. 2 right, Fig. 3) hinges on what a
// signal *costs* and how late it arrives: the sender crosses into the
// kernel to queue it, the kernel interrupts the target (possibly on
// another CPU, via reschedule IPI), builds a signal frame in user space,
// runs the handler, and sigreturns. Latency is µs-scale with a heavy
// tail — "existing software mechanisms in Linux are unable to achieve
// predictably low latencies for out-of-band event signaling" [36].
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "hwsim/sink.hpp"
#include "hwsim/snapshot.hpp"
#include "linuxmodel/linux_stack.hpp"

namespace iw::linuxmodel {

/// Registered signal action, run on the target core at frame-entry
/// time. Installed once (at setup time) under a stable index so
/// in-flight deliveries name it by id and stay plain data. `arg` is a
/// caller-chosen word traveling with each send (e.g. the timer fire a
/// heartbeat carries).
using SignalAction = std::function<void(hwsim::Core&, std::uint64_t arg)>;
using SignalActionId = std::uint32_t;
inline constexpr SignalActionId kNoSignalAction = ~SignalActionId{0};

class SignalPath final : public hwsim::SnapshotParticipant,
                         public hwsim::EventSink {
 public:
  explicit SignalPath(LinuxStack& stack);
  ~SignalPath();

  // EventSink: both stages of an in-flight signal — kernel-side
  // queueing on the origin core, then frame+action+sigreturn on the
  // target — encoded as plain data so pending deliveries survive
  // snapshot v2 transport into a fresh machine.
  void on_core_event(hwsim::Core& core, Cycles at,
                     const hwsim::EventPayload& payload) override;

  /// Install an action table entry. Registration order is part of the
  /// deterministic setup contract: a fresh machine hydrating a snapshot
  /// must register the same actions in the same order.
  SignalActionId register_action(SignalAction action);

  /// Send a signal from `sender` to a thread on `target_core`. Charges
  /// the sender's kernel-side send path now and schedules the target's
  /// interruption + frame + action + sigreturn after a drawn latency.
  /// The in-flight delivery names the registered `action` by id
  /// (kNoSignalAction = accounting only).
  void send(hwsim::Core& sender, CoreId target_core, SignalActionId action,
            std::uint64_t arg = 0);

  /// Kernel-originated signal (timer expiry): no user sender to charge;
  /// the kernel-side queueing work happens on `origin_core`'s timeline
  /// as a core event at time `t`.
  void send_from_kernel(CoreId origin_core, Cycles t, CoreId target_core,
                        SignalActionId action, std::uint64_t arg = 0);

  /// Draw one delivery latency (cycles) — exposed for tests/benches.
  Cycles draw_latency();

  [[nodiscard]] std::uint64_t sent() const { return sent_; }
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] const LatencyHistogram& latency_hist() const {
    return latency_hist_;
  }

  // SnapshotParticipant: the latency Rng stream, counters, and the
  // latency histogram. In-flight deliveries are plain-data sink events
  // in core inboxes.
  void save_state(hwsim::SnapshotWriter& w) const override;
  void restore_state(hwsim::SnapshotReader& r) override;

 private:
  void deliver_at(Cycles queue_time, CoreId target_core,
                  SignalActionId action, std::uint64_t arg);

  LinuxStack& stack_;
  Rng rng_;
  hwsim::SinkId sink_id_{hwsim::kNoSink};
  /// Structural: rebuilt by setup code, never serialized.
  std::vector<SignalAction> actions_;
  std::uint64_t sent_{0};
  std::uint64_t delivered_{0};
  LatencyHistogram latency_hist_;
};

}  // namespace iw::linuxmodel
