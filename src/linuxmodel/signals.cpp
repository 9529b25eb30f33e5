#include "linuxmodel/signals.hpp"

#include "common/assert.hpp"
#include "hwsim/core.hpp"

namespace iw::linuxmodel {

namespace {
// Payload word 0 tags which half of the two-stage delivery this is.
constexpr std::uint64_t kStageKernelQueue = 0;
constexpr std::uint64_t kStageDeliver = 1;
}  // namespace

SignalPath::SignalPath(LinuxStack& stack)
    : stack_(stack), rng_(stack.machine().rng().split()) {
  stack_.machine().register_snapshot_participant(this);
  sink_id_ = stack_.machine().register_event_sink(this);
}

SignalPath::~SignalPath() {
  stack_.machine().unregister_event_sink(sink_id_);
  stack_.machine().unregister_snapshot_participant(this);
}

SignalActionId SignalPath::register_action(SignalAction action) {
  actions_.push_back(std::move(action));
  return static_cast<SignalActionId>(actions_.size() - 1);
}

void SignalPath::on_core_event(hwsim::Core& core, Cycles,
                               const hwsim::EventPayload& payload) {
  const auto action = static_cast<SignalActionId>(payload.w[2]);
  const std::uint64_t arg = payload.w[3];
  if (payload.w[0] == kStageKernelQueue) {
    // Kernel-side queueing on the origin core; the target's delivery is
    // scheduled from here so the latency draw happens in origin order.
    core.consume(stack_.costs().signal_kernel_send);
    deliver_at(core.clock(), static_cast<CoreId>(payload.w[1]), action, arg);
    return;
  }
  const auto& c = stack_.costs();
  const Cycles queue_time = payload.w[1];
  // The target is interrupted: frame setup, action, sigreturn.
  core.consume(c.signal_frame_setup);
  latency_hist_.add(core.clock() - queue_time);
  ++delivered_;
  if (action != kNoSignalAction) {
    IW_ASSERT_MSG(action < actions_.size(),
                  "signal delivery references an unregistered action id");
    actions_[action](core, arg);
  }
  core.consume(c.sigreturn);
}

void SignalPath::save_state(hwsim::SnapshotWriter& w) const {
  hwsim::save_rng(w, rng_);
  w.u64(sent_);
  w.u64(delivered_);
  const LatencyHistogram::State hs = latency_hist_.state();
  w.u64(hs.counts.size());
  for (std::uint64_t c : hs.counts) w.u64(c);
  w.u64(hs.total_count);
  w.u64(hs.min);
  w.u64(hs.max);
  w.f64(hs.sum);
}

void SignalPath::restore_state(hwsim::SnapshotReader& r) {
  hwsim::restore_rng(r, rng_);
  sent_ = r.u64();
  delivered_ = r.u64();
  LatencyHistogram::State hs;
  hs.counts.resize(r.u64());
  for (std::uint64_t& c : hs.counts) c = r.u64();
  hs.total_count = r.u64();
  hs.min = r.u64();
  hs.max = r.u64();
  hs.sum = r.f64();
  latency_hist_.set_state(hs);
}

Cycles SignalPath::draw_latency() {
  const auto& c = stack_.costs();
  const auto& freq = stack_.machine().costs().freq;
  // Body: lognormal around the median; tail: bounded Pareto. Mix 85/15.
  double us;
  if (rng_.chance(0.85)) {
    us = rng_.lognormal_median(c.signal_latency_median_us,
                               c.signal_latency_sigma);
  } else {
    us = rng_.heavy_tail(c.signal_latency_median_us * 2.0,
                         c.signal_tail_alpha, c.signal_latency_cap_us);
  }
  return freq.us_to_cycles(us);
}

void SignalPath::send(hwsim::Core& sender, CoreId target_core,
                      SignalActionId action, std::uint64_t arg) {
  const auto& c = stack_.costs();
  // tgkill(): user->kernel crossing + queueing work, charged to sender.
  stack_.syscall(sender);
  sender.consume(c.signal_kernel_send);
  ++sent_;
  deliver_at(sender.clock(), target_core, action, arg);
}

void SignalPath::send_from_kernel(CoreId origin_core, Cycles t,
                                  CoreId target_core, SignalActionId action,
                                  std::uint64_t arg) {
  ++sent_;
  hwsim::EventPayload p;
  p.w[0] = kStageKernelQueue;
  p.w[1] = target_core;
  p.w[2] = action;
  p.w[3] = arg;
  stack_.machine().core(origin_core).post_event(t, sink_id_, p);
}

void SignalPath::deliver_at(Cycles queue_time, CoreId target_core,
                            SignalActionId action, std::uint64_t arg) {
  const Cycles latency = draw_latency();
  hwsim::EventPayload p;
  p.w[0] = kStageDeliver;
  p.w[1] = queue_time;
  p.w[2] = action;
  p.w[3] = arg;
  stack_.machine().core(target_core).post_event(queue_time + latency,
                                                sink_id_, p);
}

}  // namespace iw::linuxmodel
