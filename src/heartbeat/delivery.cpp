#include "heartbeat/delivery.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "hwsim/core.hpp"
#include "obs/trace.hpp"

namespace iw::heartbeat {

bool HeartbeatBackend::poll(CoreId core, Cycles now) {
  IW_ASSERT_MSG(core < states_.size(), "heartbeat poll: core out of range");
  auto& s = states_[core];
  if (!s.pending) return false;
  s.pending = false;
  if (now != kNever && machine_ != nullptr) {
    if (auto* mx = machine_->metrics()) {
      if (now >= s.last_origin) {
        mx->record(fire_to_poll_metric_, now - s.last_origin);
      }
    }
    if (auto* tr = machine_->tracer()) {
      tr->instant(core, "heartbeat.poll_consumed", now);
    }
  }
  return true;
}

const BeatState& HeartbeatBackend::state(CoreId core) const {
  IW_ASSERT_MSG(core < states_.size(), "heartbeat state: core out of range");
  return states_[core];
}

void HeartbeatBackend::mark_delivery(CoreId core, Cycles now, Cycles origin) {
  IW_ASSERT_MSG(core < states_.size(),
                "heartbeat delivery: core out of range");
  if (origin == kNever) origin = now;
  auto& s = states_[core];
  s.pending = true;
  ++s.delivered;
  // An explicit first-delivery flag: virtual cycle 0 is a legitimate
  // delivery time, not a sentinel, so the gap after a cycle-0 beat must
  // enter the inter-beat stats like any other.
  if (s.has_delivered) {
    const Cycles gap = now - s.last_delivery;
    // The beat_gap histogram sees *every* gap — including fault-inflated
    // and regime-transition ones; it is where the fault sweep reads p99
    // inflation from. The steady-state interbeat stats skip the one gap
    // spanning a delivery-regime transition (see BeatState::resumed).
    if (machine_ != nullptr) {
      if (auto* mx = machine_->metrics()) {
        mx->record(obs::names::kHeartbeatBeatGap, gap);
      }
    }
    if (s.resumed) {
      s.resumed = false;
    } else {
      s.interbeat.add(static_cast<double>(gap));
    }
  }
  s.has_delivered = true;
  s.last_delivery = now;
  s.last_origin = origin;
  if (machine_ != nullptr) {
    if (auto* tr = machine_->tracer()) {
      tr->instant(core, "heartbeat.beat", now);
    }
    if (auto* mx = machine_->metrics()) {
      if (now >= origin) {
        mx->record(obs::names::kHeartbeatDeliveryLatency, now - origin);
      }
    }
  }
}

void HeartbeatBackend::save_states(hwsim::SnapshotWriter& w) const {
  w.u64(states_.size());
  for (const BeatState& s : states_) {
    w.b(s.pending);
    w.b(s.has_delivered);
    w.u64(s.delivered);
    w.u64(s.last_delivery);
    w.u64(s.last_origin);
    w.b(s.resumed);
    w.u64(s.duplicates_suppressed);
    hwsim::save_stats(w, s.interbeat);
  }
}

void HeartbeatBackend::restore_states(hwsim::SnapshotReader& r) {
  const std::uint64_t n = r.u64();
  states_.resize(n);
  for (BeatState& s : states_) {
    s.pending = r.b();
    s.has_delivered = r.b();
    s.delivered = r.u64();
    s.last_delivery = r.u64();
    s.last_origin = r.u64();
    s.resumed = r.b();
    s.duplicates_suppressed = r.u64();
    hwsim::restore_stats(r, s.interbeat);
  }
}

bool HeartbeatBackend::mark_delivery_once(CoreId core, Cycles now,
                                          Cycles origin) {
  IW_ASSERT_MSG(core < states_.size(),
                "heartbeat delivery: core out of range");
  auto& s = states_[core];
  if (s.has_delivered && s.last_origin == origin) {
    ++s.duplicates_suppressed;
    return false;
  }
  mark_delivery(core, now, origin);
  return true;
}

double HeartbeatBackend::delivered_rate_hz(CoreId core,
                                           ClockFreq freq) const {
  const auto& s = state(core);
  if (s.interbeat.count() < 1) return 0.0;
  const double mean_gap_cycles = s.interbeat.mean();
  if (mean_gap_cycles <= 0.0) return 0.0;
  const double gap_sec = freq.cycles_to_ns(
                             static_cast<Cycles>(mean_gap_cycles)) *
                         1e-9;
  return 1.0 / gap_sec;
}

double HeartbeatBackend::jitter_cv(CoreId core) const {
  const auto& s = state(core);
  if (s.interbeat.count() < 2 || s.interbeat.mean() <= 0.0) return 0.0;
  return s.interbeat.stddev() / s.interbeat.mean();
}

// ---------------------------------------------------------------- Nautilus

NautilusHeartbeat::NautilusHeartbeat(hwsim::Machine& machine, int vector)
    : HeartbeatBackend(&machine), vector_(vector) {
  states_.resize(machine.num_cores());
  machine.register_snapshot_participant(this);
  sink_id_ = machine.register_event_sink(this);
}

NautilusHeartbeat::~NautilusHeartbeat() {
  machine_->unregister_event_sink(sink_id_);
  machine_->unregister_snapshot_participant(this);
}

void NautilusHeartbeat::on_core_event(hwsim::Core& core, Cycles,
                                      const hwsim::EventPayload& payload) {
  // Degraded-mode software poll for one fire window on this worker.
  const Cycles fire = payload.w[0];
  core.consume(ft_.poll_cost);
  if (mark_delivery_once(core.id(), core.clock(), fire)) {
    polled_beats_.fetch_add(1, std::memory_order_relaxed);
    if (auto* mx = machine_->metrics()) {
      mx->add(obs::names::kFaultsPolledBeats);
    }
  }
}

void NautilusHeartbeat::save_state(hwsim::SnapshotWriter& w) const {
  save_states(w);
  w.u64(num_workers_);
  w.u64(period_);
  w.u64(last_fire_);
  w.u64(ipi_seen_.size());
  for (Cycles c : ipi_seen_) w.u64(c);
  w.u64(prev_fire_);
  w.b(degraded_);
  w.u64(bad_rounds_);
  w.u64(good_rounds_);
  w.u64(missed_beats_);
  w.u64(polled_beats());
  w.u64(degraded_entries_);
  w.u64(recoveries_);
}

void NautilusHeartbeat::restore_state(hwsim::SnapshotReader& r) {
  restore_states(r);
  num_workers_ = static_cast<unsigned>(r.u64());
  period_ = r.u64();
  last_fire_ = r.u64();
  ipi_seen_.resize(r.u64());
  for (Cycles& c : ipi_seen_) c = r.u64();
  prev_fire_ = r.u64();
  degraded_ = r.b();
  bad_rounds_ = static_cast<unsigned>(r.u64());
  good_rounds_ = static_cast<unsigned>(r.u64());
  missed_beats_ = r.u64();
  polled_beats_.store(r.u64(), std::memory_order_relaxed);
  degraded_entries_ = r.u64();
  recoveries_ = r.u64();
}

void NautilusHeartbeat::set_fault_tolerance(const FaultToleranceConfig& cfg) {
  ft_ = cfg;
  if (ft_.enabled && ft_.ipi_retry && reliable_ == nullptr) {
    reliable_ = std::make_unique<nautilus::ReliableIpi>(*machine_);
  }
}

void NautilusHeartbeat::start(Cycles period, unsigned num_workers) {
  IW_ASSERT(num_workers >= 1 && num_workers <= machine_->num_cores());
  num_workers_ = num_workers;
  period_ = period;
  ipi_seen_.assign(machine_->num_cores(), 0);
  // CPU 0's handler supervises every worker: it reads their BeatState
  // and ipi_seen_, marks them resumed, posts their degraded-mode polls
  // and writes the last_fire_ their handlers read. Declared serial, it
  // runs only in serial deliveries under per-core epochs, where every
  // worker sits at its sequential point; between those deliveries each
  // worker's handlers touch only the worker's own slots.
  machine_->declare_serial_core(0);
  // Install per-core handlers: the IPI (or local fire on CPU 0) simply
  // sets the promotion flag — the entire handler body. Dedupe by fire
  // window, so a fabric-duplicated IPI cannot double-count a beat; the
  // fire id doubles as the supervisor's liveness evidence.
  for (unsigned c = 1; c < num_workers; ++c) {
    machine_->core(c).set_irq_handler(
        vector_, [this](hwsim::Core& core, int) {
          ipi_seen_[core.id()] = last_fire_;
          mark_delivery_once(core.id(), core.clock(), last_fire_);
        });
  }
  // LAPIC timer on CPU 0; its handler broadcasts the IPI (Fig. 2 (1-2)).
  auto& c0 = machine_->core(0);
  timer_ = std::make_unique<hwsim::LapicTimer>(c0, vector_);
  // The timer raises vector_ on CPU 0 directly; the CPU 0 handler both
  // marks its own delivery and broadcasts. Distinguish by a flag: the
  // broadcast targets other workers with the same vector.
  machine_->core(0).set_irq_handler(vector_, [this](hwsim::Core& core,
                                                    int) {
    // The IRQ's origin is the LAPIC fire time (stamped by LapicTimer).
    // A spurious re-fire carries the same origin: it still delivers at
    // most one (deduped) beat, but must not re-broadcast or re-run the
    // supervisor for the same round.
    const Cycles fire = core.current_irq_origin();
    const bool fresh = fire != last_fire_;
    last_fire_ = fire;
    if (ft_.enabled && fresh) supervise(fire);
    mark_delivery_once(core.id(), core.clock(), fire);
    if (!fresh) return;
    // Broadcast to the other worker cores (bounded by num_workers_).
    core.consume(core.costs().ipi_send);
    const Cycles sent = core.clock();
    if (auto* tr = machine_->tracer()) {
      // One ICR write fans out to num_workers_-1 destinations; the count
      // argument keeps the trace reconcilable with per-destination
      // delivery counters.
      tr->instant(core.id(), "ipi.send", sent, vector_, num_workers_ - 1);
    }
    if (ft_.enabled && degraded_) {
      // Degraded mode: probe IPIs still go out (they are the evidence
      // recovery is judged on), but delivery no longer depends on them —
      // each worker gets a software poll at fire + poll_latency, deduped
      // against the probe in mark_delivery_once.
      for (unsigned c = 1; c < num_workers_; ++c) {
        machine_->post_ipi(c, vector_, sent);
        hwsim::EventPayload p;
        p.w[0] = fire;
        machine_->core(c).post_event(sent + ft_.poll_latency, sink_id_, p);
      }
      return;
    }
    for (unsigned c = 1; c < num_workers_; ++c) {
      if (reliable_ != nullptr) {
        reliable_->post(core, c, vector_, sent);
      } else {
        machine_->post_ipi(c, vector_, sent);
      }
    }
  });
  timer_->periodic(period);
}

Cycles NautilusHeartbeat::send_bound(CoreId core) const {
  // CPU 0's own beats come from its own LAPIC timer. It sends the
  // others' only from that timer's handler, which runs at one of its
  // step boundaries, so at or after both its clock and its next event;
  // each IPI then takes the fabric latency, and a degraded-mode poll
  // poll_latency.
  if (core == 0) return kNever;
  const hwsim::Core& cpu0 = machine_->core(0);
  Cycles floor = machine_->costs().ipi_latency;
  if (ft_.enabled) floor = std::min(floor, ft_.poll_latency);
  return saturating_add(std::max(cpu0.clock(), cpu0.earliest_event()),
                        floor);
}

void NautilusHeartbeat::supervise(Cycles fire) {
  // Score the round that just ended. prev_fire_ == 0 means there is no
  // previous round yet (the first LAPIC fire is always at t > 0).
  if (prev_fire_ != 0) {
    unsigned missing = 0;
    const auto threshold =
        ft_.gap_factor * static_cast<double>(period_);
    for (unsigned c = 1; c < num_workers_; ++c) {
      const auto& s = states_[c];
      const Cycles gap = s.has_delivered ? fire - s.last_delivery : fire;
      if (static_cast<double>(gap) > threshold) {
        ++missed_beats_;
        if (auto* mx = machine_->metrics()) {
          mx->add(obs::names::kFaultsMissedBeats);
        }
        if (auto* tr = machine_->tracer()) {
          tr->instant(c, "heartbeat.missed", fire);
        }
      }
      if (ipi_seen_[c] != prev_fire_) ++missing;
    }
    if (!degraded_) {
      bad_rounds_ = missing > 0 ? bad_rounds_ + 1 : 0;
      if (bad_rounds_ >= ft_.degrade_after) enter_degraded(fire);
    } else {
      good_rounds_ = missing == 0 ? good_rounds_ + 1 : 0;
      if (good_rounds_ >= ft_.recover_after) leave_degraded(fire);
    }
  }
  prev_fire_ = fire;
}

void NautilusHeartbeat::enter_degraded(Cycles fire) {
  degraded_ = true;
  bad_rounds_ = 0;
  good_rounds_ = 0;
  ++degraded_entries_;
  mark_resumed();
  if (auto* mx = machine_->metrics()) {
    mx->add(obs::names::kFaultsDegradedEntries);
  }
  if (auto* tr = machine_->tracer()) {
    tr->instant(0, "heartbeat.degrade", fire);
  }
}

void NautilusHeartbeat::leave_degraded(Cycles fire) {
  degraded_ = false;
  bad_rounds_ = 0;
  good_rounds_ = 0;
  ++recoveries_;
  mark_resumed();
  if (auto* mx = machine_->metrics()) {
    mx->add(obs::names::kFaultsRecoveries);
  }
  if (auto* tr = machine_->tracer()) {
    tr->instant(0, "heartbeat.recover", fire);
  }
}

void NautilusHeartbeat::mark_resumed() {
  for (unsigned c = 1; c < num_workers_; ++c) states_[c].resumed = true;
}

void NautilusHeartbeat::stop() {
  if (timer_) timer_->stop();
}

// ------------------------------------------------------------------- Linux

LinuxHeartbeat::LinuxHeartbeat(linuxmodel::LinuxStack& stack,
                               LinuxHeartbeatMode mode)
    : HeartbeatBackend(&stack.machine()),
      stack_(stack),
      mode_(mode),
      signals_(stack) {
  fire_to_poll_metric_ = obs::names::kTimerFireToPollConsumed;
  states_.resize(stack.machine().num_cores());
  machine_->register_snapshot_participant(this);
  sink_id_ = machine_->register_event_sink(this);
  beat_action_ = signals_.register_action(
      [this](hwsim::Core& target, std::uint64_t fired) {
        mark_delivery(target.id(), target.clock(), fired);
      });
}

LinuxHeartbeat::~LinuxHeartbeat() {
  machine_->unregister_event_sink(sink_id_);
  machine_->unregister_snapshot_participant(this);
}

void LinuxHeartbeat::on_core_event(hwsim::Core& core, Cycles,
                                   const hwsim::EventPayload& payload) {
  // Per-thread-timer signal delivery: the queued signal reaches the
  // worker after the drawn latency.
  const Cycles fired = payload.w[0];
  core.consume(stack_.costs().signal_frame_setup);
  mark_delivery(core.id(), core.clock(), fired);
  core.consume(stack_.costs().sigreturn);
}

void LinuxHeartbeat::save_state(hwsim::SnapshotWriter& w) const {
  save_states(w);
}

void LinuxHeartbeat::restore_state(hwsim::SnapshotReader& r) {
  restore_states(r);
}

void LinuxHeartbeat::start(Cycles period, unsigned num_workers) {
  IW_ASSERT(num_workers >= 1 &&
            num_workers <= stack_.machine().num_cores());
  if (mode_ == LinuxHeartbeatMode::kPerThreadTimer) {
    // One POSIX timer per worker CPU; each expiry queues a signal to the
    // local thread.
    for (unsigned c = 0; c < num_workers; ++c) {
      auto t = std::make_unique<linuxmodel::PosixTimer>(stack_, c);
      t->arm_periodic(period, [this, c](hwsim::Core& core, Cycles) {
        // Kernel-side queueing happened in the timer; deliver the signal
        // to the thread on this CPU.
        const Cycles fired = core.clock();
        core.consume(stack_.costs().signal_kernel_send);
        const Cycles latency = signals_.draw_latency();
        hwsim::EventPayload p;
        p.w[0] = fired;
        stack_.machine().core(c).post_event(core.clock() + latency,
                                            sink_id_, p);
      });
      timers_.push_back(std::move(t));
    }
    return;
  }
  // Relay mode: a single timer on CPU 0; the master's handler tgkills
  // every other worker, serialized on CPU 0 (Fig. 2 right: "signals").
  auto t = std::make_unique<linuxmodel::PosixTimer>(stack_, 0);
  t->arm_periodic(period, [this, num_workers](hwsim::Core& core, Cycles) {
    const Cycles fired = core.clock();
    // Master receives its own signal first.
    core.consume(stack_.costs().signal_frame_setup);
    mark_delivery(0, core.clock(), fired);
    for (unsigned c = 1; c < num_workers; ++c) {
      signals_.send(core, c, beat_action_, fired);
    }
    core.consume(stack_.costs().sigreturn);
  });
  timers_.push_back(std::move(t));
}

Cycles LinuxHeartbeat::send_bound(CoreId core) const {
  // A per-thread timer posts only into its own core. In relay mode the
  // master's timer on CPU 0 signals the others from its handler, at one
  // of CPU 0's step boundaries; SignalPath latencies have no floor.
  if (mode_ == LinuxHeartbeatMode::kPerThreadTimer || core == 0) {
    return kNever;
  }
  const hwsim::Core& cpu0 = stack_.machine().core(0);
  return std::max(cpu0.clock(), cpu0.earliest_event());
}

void LinuxHeartbeat::stop() {
  for (auto& t : timers_) t->stop();
}

}  // namespace iw::heartbeat
