#include "hwsim/core.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/assert.hpp"
#include "hwsim/machine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace iw::hwsim {

namespace {

[[noreturn]] void fold_guard_failed(CoreId core, Cycles due,
                                    Cycles last_start) {
  std::fprintf(stderr,
               "interweave: folded-step guard: core %u delivered an event "
               "due at cycle %llu after a step folded the step starting at "
               "cycle %llu; the fold's bound missed the event's sender\n",
               static_cast<unsigned>(core),
               static_cast<unsigned long long>(due),
               static_cast<unsigned long long>(last_start));
  std::abort();
}

}  // namespace

Core::Core(Machine& machine, CoreId id)
    : machine_(machine), machine_now_(machine.now_cell()), id_(id) {}

const CostModel& Core::costs() const { return machine_.costs(); }

void Core::set_irq_handler(int vector, IrqHandler handler) {
  IW_ASSERT_MSG(vector >= 0 && vector < kNumIrqVectors,
                "set_irq_handler: interrupt vector outside [0, 256)");
  const auto it =
      std::find_if(vectors_.begin(), vectors_.end(),
                   [vector](const InstalledVector& v) {
                     return v.vector == vector;
                   });
  if (it != vectors_.end()) vectors_.erase(it);
  if (handler) {
    vectors_.push_back(InstalledVector{
        vector, std::make_shared<const IrqHandler>(std::move(handler))});
  }
}

std::shared_ptr<const IrqHandler> Core::irq_handler(int vector) const {
  for (const InstalledVector& v : vectors_) {
    if (v.vector == vector) return v.handler;
  }
  return nullptr;
}

void Core::set_interrupts_enabled(bool enabled) {
  irq_enabled_ = enabled;
  mark_schedule_dirty();
}

void Core::post_irq(Cycles t, int vector, Cycles origin, bool ipi) {
  IW_ASSERT_MSG(vector >= 0 && vector < kNumIrqVectors,
                "post_irq: interrupt vector outside [0, 256)");
  IW_ASSERT_MSG(machine_.shard_guard_ok(id_),
                "cross-shard post_irq during a per-core parallel drain "
                "(route cross-core IRQs through the IPI fabric)");
  IrqEvent ev;
  ev.time = t;
  ev.seq = machine_.next_seq();
  ev.vector = vector;
  ev.origin = origin == kNever ? t : origin;
  ev.ipi = ipi;
  // Spurious-fire injection: a non-IPI interrupt (LAPIC fire, device
  // vector) may grow a ghost copy that lands slightly later. The copy is
  // enqueued directly — it must not re-enter the fault draw, or a rate
  // of 1.0 would recurse forever. IPIs get their faults in post_ipi.
  auto& faults = machine_.fault_injector();
  if (!ipi && faults.enabled()) {
    if (const Cycles lag = faults.spurious_irq_lag(machine_.exec_source(), t);
        lag != 0) {
      IrqEvent ghost = ev;
      ghost.time = t + lag;
      ghost.seq = machine_.next_seq();
      irq_inbox_.push(ghost);
      if (auto* tr = machine_.tracer()) {
        tr->instant(id_, "fault.spurious_irq", t + lag, vector);
      }
      if (auto* mx = machine_.metrics()) {
        mx->add(obs::names::kFaultsSpuriousIrqs);
      }
    }
  }
  irq_inbox_.push(ev);
  mark_schedule_dirty();
}

void Core::post_event(Cycles t, SinkId sink, const EventPayload& payload) {
  IW_ASSERT_MSG(machine_.shard_guard_ok(id_),
                "cross-shard post_event during a per-core parallel drain");
  // Validate at post time, not dispatch time: a bad id fails where the
  // posting code is on the stack.
  IW_ASSERT_MSG(machine_.event_sink(sink) != nullptr,
                "post_event: sink id not registered");
  CoreEvent ev;
  ev.time = t;
  ev.seq = machine_.next_seq();
  ev.ideal = t;
  ev.sink = sink;
  ev.payload = payload;
  callback_inbox_.push(std::move(ev));
  mark_schedule_dirty();
}

void Core::post_timer(Cycles t, TimerSink* sink, std::uint64_t gen) {
  IW_ASSERT(sink != nullptr);
  IW_ASSERT_MSG(machine_.shard_guard_ok(id_),
                "cross-shard post_timer during a per-core parallel drain");
  CoreEvent ev;
  ev.seq = machine_.next_seq();
  ev.timer = sink;
  ev.gen = gen;
  // Timer perturbation: drift shifts the fire's *ideal* time (which the
  // sink re-arms from, so it accumulates into cadence slip); jitter only
  // delays when the core recognizes the fire, leaving the ideal — and
  // hence the cadence — untouched.
  ev.ideal = t;
  ev.time = t;
  auto& faults = machine_.fault_injector();
  if (faults.enabled()) {
    const FaultInjector::TimerFate fate =
        faults.timer_fate(machine_.exec_source(), t);
    ev.ideal = t + fate.drift;
    ev.time = ev.ideal + fate.jitter;
    if ((fate.drift != 0 || fate.jitter != 0)) {
      if (auto* tr = machine_.tracer()) {
        tr->instant(id_, "fault.timer_perturb", ev.time);
      }
    }
  }
  callback_inbox_.push(std::move(ev));
  mark_schedule_dirty();
}

void Core::notify_machine_dirty() { machine_.frontier_enqueue_dirty(id_); }

unsigned Core::deliver_due_events() {
  unsigned delivered = 0;
  for (;;) {
    const Cycles cb_t = callback_inbox_.peek_time();
    const Cycles irq_t = irq_enabled_ ? irq_inbox_.peek_time() : kNever;
    const Cycles t = std::min(cb_t, irq_t);
    if (t > clock_) break;
    if (t < fold_guard_) fold_guard_failed(id_, t, fold_guard_ - 1);
    if (cb_t <= irq_t) {
      CoreEvent ev = callback_inbox_.pop();
      if (ev.timer != nullptr) {
        // The sink sees the ideal fire time (== ev.time unless a fault
        // plan jittered recognition), keeping absolute cadences exact.
        ev.timer->on_timer(*this, ev.ideal, ev.gen);
      } else {
        machine_.event_sink(ev.sink)->on_core_event(*this, ev.ideal,
                                                    ev.payload);
      }
      ++delivered;
      continue;
    }
    const IrqEvent ev = irq_inbox_.pop();
    const CostModel& cm = costs();
    const Cycles start = clock_;
    consume(cm.interrupt_dispatch);
    const Cycles entry = clock_;
    cur_irq_origin_ = ev.origin;
    if (auto* tr = machine_.tracer()) {
      tr->instant(id_, "irq.handler_entry", entry, ev.vector);
    }
    if (auto* mx = machine_.metrics()) {
      if (ev.ipi && entry >= ev.origin) {
        mx->record(obs::names::kIpiSendToHandlerEntry, entry - ev.origin);
      }
    }
    if (const auto handler = irq_handler(ev.vector)) {
      (*handler)(*this, ev.vector);
    }
    consume(cm.interrupt_return);
    if (auto* tr = machine_.tracer()) {
      tr->span(id_, ev.ipi ? "ipi.dispatch" : "irq.dispatch", start, clock_,
               ev.vector);
    }
    irq_overhead_ += clock_ - start;
    ++irqs_delivered_;
    ++delivered;
  }
  if (delivered != 0) mark_schedule_dirty();
  return delivered;
}

void Core::commit_fast_forward(const FastForwardPlan& plan) {
  IW_ASSERT(driver_ != nullptr);
  IW_ASSERT_MSG(plan.steps >= 1 && plan.end_clock > clock_,
                "fast-forward plan must replay at least one step");
  // steps_ counts the replayed steps so per-core accounting (and hence
  // dump_state, digests, and the advance watchdog upstream) is
  // bit-identical to having stepped the window.
  steps_ += plan.steps;
  // consume() is the charge path: Machine::charge delegates here, so
  // the skip moves the clock exactly as charged work does — the now()
  // cache and the dirty-marking invalidation both stay exact.
  consume(plan.end_clock - clock_);
  driver_->apply_fast_forward(*this, plan);
  // The driver may have gone idle (or changed its runnable answer) at
  // the committed state; consume() already invalidated, but be explicit
  // in case a zero-delta future variant skips it.
  mark_schedule_dirty();
}

Core::FoldLimit Core::fold_limit() const {
  const Machine& m = machine_;
  if (m.faults_.enabled() || m.per_core_shards()) return {};
  // The sequential schedulers pick in nondecreasing time, so a step
  // that starts before all of these runs before anything can reach this
  // core. max_advances counts folded steps too; like a fast-forward
  // window, a fold stops short of crossing it.
  FoldLimit lim;
  lim.before = std::min(
      {earliest_event(), m.machine_queue_.peek_time(), m.fold_want_});
  lim.steps = std::numeric_limits<std::uint64_t>::max();
  if (m.cfg_.max_advances != 0) {
    lim.steps = m.cfg_.max_advances > m.advances_
                    ? m.cfg_.max_advances - m.advances_
                    : 0;
  }
  return lim;
}

void Core::record_fold(std::uint64_t steps, Cycles last_start) {
  IW_ASSERT_MSG(steps >= 1, "record_fold needs at least one folded step");
  steps_ += steps;
  folded_ += steps;
  machine_.advances_ += steps;
  fold_guard_ = last_start + 1;
}

Cycles Core::advance() {
  ++steps_;
  if (!runnable()) {
    // Idle: jump to the next deliverable event (HLT wake-up).
    const Cycles t = earliest_deliverable();
    IW_ASSERT_MSG(t != kNever, "idle core advanced with no pending events");
    advance_to(t);
    deliver_due_events();
    return compute_next_action_time();
  }
  // Interrupts are taken at the step boundary. Delivery is the only
  // thing that can change runnable() before the step, so with nothing
  // due the step needs neither the delivery pass nor a second query.
  if (earliest_deliverable() <= clock_) {
    deliver_due_events();
    if (!runnable()) return compute_next_action_time();
  }
  // Transient stall injection: the fault plan may steal cycles from a
  // step (SMI, thermal throttle, a hypervisor preemption) — the core
  // simply runs late; interrupts queue up behind the stall.
  auto& faults = machine_.fault_injector();
  if (faults.enabled()) {
    // Stalls always strike the advancing core, so the draw comes from
    // its own stream regardless of which scheduler is running.
    if (const Cycles stolen = faults.stall_cycles(id_ + 1, clock_);
        stolen != 0) {
      const Cycles from = clock_;
      consume(stolen);
      if (auto* tr = machine_.tracer()) {
        tr->span(id_, "fault.stall", from, clock_);
      }
      if (auto* mx = machine_.metrics()) {
        mx->add(obs::names::kFaultsStalls);
      }
    }
  }
  const Cycles before = clock_;
  driver_->step(*this);
  IW_ASSERT_MSG(clock_ > before, "driver step must consume cycles");
  return compute_next_action_time();
}

}  // namespace iw::hwsim
