#include "nautilus/kernel.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "nautilus/event.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace iw::nautilus {

namespace {
// EDF min-heap comparator: top = earliest deadline.
struct DeadlineLater {
  bool operator()(const Thread* a, const Thread* b) const {
    return a->deadline() > b->deadline() ||
           (a->deadline() == b->deadline() && a->id() > b->id());
  }
};
}  // namespace

Kernel::Kernel(hwsim::Machine& machine, KernelConfig cfg)
    : machine_(machine), cfg_(cfg), cpus_(machine.num_cores()) {
  // Remote spawns, wakes and submit_task write other cores' run and task
  // queues directly.
  machine_.require_sequential("nautilus::Kernel");
  sink_id_ = machine_.register_event_sink(this);
}

Kernel::~Kernel() { machine_.unregister_event_sink(sink_id_); }

void Kernel::attach() {
  for (unsigned i = 0; i < machine_.num_cores(); ++i) {
    auto& core = machine_.core(i);
    core.set_driver(this);
    core.set_irq_handler(cfg_.timer_vector,
                         [this](hwsim::Core& c, int) {
                           c.consume(cfg_.tick_cost);
                           cpus_[c.id()].need_resched = true;
                         });
    if (cfg_.tick_period != 0) {
      cpus_[i].tick =
          std::make_unique<hwsim::LapicTimer>(core, cfg_.timer_vector);
      // Armed lazily by update_tick() while the core is contended.
    }
  }
}

Thread* Kernel::spawn(ThreadConfig cfg, hwsim::Core* creator) {
  IW_ASSERT(cfg.body != nullptr);
  IW_ASSERT(cfg.bound_core < machine_.num_cores());
  auto t = std::make_unique<Thread>(next_tid_++, std::move(cfg));
  Thread* raw = t.get();
  threads_.push_back(std::move(t));
  ++stats_.threads_created;
  ++live_threads_;

  if (cfg_.numa != nullptr) {
    // Thread stack + context from the zone local to the bound CPU.
    auto addr =
        cfg_.numa->alloc_local(raw->bound_core(), cfg_.thread_state_bytes);
    IW_ASSERT_MSG(addr.has_value(), "thread-state allocation failed");
    raw->state_addr_ = *addr;
  }

  Cycles admit_time = 0;
  if (creator != nullptr) {
    creator->consume(cfg_.thread_create_cost);
    admit_time = creator->clock();
  }
  if (raw->realtime()) {
    raw->deadline_ = admit_time + raw->cfg_.rt_relative_deadline;
  }

  // Make the thread runnable on its bound core. From a foreign core this
  // must ride a core event so the target observes it at a causal time.
  if (creator == nullptr || creator->id() == raw->bound_core()) {
    enqueue_ready(cpus_[raw->bound_core()], raw);
  } else {
    post_remote_ready(*creator, raw);
  }
  return raw;
}

void Kernel::wake(Thread* t, hwsim::Core& from) {
  IW_ASSERT(t->state_ == ThreadState::kBlocked ||
            t->state_ == ThreadState::kReady);
  from.consume(cfg_.wake_cost);
  ++stats_.wakes;
  if (from.id() == t->bound_core()) {
    enqueue_ready(cpus_[t->bound_core()], t);
    return;
  }
  post_remote_ready(from, t);
}

void Kernel::post_remote_ready(hwsim::Core& from, Thread* t) {
  const std::uint64_t index = t->id() - 1;
  IW_ASSERT(index < threads_.size() && threads_[index].get() == t);
  hwsim::EventPayload p;
  p.w[0] = index;
  machine_.core(t->bound_core())
      .post_event(from.clock() + machine_.costs().ipi_latency, sink_id_, p);
}

void Kernel::on_core_event(hwsim::Core& core, Cycles,
                           const hwsim::EventPayload& payload) {
  IW_ASSERT_MSG(payload.w[0] < threads_.size(),
                "nautilus ready event names no spawned thread");
  Thread* t = threads_[payload.w[0]].get();
  IW_ASSERT(t->bound_core() == core.id());
  enqueue_ready(cpus_[core.id()], t);
}

void Kernel::submit_task(CoreId core, Task task) {
  IW_ASSERT(core < cpus_.size());
  if (task.enqueued_at == kNever) {
    task.enqueued_at = machine_.core(core).clock();
  }
  cpus_[core].tasks.push_back(std::move(task));
  // Runnable-state transition invisible to hwsim (direct queue push,
  // possibly from another core's timeline): re-index the target core.
  machine_.core(core).mark_schedule_dirty();
}

void Kernel::run_task_inline_or_queue(hwsim::Core& core, Task task) {
  if (task.size_hint != 0 && task.size_hint <= cfg_.small_task_threshold) {
    core.consume(cfg_.task_dispatch_cost);
    const Cycles used = task.fn();
    core.consume(used);
    ++stats_.tasks.executed;
    ++stats_.tasks.executed_inline;
    stats_.tasks.total_cycles += used;
    stats_.tasks.dispatch_overhead += cfg_.task_dispatch_cost;
    return;
  }
  submit_task(core.id(), std::move(task));
}

bool Kernel::quiescent() const {
  if (live_threads_ != 0) return false;
  for (const auto& cpu : cpus_) {
    if (!cpu.tasks.empty()) return false;
  }
  return true;
}

void Kernel::enqueue_ready(Cpu& cpu, Thread* t) {
  t->state_ = ThreadState::kReady;
  if (t->realtime()) {
    cpu.edf_ready.push_back(t);
    std::push_heap(cpu.edf_ready.begin(), cpu.edf_ready.end(),
                   DeadlineLater{});
  } else {
    cpu.rr_ready.push_back(t);
  }
  cpu.need_resched = true;
  update_tick(t->bound_core());
  // The bound core may have been idle; tell the frontier index it is
  // runnable again (hwsim cannot see run-queue pushes).
  machine_.core(t->bound_core()).mark_schedule_dirty();
}

void Kernel::update_tick(CoreId id) {
  if (cfg_.tick_period == 0) return;
  Cpu& cpu = cpus_[id];
  if (cpu.tick == nullptr) return;  // attach() not called yet
  const std::size_t load = cpu.rr_ready.size() + cpu.edf_ready.size() +
                           (cpu.current != nullptr ? 1 : 0);
  const std::size_t arm_threshold = cfg_.tick_always_on ? 1 : 2;
  if (load >= arm_threshold) {
    if (!cpu.tick->armed()) cpu.tick->periodic(cfg_.tick_period);
  } else if (cpu.tick->armed()) {
    cpu.tick->stop();
  }
}

Thread* Kernel::pick_next(hwsim::Core& core, Cpu& cpu) {
  if (!cpu.edf_ready.empty()) {
    core.consume(cfg_.sched_pick_rt_cost);
    stats_.switch_overhead += cfg_.sched_pick_rt_cost;
    std::pop_heap(cpu.edf_ready.begin(), cpu.edf_ready.end(),
                  DeadlineLater{});
    Thread* t = cpu.edf_ready.back();
    cpu.edf_ready.pop_back();
    return t;
  }
  if (!cpu.rr_ready.empty()) {
    core.consume(cfg_.sched_pick_cost);
    stats_.switch_overhead += cfg_.sched_pick_cost;
    Thread* t = cpu.rr_ready.front();
    cpu.rr_ready.pop_front();
    return t;
  }
  return nullptr;
}

void Kernel::context_switch(hwsim::Core& core, Cpu& cpu, Thread* next) {
  const auto& cm = machine_.costs();
  const Cycles start = core.clock();
  Thread* prev = cpu.current;
  if (prev != nullptr) {
    core.consume(cm.gpr_save);
    if (prev->uses_fp()) core.consume(cm.fp_save);
  }
  if (next != nullptr) {
    core.consume(cm.gpr_restore);
    if (next->uses_fp()) core.consume(cm.fp_restore);
    next->state_ = ThreadState::kRunning;
    next->slice_end_ = core.clock() + cfg_.rr_slice;
    ++next->switches_in_;
  }
  // The crossing/mitigation cost rides the switch-IN half (the
  // return-to-user edge), so a full A->B transition pays it exactly
  // once and an idle->B wakeup pays it too — wake-to-run latency on
  // the commodity stack includes the crossing.
  if (next != nullptr) core.consume(cfg_.switch_extra);
  cpu.current = next;
  cpu.need_resched = false;
  // Count descheduling events so one logical A->B transition counts once
  // even though it is performed as two half-switches.
  if (prev != nullptr) ++stats_.context_switches;
  stats_.switch_overhead += core.clock() - start;
  if (auto* tr = machine_.tracer()) {
    tr->span(core.id(), "nk.ctx_switch", start, core.clock());
  }
  if (auto* mx = machine_.metrics()) {
    mx->record(obs::names::kCtxSwitch, core.clock() - start);
  }
}

void Kernel::run_one_task(hwsim::Core& core, Cpu& cpu) {
  Task task = std::move(cpu.tasks.front());
  cpu.tasks.pop_front();
  const Cycles start = core.clock();
  core.consume(cfg_.task_dispatch_cost);
  const Cycles used = task.fn();
  core.consume(used);
  ++stats_.tasks.executed;
  stats_.tasks.total_cycles += used;
  stats_.tasks.dispatch_overhead += cfg_.task_dispatch_cost;
  if (auto* tr = machine_.tracer()) {
    tr->span(core.id(), "nk.task", start, core.clock());
  }
  if (auto* mx = machine_.metrics()) {
    if (task.enqueued_at != kNever && start >= task.enqueued_at) {
      mx->record(obs::names::kTaskQueueWait, start - task.enqueued_at);
    }
  }
}

bool Kernel::runnable(hwsim::Core& core) {
  const Cpu& cpu = cpus_[core.id()];
  return cpu.current != nullptr || !cpu.rr_ready.empty() ||
         !cpu.edf_ready.empty() || !cpu.tasks.empty();
}

void Kernel::step(hwsim::Core& core) {
  Cpu& cpu = cpus_[core.id()];

  if (cpu.current == nullptr) {
    Thread* next = pick_next(core, cpu);
    if (next != nullptr) {
      context_switch(core, cpu, next);
    } else if (!cpu.tasks.empty()) {
      run_one_task(core, cpu);
      return;
    } else {
      // Raced with a wake that was consumed elsewhere; burn a cycle.
      core.consume(1);
      return;
    }
  }

  Thread* t = cpu.current;
  ThreadContext ctx{*t, core, *this};
  const StepResult r = t->cfg_.body(ctx);
  core.consume(std::max<Cycles>(r.cycles, 1));
  t->run_cycles_ += r.cycles;
  ++t->steps_;

  switch (r.next) {
    case StepResult::Next::kDone:
      t->state_ = ThreadState::kFinished;
      IW_ASSERT(live_threads_ > 0);
      --live_threads_;
      if (cfg_.numa != nullptr && t->state_addr_ != kNever) {
        cfg_.numa->free(t->state_addr_);
        t->state_addr_ = kNever;
      }
      context_switch(core, cpu, nullptr);
      update_tick(core.id());
      break;
    case StepResult::Next::kBlock:
      IW_ASSERT_MSG(r.wait != nullptr, "kBlock requires a wait queue");
      t->state_ = ThreadState::kBlocked;
      r.wait->enqueue(t);
      context_switch(core, cpu, nullptr);
      update_tick(core.id());
      break;
    case StepResult::Next::kYield:
      enqueue_ready(cpu, t);
      context_switch(core, cpu, nullptr);
      break;
    case StepResult::Next::kContinue: {
      const bool slice_expired =
          cfg_.tick_period != 0 && core.clock() >= t->slice_end_;
      const bool contested =
          !cpu.rr_ready.empty() || !cpu.edf_ready.empty();
      if ((cpu.need_resched || slice_expired) && contested) {
        enqueue_ready(cpu, t);
        context_switch(core, cpu, nullptr);
      } else {
        cpu.need_resched = false;  // nothing better to run
      }
      break;
    }
  }
}

}  // namespace iw::nautilus
