#include "hwsim/machine.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "hwsim/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace iw::hwsim {

namespace {
/// Fast-forward trigger backoff, in advances between attempts: a failed
/// quiet proof costs an O(cores) scan, so a busy region must not pay it
/// every iteration. Doubles from kFfMinBackoff to kFfMaxBackoff on
/// failure, resets on success. Heuristic only — skips are semantically
/// no-ops, so attempt placement can never change results.
constexpr std::uint64_t kFfMinBackoff = 8;
constexpr std::uint64_t kFfMaxBackoff = 512;

/// Smallest profitable fast-forward window, measured past the earliest
/// runnable core's clock: smaller proven windows step normally (the
/// proof scan costs O(cores); skipping a handful of steps cannot repay
/// it).
constexpr Cycles kFfMinWindow = 256;

/// Concurrent events every queue (the machine queue and both inboxes of
/// every core: heap, payload slab, and free list) is pre-sized for at
/// construction, so warm-up runs stop paying std::vector growth on the
/// hot path. The heartbeat workloads hold a handful of in-flight events
/// per core; grow_allocs() counts any growth past this.
constexpr std::size_t kQueueReserve = 16;
}  // namespace

Machine::Machine(MachineConfig cfg) : cfg_(cfg), rng_(cfg.seed) {
  IW_ASSERT(cfg.num_cores >= 1);
  // Source ids pack into the low 16 bits of event sequence numbers.
  IW_ASSERT_MSG(cfg.num_cores < 0xFFFF, "too many cores for source ids");
  faults_.configure(cfg.faults, cfg.seed, cfg.fault_seed,
                    /*num_streams=*/cfg.num_cores + 1);
  seq_by_source_.resize(cfg.num_cores + 1);
  ipis_by_source_.resize(cfg.num_cores + 1);
  cores_.reserve(cfg.num_cores);
  for (unsigned i = 0; i < cfg.num_cores; ++i) {
    cores_.push_back(std::make_unique<Core>(*this, i));
  }
  if (per_core_shards()) {
    // Concurrent shard drains must not contend on the global now
    // cache: point each core's clock publication at its own clock_ (so
    // it never fires) and let now() fold the core clocks. The
    // scheduling caches stay in each core's private padded cell for the
    // same reason.
    for (auto& c : cores_) c->machine_now_ = &c->clock_;
  } else {
    // Sequential schedulers: repoint every core's scheduling-cache
    // slots into dense SoA arrays, so the frontier scans and the
    // fast-forward quiet proof read contiguous memory (one cache line
    // covers 8 cores' times) instead of one padded cell per core.
    sched_time_.assign(cfg.num_cores, 0);
    sched_dirty_.assign(cfg.num_cores, 1);
    for (unsigned i = 0; i < cfg.num_cores; ++i) {
      cores_[i]->sched_time_ = &sched_time_[i];
      cores_[i]->sched_dirty_ = &sched_dirty_[i];
    }
  }
  if (cfg_.scheduler == SchedulerKind::kFrontier) {
    // All-ones everywhere is a consistent tree (every match of two
    // kNoEntry words is kNoEntry); padding leaves keep it forever.
    frontier_tree_.assign(2 * std::bit_ceil(std::size_t{cfg.num_cores}),
                          kNoEntry);
  }
  machine_queue_.reserve(kQueueReserve);
  for (auto& c : cores_) c->reserve_inboxes(kQueueReserve);
  // Cores are born dirty but could not register while cores_ was still
  // being filled; seed the frontier index now.
  refresh_frontier();
}

Machine::~Machine() = default;

void Machine::refuse_parallel_epoch(const char* layer) {
  char msg[320];
  std::snprintf(msg, sizeof msg,
                "%s shares state across cores outside the IPI fabric and "
                "cannot run on kParallelEpoch's per-core shards; use "
                "kFrontier or kLinearScan",
                layer);
  detail::assert_fail("scheduler != kParallelEpoch", __FILE__, __LINE__, msg);
}

unsigned Machine::parallel_pool_threads() const {
  return parallel_ == nullptr ? 0 : parallel_->threads();
}

std::uint64_t Machine::parallel_steals() const {
  return parallel_ == nullptr ? 0 : parallel_->steals();
}

ParallelTotals Machine::parallel_totals() const {
  return parallel_ == nullptr ? ParallelTotals{} : parallel_->totals();
}

std::uint64_t Machine::folded_steps() const {
  std::uint64_t n = 0;
  for (const auto& c : cores_) n += c->folded_;
  return n;
}

std::uint64_t Machine::hot_path_allocs() const {
  std::uint64_t n = machine_queue_.grow_allocs();
  for (const auto& c : cores_) n += c->inbox_grow_allocs();
  if (parallel_ != nullptr) n += parallel_->scratch_grow_allocs();
  return n;
}

void Machine::set_tracer(obs::TraceRecorder* t) {
  tracer_ = t;
  // Pre-size the per-core buffers: shard-local recording during a
  // per-core epoch drain must never grow the outer vector.
  if (t != nullptr) t->ensure_cores(num_cores());
}

void Machine::enqueue_ipi(CoreId to, const IrqEvent& ev) {
  const ExecCtx& ctx = exec_ctx();
  if (ctx.machine == this && ctx.outbox != nullptr) {
    // Per-core epoch drain: the delivery is final (fate and sequence
    // number drawn above, in the sender's context); it lands in the
    // target inbox at the barrier. The send-horizon bound guarantees
    // its arrival time is at or past the epoch horizon, so deferring
    // the push cannot reorder it relative to anything the target
    // processes this epoch; a delivery that breaks the bound aborts
    // in stage(). Staging order across senders is irrelevant: the
    // target inbox pop order is a pure function of the (time, seq)
    // multiset (see parallel.hpp on IpiOutbox determinism).
    ctx.outbox->stage(ctx.source - 1, to, ev);
    return;
  }
  cores_[to]->enqueue_irq(ev);
}

IpiStatus Machine::post_ipi(CoreId to, int vector, Cycles sent) {
  IW_ASSERT_MSG(to < cores_.size(), "post_ipi: target core out of range");
  IW_ASSERT_MSG(vector >= 0 && vector < kNumIrqVectors,
                "post_ipi: interrupt vector outside [0, 256)");
  const unsigned src = exec_source();
  ++ipis_by_source_[src].v;  // attempts, so fault-free totals unchanged
  // Fault instants are recorded against the acting core when one is
  // executing (its own trace buffer — race-free under per-core drains),
  // else against the target (machine-context posts run with shards
  // parked).
  const CoreId fcore = src == 0 ? to : static_cast<CoreId>(src - 1);
  Cycles latency = cfg_.costs.ipi_latency;
  IpiStatus status = IpiStatus::kQueued;
  IrqEvent ev;
  ev.vector = vector;
  ev.origin = sent;
  ev.ipi = true;
  if (faults_.enabled()) {
    const FaultInjector::IpiFate fate = faults_.ipi_fate(src, vector, sent);
    if (fate.drop) {
      if (auto* tr = tracer()) {
        tr->instant(fcore, "fault.ipi_drop", sent, vector);
      }
      if (auto* mx = metrics()) mx->add(obs::names::kFaultsIpiDropped);
      return IpiStatus::kDropped;
    }
    if (fate.extra_delay != 0) {
      latency += fate.extra_delay;
      status = IpiStatus::kQueuedDelayed;
      if (auto* tr = tracer()) {
        tr->instant(fcore, "fault.ipi_delay", sent, vector);
      }
      if (auto* mx = metrics()) mx->add(obs::names::kFaultsIpiDelayed);
    }
    if (fate.duplicate) {
      // The duplicate's sequence number is drawn before the original's
      // (matching delivery construction order under every scheduler).
      IrqEvent dup = ev;
      dup.time = sent + latency + fate.dup_lag;
      dup.seq = next_seq();
      enqueue_ipi(to, dup);
      if (auto* tr = tracer()) {
        tr->instant(fcore, "fault.ipi_dup", sent, vector);
      }
      if (auto* mx = metrics()) mx->add(obs::names::kFaultsIpiDuplicated);
    }
  }
  ev.time = sent + latency;
  ev.seq = next_seq();
  enqueue_ipi(to, ev);
  return status;
}

IpiStatus Machine::send_ipi(Core& from, CoreId to, int vector) {
  IW_ASSERT(to < cores_.size());
  from.consume(cfg_.costs.ipi_send);
  const Cycles sent = from.clock();
  if (auto* tr = tracer()) tr->instant(from.id(), "ipi.send", sent, vector);
  return post_ipi(to, vector, sent);
}

unsigned Machine::broadcast_ipi(Core& from, int vector) {
  // A single ICR write with destination shorthand "all excluding self":
  // one send cost, fan-out in the fabric. The single trace instant
  // carries the fan-out count so trace sums reconcile with total_ipis().
  from.consume(cfg_.costs.ipi_send);
  const Cycles sent = from.clock();
  const auto fanout = static_cast<std::uint32_t>(cores_.size() - 1);
  if (auto* tr = tracer()) {
    tr->instant(from.id(), "ipi.send", sent, vector, fanout);
  }
  unsigned queued = 0;
  for (auto& c : cores_) {
    if (c->id() == from.id()) continue;
    if (post_ipi(c->id(), vector, sent) != IpiStatus::kDropped) ++queued;
  }
  return queued;
}

void Machine::dump_state(std::FILE* out) {
  std::fprintf(out,
               "=== machine state: now=%llu advances=%llu ipis=%llu ===\n",
               static_cast<unsigned long long>(now()),
               static_cast<unsigned long long>(advances_),
               static_cast<unsigned long long>(total_ipis()));
  for (auto& c : cores_) {
    std::fprintf(
        out,
        "  core %-3u clock=%-12llu %s irq_%s pending_irqs=%llu "
        "steps=%llu irqs_delivered=%llu\n",
        c->id(), static_cast<unsigned long long>(c->clock()),
        c->runnable() ? "runnable" : "idle    ",
        c->interrupts_enabled() ? "on " : "off",
        static_cast<unsigned long long>(c->pending_irqs()),
        static_cast<unsigned long long>(c->steps_executed()),
        static_cast<unsigned long long>(c->irqs_delivered()));
  }
}

void Machine::schedule_event(Cycles t, SinkId sink,
                             const EventPayload& payload) {
  IW_ASSERT_MSG(!per_core_drain_active_ || exec_source() == 0,
                "schedule_event from a core context during a per-core "
                "parallel drain (the machine queue is coordinator-owned)");
  IW_ASSERT_MSG(sink < event_sinks_.size() && event_sinks_[sink] != nullptr,
                "schedule_event: sink id not registered");
  Event ev;
  ev.time = t;
  ev.seq = next_seq();
  ev.sink = sink;
  ev.payload = payload;
  machine_queue_.push(std::move(ev));
}

SinkId Machine::register_event_sink(EventSink* s) {
  IW_ASSERT(s != nullptr);
  event_sinks_.push_back(s);
  return static_cast<SinkId>(event_sinks_.size() - 1);
}

void Machine::unregister_event_sink(SinkId id) {
  IW_ASSERT(id < event_sinks_.size());
  event_sinks_[id] = nullptr;
}

SinkId Machine::register_timer_sink(TimerSink* s) {
  IW_ASSERT(s != nullptr);
  timer_sinks_.push_back(s);
  return static_cast<SinkId>(timer_sinks_.size() - 1);
}

void Machine::unregister_timer_sink(SinkId id) {
  IW_ASSERT(id < timer_sinks_.size());
  timer_sinks_[id] = nullptr;
}

SinkId Machine::timer_sink_id(const TimerSink* s) const {
  for (std::size_t i = 0; i < timer_sinks_.size(); ++i) {
    if (timer_sinks_[i] == s) return static_cast<SinkId>(i);
  }
  return kNoSink;
}

void Machine::declare_serial_core(CoreId core) {
  IW_ASSERT_MSG(core < cores_.size(),
                "declare_serial_core: core out of range");
  if (std::find(serial_cores_.begin(), serial_cores_.end(), core) ==
      serial_cores_.end()) {
    serial_cores_.push_back(core);
  }
}

void Machine::install_fault_plan(const FaultPlan& plan,
                                 std::uint64_t fault_seed) {
  IW_ASSERT_MSG(exec_ctx().machine != this,
                "install_fault_plan from inside this machine's execution "
                "context (swap plans only between runs)");
  cfg_.faults = plan;
  cfg_.fault_seed = fault_seed;
  faults_.configure(plan, cfg_.seed, fault_seed,
                    /*num_streams=*/static_cast<unsigned>(cores_.size()) + 1);
}

void Machine::frontier_enqueue_dirty(CoreId id) {
  // In linear/parallel modes nothing drains the list; the dirty flag
  // alone keeps the per-core cache coherent for anyone who reads it.
  if (cfg_.scheduler != SchedulerKind::kFrontier) return;
  dirty_cores_.push_back(id);
  ++frontier_dirty_pushes_;
}

void Machine::refresh_frontier() {
  dirty_cores_.clear();
  for (auto& c : cores_) {
    *c->sched_dirty_ = 1;
    dirty_cores_.push_back(c->id());
  }
}

void Machine::frontier_set_leaf(CoreId id, Cycles t) {
  IW_ASSERT_MSG(t == kNever || t < (Cycles{1} << (64 - kFrontierCoreBits)),
                "virtual time overflows the packed frontier entry");
  FrontierEntry* const tree = frontier_tree_.data();
  std::size_t k = frontier_tree_.size() / 2 + id;
  tree[k] = t == kNever ? kNoEntry : (t << kFrontierCoreBits) | id;
  for (; k > 1; k >>= 1) tree[k >> 1] = std::min(tree[k], tree[k ^ 1]);
}

Machine::Pick Machine::frontier_peek() {
  // Re-index every core another context dirtied since the last peek
  // (the stepped core's leaf is already current; see execute()).
  for (const CoreId id : dirty_cores_) {
    frontier_set_leaf(id, cores_[id]->next_action_time());  // recomputes
  }
  dirty_cores_.clear();
  const Cycles mq_t = machine_queue_.peek_time();
  const FrontierEntry top = frontier_tree_[1];
  // The machine queue wins time ties (seed scheduler semantics); the
  // packed min already took the lowest core id among same-time cores.
  if (top == kNoEntry || mq_t <= entry_time(top)) return {mq_t, nullptr};
  return {entry_time(top), cores_[entry_core(top)].get()};
}

Machine::Pick Machine::linear_peek() {
  Pick best{machine_queue_.peek_time(), nullptr};
  for (auto& c : cores_) {
    const Cycles t = c->next_action_time_uncached();
    if (t < best.time) best = {t, c.get()};
  }
  return best;
}

void Machine::run_machine_event() {
  ++advances_;
  ExecScope scope(*this, 0);
  const Event ev = machine_queue_.pop();
  event_sink(ev.sink)->on_machine_event(*this, ev.time, ev.payload);
}

void Machine::execute(const Pick& pick) {
  if (pick.core == nullptr) {
    run_machine_event();
    return;
  }
  ++advances_;
  const CoreId id = pick.core->id();
  ExecScope scope(*this, id + 1);
  if (cfg_.scheduler != SchedulerKind::kFrontier) {
    pick.core->advance();
    return;
  }
  // The step re-derives the core's next action anyway, so its own
  // invalidations need not queue it for a recompute at the next peek:
  // hold its dirty flag set while it steps (mark_schedule_dirty is then
  // a flag test), and write the returned time straight into its cache
  // and leaf. Anything the step dirties on other cores still queues.
  sched_dirty_[id] = 1;
  const Cycles t = pick.core->advance();
  sched_time_[id] = t;
  sched_dirty_[id] = 0;
  frontier_set_leaf(id, t);
}

bool Machine::advance_once() {
  Pick pick;
  if (cfg_.scheduler == SchedulerKind::kFrontier) {
    pick = frontier_peek();
    if (cfg_.paranoid_frontier) {
      const Pick ref = linear_peek();
      IW_ASSERT_MSG(ref.time == pick.time && ref.core == pick.core,
                    "frontier index diverged from linear scan — a driver "
                    "mutated runnable state without mark_schedule_dirty()");
    }
  } else {
    pick = linear_peek();
  }
  if (pick.time == kNever) return false;  // quiescent
  execute(pick);
  return true;
}

bool Machine::run_loop(const std::function<bool()>& stop, Cycles until) {
  const bool time_watchdog = cfg_.max_time != 0;
  const bool advance_watchdog = cfg_.max_advances != 0;
  const bool ff = cfg_.fast_forward.enabled;
  const bool frontier = cfg_.scheduler == SchedulerKind::kFrontier;
  const bool paranoid = frontier && cfg_.paranoid_frontier;
  // Skip horizons may not sail past the virtual-time budget: clamp to
  // max_time + 1 so the watchdog still observes now() crossing the
  // limit at the same advance a full-fidelity run would reach it (the
  // same clamp the parallel epochs apply to their horizons).
  Cycles ff_want = until;
  if (time_watchdog) {
    ff_want = std::min(ff_want, saturating_add(cfg_.max_time, 1));
  }
  // Folded steps obey the same cap (Core::fold_limit).
  fold_want_ = ff_want;
  const auto peek = [&]() -> Pick {
    const Pick pick = frontier ? frontier_peek() : linear_peek();
    if (paranoid) {
      const Pick ref = linear_peek();
      IW_ASSERT_MSG(ref.time == pick.time && ref.core == pick.core,
                    "frontier index diverged from linear scan — a driver "
                    "mutated runnable state without mark_schedule_dirty()");
    }
    return pick;
  };
  for (;;) {
    // run_until's bound is checked on the same peek that later drives
    // execute(), so the bounded loop pays exactly one scheduler peek per
    // advance (the old shape re-peeked inside a stop predicate).
    // Failed fast-forward attempts are side-effect-free on the
    // schedule, so the pick stays valid across them; a consumed window
    // loops back and re-peeks at the committed state.
    Pick pick;
    if (until != kNever) {
      pick = peek();
      if (pick.time >= until) return true;
    }
    if (stop && stop()) return true;
    if (time_watchdog && now() > cfg_.max_time) {
      IW_LOG_WARN("machine watchdog: virtual time limit %llu exceeded",
                  static_cast<unsigned long long>(cfg_.max_time));
      return false;
    }
    if (advance_watchdog && advances_ > cfg_.max_advances) {
      IW_LOG_WARN("machine watchdog: advance limit exceeded");
      return false;
    }
    if (ff) {
      if (ff_cooldown_ == 0) {
        if (try_fast_forward(ff_want)) {
          ff_backoff_ = 0;
          // Loop back: re-check the stop predicate and watchdogs at the
          // committed state before stepping the boundary events.
          continue;
        }
        ff_backoff_ = std::min(std::max(ff_backoff_ * 2, kFfMinBackoff),
                               kFfMaxBackoff);
        ff_cooldown_ = ff_backoff_;
      } else {
        --ff_cooldown_;
      }
    }
    if (until == kNever) pick = peek();
    if (pick.time == kNever) return true;  // quiescent
    execute(pick);
  }
}

bool Machine::run(const std::function<bool()>& stop) {
  if (cfg_.scheduler == SchedulerKind::kParallelEpoch) {
    return parallel_run(stop, kNever);
  }
  if (cfg_.scheduler == SchedulerKind::kFrontier) {
    // Driver/workload state may have been mutated between runs without
    // invalidation; rebuilding once per run (not per iteration) keeps
    // external setup code oblivious to the frontier index.
    refresh_frontier();
  }
  return run_loop(stop, kNever);
}

bool Machine::run_until(Cycles t) {
  if (cfg_.scheduler == SchedulerKind::kParallelEpoch) {
    return parallel_run(nullptr, t);
  }
  if (cfg_.scheduler == SchedulerKind::kFrontier) refresh_frontier();
  // Stop once every actionable entity is at/after t: run_loop's `until`
  // bound checks the per-iteration scheduler peek directly (no separate
  // stop predicate, no second peek). Passing t as `until` also lets
  // fast-forward take the whole remaining span in one proof when it is
  // quiet.
  return run_loop(nullptr, t);
}

std::uint64_t Machine::advance_n(std::uint64_t n) {
  std::uint64_t done = 0;
  while (done < n && advance_once()) ++done;
  return done;
}

Machine::QuietProof Machine::quiet_proof(Cycles want) {
  // Machine-side proof obligation (DESIGN.md §8): find the largest
  // horizon h <= want with nothing able to act before h except inert
  // runnable-driver steps. Every bound only ever lowers h, so the scan
  // order cannot matter.
  QuietProof p;
  // (1) The machine queue: its head runs at its scheduled time, with
  // shards untouched — nothing may be skipped past it. In-flight IPIs
  // need no separate term: a posted IPI is already in some inbox (and
  // bounds h below via earliest_deliverable), and per-core drains call
  // this only between epochs, when sender outboxes are merged.
  p.horizon = std::min(want, machine_queue_.peek_time());
  for (auto& c : cores_) {
    const Cycles t = c->next_action_time();
    if (t >= p.horizon) continue;  // acts at/past the horizon already
    if (!c->runnable()) {
      // (2) Idle core: its next action IS a delivery (or a wake-up);
      // full fidelity would execute it at t.
      p.horizon = std::min(p.horizon, t);
      continue;
    }
    // (3) Runnable core below the horizon: a skip candidate. Its due
    // events still bound the proof — the stepped trajectory delivers
    // them the moment a step carries the clock to/past their time.
    p.skippable = true;
    p.earliest_clock = std::min(p.earliest_clock, t);  // t == clock here
    p.horizon = std::min(p.horizon, c->earliest_deliverable());
  }
  // (4) Armed fault-plan stalls: per-step draws are the one fault site
  // inside a quiet window (every other site draws inside an event the
  // bounds above already forbid). The earliest point at/after the
  // earliest candidate clock where a stall could be armed caps h; a
  // window beginning exactly at h is safe because replayed steps all
  // start at clocks strictly below h.
  // The injector-level query also covers scripted replay: a pending
  // scripted stall pins the machine to full fidelity (scripted stalls
  // are indexed by step opportunity, and a skip elides steps).
  if (p.skippable && faults_.enabled()) {
    p.horizon = std::min(p.horizon,
                         faults_.next_armed_stall_after(p.earliest_clock));
  }
  return p;
}

Cycles Machine::prove_quiet_until(Cycles want) {
  return quiet_proof(want).horizon;
}

bool Machine::try_fast_forward(Cycles want) {
  const FastForwardPolicy& pol = cfg_.fast_forward;
  const QuietProof proof = quiet_proof(want);
  if (!proof.skippable) return false;  // nothing to skip
  const Cycles h = proof.horizon;
  // kNever horizon means endless provable quiet — with no boundary
  // event there is nothing to fast-forward *to*; the machine would spin
  // forever either way, and the caller's watchdogs own that case.
  if (h == kNever) return false;
  // Profitability: the proof scan is O(cores); a window that replays
  // only a few steps per core is cheaper to execute for real.
  if (h <= saturating_add(proof.earliest_clock, kFfMinWindow)) return false;
  // Driver certification, the second half of the proof obligation:
  // every runnable core below the horizon must certify its steps inert
  // and supply the exact stepped trajectory. One decline aborts the
  // whole window — that driver's steps could post events anywhere,
  // invalidating every other core's plan.
  ff_plans_.clear();
  std::uint64_t total_steps = 0;
  for (auto& c : cores_) {
    if (c->clock() >= h || !c->runnable()) continue;
    FastForwardPlan plan;
    CoreDriver* d = c->driver();
    if (d == nullptr || !d->plan_fast_forward(*c, h, &plan)) return false;
    IW_ASSERT_MSG(plan.steps >= 1 && plan.end_clock > c->clock(),
                  "fast-forward plan must replay at least one step");
    total_steps += plan.steps;
    ff_plans_.emplace_back(c.get(), plan);
  }
  if (ff_plans_.empty()) return false;
  // Advance-budget equivalence: replayed steps count as advances, so a
  // skip that would cross max_advances must fall back to stepping — the
  // watchdog then fires at the identical advance it would in full
  // fidelity.
  if (cfg_.max_advances != 0 && advances_ + total_steps > cfg_.max_advances) {
    return false;
  }
  ++ff_windows_;
  if (pol.paranoid_interval != 0 &&
      ff_windows_ % pol.paranoid_interval == 0) {
    paranoid_replay(h);
    return true;  // window consumed, in full fidelity
  }
  for (auto& [core, plan] : ff_plans_) {
    const Cycles from = core->clock();
    if (pol.trace_skips) trace_skip(core->id(), from, plan.end_clock);
    core->commit_fast_forward(plan);
    ff_cycles_ += core->clock() - from;
  }
  ff_steps_ += total_steps;
  advances_ += total_steps;
  return true;
}

void Machine::paranoid_replay(Cycles horizon) {
  ++ff_paranoid_;
  // Inertness witnesses: none of these may move while stepping a window
  // the proof called quiet.
  std::uint64_t seq_before = 0;
  for (const auto& s : seq_by_source_) seq_before += s.v;
  std::uint64_t ipis_before = 0;
  for (const auto& s : ipis_by_source_) ipis_before += s.v;
  std::uint64_t delivered_before = 0;
  std::vector<std::uint64_t> steps_before(cores_.size());
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    delivered_before += cores_[i]->irqs_delivered();
    steps_before[i] = cores_[i]->steps_executed();
  }
  const std::uint64_t traced_before =
      tracer() != nullptr ? tracer()->total_events() : 0;
  const std::size_t mq_before = machine_queue_.size();
  // Step the window in full fidelity. The frontier index keeps itself
  // coherent through the normal dirty-marking; the other schedulers
  // audit through the reference linear scan.
  const bool frontier = cfg_.scheduler == SchedulerKind::kFrontier;
  for (;;) {
    const Pick pick = frontier ? frontier_peek() : linear_peek();
    if (pick.time >= horizon) break;
    execute(pick);
  }
  // The plans must have predicted the stepped trajectory exactly.
  for (const auto& [core, plan] : ff_plans_) {
    IW_ASSERT_MSG(core->clock() == plan.end_clock,
                  "fast-forward paranoid audit: analytic end clock "
                  "diverges from the stepped trajectory");
    IW_ASSERT_MSG(core->steps_executed() ==
                      steps_before[core->id()] + plan.steps,
                  "fast-forward paranoid audit: analytic step count "
                  "diverges from the stepped trajectory");
  }
  std::uint64_t seq_after = 0;
  for (const auto& s : seq_by_source_) seq_after += s.v;
  std::uint64_t ipis_after = 0;
  for (const auto& s : ipis_by_source_) ipis_after += s.v;
  std::uint64_t delivered_after = 0;
  for (const auto& c : cores_) delivered_after += c->irqs_delivered();
  const std::uint64_t traced_after =
      tracer() != nullptr ? tracer()->total_events() : 0;
  IW_ASSERT_MSG(seq_after == seq_before && ipis_after == ipis_before &&
                    delivered_after == delivered_before &&
                    machine_queue_.size() == mq_before &&
                    traced_after == traced_before,
                "fast-forward paranoid audit: a window proven quiet "
                "posted, delivered, or recorded something");
}

}  // namespace iw::hwsim
