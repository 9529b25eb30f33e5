// kParallelEpoch: epoch-synchronized conservative parallel DES.
//
// Why the result is bit-identical to the sequential schedulers:
//
//  * Send horizons. Every cross-core interaction goes through the IPI
//    fabric and pays at least cfg.costs.ipi_latency (L) cycles; fault
//    plans only ever ADD latency (delay, duplicate lag). Core c's send
//    horizon σ_c (Machine::send_horizon) is the earliest cycle at which
//    it could post one: its clock, or, when its driver certifies its
//    steps inert up to the run target, its next delivery (only a
//    handler can send then). An idle core's is its next action. No
//    cross-core effect can therefore arrive before min_c σ_c + L, so
//    all events strictly before the horizon H = min(min_c σ_c + L,
//    machine-queue head, run target) are shard-local: each core's
//    drain up to H is exactly the sequence of picks the sequential
//    loop would have made for that core, in the same order. Declining
//    drivers give σ_c = next action, i.e. the lookahead bound
//    E + L. The staging check (IpiOutbox::stage) aborts on any
//    delivery arriving before H, naming the sender: a certificate that
//    lied cannot go unnoticed.
//  * Provenance sequencing. Event sequence numbers are
//    (per-source counter << 16) | source, and fault RNG draws come from
//    per-source streams, both drawn eagerly in the acting context — so
//    neither depends on how contexts interleave across epochs or host
//    threads. An inbox's pop order for same-time events is a pure
//    function of its contents.
//  * Deterministic merge. Buffered IPIs are staged in fixed-capacity
//    atomic outbox slots (IpiOutbox) and flushed at the barrier; every
//    delivery's (time, seq) key was fixed at send time, seqs are
//    unique, and all arrivals are at/past H, so neither the racy
//    slot-claim order nor the flush order can affect any pop the
//    target performs afterwards (a min-heap pops a totally-ordered set
//    in sorted order regardless of insertion history).
//  * Coordinator-owned machine queue. Machine-level events run with
//    all shards parked, at exactly the points the sequential loop would
//    run them (the queue head bounds the horizon, and the queue wins
//    time ties, matching the seed scheduler).
//  * Folded epoch start. E is the min over every core's next-action
//    time. Between a run's entry scan and its end, a core's schedule
//    changes only inside its own drain (which returns where it stopped)
//    or at the barrier merge (which re-reads each delivered-to core; a
//    delivery can only lower a core's next action). So the min of those
//    reports IS the full scan's answer. Anything else that can move a
//    core — a machine-queue turn, a fast-forward commit, a serial
//    delivery, an epoch cut short by the advance budget — forces the
//    full scan again, and paranoid_frontier re-checks the fold against
//    the scan every epoch. The min send horizon folds the same way
//    (a delivery only lowers σ), but only while some driver certified
//    at the last full scan: otherwise it equals E, and neither drains
//    nor merges pay anything for it.
//  * Chunked claims and stealing move nothing observable. Each block's
//    claim cursor hands every shard id to exactly one claimant per
//    epoch (one atomic fetch_add per chunk; see ShardBlock), and a
//    shard's drain writes only core-keyed state: its claimed outbox
//    slots, its scratch registry, its per-core trace buffer, and its
//    own per-source sequence and fault RNG counters. The barrier merges
//    all of those deterministically. So WHICH host thread drained a
//    shard, and in which order a thread walked its chunks — the only
//    things the claim pattern changes — are invisible to traces,
//    metrics, and machine state.
//
//  * Serial deliveries. A core declared serial
//    (Machine::declare_serial_core) runs handlers that read and write
//    other cores' state — the heartbeat supervisor on CPU 0. When a
//    serial core's inbox head s lies before the horizon, the parallel
//    epoch stops at s, and then at d, the core's next action at or
//    after s, where its next advance may deliver. At d the coordinator
//    runs, with every shard parked and the shard guard off, only the
//    picks due at d up to and including the serial core's own, lower
//    core ids first (the sequential tie order), then forces the full
//    scan. Every event before d has run, and so have the picks at d
//    that the sequential loop would run first, so the delivery sees
//    every core exactly at its sequential point. Cores tied at d with
//    higher ids run in the next parallel epoch, exactly as they would
//    after it in sequence: whatever the delivery posted them is in
//    their inboxes. A masked head cannot be delivered at d; the core's
//    pick there is one driver step, and it repeats until the step
//    unmasks, so the loop still makes progress. Parallel epochs deliver
//    no serial-core event (the engine checks the inbox heads against
//    the horizon after every advance of a serial core), so outside
//    serial deliveries only a core's owner reads or writes the state
//    those handlers touch.
#include "hwsim/parallel.hpp"

#include <algorithm>
#include <cstdio>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"

namespace iw::hwsim {

namespace {

/// Brief spin before yielding: keeps epoch handoff latency low on idle
/// multi-core hosts without live-locking oversubscribed ones (CI
/// containers may give the whole pool a single CPU).
constexpr int kSpinsBeforeYield = 200;

/// Largest batch of advance-budget slots a pool thread claims at once.
constexpr std::uint64_t kBudgetBatch = 64;

/// A serial core's own step posted it an event due inside a parallel
/// epoch: delivering it there would run a serial handler beside the
/// other shards, out of the sequential order.
[[noreturn]] void serial_post_inside_epoch(unsigned core, Cycles due,
                                           Cycles horizon) {
  char msg[320];
  std::snprintf(msg, sizeof msg,
                "serial core %u posted itself an event due at cycle %llu, "
                "before the parallel epoch's horizon %llu (a serial "
                "core's driver steps must stay shard-safe: post its own "
                "events at or past the horizon)",
                core, static_cast<unsigned long long>(due),
                static_cast<unsigned long long>(horizon));
  detail::assert_fail("serial core inbox head >= epoch horizon", __FILE__,
                      __LINE__, msg);
}

}  // namespace

void IpiOutbox::staged_before_horizon(unsigned sender, Cycles arrival,
                                      Cycles horizon) {
  char msg[320];
  std::snprintf(msg, sizeof msg,
                "core %u sent an IPI arriving at cycle %llu, before the "
                "parallel epoch's horizon %llu (a driver that certifies "
                "its steps inert for fast-forward must not send from "
                "them: the certificate is its core's send horizon)",
                sender, static_cast<unsigned long long>(arrival),
                static_cast<unsigned long long>(horizon));
  detail::assert_fail("staged IPI arrival >= epoch horizon", __FILE__,
                      __LINE__, msg);
}

ParallelEngine::ParallelEngine(Machine& machine, unsigned threads)
    : machine_(machine) {
  const unsigned cores = machine.num_cores();
  threads_ = std::max(1u, std::min(threads, cores));
  lanes_.resize(cores);
  outbox_.configure(cores);
  blocks_ = std::make_unique<ShardBlock[]>(threads_);
  tallies_ = std::make_unique<EpochTally[]>(threads_);
  workers_.reserve(threads_ - 1);
  for (unsigned b = 1; b < threads_; ++b) {
    workers_.emplace_back([this, b] { worker_main(b); });
  }
}

ParallelEngine::~ParallelEngine() {
  shutdown_.store(true, std::memory_order_relaxed);
  for (auto& w : workers_) w.join();
}

void ParallelEngine::set_scratch_enabled(bool on) {
  for (auto& lane : lanes_) {
    if (on && lane.scratch == nullptr) {
      lane.scratch = std::make_unique<obs::MetricsRegistry>();
    } else if (!on) {
      lane.scratch.reset();
    }
  }
}

bool ParallelEngine::drain_core(unsigned core, Cycles horizon,
                                EpochTally* tally, BudgetSlots* slots) {
  Core& c = machine_.core(core);
  // The caller's epoch_scope() bound this thread to the machine and the
  // outbox; the shard retargets only the source and scratch registry.
  Machine::ExecCtx& ctx = Machine::exec_ctx();
  ctx.source = core + 1;
  ctx.scratch = lanes_[core].scratch.get();
  // Every advance returns the core's next action, so the loop pays one
  // next-action computation per advance and stops on the value the next
  // horizon folds. A watchdog-bounded epoch claims a budget slot before
  // every advance (see claim_advance), so the epoch executes at most
  // budget_limit_ events no matter how shards are distributed. A serial
  // core starts the epoch with nothing due before the horizon; after
  // every advance its inbox heads are checked against it again.
  const bool budgeted = budget_limit_ != 0;
  const bool serial = machine_.is_serial_core(core);
  std::uint64_t n = 0;
  bool ok = true;
  Cycles next = c.next_action_time_uncached();
  while (next < horizon) {
    if (budgeted && !claim_advance(slots)) {
      ok = false;
      tally->ran_out = true;
      break;
    }
    next = c.advance();
    ++n;
    if (serial && c.earliest_event() < horizon) {
      serial_post_inside_epoch(core, c.earliest_event(), horizon);
    }
  }
  tally->advances += n;
  tally->max_shard = std::max(tally->max_shard, n);
  tally->next = std::min(tally->next, next);
  if (send_until_ != kNever) {
    tally->send =
        std::min(tally->send, machine_.send_horizon(c, next, send_until_));
  }
  return ok;
}

bool ParallelEngine::claim_batch(BudgetSlots* slots) {
  const std::uint64_t base =
      budget_used_.fetch_add(budget_batch_, std::memory_order_relaxed);
  if (base >= budget_limit_) return false;
  slots->next = base + 1;
  slots->end = std::min(base + budget_batch_, budget_limit_);
  return true;
}

EpochTally ParallelEngine::drain_pool(unsigned self, Cycles horizon) {
  // The tally accumulates thread-locally and publishes once per epoch:
  // sums and extrema over cores, so it is independent of which thread
  // drained which shard. Own block first (locality: a thread re-touches
  // the same cores every epoch while the load is balanced), then
  // whatever the other blocks still hold. A block is done for every
  // thread at its first empty claim: a cursor only grows, so an
  // exhausted block never has work again this epoch.
  EpochTally tally;
  BudgetSlots slots;
  for (unsigned k = 0; k < threads_; ++k) {
    ShardBlock& block = blocks_[(self + k) % threads_];
    for (ShardBlock::Claim c = block.claim(); c.lo != c.hi;
         c = block.claim()) {
      if (k != 0) tally.steals += c.hi - c.lo;
      for (std::uint32_t s = c.hi; s-- > c.lo;) {
        // A false return means the budget ran out.
        if (!drain_core(s, horizon, &tally, &slots)) return tally;
      }
    }
  }
  return tally;
}

void ParallelEngine::worker_main(unsigned self) {
  std::uint64_t last_epoch = 0;
  for (;;) {
    std::uint64_t e;
    int spins = 0;
    while ((e = epoch_.load(std::memory_order_acquire)) == last_epoch) {
      if (shutdown_.load(std::memory_order_relaxed)) return;
      if (++spins > kSpinsBeforeYield) std::this_thread::yield();
    }
    last_epoch = e;
    const Machine::ExecScope scope = epoch_scope();
    tallies_[self] = drain_pool(self, outbox_.horizon());
    done_.fetch_add(1, std::memory_order_release);
  }
}

EpochTally ParallelEngine::drain_epoch(Cycles horizon,
                                       std::uint64_t max_advances,
                                       Cycles send_until) {
  budget_limit_ = max_advances;
  // A few batches per thread: the shared counter is touched once per
  // batch, and a nearly spent budget shrinks the batch (down to one
  // slot) so stranded slots stay a small share of it.
  budget_batch_ = std::clamp<std::uint64_t>(
      max_advances / (std::uint64_t{4} * threads_), 1, kBudgetBatch);
  budget_taken_ = 0;
  budget_used_.store(0, std::memory_order_relaxed);
  send_until_ = send_until;
  outbox_.set_horizon(horizon);
  EpochTally total;
  if (threads_ == 1) {
    // Threadless path: the coordinator drains every shard itself — no
    // cursors, no barrier, still the same shard-local event order.
    const Machine::ExecScope scope = epoch_scope();
    BudgetSlots unused;  // one thread counts in budget_taken_
    for (unsigned i = 0; i < machine_.num_cores(); ++i) {
      if (!drain_core(i, horizon, &total, &unused)) break;
    }
  } else {
    // Seed the blocks with the static partition; stealing rebalances
    // from there. Workers are parked (previous epoch fully acked), and
    // the release-store of epoch_ below publishes the reset before any
    // worker claims.
    const unsigned cores = machine_.num_cores();
    const unsigned base = cores / threads_;
    const unsigned rem = cores % threads_;
    for (unsigned b = 0; b < threads_; ++b) {
      const unsigned lo = b * base + std::min(b, rem);
      blocks_[b].reset(lo, base + (b < rem ? 1 : 0));
    }
    ++epochs_issued_;
    epoch_.store(epochs_issued_, std::memory_order_release);
    {
      const Machine::ExecScope scope = epoch_scope();
      tallies_[0] = drain_pool(0, horizon);
    }
    const std::uint64_t expect = epochs_issued_ * (threads_ - 1);
    int spins = 0;
    while (done_.load(std::memory_order_acquire) != expect) {
      if (++spins > kSpinsBeforeYield) std::this_thread::yield();
    }
    // The done_ acquire above ordered every worker's tally publication
    // before this fold (and the epoch is over, so no thread is writing).
    for (unsigned b = 0; b < threads_; ++b) total.add(tallies_[b]);
  }
  steals_ += total.steals;
  if (max_advances == 0) {
    work_ += total.advances;
    span_ += total.max_shard;
  }
  return total;
}

void ParallelEngine::merge_outboxes(EpochTally* fold) {
  // Target-id order, claim order within a lane — both unobservable (see
  // IpiOutbox in parallel.hpp). The coordinator has no outbox in scope
  // here, so enqueue_ipi pushes straight into the target inboxes. O(1)
  // when the epoch staged nothing. A delivery only ever lowers its
  // target's next action and send horizon, so reading them after each
  // push and keeping the min yields each target's post-merge values.
  // The merge is serial, so its deliveries extend the epoch's span.
  if (budget_limit_ == 0) span_ += outbox_.staged();
  outbox_.drain([this, fold](CoreId to, const IrqEvent& ev) {
    machine_.enqueue_ipi(to, ev);
    Core& c = machine_.core(to);
    const Cycles next = c.next_action_time_uncached();
    fold->next = std::min(fold->next, next);
    if (send_until_ != kNever) {
      fold->send =
          std::min(fold->send, machine_.send_horizon(c, next, send_until_));
    }
  });
}

void ParallelEngine::merge_scratch_metrics(obs::MetricsRegistry* into) {
  for (auto& lane : lanes_) {
    if (lane.scratch == nullptr) continue;
    if (into != nullptr) into->merge_from(*lane.scratch);
    lane.scratch->clear();
  }
}

Cycles Machine::send_horizon(Core& c, Cycles next, Cycles until,
                             bool* certified) {
  // Only a runnable core (its next action is its clock) below the run
  // target has driver steps to certify.
  if (until == kNever || next != c.clock() || next >= until ||
      !c.runnable()) {
    return next;
  }
  FastForwardPlan plan;
  if (!c.driver()->plan_fast_forward(c, until, &plan)) return next;
  if (certified != nullptr) *certified = true;
  return std::min(until, std::max(next, c.earliest_deliverable()));
}

Machine::EpochStart Machine::epoch_scan(Cycles until) {
  EpochStart s;
  for (auto& c : cores_) {
    const Cycles next = c->next_action_time_uncached();
    s.next = std::min(s.next, next);
    s.send = std::min(s.send, send_horizon(*c, next, until, &s.certified));
  }
  return s;
}

Cycles Machine::serial_cut(Cycles horizon, Cycles e, Core** due) {
  *due = nullptr;
  for (const CoreId id : serial_cores_) {
    Core& c = *cores_[id];
    const Cycles head = c.earliest_event();
    if (head >= horizon) continue;
    // Before its head the core only steps its (shard-safe) driver, so
    // those steps may run in parallel up to the head. From there on its
    // next advance may deliver, so the epoch stops at it.
    const Cycles next = c.next_action_time_uncached();
    const Cycles cut = next < head ? head : next;
    horizon = std::min(horizon, cut);
    if (next == e && next >= head && (*due == nullptr || id < (*due)->id())) {
      *due = &c;
    }
  }
  return horizon;
}

void Machine::run_serial_delivery(Core& serial, Cycles d) {
  // Every core is at or past d and the machine queue past it, so the
  // sequential loop's picks at d come next: lower core ids first, the
  // serial core's own pick last. Only those ids are scanned.
  per_core_drain_active_ = false;
  for (;;) {
    Pick p;
    for (CoreId id = 0; id <= serial.id(); ++id) {
      const Cycles t = cores_[id]->next_action_time_uncached();
      if (t < p.time) p = {t, cores_[id].get()};
    }
    if (p.time != d) break;
    if (cfg_.paranoid_frontier) {
      const Pick ref = linear_peek();
      IW_ASSERT_MSG(ref.time == p.time && ref.core == p.core,
                    "serial delivery pick diverged from the linear scan");
    }
    execute(p);
    ++serial_picks_;
    if (p.core == &serial) break;
  }
  per_core_drain_active_ = true;
  ++serial_epochs_;
}

bool Machine::parallel_run(const std::function<bool()>& stop, Cycles until) {
  IW_ASSERT_MSG(cfg_.costs.ipi_latency >= 1,
                "per-core parallel mode needs a nonzero IPI latency for "
                "its lookahead bound");
  // (Re)build the worker pool when the requested size changed: the
  // thread count may be reconfigured between runs (set_threads), and
  // silently reusing the old pool would pin the machine to a stale
  // configuration.
  const unsigned want_threads =
      std::max(1u, std::min(cfg_.threads, num_cores()));
  if (parallel_ == nullptr || parallel_->threads() != want_threads) {
    parallel_.reset();  // join the old pool before spawning the new one
    parallel_ = std::make_unique<ParallelEngine>(*this, cfg_.threads);
  }
  parallel_->set_scratch_enabled(metrics_ != nullptr);
  const Cycles la = lookahead();
  const bool time_watchdog = cfg_.max_time != 0;
  const bool advance_watchdog = cfg_.max_advances != 0;
  Cycles ff_want = until;
  if (time_watchdog) {
    ff_want = std::min(ff_want, saturating_add(cfg_.max_time, 1));
  }
  per_core_drain_active_ = true;
  bool ok = true;
  // Epoch start E: the earliest next-action time over all cores, and
  // Σ, the earliest send horizon. Only the run entry and the events
  // listed at `rescan` below pay a full O(cores) scan; every other
  // epoch folds both from what its drain and merge report (see the
  // determinism notes at the top of this file). Σ is folded only while
  // some driver certified at the last full scan (send_until set);
  // otherwise it is E.
  EpochStart start;
  Cycles send_until = kNever;
  bool rescan = true;
  for (;;) {
    // Stop predicate and watchdogs are barrier-granular in this mode.
    // The predicate must not change any core's schedule (it would
    // bypass the fold).
    if (stop && stop()) break;
    if (time_watchdog && now() > cfg_.max_time) {
      IW_LOG_WARN("machine watchdog: virtual time limit %llu exceeded",
                  static_cast<unsigned long long>(cfg_.max_time));
      ok = false;
      break;
    }
    if (advance_watchdog && advances_ > cfg_.max_advances) {
      IW_LOG_WARN("machine watchdog: advance limit exceeded");
      ok = false;
      break;
    }
    // Analytic stride over a proven-quiet span: coordinator-only,
    // between epochs — every worker is parked (the previous epoch's
    // barrier acked) and all sender outboxes are merged, so the
    // coordinator owns every inbox and scheduling cache it reads. The
    // stride may exceed the lookahead: the skipped steps are certified
    // inert, so there is no cross-core effect for the lookahead bound
    // to order against.
    if (cfg_.fast_forward.enabled && try_fast_forward(ff_want)) {
      rescan = true;  // the commit moved cores outside any drain
      continue;
    }
    if (rescan) {
      start = epoch_scan(until);
      send_until = start.certified ? until : kNever;
      ++horizon_scans_;
      rescan = false;
    } else if (cfg_.paranoid_frontier) {
      const EpochStart ref = epoch_scan(until);
      IW_ASSERT_MSG(start.next == ref.next,
                    "per-core epoch engine: folded epoch start diverged "
                    "from the full next-action scan — a core's schedule "
                    "changed outside its own drain");
      IW_ASSERT_MSG(send_until == kNever || start.send == ref.send,
                    "per-core epoch engine: folded send horizon diverged "
                    "from the full scan — a driver's certificate changed "
                    "outside its core's drain");
    }
    const Cycles e = start.next;
    // Machine-queue turn (queue wins time ties, seed semantics): run
    // due machine events with every shard parked. They may post core
    // events or move clocks, so loop back and rescan afterwards.
    Cycles mq_t = machine_queue_.peek_time();
    if (mq_t != kNever && mq_t < until && mq_t <= e) {
      run_machine_event();
      rescan = true;
      continue;
    }
    if (e == kNever || e >= until) break;  // quiescent / target reached
    const Cycles sigma = send_until == kNever ? e : start.send;
    Cycles horizon = std::min({until, mq_t, saturating_add(sigma, la)});
    if (time_watchdog) {
      // Keep an epoch from sailing past the virtual-time budget: with
      // a large lookahead one unclamped epoch could advance every core
      // arbitrarily far beyond max_time before the barrier check. The
      // clamp changes only where the barriers fall, never which events
      // run, so results stay bit-identical. The max() keeps at least
      // the earliest event (at time e) eligible, guaranteeing progress
      // so the watchdog can observe now() crossing the limit.
      horizon = std::min(horizon, saturating_add(cfg_.max_time, 1));
      horizon = std::max(horizon, saturating_add(e, 1));
    }
    Core* due = nullptr;
    horizon = serial_cut(horizon, e, &due);
    if (due != nullptr) {
      // A serial core's delivery point is the earliest action: run it
      // in sequence, then rescan — its handlers may have moved any core.
      run_serial_delivery(*due, e);
      rescan = true;
      continue;
    }
    // Advance budget for this epoch: the watchdog fires at advances_ >
    // max_advances, so cap the epoch at the advances still allowed
    // (overshoot of at most one barrier's worth of in-flight claims
    // instead of an entire unbounded epoch). advances_ <= max here, so
    // the budget is always >= 1 and progress is guaranteed.
    std::uint64_t budget = 0;
    if (advance_watchdog) budget = cfg_.max_advances + 1 - advances_;
    EpochTally tally = parallel_->drain_epoch(horizon, budget, send_until);
    advances_ += tally.advances;
    ++parallel_epochs_;
    parallel_->merge_outboxes(&tally);
    start.next = tally.next;
    start.send = tally.send;
    // An epoch that ran out of budget may have stopped cores short of
    // the horizon, leaving their next actions unreported.
    rescan = tally.ran_out;
  }
  per_core_drain_active_ = false;
  parallel_->merge_scratch_metrics(metrics_);
  return ok;
}

}  // namespace iw::hwsim
