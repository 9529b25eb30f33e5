// kParallelEpoch: epoch-synchronized conservative parallel DES.
//
// Why the result is bit-identical to the sequential schedulers:
//
//  * Lookahead. Every cross-core interaction goes through the IPI
//    fabric and pays at least cfg.costs.ipi_latency (L) cycles; fault
//    plans only ever ADD latency (delay, duplicate lag). An epoch
//    starting at E = min next-action time therefore cannot deliver any
//    cross-core effect before E + L, so all events strictly before the
//    horizon H = min(E + L, machine-queue head, run target) are
//    shard-local: each core's drain up to H is exactly the sequence of
//    picks the sequential loop would have made for that core, in the
//    same order.
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
//    core — a machine-queue turn, a fast-forward commit, an epoch cut
//    short by the advance budget — forces the full scan again, and
//    paranoid_frontier re-checks the fold against the scan every epoch.
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
// ShardPolicy::kSingleGroup keeps the same epoch structure but drains
// the one shard with the sequential pick loop itself — safe for
// workloads that mutate other cores' state directly, and trivially
// bit-identical.
#include "hwsim/parallel.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"

namespace iw::hwsim {

namespace {

/// Brief spin before yielding: keeps epoch handoff latency low on idle
/// multi-core hosts without live-locking oversubscribed ones (CI
/// containers may give the whole pool a single CPU).
constexpr int kSpinsBeforeYield = 200;

}  // namespace

ParallelEngine::ParallelEngine(Machine& machine, unsigned threads,
                               bool steal)
    : machine_(machine),
      steal_enabled_(steal),
      // Size the arena so the outbox carve (slot blocks + padded claim
      // counters) fits one block; the build is then exactly one heap
      // allocation, reused for the pool's lifetime.
      arena_(std::max<std::size_t>(
          std::size_t{1} << 16,
          sizeof(IrqEvent) * std::size_t{machine.num_cores()} *
                  IpiOutbox::kSlotsPerTarget +
              sizeof(IpiOutbox::Counter) *
                  (std::size_t{machine.num_cores()} + 1))) {
  const unsigned cores = machine.num_cores();
  threads_ = std::max(1u, std::min(threads, cores));
  lanes_.resize(cores);
  outbox_.configure(arena_, cores);
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
                                EpochTally* tally) {
  Core& c = machine_.core(core);
  Lane& lane = lanes_[core];
  Machine::ExecScope scope(machine_, core + 1, lane.scratch.get(),
                           &outbox_);
  // Every advance returns the core's next action, so the loop pays one
  // next-action computation per advance and stops on the value the next
  // horizon folds. A watchdog-bounded epoch claims a budget slot before
  // every advance: fetch_add hands out at most budget_limit_ sub-limit
  // slots across all threads, so the epoch executes at most that many
  // events no matter how shards are distributed.
  const bool budgeted = budget_limit_ != 0;
  std::uint64_t n = 0;
  bool ok = true;
  Cycles next = c.next_action_time_uncached();
  while (next < horizon) {
    if (budgeted &&
        budget_used_.fetch_add(1, std::memory_order_relaxed) >=
            budget_limit_) {
      ok = false;
      break;
    }
    next = c.advance();
    ++n;
  }
  tally->advances += n;
  tally->max_shard = std::max(tally->max_shard, n);
  tally->next = std::min(tally->next, next);
  return ok;
}

EpochTally ParallelEngine::drain_pool(unsigned self, Cycles horizon) {
  // The tally accumulates thread-locally and publishes once per epoch:
  // sums and extrema over cores, so it is independent of which thread
  // drained which shard. Own block first (locality: a thread re-touches
  // the same cores every epoch while the load is balanced), then, with
  // stealing on, whatever the other blocks still hold. A block is done
  // for every thread at its first empty claim: a cursor only grows, so
  // an exhausted block never has work again this epoch.
  EpochTally tally;
  const unsigned blocks = steal_enabled_ ? threads_ : 1;
  for (unsigned k = 0; k < blocks; ++k) {
    ShardBlock& block = blocks_[(self + k) % threads_];
    for (ShardBlock::Claim c = block.claim(); c.lo != c.hi;
         c = block.claim()) {
      if (k != 0) tally.steals += c.hi - c.lo;
      for (std::uint32_t s = c.hi; s-- > c.lo;) {
        if (!drain_core(s, horizon, &tally)) return tally;  // budget out
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
    tallies_[self] = drain_pool(self, horizon_);
    done_.fetch_add(1, std::memory_order_release);
  }
}

EpochTally ParallelEngine::drain_epoch(Cycles horizon,
                                       std::uint64_t max_advances) {
  budget_limit_ = max_advances;
  budget_used_.store(0, std::memory_order_relaxed);
  EpochTally total;
  if (threads_ == 1) {
    // Threadless path: the coordinator drains every shard itself — no
    // cursors, no barrier, still the same shard-local event order.
    for (unsigned i = 0; i < machine_.num_cores(); ++i) {
      if (!drain_core(i, horizon, &total)) break;
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
    horizon_ = horizon;
    ++epochs_issued_;
    epoch_.store(epochs_issued_, std::memory_order_release);
    tallies_[0] = drain_pool(0, horizon);
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

Cycles ParallelEngine::merge_outboxes() {
  // Target-id order, claim order within a lane — both unobservable (see
  // IpiOutbox in parallel.hpp). The coordinator has no outbox in scope
  // here, so enqueue_ipi pushes straight into the target inboxes. O(1)
  // when the epoch staged nothing. A delivery only ever lowers its
  // target's next action, so reading it after each push and keeping
  // the min yields each target's post-merge value. The merge is serial,
  // so its deliveries extend the epoch's span.
  if (budget_limit_ == 0) span_ += outbox_.staged();
  Cycles next = kNever;
  outbox_.drain([this, &next](CoreId to, const IrqEvent& ev) {
    machine_.enqueue_ipi(to, ev);
    next = std::min(next, machine_.core(to).next_action_time_uncached());
  });
  return next;
}

void ParallelEngine::merge_scratch_metrics(obs::MetricsRegistry* into) {
  for (auto& lane : lanes_) {
    if (lane.scratch == nullptr) continue;
    if (into != nullptr) into->merge_from(*lane.scratch);
    lane.scratch->clear();
  }
}

bool Machine::parallel_run(const std::function<bool()>& stop, Cycles until) {
  return cfg_.shard_policy == ShardPolicy::kPerCore
             ? parallel_run_per_core(stop, until)
             : parallel_run_single_group(stop, until);
}

bool Machine::parallel_run_single_group(const std::function<bool()>& stop,
                                        Cycles until) {
  const Cycles la = std::max<Cycles>(1, lookahead());
  const bool time_watchdog = cfg_.max_time != 0;
  const bool advance_watchdog = cfg_.max_advances != 0;
  // Fast-forward target: between epochs the coordinator may take an
  // analytic stride over a proven-quiet span. Unlike an epoch, the
  // stride is NOT bounded by the lookahead — inert steps post nothing,
  // so no cross-core effect exists for the lookahead to order.
  Cycles ff_want = until;
  if (time_watchdog) {
    ff_want = std::min(ff_want, saturating_add(cfg_.max_time, 1));
  }
  for (;;) {
    if (stop && stop()) return true;
    if (cfg_.fast_forward.enabled && try_fast_forward(ff_want)) continue;
    const Pick first = linear_peek();
    if (first.time == kNever || first.time >= until) return true;
    const Cycles horizon = std::min(until, saturating_add(first.time, la));
    // One shard: the sequential pick loop, chunked by the horizon. The
    // machine queue participates directly (linear_peek gives it time
    // ties), so this is the sequential schedule verbatim.
    for (;;) {
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
      const Pick p = linear_peek();
      if (p.time >= horizon) break;  // epoch exhausted
      execute(p);
    }
  }
}

bool Machine::parallel_run_per_core(const std::function<bool()>& stop,
                                    Cycles until) {
  IW_ASSERT_MSG(cfg_.costs.ipi_latency >= 1,
                "per-core parallel mode needs a nonzero IPI latency for "
                "its lookahead bound");
  // (Re)build the worker pool when the requested shape changed: the
  // thread count and steal mode may be reconfigured between runs
  // (set_threads / set_work_stealing), and silently reusing the old
  // pool would pin the machine to a stale configuration.
  const unsigned want_threads =
      std::max(1u, std::min(cfg_.threads, num_cores()));
  if (parallel_ == nullptr || parallel_->threads() != want_threads ||
      parallel_->steal_enabled() != cfg_.work_stealing) {
    parallel_.reset();  // join the old pool before spawning the new one
    parallel_ = std::make_unique<ParallelEngine>(*this, cfg_.threads,
                                                 cfg_.work_stealing);
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
  // Epoch start E: the earliest next-action time over all cores. Only
  // the run entry and the events listed at `rescan` below pay a full
  // O(cores) scan; every other epoch folds E from what its drain and
  // merge report (see the determinism notes at the top of this file).
  Cycles e = kNever;
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
      e = next_action_scan();
      ++horizon_scans_;
      rescan = false;
    } else if (cfg_.paranoid_frontier) {
      IW_ASSERT_MSG(e == next_action_scan(),
                    "per-core epoch engine: folded epoch start diverged "
                    "from the full next-action scan — a core's schedule "
                    "changed outside its own drain");
    }
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
    Cycles horizon = std::min({until, mq_t, saturating_add(e, la)});
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
    // Advance budget for this epoch: the watchdog fires at advances_ >
    // max_advances, so cap the epoch at the advances still allowed
    // (overshoot of at most one barrier's worth of in-flight claims
    // instead of an entire unbounded epoch). advances_ <= max here, so
    // the budget is always >= 1 and progress is guaranteed.
    std::uint64_t budget = 0;
    if (advance_watchdog) budget = cfg_.max_advances + 1 - advances_;
    const EpochTally tally = parallel_->drain_epoch(horizon, budget);
    advances_ += tally.advances;
    e = std::min(tally.next, parallel_->merge_outboxes());
    // A budget may stop the epoch before some cores reach the horizon,
    // leaving their next actions unreported.
    rescan = budget != 0;
  }
  per_core_drain_active_ = false;
  parallel_->merge_scratch_metrics(metrics_);
  return ok;
}

}  // namespace iw::hwsim
