// Epoch-synchronized conservative-parallel execution engine for
// hwsim::Machine (SchedulerKind::kParallelEpoch with
// ShardPolicy::kPerCore).
//
// The engine owns a persistent host worker pool, the fabric outbox, and
// the per-core scratch lanes that make an epoch drain shard-local. Machine::
// parallel_run_per_core drives it: compute the epoch horizon from the
// cores' send horizons, fan the drain out across the pool, then merge
// the staged outbox deliveries deterministically at the barrier. The
// drain and the merge also report the earliest next-action time and
// send horizon they leave behind, so the next horizon needs no
// O(cores) rescan. A serial core's delivery bypasses the engine: the
// coordinator runs that one pick itself. See parallel.cpp for the
// determinism argument.
//
// Shard scheduling inside an epoch: each host thread owns a static
// block of shard ids, re-seeded at epoch start, with one claim cursor
// that hands the block out in chunks (one relaxed fetch_add per chunk
// of shards, nothing per shard; see ShardBlock). A thread drains its own
// block first; with stealing on it then claims leftover chunks from the
// other blocks' cursors, so one hot shard no longer serializes the
// epoch. Stealing moves only *which host thread* drains a shard — every
// shard-side effect is keyed by core id (lane outbox, scratch registry,
// per-core trace buffer, per-source sequence/RNG streams) and merged in
// core-id order at the barrier, so results are independent of the
// claim interleaving. MachineConfig::work_stealing=false keeps every
// thread on its own block for A/B comparison.
//
// Host-thread handshake: a monotone epoch counter published with
// release semantics, acknowledged through a cumulative done counter.
// Workers spin briefly then yield, so the engine stays live-lock-free
// when the pool oversubscribes the host (CI runners, 1-CPU containers).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <vector>

#include "common/types.hpp"
#include "hwsim/machine.hpp"

namespace iw::obs {
class MetricsRegistry;
}  // namespace iw::obs

namespace iw::hwsim {

/// Fixed-capacity atomic outbox lanes for buffered fabric deliveries
/// (the HVM2-style replacement for per-lane std::vector outboxes).
///
/// Layout: per target core, kSlotsPerTarget IrqEvent slots plus one
/// cache-line-private atomic claim counter, all in one allocation the
/// outbox owns. stage() claims a slot index with a relaxed fetch_add and
/// writes the event in place — no lock, no allocation; the rare
/// overflow beyond the fixed capacity falls back to a mutex-guarded
/// spill vector (counted, see spills and spill_grow_allocs).
///
/// Determinism: the slot order within a target lane is claim order,
/// which IS host-schedule-dependent — and provably unobservable. Every
/// staged delivery's (time, seq) key was fixed at send time in the
/// sender's context, seqs are unique, and TimedQueue pop order is a
/// pure function of the queued (time, seq) multiset (a min-heap pops a
/// totally-ordered set in sorted order regardless of insertion
/// history). Snapshot digests and serialization sort by the same key.
/// So the merge may deliver lane slots in any order without any
/// observable difference — which is exactly what lets the claim order
/// be racy while results stay bit-identical (ROADMAP item 1).
///
/// Memory ordering rides the existing epoch handshake: workers'
/// relaxed slot/counter writes happen-before the coordinator's drain()
/// via the done_-counter release/acquire pair, and the coordinator's
/// counter resets happen-before the next epoch's stage() calls via the
/// epoch_ release store.
class IpiOutbox {
 public:
  static constexpr std::uint32_t kSlotsPerTarget = 8;

  struct alignas(64) Counter {
    std::atomic<std::uint32_t> v{0};
  };

  /// Allocate the lanes of `num_targets` targets: the slots, then the
  /// counters from the first cache-line boundary past them, in one
  /// zero-filled allocation with a spare line for that alignment. The
  /// 64 KB floor keeps the size the engine's bump arena used to give it:
  /// parallel_4k's two-thread rate moves with heap placement. Called
  /// once per pool build.
  void configure(unsigned num_targets) {
    num_targets_ = num_targets;
    const std::size_t slot_bytes = sizeof(IrqEvent) *
                                   std::size_t{num_targets} *
                                   kSlotsPerTarget;
    storage_ = std::make_unique<std::byte[]>(std::max<std::size_t>(
        std::size_t{1} << 16,
        slot_bytes + sizeof(Counter) * (std::size_t{num_targets} + 1)));
    slots_ = reinterpret_cast<IrqEvent*>(storage_.get());
    const std::uintptr_t end =
        reinterpret_cast<std::uintptr_t>(storage_.get()) + slot_bytes;
    counters_ = reinterpret_cast<Counter*>(
        (end + alignof(Counter) - 1) & ~std::uintptr_t{alignof(Counter) - 1});
    for (unsigned i = 0; i < num_targets; ++i) new (&counters_[i]) Counter();
    staged_.store(0, std::memory_order_relaxed);
  }

  /// The horizon of the epoch being drained: every staged delivery must
  /// arrive at or past it. Set by the coordinator while the workers are
  /// parked; the epoch publish orders it for them.
  [[nodiscard]] Cycles horizon() const { return horizon_; }
  void set_horizon(Cycles h) { horizon_ = h; }

  /// Stage one fully-formed delivery from core `sender` for `to` (shard
  /// context, hot). A delivery arriving before the horizon aborts,
  /// naming the sender: its send horizon was wrong, and the target may
  /// already have run past the arrival.
  void stage(unsigned sender, CoreId to, const IrqEvent& ev) {
    if (ev.time < horizon_) staged_before_horizon(sender, ev.time, horizon_);
    const std::uint32_t i =
        counters_[to].v.fetch_add(1, std::memory_order_relaxed);
    if (i < kSlotsPerTarget) {
      slots_[static_cast<std::size_t>(to) * kSlotsPerTarget + i] = ev;
    } else {
      const std::lock_guard<std::mutex> g(spill_mu_);
      if (spill_.size() == spill_.capacity()) ++spill_grows_;
      spill_.push_back(PendingIpi{to, ev});
    }
    staged_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Deliver everything staged and reset the lanes (coordinator-only,
  /// at an epoch barrier). O(1) when nothing was staged — the common
  /// sparse-epoch case the old per-lane sweep paid O(cores) for.
  template <class F>
  void drain(F&& deliver) {
    if (staged_.load(std::memory_order_relaxed) == 0) return;
    for (unsigned to = 0; to < num_targets_; ++to) {
      auto& cnt = counters_[to].v;
      const std::uint32_t n =
          std::min(cnt.load(std::memory_order_relaxed), kSlotsPerTarget);
      if (n == 0) continue;
      for (std::uint32_t i = 0; i < n; ++i) {
        deliver(static_cast<CoreId>(to),
                slots_[static_cast<std::size_t>(to) * kSlotsPerTarget + i]);
      }
      cnt.store(0, std::memory_order_relaxed);
    }
    if (!spill_.empty()) {
      spills_ += spill_.size();
      for (const PendingIpi& p : spill_) deliver(p.to, p.ev);
      spill_.clear();
    }
    staged_.store(0, std::memory_order_relaxed);
  }

  [[noreturn]] static void staged_before_horizon(unsigned sender,
                                                 Cycles arrival,
                                                 Cycles horizon);

  /// Deliveries staged and not yet drained (coordinator-only read).
  [[nodiscard]] std::uint64_t staged() const {
    return staged_.load(std::memory_order_relaxed);
  }
  /// Deliveries drained from the spill path (those past a target's
  /// kSlotsPerTarget slots in one epoch) since configure().
  [[nodiscard]] std::uint64_t spills() const { return spills_; }
  /// Growth reallocations of the overflow spill vector.
  [[nodiscard]] std::uint64_t spill_grow_allocs() const {
    return spill_grows_;
  }

 private:
  unsigned num_targets_{0};
  Cycles horizon_{0};
  std::unique_ptr<std::byte[]> storage_;  // slots, then counters
  IrqEvent* slots_{nullptr};       // num_targets_ * kSlotsPerTarget
  Counter* counters_{nullptr};     // one per target
  std::atomic<std::uint64_t> staged_{0};
  std::mutex spill_mu_;
  std::vector<PendingIpi> spill_;
  std::uint64_t spill_grows_{0};
  std::uint64_t spills_{0};  // coordinator-only (counted in drain)
};

/// One host thread's static shard block [base, base + size) and the
/// cursor every thread claims it through. The block is re-seeded once
/// per epoch while the workers are parked. A claim is one relaxed
/// fetch_add of `chunk` on the cursor: an atomic read-modify-write
/// returns each cursor value to exactly one caller, so every id in the
/// block is handed out exactly once per epoch, to the owner or to a
/// thief alike. No ordering is needed beyond that exclusivity — the
/// shard state a drain touches is published by the epoch handshake.
/// Ids come off the top of the block downward, so the owner drains its
/// highest shard first.
struct alignas(64) ShardBlock {
  /// Chunks per block: the cursor is touched about this many times per
  /// block per epoch instead of once per shard, while a hot shard holds
  /// back at most its own chunk (~1/32 of the block) from the thieves.
  static constexpr std::uint32_t kChunksPerBlock = 32;

  /// Claimed ids [lo, hi), drained from hi - 1 down; empty when the
  /// block is exhausted.
  struct Claim {
    std::uint32_t lo{0};
    std::uint32_t hi{0};
  };

  std::uint32_t base{0};
  std::uint32_t size{0};
  std::uint32_t chunk{1};
  std::atomic<std::uint32_t> cursor{0};  // ids claimed from the top

  /// Re-seed with a fresh shard block. Workers must be parked (the
  /// epoch publish that follows orders these stores for them).
  void reset(std::uint32_t b, std::uint32_t n) {
    base = b;
    size = n;
    chunk = std::max<std::uint32_t>(1, n / kChunksPerBlock);
    cursor.store(0, std::memory_order_relaxed);
  }

  /// Claim the next chunk (owner or thief). The last chunk is partial.
  /// A claimant stops at the first empty claim, so the cursor passes
  /// `size` by at most one chunk per thread and cannot wrap.
  Claim claim() {
    const std::uint32_t c = cursor.fetch_add(chunk, std::memory_order_relaxed);
    if (c >= size) return {};
    const std::uint32_t hi = base + size - c;
    return {hi - std::min(chunk, size - c), hi};
  }
};

/// One epoch's result, as per-thread partial results folded on read
/// (McKenney's statistical-counter shape): each host thread fills its
/// own cache-line-private tally and the coordinator combines them after
/// the barrier.
struct alignas(64) EpochTally {
  /// Advances executed (a per-core sum, so claim-order-independent).
  std::uint64_t advances{0};
  /// Most advances any single shard executed (a max over cores, so
  /// claim-order-independent too): the epoch's longest drain.
  std::uint64_t max_shard{0};
  /// Shards claimed from other threads' blocks (host-schedule-dependent,
  /// observability only).
  std::uint64_t steals{0};
  /// Earliest next-action time among the drained cores at the point
  /// each stopped. Meaningful only for an epoch that did not run out of
  /// advance budget, where every core drains to the horizon.
  Cycles next{kNever};
  /// Earliest send horizon among the drained cores at the point each
  /// stopped (Machine::send_horizon), folded only while some driver
  /// certified at the last full scan. Meaningful like `next`.
  Cycles send{kNever};
  /// Some claim of the epoch's advance budget failed: cores may have
  /// stopped short of the horizon, so `next` and `send` are partial.
  bool ran_out{false};

  void add(const EpochTally& o) {
    advances += o.advances;
    max_shard = std::max(max_shard, o.max_shard);
    steals += o.steals;
    next = std::min(next, o.next);
    send = std::min(send, o.send);
    ran_out = ran_out || o.ran_out;
  }
};

class ParallelEngine {
 public:
  /// `threads` is the total host threads used per epoch, including the
  /// coordinator (clamped to [1, num_cores]); `threads - 1` workers are
  /// spawned and parked until the first epoch. `steal` lets a thread
  /// claim from other threads' blocks once its own is drained (off =
  /// static blocks).
  ParallelEngine(Machine& machine, unsigned threads, bool steal);
  ~ParallelEngine();

  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  [[nodiscard]] unsigned threads() const { return threads_; }
  [[nodiscard]] bool steal_enabled() const { return steal_enabled_; }
  /// Shards drained by a thread other than their block's owner since
  /// construction (observability only; the count is
  /// host-schedule-dependent, results never are).
  [[nodiscard]] std::uint64_t steals() const { return steals_; }
  /// Work, span and spill totals since construction (see
  /// ParallelTotals; coordinator-only read).
  [[nodiscard]] ParallelTotals totals() const {
    return {work_, span_, outbox_.spills()};
  }

  /// Allocate (or drop) the per-core scratch metrics registries. Called
  /// at the start of every parallel run so a registry attached between
  /// runs takes effect.
  void set_scratch_enabled(bool on);

  /// Drain every core of events strictly before `horizon`, fanned out
  /// across the pool via the shard blocks' claim cursors. `max_advances`
  /// bounds the advances performed this epoch (0 = unbounded): when the
  /// shared budget is exhausted every thread stops claiming and
  /// draining, so a watchdog-bounded run overshoots by at most the
  /// in-flight events. Returns the advances performed and, for an epoch
  /// that did not run out of budget, the earliest next-action time the
  /// drained cores stopped at. With `send_until` != kNever it also
  /// folds each drained core's send horizon toward that run target;
  /// kNever skips that per-core work. On return all shards are parked.
  EpochTally drain_epoch(Cycles horizon, std::uint64_t max_advances = 0,
                         Cycles send_until = kNever);

  /// Flush the staged outbox deliveries into the target inboxes
  /// (target-id order, slot-claim order within a target — both
  /// unobservable, see IpiOutbox) and fold each target's next-action
  /// time and, under the last drain's `send_until`, its send horizon
  /// into `fold`. Coordinator-only, between epochs. O(1) when the epoch
  /// staged nothing.
  void merge_outboxes(EpochTally* fold);

  /// Fold the per-core scratch registries into `into`, in core-id
  /// order, and clear them. Coordinator-only, at run end.
  void merge_scratch_metrics(obs::MetricsRegistry* into);

  /// True when no staged fabric delivery is awaiting its merge. Between
  /// runs this always holds (merge_outboxes runs at every epoch
  /// barrier); Machine::snapshot/restore assert it, since buffered
  /// fabric traffic is not part of the snapshot format.
  [[nodiscard]] bool quiescent() const { return outbox_.staged() == 0; }

  /// Heap allocations of the engine's epoch scratch after the pool
  /// build: outbox spill growth (feeds Machine::hot_path_allocs).
  [[nodiscard]] std::uint64_t scratch_grow_allocs() const {
    return outbox_.spill_grow_allocs();
  }

 private:
  /// Per-core lane: shard-private scratch a drain writes outside the
  /// shared outbox, cache-line-aligned so neighboring shards never
  /// share a line.
  struct alignas(64) Lane {
    std::unique_ptr<obs::MetricsRegistry> scratch;
  };

  /// Bind the calling host thread to the machine and the outbox for
  /// one epoch's drains (drain_core retargets the source per shard).
  [[nodiscard]] Machine::ExecScope epoch_scope() {
    return Machine::ExecScope(machine_, 0, nullptr, &outbox_);
  }
  /// A host thread's unused budget slots [next, end), claimed from the
  /// shared counter in batches.
  struct BudgetSlots {
    std::uint64_t next{0};
    std::uint64_t end{0};
  };

  /// Drain one shard, folding its advances, stop time and send horizon
  /// into `*tally`; returns false (and flags tally->ran_out) when the
  /// epoch advance budget ran out mid-drain (callers stop claiming
  /// shards). Aborts, naming the core, when a serial core's step posts
  /// it an event due before `horizon`. Runs inside an epoch_scope().
  bool drain_core(unsigned core, Cycles horizon, EpochTally* tally,
                  BudgetSlots* slots);
  /// Claim one advance of the epoch budget. One host thread owns the
  /// whole budget and counts in a plain word. A pool shares it as a
  /// limit counter: each thread takes budget_batch_ slots at a time
  /// with one relaxed fetch_add and spends them locally, so at most
  /// budget_limit_ slots are handed out across all threads. A thread's
  /// leftover slots are stranded when the epoch ends; a failed claim,
  /// not the advance total, marks an epoch that ran out.
  bool claim_advance(BudgetSlots* slots) {
    if (threads_ == 1) return budget_taken_++ < budget_limit_;
    if (slots->next == slots->end) return claim_batch(slots);
    ++slots->next;
    return true;
  }
  /// Refill `slots` with the next batch and claim its first slot;
  /// false once the budget is spent.
  bool claim_batch(BudgetSlots* slots);
  /// One thread's share of an epoch: drain the own block, then (with
  /// stealing on) what the other blocks still hold.
  EpochTally drain_pool(unsigned self, Cycles horizon);
  void worker_main(unsigned self);

  Machine& machine_;
  unsigned threads_{1};
  bool steal_enabled_{true};
  IpiOutbox outbox_;
  std::vector<Lane> lanes_;  // one per core
  /// One block per host thread (array: ShardBlock holds an atomic and
  /// is neither movable nor copyable).
  std::unique_ptr<ShardBlock[]> blocks_;

  // Per-epoch advance budget (0 = unlimited). A thread advances only
  // after claiming a slot below the limit, so at most `max_advances`
  // events run epoch-wide: budget_taken_ counts the slots when the
  // coordinator drains alone, budget_used_ is the pool's shared
  // pre-claim counter, handed out budget_batch_ slots at a time.
  std::uint64_t budget_limit_{0};
  std::uint64_t budget_batch_{1};
  std::uint64_t budget_taken_{0};
  std::atomic<std::uint64_t> budget_used_{0};
  /// Run target the epoch folds send horizons toward (kNever = off).
  /// Published to the workers with the epoch horizon.
  Cycles send_until_{kNever};

  // Coordinator-only run totals, folded from the tallies (and the
  // merge) after each barrier.
  std::uint64_t steals_{0};
  std::uint64_t work_{0};
  std::uint64_t span_{0};

  /// One tally per host thread, written once per epoch by its owner.
  /// Workers' plain writes are ordered before the coordinator's fold by
  /// the done_-counter release/acquire handshake, and the fold before
  /// the next epoch's writes by the epoch_ release store.
  std::unique_ptr<EpochTally[]> tallies_;

  // Epoch handshake (workers_ == threads_ - 1 spawned threads). The
  // epoch's horizon travels in outbox_, set before the epoch_ store.
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint64_t> done_{0};  // cumulative worker acks
  std::atomic<bool> shutdown_{false};
  std::uint64_t epochs_issued_{0};
  std::vector<std::thread> workers_;
};

}  // namespace iw::hwsim
