// Epoch-synchronized conservative-parallel execution engine for
// hwsim::Machine (SchedulerKind::kParallelEpoch with
// ShardPolicy::kPerCore).
//
// The engine owns a persistent host worker pool, an epoch-scoped bump
// arena (hwsim/arena.hpp) backing the fabric outbox, and the per-core
// scratch lanes that make an epoch drain shard-local. Machine::
// parallel_run_per_core drives it: compute the epoch horizon from the
// lookahead bound, fan the drain out across the pool, then merge the
// staged outbox deliveries deterministically at the barrier. The drain
// and the merge also report the earliest next-action time they leave
// behind, so the next horizon needs no O(cores) rescan. See
// parallel.cpp for the determinism argument.
//
// Shard scheduling inside an epoch is work-stealing (HVM2-style): each
// host thread owns a Chase–Lev deque of shard ids seeded with a static
// block at epoch start; when a thread's own deque runs dry it steals
// shards from loaded victims, so one hot shard no longer serializes the
// epoch. Stealing moves only *which host thread* drains a shard — every
// shard-side effect is keyed by core id (lane outbox, scratch registry,
// per-core trace buffer, per-source sequence/RNG streams) and merged in
// core-id order at the barrier, so results are independent of the
// claim interleaving. MachineConfig::work_stealing=false pins shards to
// their static blocks (the pre-stealing behavior) for A/B comparison.
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
#include "hwsim/arena.hpp"
#include "hwsim/machine.hpp"

namespace iw::obs {
class MetricsRegistry;
}  // namespace iw::obs

namespace iw::hwsim {

/// Fixed-capacity atomic outbox lanes for buffered fabric deliveries
/// (the HVM2-style replacement for per-lane std::vector outboxes).
///
/// Layout: per target core, kSlotsPerTarget IrqEvent slots carved out
/// of the engine's EpochArena plus one cache-line-private atomic claim
/// counter. stage() claims a slot index with a relaxed fetch_add and
/// writes the event in place — no lock, no allocation; the rare
/// overflow beyond the fixed capacity falls back to a mutex-guarded
/// spill vector (counted, see spill_grow_allocs).
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

  /// Carve slot storage for `num_targets` lanes out of `arena`. Called
  /// once per pool build; the arena must outlive the outbox.
  void configure(EpochArena& arena, unsigned num_targets) {
    num_targets_ = num_targets;
    slots_ = arena.alloc_array<IrqEvent>(
        static_cast<std::size_t>(num_targets) * kSlotsPerTarget);
    counters_ = arena.alloc_array<Counter>(num_targets);
    for (unsigned i = 0; i < num_targets; ++i) new (&counters_[i]) Counter();
    staged_.store(0, std::memory_order_relaxed);
  }

  /// Stage one fully-formed delivery for `to` (shard context, hot).
  void stage(CoreId to, const IrqEvent& ev) {
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
      for (const PendingIpi& p : spill_) deliver(p.to, p.ev);
      spill_.clear();
    }
    staged_.store(0, std::memory_order_relaxed);
  }

  /// Deliveries staged and not yet drained (coordinator-only read).
  [[nodiscard]] std::uint64_t staged() const {
    return staged_.load(std::memory_order_relaxed);
  }
  /// Growth reallocations of the overflow spill vector.
  [[nodiscard]] std::uint64_t spill_grow_allocs() const {
    return spill_grows_;
  }

 private:
  unsigned num_targets_{0};
  IrqEvent* slots_{nullptr};       // arena-owned, num_targets_ * kSlots
  Counter* counters_{nullptr};     // arena-owned, one per target
  std::atomic<std::uint64_t> staged_{0};
  std::mutex spill_mu_;
  std::vector<PendingIpi> spill_;
  std::uint64_t spill_grows_{0};
};

/// Per-thread shard queue: a Chase–Lev work-stealing deque specialized
/// to the epoch engine's lifecycle. The backing "array" is the dense
/// shard-id range [base, base + size) written once per epoch while all
/// workers are parked, and nothing pushes during a drain — so only the
/// owner's take() and thieves' steal() are needed, and there is no
/// array growth or ABA hazard. take() claims from the high-index end
/// (the owner walks its block), steal() from the low-index end; the
/// last-element race is resolved by the classic CAS on top.
struct alignas(64) ShardDeque {
  static constexpr int kEmpty = -1;  ///< nothing left to claim
  static constexpr int kAbort = -2;  ///< lost a steal race; retry later

  std::uint32_t base{0};
  std::uint32_t size{0};
  std::atomic<std::int64_t> top{0};     // thieves claim index top
  std::atomic<std::int64_t> bottom{0};  // owner claims index bottom-1

  /// Re-seed with a fresh shard block. Workers must be parked (the
  /// epoch publish that follows orders this store for them).
  void reset(std::uint32_t b, std::uint32_t n) {
    base = b;
    size = n;
    top.store(0, std::memory_order_relaxed);
    bottom.store(static_cast<std::int64_t>(n), std::memory_order_relaxed);
  }

  /// Owner-only: claim the next shard id, or kEmpty.
  int take() {
    std::int64_t b = bottom.load(std::memory_order_relaxed) - 1;
    bottom.store(b, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::int64_t t = top.load(std::memory_order_relaxed);
    if (t > b) {  // already drained by thieves
      bottom.store(b + 1, std::memory_order_relaxed);
      return kEmpty;
    }
    if (t == b) {  // last element: race the thieves for it
      const bool won = top.compare_exchange_strong(
          t, t + 1, std::memory_order_seq_cst, std::memory_order_relaxed);
      bottom.store(b + 1, std::memory_order_relaxed);
      if (!won) return kEmpty;
    }
    return static_cast<int>(base + static_cast<std::uint32_t>(b));
  }

  /// Thief: claim one shard id from the top, or kEmpty / kAbort.
  int steal() {
    std::int64_t t = top.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const std::int64_t b = bottom.load(std::memory_order_acquire);
    if (t >= b) return kEmpty;
    if (!top.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                     std::memory_order_relaxed)) {
      return kAbort;
    }
    return static_cast<int>(base + static_cast<std::uint32_t>(t));
  }
};

/// One epoch's result, as per-thread partial results folded on read
/// (McKenney's statistical-counter shape): each host thread fills its
/// own cache-line-private tally and the coordinator combines them after
/// the barrier.
struct alignas(64) EpochTally {
  /// Advances executed (a per-core sum, so claim-order-independent).
  std::uint64_t advances{0};
  /// Earliest next-action time among the drained cores at the point
  /// each stopped. Meaningful only for an epoch without an advance
  /// budget, where every core drains to the horizon.
  Cycles next{kNever};

  void add(const EpochTally& o) {
    advances += o.advances;
    next = std::min(next, o.next);
  }
};

class ParallelEngine {
 public:
  /// `threads` is the total host threads used per epoch, including the
  /// coordinator (clamped to [1, num_cores]); `threads - 1` workers are
  /// spawned and parked until the first epoch. `steal` enables
  /// cross-deque shard stealing (off = static blocks).
  ParallelEngine(Machine& machine, unsigned threads, bool steal);
  ~ParallelEngine();

  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  [[nodiscard]] unsigned threads() const { return threads_; }
  [[nodiscard]] bool steal_enabled() const { return steal_enabled_; }
  /// Successful shard steals since construction (observability only;
  /// the count is host-schedule-dependent, results never are).
  [[nodiscard]] std::uint64_t steals() const {
    return steals_.load(std::memory_order_relaxed);
  }

  /// Allocate (or drop) the per-core scratch metrics registries. Called
  /// at the start of every parallel run so a registry attached between
  /// runs takes effect.
  void set_scratch_enabled(bool on);

  /// Drain every core of events strictly before `horizon`, fanned out
  /// across the pool via the work-stealing deques. `max_advances`
  /// bounds the advances performed this epoch (0 = unbounded): when the
  /// shared budget is exhausted every thread stops claiming and
  /// draining, so a watchdog-bounded run overshoots by at most the
  /// in-flight events. Returns the advances performed and, for an
  /// unbudgeted epoch, the earliest next-action time the drained cores
  /// stopped at. On return all shards are parked.
  EpochTally drain_epoch(Cycles horizon, std::uint64_t max_advances = 0);

  /// Flush the staged outbox deliveries into the target inboxes
  /// (target-id order, slot-claim order within a target — both
  /// unobservable, see IpiOutbox) and return the earliest next-action
  /// time among the cores that received one (kNever if none did).
  /// Coordinator-only, between epochs. O(1) when the epoch staged
  /// nothing.
  Cycles merge_outboxes();

  /// Fold the per-core scratch registries into `into`, in core-id
  /// order, and clear them. Coordinator-only, at run end.
  void merge_scratch_metrics(obs::MetricsRegistry* into);

  /// True when no staged fabric delivery is awaiting its merge. Between
  /// runs this always holds (merge_outboxes runs at every epoch
  /// barrier); Machine::snapshot/restore assert it, since buffered
  /// fabric traffic is not part of the snapshot format.
  [[nodiscard]] bool quiescent() const { return outbox_.staged() == 0; }

  /// Heap allocations attributable to the engine's epoch scratch:
  /// arena block growth plus outbox spill growth (feeds
  /// Machine::hot_path_allocs).
  [[nodiscard]] std::uint64_t scratch_grow_allocs() const {
    return arena_.grows() + outbox_.spill_grow_allocs();
  }

 private:
  /// Per-core lane: shard-private scratch a drain writes outside the
  /// shared outbox, cache-line-aligned so neighboring shards never
  /// share a line.
  struct alignas(64) Lane {
    std::unique_ptr<obs::MetricsRegistry> scratch;
  };

  /// Drain one shard, folding its advances and stop time into
  /// `*tally`; returns false when the epoch advance budget ran out
  /// mid-drain (callers stop claiming shards).
  bool drain_core(unsigned core, Cycles horizon, EpochTally* tally);
  /// One thread's share of an epoch: drain the own deque, then steal.
  void drain_pool(unsigned self, Cycles horizon);
  void worker_main(unsigned self);

  Machine& machine_;
  unsigned threads_{1};
  bool steal_enabled_{true};
  /// Backing store for the outbox slot blocks and claim counters; built
  /// once per pool, reused every epoch.
  EpochArena arena_;
  IpiOutbox outbox_;
  std::vector<Lane> lanes_;  // one per core
  /// One deque per host thread (array: ShardDeque holds atomics and is
  /// neither movable nor copyable).
  std::unique_ptr<ShardDeque[]> deques_;

  // Per-epoch advance budget (0 = unlimited). budget_used_ is a shared
  // pre-claim counter: a thread advances only after claiming a slot
  // below the limit, so at most `max_advances` events run epoch-wide.
  std::uint64_t budget_limit_{0};
  std::atomic<std::uint64_t> budget_used_{0};

  std::atomic<std::uint64_t> steals_{0};

  /// One tally per host thread, written once per epoch by its owner.
  /// Workers' plain writes are ordered before the coordinator's fold by
  /// the done_-counter release/acquire handshake, and the fold before
  /// the next epoch's writes by the epoch_ release store.
  std::unique_ptr<EpochTally[]> tallies_;

  // Epoch handshake (workers_ == threads_ - 1 spawned threads).
  Cycles horizon_{0};  // published-before epoch_ store
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint64_t> done_{0};  // cumulative worker acks
  std::atomic<bool> shutdown_{false};
  std::uint64_t epochs_issued_{0};
  std::vector<std::thread> workers_;
};

}  // namespace iw::hwsim
