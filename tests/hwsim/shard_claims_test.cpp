// Work-stealing epoch engine: the shard blocks' claim cursors may move
// shards between host threads freely, but traces, metrics, fault
// schedules, and final machine state must stay bit-identical to the
// sequential schedulers at every (threads, fault-plan) point — including
// under starvation, where one shard holds ~90% of the events and a
// static partition would serialize the epoch. The
// engine's work/span/spill totals must be just as host-invariant. Also
// pins the satellite fixes: the worker pool is rebuilt when the thread
// count changes between runs on the same Machine, and the watchdogs
// bound overshoot *within* an epoch (advance budget + horizon clamp)
// instead of only at barriers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "hwsim/lapic.hpp"
#include "hwsim/machine.hpp"
#include "hwsim/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace iw::hwsim {
namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t trace_hash(const obs::TraceRecorder& tr) {
  std::ostringstream os;
  tr.write_text(os);
  return fnv1a(os.str());
}

std::uint64_t metrics_hash(const obs::MetricsRegistry& mx) {
  std::ostringstream os;
  mx.write_json(os);
  return fnv1a(os.str());
}

/// Finite per-core spin work with per-core step counts/costs, so load
/// imbalance across shards is a test input.
class UnevenSpinDriver final : public CoreDriver {
 public:
  UnevenSpinDriver(std::vector<std::uint64_t> steps, std::vector<Cycles> cost)
      : remaining_(std::move(steps)), cost_(std::move(cost)) {}
  bool runnable(Core& core) override { return remaining_[core.id()] > 0; }
  void step(Core& core) override {
    core.consume(cost_[core.id()]);
    --remaining_[core.id()];
  }

 private:
  std::vector<std::uint64_t> remaining_;
  std::vector<Cycles> cost_;
};

struct alignas(64) IrqCell {
  std::uint64_t v{0};
};

struct Digest {
  std::uint64_t trace{0};
  std::uint64_t metrics{0};
  std::uint64_t advances{0};
  std::uint64_t irqs{0};
  std::uint64_t ipis{0};
  Cycles end_time{0};
  std::uint64_t steals{0};
  ParallelTotals totals;
};

void expect_same(const Digest& a, const Digest& b, const std::string& what) {
  EXPECT_EQ(a.trace, b.trace) << what;
  EXPECT_EQ(a.metrics, b.metrics) << what;
  EXPECT_EQ(a.advances, b.advances) << what;
  EXPECT_EQ(a.irqs, b.irqs) << what;
  EXPECT_EQ(a.ipis, b.ipis) << what;
  EXPECT_EQ(a.end_time, b.end_time) << what;
}

/// Advance watchdog of the reference runs. Any nonzero max_advances
/// makes per-core epochs claim a budget slot before every advance and
/// rescan every epoch start, so the per-core side of every matrix also
/// runs at 0: the production drain with the folded epoch start, checked
/// against the full scan every epoch by paranoid_frontier.
constexpr std::uint64_t kWatchdog = 80'000'000;
constexpr std::uint64_t kDrainBudgets[] = {kWatchdog, 0};

std::string budget_label(std::uint64_t max_advances) {
  return max_advances == 0 ? " unbudgeted" : " budgeted";
}

/// Heartbeat-broadcast over per-core spin work (shard-safe: all
/// cross-core traffic rides the IPI fabric), with trace AND metrics
/// digests. `steps`/`cost` shape the per-shard load. `fan_in` makes
/// every other core answer each beat with an IPI back to core 0, so one
/// target receives more deliveries per epoch than its outbox slots hold.
Digest run_workload(unsigned cores, SchedulerKind sched, unsigned threads,
                    const std::vector<std::uint64_t>& steps,
                    const std::vector<Cycles>& cost,
                    const FaultPlan& plan = FaultPlan{},
                    std::uint64_t max_advances = kWatchdog,
                    bool fan_in = false) {
  MachineConfig mc;
  mc.num_cores = cores;
  mc.scheduler = sched;
  mc.threads = threads;
  mc.max_advances = max_advances;
  mc.paranoid_frontier = max_advances == 0;
  mc.faults = plan;
  Machine m(mc);

  obs::TraceRecorder tr;
  obs::MetricsRegistry mx;
  m.set_tracer(&tr);
  m.set_metrics(&mx);

  UnevenSpinDriver driver(steps, cost);
  std::vector<IrqCell> irqs(cores);
  for (unsigned i = 0; i < cores; ++i) {
    m.core(i).set_driver(&driver);
    m.core(i).set_irq_handler(0x40, [&irqs, fan_in](Core& c, int) {
      c.consume(120);
      ++irqs[c.id()].v;
      // Per-core scratch registry path: merged in core order at run end,
      // so the export must be thread-count- and claim-order-invariant.
      if (auto* reg = c.machine().metrics()) reg->add("bench.ws_irq");
      if (c.id() == 0) {
        c.machine().broadcast_ipi(c, 0x40);
      } else if (fan_in) {
        c.machine().send_ipi(c, 0, 0x41);
      }
    });
  }
  if (fan_in) {
    m.core(0).set_irq_handler(0x41, [&irqs](Core& c, int) {
      c.consume(40);
      ++irqs[c.id()].v;
    });
  }
  LapicTimer timer(m.core(0), 0x40);
  timer.periodic(20'000);

  EXPECT_TRUE(m.run_until(500'000));
  timer.stop();
  EXPECT_TRUE(m.run());

  Digest d;
  d.trace = trace_hash(tr);
  d.metrics = metrics_hash(mx);
  d.advances = m.total_advances();
  for (const auto& c : irqs) d.irqs += c.v;
  d.ipis = m.total_ipis();
  d.end_time = m.now();
  d.steals = m.parallel_steals();
  d.totals = m.parallel_totals();
  return d;
}

std::vector<std::uint64_t> even_steps(unsigned cores, std::uint64_t n) {
  return std::vector<std::uint64_t>(cores, n);
}
std::vector<Cycles> even_cost(unsigned cores, Cycles c) {
  return std::vector<Cycles>(cores, c);
}

// ------------------------------------------------ determinism matrix

TEST(WorkStealing, DigestMatrixThreadsStealFaults) {
  constexpr unsigned kCores = 16;
  const auto steps = even_steps(kCores, 2000);
  const auto cost = even_cost(kCores, 180);

  FaultPlan mixed;
  mixed.enabled = true;
  mixed.ipi_drop_rate = 0.05;
  mixed.ipi_delay_rate = 0.25;
  mixed.ipi_delay_max = 14'000;
  mixed.ipi_dup_rate = 0.10;
  mixed.ipi_dup_lag_max = 300;

  for (const bool faulted : {false, true}) {
    const FaultPlan& plan = faulted ? mixed : FaultPlan{};
    const Digest seq = run_workload(kCores, SchedulerKind::kFrontier, 1,
                                    steps, cost, plan);
    EXPECT_NE(seq.irqs, 0u);
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      for (const std::uint64_t budget : kDrainBudgets) {
        const Digest par = run_workload(kCores, SchedulerKind::kParallelEpoch,
                                        threads, steps, cost, plan, budget);
        expect_same(seq, par,
                    "threads=" + std::to_string(threads) +
                        " faulted=" + std::to_string(faulted) +
                        budget_label(budget));
      }
    }
  }
}

TEST(WorkStealing, KiloCoreDigestMatchesSequential) {
  // The scaled machine: 1k shards through the deque pool must still
  // reduce to the sequential schedule bit-for-bit.
  constexpr unsigned kCores = 1024;
  const auto steps = even_steps(kCores, 120);
  const auto cost = even_cost(kCores, 200);
  const Digest seq =
      run_workload(kCores, SchedulerKind::kFrontier, 1, steps, cost);
  for (const std::uint64_t budget : kDrainBudgets) {
    const Digest par = run_workload(kCores, SchedulerKind::kParallelEpoch, 4,
                                    steps, cost, FaultPlan{}, budget);
    expect_same(seq, par, "1k cores, threads=4" + budget_label(budget));
  }
}

// ------------------------------------------------------- starvation

TEST(WorkStealing, StarvationOneHotShardStaysBitIdentical) {
  // Core 7 holds ~90% of the events (the hot shard). Under a static
  // partition the epoch would serialize behind it; under stealing the
  // other threads drain the rest of the machine meanwhile — with, by
  // construction, exactly the same observable results.
  constexpr unsigned kCores = 8;
  std::vector<std::uint64_t> steps(kCores, 400);
  std::vector<Cycles> cost(kCores, 400);
  steps[7] = 30'000;  // hot shard: last core, so its owner claims it
  cost[7] = 60;       // first and the rest of its block is stealable
  const Digest seq =
      run_workload(kCores, SchedulerKind::kFrontier, 1, steps, cost);
  for (const unsigned threads : {2u, 4u}) {
    for (const std::uint64_t budget : kDrainBudgets) {
      const Digest par = run_workload(kCores, SchedulerKind::kParallelEpoch,
                                      threads, steps, cost, FaultPlan{},
                                      budget);
      expect_same(seq, par,
                  "starved, threads=" + std::to_string(threads) +
                      budget_label(budget));
      if (threads == 2 && std::thread::hardware_concurrency() > 1) {
        // With >= 2 real CPUs the non-hot thread finishes its block
        // while the owner is pinned on core 7, so at least one steal
        // must have happened. (On a 1-CPU host the workers time-slice
        // and the claim pattern is not guaranteed, so only the digest
        // assertions above apply.)
        EXPECT_GT(par.steals, 0u) << "no steals despite a 90% hot shard";
      }
    }
  }
}

// ------------------------------------------ available parallelism

TEST(WorkStealing, WorkSpanAndSpillsAreHostInvariant) {
  // Work (shard advances), span (longest shard drain plus the serial
  // merge) and outbox spills describe the simulated schedule, so they
  // must read the same at every host-thread count. The
  // fan-in sends 31 deliveries to core 0 per beat against 8 slots, and
  // the uneven step counts make the span a real maximum.
  constexpr unsigned kCores = 32;
  std::vector<std::uint64_t> steps(kCores);
  std::vector<Cycles> cost(kCores);
  for (unsigned i = 0; i < kCores; ++i) {
    steps[i] = 400 + 97 * i;
    cost[i] = 150 + 11 * (i % 5);
  }
  const Digest seq = run_workload(kCores, SchedulerKind::kFrontier, 1, steps,
                                  cost, FaultPlan{}, kWatchdog,
                                  /*fan_in=*/true);
  const Digest ref = run_workload(kCores, SchedulerKind::kParallelEpoch, 1,
                                  steps, cost, FaultPlan{}, 0,
                                  /*fan_in=*/true);
  expect_same(seq, ref, "fan-in, threads=1");
  EXPECT_GT(ref.totals.span, 0u);
  EXPECT_LT(ref.totals.span, ref.totals.work);
  EXPECT_LE(ref.totals.work, ref.advances);
  EXPECT_GT(ref.totals.spills, 0u);
  for (const unsigned threads : {1u, 2u, 4u}) {
    const Digest par = run_workload(kCores, SchedulerKind::kParallelEpoch,
                                    threads, steps, cost, FaultPlan{}, 0,
                                    /*fan_in=*/true);
    const std::string what = "threads=" + std::to_string(threads);
    expect_same(seq, par, what);
    EXPECT_EQ(par.totals.work, ref.totals.work) << what;
    EXPECT_EQ(par.totals.span, ref.totals.span) << what;
    EXPECT_EQ(par.totals.spills, ref.totals.spills) << what;
  }
}

// ------------------------------------------------ claim-cursor tests

/// Ids [lo, hi) of one claim, in the order a drain walks them.
std::vector<std::uint32_t> ids_of(const ShardBlock::Claim& c) {
  std::vector<std::uint32_t> ids;
  for (std::uint32_t s = c.hi; s-- > c.lo;) ids.push_back(s);
  return ids;
}

/// True when the next claim on `b` comes back empty.
bool exhausted(ShardBlock& b) {
  const ShardBlock::Claim c = b.claim();
  return c.lo == c.hi;
}

TEST(WorkStealing, CursorHandsOutEachIdOnceFromTheTopDown) {
  ShardBlock b;
  b.reset(10, 100);  // shards 10..109, chunks of 100 / 32 = 3
  ASSERT_EQ(b.chunk, 3u);
  // The owner and a thief claim through the same cursor, interleaved
  // (owner, thief, thief, owner, ...). Every id comes out exactly once,
  // and each claim continues downward from where the last one stopped.
  std::vector<int> seen(100, 0);
  std::uint32_t next_hi = 110;
  std::vector<std::uint32_t> owner;
  std::vector<std::uint32_t> thief;
  for (unsigned turn = 0;; ++turn) {
    const ShardBlock::Claim c = b.claim();
    if (c.lo == c.hi) break;
    EXPECT_EQ(c.hi, next_hi) << "claims must descend from the block top";
    next_hi = c.lo;
    for (const std::uint32_t s : ids_of(c)) {
      ASSERT_GE(s, 10u);
      ASSERT_LT(s, 110u);
      ++seen[s - 10];
      (turn % 3 == 0 ? owner : thief).push_back(s);
    }
  }
  EXPECT_EQ(next_hi, 10u);
  for (unsigned i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], 1) << "shard " << 10 + i;
  }
  ASSERT_GE(owner.size(), 3u);
  EXPECT_EQ(owner[0], 109u) << "the first claim starts at the block top";
  EXPECT_EQ(owner.size() + thief.size(), 100u);
  // Exhausted stays exhausted for every claimant.
  EXPECT_TRUE(exhausted(b));
  EXPECT_TRUE(exhausted(b));
}

TEST(WorkStealing, CursorLastChunkIsPartial) {
  ShardBlock b;
  b.reset(0, 100);  // 33 chunks of 3, then the one id left over
  for (int i = 0; i < 33; ++i) {
    const ShardBlock::Claim c = b.claim();
    EXPECT_EQ(c.hi - c.lo, 3u) << "chunk " << i;
  }
  const ShardBlock::Claim last = b.claim();
  EXPECT_EQ(last.lo, 0u);
  EXPECT_EQ(last.hi, 1u);
  EXPECT_TRUE(exhausted(b));
  // A block smaller than kChunksPerBlock claims one shard at a time.
  b.reset(7, 5);
  EXPECT_EQ(b.chunk, 1u);
  EXPECT_EQ(ids_of(b.claim()), std::vector<std::uint32_t>{11});
}

TEST(WorkStealing, CursorEmptyBlockYieldsNothing) {
  ShardBlock b;
  b.reset(3, 0);  // a thread can own zero shards (threads > cores/blocks)
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(exhausted(b));
}

TEST(WorkStealing, CursorResetRearms) {
  ShardBlock b;
  b.reset(10, 5);
  while (!exhausted(b)) {
  }
  // Reset re-arms the cursor for the next epoch, with a new block.
  b.reset(0, 2);
  EXPECT_EQ(ids_of(b.claim()), std::vector<std::uint32_t>{1});
  EXPECT_EQ(ids_of(b.claim()), std::vector<std::uint32_t>{0});
  EXPECT_TRUE(exhausted(b));
  b.reset(64, 64);  // chunks of 2
  EXPECT_EQ(ids_of(b.claim()), (std::vector<std::uint32_t>{127, 126}));
}

TEST(WorkStealing, CursorStressEveryShardClaimedOncePerRound) {
  // Four threads claim chunks of four blocks until all are exhausted. A
  // per-shard counter must read exactly 1 after every round. Every
  // thread walks the blocks in the same order, so all four contend on
  // each cursor (harder than drain_pool's own-block-first order), and
  // no thread claims before all four have reached the round's start
  // line, so a slow wake-up cannot leave one thread claiming alone (on
  // a busy host the release alone can take longer than a whole round's
  // claims). The counters are atomic so that two claimants of one
  // shard always read as 2 (plain increments racing on the same chunk
  // can lose one); TSan checks that the reset of each round's blocks
  // is ordered before every thread's claims, as the epoch handshake
  // orders it.
  constexpr unsigned kThreads = 4;
  constexpr unsigned kRounds = 3000;
  constexpr std::uint32_t kMaxBlock = 4096;
  ShardBlock blocks[kThreads];
  std::vector<std::atomic<std::uint32_t>> hits(kThreads * kMaxBlock);
  std::atomic<unsigned> round{0};    // release: blocks seeded for round r
  std::atomic<unsigned> arrived{0};  // cumulative start-line arrivals
  std::atomic<unsigned> done{0};     // cumulative worker acks
  const auto spin_until = [](const std::atomic<unsigned>& v, unsigned n) {
    for (int spins = 0; v.load(std::memory_order_acquire) < n;) {
      if (++spins > 200) std::this_thread::yield();
    }
  };
  const auto claim_all = [&](unsigned r) {
    arrived.fetch_add(1, std::memory_order_relaxed);
    spin_until(arrived, r * kThreads);
    for (ShardBlock& block : blocks) {
      for (ShardBlock::Claim c = block.claim(); c.lo != c.hi;
           c = block.claim()) {
        for (std::uint32_t s = c.hi; s-- > c.lo;) {
          hits[s].fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (unsigned r = 1; r <= kRounds; ++r) {
        spin_until(round, r);
        claim_all(r);
        done.fetch_add(1, std::memory_order_release);
      }
    });
  }
  std::uint64_t state = 0x9E3779B97F4A7C15ULL;
  unsigned bad_rounds = 0;
  for (unsigned r = 1; r <= kRounds; ++r) {
    // Block sizes in [1, 4096]; the cap cycles by round so small blocks
    // (chunk 1, the most contended case) come up as often as large.
    std::uint32_t base = 0;
    for (ShardBlock& block : blocks) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      const std::uint32_t cap = r % 3 == 0 ? 8 : r % 3 == 1 ? 256 : kMaxBlock;
      const auto n = static_cast<std::uint32_t>(1 + (state >> 33) % cap);
      block.reset(base, n);
      base += n;
    }
    for (std::uint32_t s = 0; s < base; ++s) {
      hits[s].store(0, std::memory_order_relaxed);
    }
    round.store(r, std::memory_order_release);
    claim_all(r);
    spin_until(done, r * (kThreads - 1));
    if (!std::all_of(hits.begin(), hits.begin() + base,
                     [](const std::atomic<std::uint32_t>& h) {
                       return h.load(std::memory_order_relaxed) == 1;
                     })) {
      ++bad_rounds;
    }
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(bad_rounds, 0u);
}

// ------------------------------------- pool rebuild on reconfiguration

TEST(WorkStealing, PoolRebuiltWhenThreadCountChanges) {
  // Regression: the per-core run loop used to build the engine once and
  // never compare its shape against the config again, so set_threads
  // between runs silently kept the old pool.
  constexpr unsigned kCores = 8;
  for (const std::uint64_t budget : kDrainBudgets) {
    SCOPED_TRACE(budget_label(budget));
    MachineConfig mc;
    mc.num_cores = kCores;
    mc.scheduler = SchedulerKind::kParallelEpoch;
    mc.threads = 2;
    mc.max_advances = budget;
    mc.paranoid_frontier = budget == 0;
    Machine m(mc);
    UnevenSpinDriver driver(even_steps(kCores, 4000), even_cost(kCores, 200));
    for (unsigned i = 0; i < kCores; ++i) m.core(i).set_driver(&driver);

    EXPECT_EQ(m.parallel_pool_threads(), 0u);  // lazily built
    EXPECT_TRUE(m.run_until(100'000));
    EXPECT_EQ(m.parallel_pool_threads(), 2u);

    m.set_threads(8);
    EXPECT_TRUE(m.run_until(200'000));
    EXPECT_EQ(m.parallel_pool_threads(), 8u);

    // Requests past num_cores clamp, and a matching request must NOT
    // rebuild into a differently-clamped pool on every run.
    m.set_threads(64);
    EXPECT_TRUE(m.run_until(300'000));
    EXPECT_EQ(m.parallel_pool_threads(), 8u);

    m.set_threads(4);
    EXPECT_TRUE(m.run_until(400'000));
    EXPECT_EQ(m.parallel_pool_threads(), 4u);

    // The reconfigured machine still completes the workload exactly.
    EXPECT_TRUE(m.run());
    const std::uint64_t final_advances = m.total_advances();

    MachineConfig seq = mc;
    seq.scheduler = SchedulerKind::kFrontier;
    Machine m2(seq);
    UnevenSpinDriver driver2(even_steps(kCores, 4000),
                             even_cost(kCores, 200));
    for (unsigned i = 0; i < kCores; ++i) m2.core(i).set_driver(&driver2);
    EXPECT_TRUE(m2.run());
    EXPECT_EQ(final_advances, m2.total_advances());
    EXPECT_EQ(m.now(), m2.now());
  }
}

// --------------------------------------- watchdogs at epoch granularity

TEST(WorkStealing, AdvanceWatchdogBoundsOvershootInsideAnEpoch) {
  // Regression: with a large lookahead one epoch used to drain the
  // entire workload before the between-epoch watchdog check could fire.
  // The advance budget now caps the epoch at the advances remaining.
  for (const unsigned threads : {1u, 4u}) {
    MachineConfig mc;
    mc.num_cores = 16;
    mc.scheduler = SchedulerKind::kParallelEpoch;
    mc.threads = threads;
    mc.costs.ipi_latency = 100'000'000;  // one epoch spans everything
    mc.max_advances = 2000;
    Machine m(mc);
    UnevenSpinDriver driver(even_steps(16, 10'000), even_cost(16, 100));
    for (unsigned i = 0; i < 16; ++i) m.core(i).set_driver(&driver);
    EXPECT_FALSE(m.run()) << "threads=" << threads;
    // Budget semantics: the sequential schedulers abort after
    // max_advances + 1 advances; the epoch engine hands out exactly
    // that many pre-claimed slots (160k events were available).
    EXPECT_EQ(m.total_advances(), mc.max_advances + 1)
        << "threads=" << threads;
  }
}

TEST(WorkStealing, TimeWatchdogBoundsOvershootInsideAnEpoch) {
  // Same shape for the virtual-time budget: the horizon is clamped to
  // max_time + 1, so cores stop within one driver step of the limit
  // instead of sailing to the lookahead horizon.
  for (const unsigned threads : {1u, 4u}) {
    MachineConfig mc;
    mc.num_cores = 8;
    mc.scheduler = SchedulerKind::kParallelEpoch;
    mc.threads = threads;
    mc.costs.ipi_latency = 100'000'000;
    mc.max_time = 50'000;
    Machine m(mc);
    UnevenSpinDriver driver(even_steps(8, 50'000), even_cost(8, 100));
    for (unsigned i = 0; i < 8; ++i) m.core(i).set_driver(&driver);
    EXPECT_FALSE(m.run()) << "threads=" << threads;
    // Each core overshoots by at most one 100-cycle step.
    EXPECT_LE(m.now(), mc.max_time + 100) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace iw::hwsim
