// Work-stealing epoch engine: the shard deques may move shards between
// host threads freely, but traces, metrics, fault schedules, and final
// machine state must stay bit-identical to the sequential schedulers at
// every (threads, steal-mode, fault-plan) point — including under
// starvation, where one shard holds ~90% of the events and the static
// partition would serialize the epoch. Also pins the satellite fixes:
// the worker pool is rebuilt when the thread count changes between runs
// on the same Machine, and the watchdogs bound overshoot *within* an
// epoch (advance budget + horizon clamp) instead of only at barriers.
#include <gtest/gtest.h>

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
/// routes per-core epochs through the budgeted advance() loop, so the
/// per-core side of every matrix also runs at 0: the production drain
/// (Core::drain_until) with the folded epoch start, checked against the
/// full scan every epoch by paranoid_frontier.
constexpr std::uint64_t kWatchdog = 80'000'000;
constexpr std::uint64_t kDrainBudgets[] = {kWatchdog, 0};

std::string budget_label(std::uint64_t max_advances) {
  return max_advances == 0 ? " drain_until" : " budgeted";
}

/// Heartbeat-broadcast over per-core spin work (shard-safe: all
/// cross-core traffic rides the IPI fabric), with trace AND metrics
/// digests. `steps`/`cost` shape the per-shard load.
Digest run_workload(unsigned cores, SchedulerKind sched, ShardPolicy policy,
                    unsigned threads, bool steal,
                    const std::vector<std::uint64_t>& steps,
                    const std::vector<Cycles>& cost,
                    const FaultPlan& plan = FaultPlan{},
                    std::uint64_t max_advances = kWatchdog) {
  MachineConfig mc;
  mc.num_cores = cores;
  mc.scheduler = sched;
  mc.shard_policy = policy;
  mc.threads = threads;
  mc.work_stealing = steal;
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
    m.core(i).set_irq_handler(0x40, [&irqs](Core& c, int) {
      c.consume(120);
      ++irqs[c.id()].v;
      // Per-core scratch registry path: merged in core order at run end,
      // so the export must be thread-count- and steal-invariant.
      if (auto* reg = c.machine().metrics()) reg->add("bench.ws_irq");
      if (c.id() == 0) c.machine().broadcast_ipi(c, 0x40);
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
    const Digest seq =
        run_workload(kCores, SchedulerKind::kFrontier,
                     ShardPolicy::kSingleGroup, 1, true, steps, cost, plan);
    EXPECT_NE(seq.irqs, 0u);
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      for (const bool steal : {false, true}) {
        for (const std::uint64_t budget : kDrainBudgets) {
          const Digest par = run_workload(
              kCores, SchedulerKind::kParallelEpoch, ShardPolicy::kPerCore,
              threads, steal, steps, cost, plan, budget);
          expect_same(seq, par,
                      "threads=" + std::to_string(threads) +
                          " steal=" + std::to_string(steal) +
                          " faulted=" + std::to_string(faulted) +
                          budget_label(budget));
        }
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
      run_workload(kCores, SchedulerKind::kFrontier,
                   ShardPolicy::kSingleGroup, 1, true, steps, cost);
  for (const std::uint64_t budget : kDrainBudgets) {
    const Digest par =
        run_workload(kCores, SchedulerKind::kParallelEpoch,
                     ShardPolicy::kPerCore, 4, true, steps, cost,
                     FaultPlan{}, budget);
    expect_same(seq, par, "1k cores, threads=4" + budget_label(budget));
  }
}

// ------------------------------------------------------- starvation

TEST(WorkStealing, StarvationOneHotShardStaysBitIdentical) {
  // Core 7 holds ~90% of the events (the hot shard). Under the old
  // static partition the epoch serializes behind it; under stealing the
  // other threads drain the rest of the machine meanwhile — with, by
  // construction, exactly the same observable results.
  constexpr unsigned kCores = 8;
  std::vector<std::uint64_t> steps(kCores, 400);
  std::vector<Cycles> cost(kCores, 400);
  steps[7] = 30'000;  // hot shard: last core, so its owner claims it
  cost[7] = 60;       // first and the rest of its block is stealable
  const Digest seq =
      run_workload(kCores, SchedulerKind::kFrontier,
                   ShardPolicy::kSingleGroup, 1, true, steps, cost);
  for (const unsigned threads : {2u, 4u}) {
    for (const bool steal : {false, true}) {
      for (const std::uint64_t budget : kDrainBudgets) {
        const Digest par = run_workload(
            kCores, SchedulerKind::kParallelEpoch, ShardPolicy::kPerCore,
            threads, steal, steps, cost, FaultPlan{}, budget);
        expect_same(seq, par,
                    "starved, threads=" + std::to_string(threads) +
                        " steal=" + std::to_string(steal) +
                        budget_label(budget));
        if (steal && threads == 2 &&
            std::thread::hardware_concurrency() > 1) {
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
}

// -------------------------------------------------- deque unit tests

TEST(WorkStealing, DequeTakeAndStealAreExclusive) {
  ShardDeque d;
  d.reset(10, 5);  // shards 10..14
  // Owner claims from the high end, thieves from the low end; every id
  // comes out exactly once.
  EXPECT_EQ(d.take(), 14);
  EXPECT_EQ(d.take(), 13);
  EXPECT_EQ(d.steal(), 10);
  EXPECT_EQ(d.steal(), 11);
  EXPECT_EQ(d.take(), 12);
  EXPECT_EQ(d.take(), ShardDeque::kEmpty);
  EXPECT_EQ(d.steal(), ShardDeque::kEmpty);
  // Reset re-arms the deque for the next epoch.
  d.reset(0, 2);
  EXPECT_EQ(d.steal(), 0);
  EXPECT_EQ(d.take(), 1);
  EXPECT_EQ(d.take(), ShardDeque::kEmpty);
}

TEST(WorkStealing, DequeEmptyBlock) {
  ShardDeque d;
  d.reset(3, 0);  // a thread can own zero shards (threads > cores/blocks)
  EXPECT_EQ(d.take(), ShardDeque::kEmpty);
  EXPECT_EQ(d.steal(), ShardDeque::kEmpty);
}

// ------------------------------------- pool rebuild on reconfiguration

TEST(WorkStealing, PoolRebuiltWhenThreadCountChanges) {
  // Regression: parallel_run_per_core used to build the engine once and
  // never compare its shape against the config again, so set_threads
  // between runs silently kept the old pool.
  constexpr unsigned kCores = 8;
  for (const std::uint64_t budget : kDrainBudgets) {
    SCOPED_TRACE(budget_label(budget));
    MachineConfig mc;
    mc.num_cores = kCores;
    mc.scheduler = SchedulerKind::kParallelEpoch;
    mc.shard_policy = ShardPolicy::kPerCore;
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

    // Steal-mode changes rebuild too: the fresh pool starts with a zero
    // steal counter and never steals.
    m.set_work_stealing(false);
    m.set_threads(4);
    EXPECT_TRUE(m.run_until(400'000));
    EXPECT_EQ(m.parallel_pool_threads(), 4u);
    EXPECT_EQ(m.parallel_steals(), 0u);

    // The reconfigured machine still completes the workload exactly.
    EXPECT_TRUE(m.run());
    const std::uint64_t final_advances = m.total_advances();

    MachineConfig seq = mc;
    seq.scheduler = SchedulerKind::kFrontier;
    seq.shard_policy = ShardPolicy::kSingleGroup;
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
    mc.shard_policy = ShardPolicy::kPerCore;
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
    mc.shard_policy = ShardPolicy::kPerCore;
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
