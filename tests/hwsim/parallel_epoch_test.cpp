// kParallelEpoch correctness: the epoch-synchronized parallel scheduler
// must execute bit-identical schedules to the sequential schedulers for
// every (ShardPolicy, threads) combination, and the epoch machinery's
// edge cases — an IPI landing exactly on the lookahead horizon, a fault
// delay pushing a delivery across an epoch, a broadcast fanning out over
// every shard, a 1-thread run that spawns nothing — must all reduce to
// the same schedule. Also covers kAuto's construction-time resolution,
// the shard-safety guard for per-core drains, the epochs send horizons
// allow (a declining driver keeps lookahead-wide ones), and the staging
// check that catches a driver whose certificate lied.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "hwsim/lapic.hpp"
#include "hwsim/machine.hpp"
#include "obs/trace.hpp"

#include "../../bench/des_workload.hpp"

namespace iw::hwsim {
namespace {

std::uint64_t trace_hash(const obs::TraceRecorder& tr) {
  std::ostringstream os;
  tr.write_text(os);
  const std::string s = os.str();
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Spin driver with per-core finite work so cores go idle at different
/// times (exercises the epoch loop's idle-shard and horizon paths).
class SpinDriver final : public CoreDriver {
 public:
  SpinDriver(unsigned cores, Cycles step, std::uint64_t steps)
      : step_(step), remaining_(cores, steps) {}
  bool runnable(Core& core) override { return remaining_[core.id()] > 0; }
  void step(Core& core) override {
    core.consume(step_);
    --remaining_[core.id()];
  }

 private:
  Cycles step_;
  std::vector<std::uint64_t> remaining_;
};

/// Cache-line-private per-core IRQ counter (handlers on different
/// shards must not share a line).
struct alignas(64) IrqCell {
  std::uint64_t v{0};
};

struct BcastRun {
  std::uint64_t hash{0};
  std::uint64_t advances{0};
  std::uint64_t irqs{0};
  std::uint64_t ipis{0};
  Cycles end_time{0};
  std::uint64_t scans{0};
  std::uint64_t serial_epochs{0};
  std::uint64_t parallel_epochs{0};
};

/// Advance watchdog of the reference runs. Any nonzero max_advances
/// makes per-core epochs claim a budget slot before every advance and
/// rescan every epoch start, so the per-core side of every matrix also
/// runs at 0: the production drain with the folded epoch start, checked
/// against the full scan every epoch by paranoid_frontier.
constexpr std::uint64_t kWatchdog = 50'000'000;
constexpr std::uint64_t kDrainBudgets[] = {kWatchdog, 0};

std::string budget_label(std::uint64_t max_advances) {
  return max_advances == 0 ? " unbudgeted" : " budgeted";
}

/// Shard-safe heartbeat-broadcast workload (the des_throughput pattern):
/// a LAPIC timer on core 0 whose handler broadcasts to every other core,
/// over uneven finite spin work. All cross-core traffic goes through the
/// IPI fabric, so it is legal under ShardPolicy::kPerCore.
BcastRun run_broadcast(unsigned cores, SchedulerKind sched,
                       ShardPolicy policy, unsigned threads,
                       std::uint64_t max_advances = kWatchdog,
                       const FaultPlan& plan = FaultPlan{},
                       std::uint64_t fault_seed = 0) {
  MachineConfig mc;
  mc.num_cores = cores;
  mc.scheduler = sched;
  mc.shard_policy = policy;
  mc.threads = threads;
  mc.max_advances = max_advances;
  mc.paranoid_frontier = max_advances == 0;
  mc.faults = plan;
  mc.fault_seed = fault_seed;
  Machine m(mc);

  obs::TraceRecorder tr;
  m.set_tracer(&tr);

  SpinDriver driver(cores, 180, 3000);
  std::vector<IrqCell> irqs(cores);
  for (unsigned i = 0; i < cores; ++i) {
    m.core(i).set_driver(&driver);
    m.core(i).set_irq_handler(0x40, [&irqs](Core& c, int) {
      c.consume(120);
      ++irqs[c.id()].v;
      if (c.id() == 0) c.machine().broadcast_ipi(c, 0x40);
    });
  }
  LapicTimer timer(m.core(0), 0x40);
  timer.periodic(20'000);

  EXPECT_TRUE(m.run_until(700'000));
  timer.stop();
  EXPECT_TRUE(m.run());

  BcastRun r;
  r.hash = trace_hash(tr);
  r.advances = m.total_advances();
  for (const auto& c : irqs) r.irqs += c.v;
  r.ipis = m.total_ipis();
  r.end_time = m.now();
  r.scans = m.horizon_scans();
  r.serial_epochs = m.serial_epochs();
  r.parallel_epochs = m.parallel_epochs();
  return r;
}

void expect_same(const BcastRun& a, const BcastRun& b, const char* what) {
  EXPECT_EQ(a.hash, b.hash) << what;
  EXPECT_EQ(a.advances, b.advances) << what;
  EXPECT_EQ(a.irqs, b.irqs) << what;
  EXPECT_EQ(a.ipis, b.ipis) << what;
  EXPECT_EQ(a.end_time, b.end_time) << what;
}

// ------------------------------------------------- schedule equivalence

TEST(ParallelEpoch, OneThreadPerCoreReducesToSequential) {
  // threads=1 drains every shard on the calling thread (no worker pool
  // is spawned) but still runs the epoch/outbox machinery — the pure
  // test of the lookahead algebra with no concurrency in play.
  const BcastRun seq =
      run_broadcast(4, SchedulerKind::kFrontier, ShardPolicy::kSingleGroup, 1);
  for (const std::uint64_t budget : kDrainBudgets) {
    const BcastRun par = run_broadcast(4, SchedulerKind::kParallelEpoch,
                                       ShardPolicy::kPerCore, 1, budget);
    expect_same(seq, par,
                ("per-core/1-thread vs frontier" + budget_label(budget))
                    .c_str());
    EXPECT_NE(par.irqs, 0u);
  }
}

TEST(ParallelEpoch, PerCoreMatchesSequentialAcrossThreadCounts) {
  const BcastRun seq =
      run_broadcast(8, SchedulerKind::kFrontier, ShardPolicy::kSingleGroup, 1);
  for (const unsigned threads : {1u, 2u, 8u}) {
    for (const std::uint64_t budget : kDrainBudgets) {
      const BcastRun par = run_broadcast(8, SchedulerKind::kParallelEpoch,
                                         ShardPolicy::kPerCore, threads,
                                         budget);
      expect_same(seq, par,
                  ("threads=" + std::to_string(threads) + budget_label(budget))
                      .c_str());
    }
  }
}

TEST(ParallelEpoch, SingleGroupMatchesSequential) {
  for (const unsigned cores : {2u, 8u}) {
    const BcastRun seq = run_broadcast(cores, SchedulerKind::kFrontier,
                                       ShardPolicy::kSingleGroup, 1);
    const BcastRun par = run_broadcast(cores, SchedulerKind::kParallelEpoch,
                                       ShardPolicy::kSingleGroup, 1);
    expect_same(seq, par, "single-group vs frontier");
  }
}

TEST(ParallelEpoch, BroadcastFanOutSpansAllShards) {
  // threads == cores: every shard block is a single core, so the
  // broadcast's fan-out crosses every worker boundary and every
  // delivery rides an outbox merge. Totals must still match, and every
  // core must have seen IRQs.
  MachineConfig mc;
  mc.num_cores = 8;
  mc.scheduler = SchedulerKind::kParallelEpoch;
  mc.shard_policy = ShardPolicy::kPerCore;
  mc.threads = 8;
  mc.max_advances = 50'000'000;
  Machine m(mc);
  SpinDriver driver(8, 180, 3000);
  std::vector<IrqCell> irqs(8);
  for (unsigned i = 0; i < 8; ++i) {
    m.core(i).set_driver(&driver);
    m.core(i).set_irq_handler(0x40, [&irqs](Core& c, int) {
      c.consume(120);
      ++irqs[c.id()].v;
      if (c.id() == 0) c.machine().broadcast_ipi(c, 0x40);
    });
  }
  LapicTimer timer(m.core(0), 0x40);
  timer.periodic(20'000);
  EXPECT_TRUE(m.run_until(700'000));
  timer.stop();
  EXPECT_TRUE(m.run());
  for (unsigned i = 0; i < 8; ++i) {
    EXPECT_NE(irqs[i].v, 0u) << "core " << i << " never saw the broadcast";
  }
  const BcastRun seq =
      run_broadcast(8, SchedulerKind::kFrontier, ShardPolicy::kSingleGroup, 1);
  std::uint64_t total = 0;
  for (const auto& c : irqs) total += c.v;
  EXPECT_EQ(total, seq.irqs);
}

TEST(ParallelEpoch, UnreachedAdvanceBudgetFoldsLikeNoBudget) {
  // A watchdog the run never reaches must not cost full scans: only an
  // epoch that ran out of budget leaves next actions unreported. Two run
  // entries scan; every other epoch start is folded, budget or not.
  for (const unsigned threads : {1u, 2u}) {
    const BcastRun budgeted = run_broadcast(
        8, SchedulerKind::kParallelEpoch, ShardPolicy::kPerCore, threads,
        kWatchdog);
    const BcastRun free = run_broadcast(8, SchedulerKind::kParallelEpoch,
                                        ShardPolicy::kPerCore, threads, 0);
    EXPECT_EQ(budgeted.scans, free.scans) << "threads=" << threads;
    EXPECT_EQ(free.scans, 2u) << "threads=" << threads;
  }
}

TEST(ParallelEpoch, NoSerialCoreRunsNoSequentialEpoch) {
  // The broadcast workload declares no serial core: every epoch drains
  // its shards in parallel, at every thread count.
  for (const unsigned threads : {1u, 2u, 4u}) {
    const BcastRun r = run_broadcast(8, SchedulerKind::kParallelEpoch,
                                     ShardPolicy::kPerCore, threads, 0);
    EXPECT_EQ(r.serial_epochs, 0u) << "threads=" << threads;
  }
}

// ------------------------------------------------------ send horizons

TEST(ParallelEpoch, DecliningDriverKeepsLookaheadWideEpochs) {
  // The broadcast's spin driver declines fast-forward certificates, so
  // every core's send horizon is its next action and each epoch is one
  // lookahead wide: exactly the epochs the lookahead-bounded engine ran
  // before send horizons (882, measured on it), at every thread count.
  for (const unsigned threads : {1u, 2u, 4u}) {
    const BcastRun r = run_broadcast(8, SchedulerKind::kParallelEpoch,
                                     ShardPolicy::kPerCore, threads, 0);
    EXPECT_EQ(r.parallel_epochs, 882u) << "threads=" << threads;
  }
}

TEST(ParallelEpoch, CertifyingSpinWidensEpochsToTheBroadcast) {
  // The benchmarks' heartbeat broadcast over certifying spins: only the
  // LAPIC fire and the IPI arrivals bound epochs, a few per 20 000-cycle
  // period instead of one per 600-cycle lookahead (33 per period before
  // send horizons).
  constexpr Cycles kPeriods = 40;
  for (const unsigned threads : {1u, 4u}) {
    bench::DesWorkload w = bench::make_des_workload(
        1024, SchedulerKind::kParallelEpoch, 200, 20'000, threads);
    ASSERT_TRUE(w.machine->run_until(kPeriods * 20'000));
    EXPECT_LE(w.machine->parallel_epochs(), 4 * kPeriods)
        << "threads=" << threads;
    EXPECT_EQ(w.total_irqs(), (kPeriods - 1) * 1024) << "threads=" << threads;
  }
}

/// Certifies its steps inert for fast-forward, then sends an IPI from
/// its second step anyway.
class LyingSpin final : public CoreDriver {
 public:
  bool runnable(Core& core) override { return core.id() == 0 && steps_ < 4; }
  void step(Core& core) override {
    core.consume(100);
    if (++steps_ == 2) core.machine().send_ipi(core, 1, 0x30);
  }
  bool plan_fast_forward(Core& core, Cycles horizon,
                         FastForwardPlan* plan) override {
    const std::uint64_t need = (horizon - core.clock() + 99) / 100;
    plan->steps = std::min<std::uint64_t>(4 - steps_, need);
    plan->end_clock = core.clock() + plan->steps * 100;
    return true;
  }

 private:
  std::uint64_t steps_{0};
};

TEST(ParallelEpoch, CertifiedDriverSendingInsideItsWindowIsNamed) {
  // Core 0's certificate makes its send horizon the run target, so the
  // first epoch spans the whole run; the IPI its step sends would land
  // inside it, after core 1 may already have run past the arrival.
  auto run = [] {
    MachineConfig mc;
    mc.num_cores = 2;
    mc.scheduler = SchedulerKind::kParallelEpoch;
    mc.shard_policy = ShardPolicy::kPerCore;
    mc.threads = 1;  // single host thread: the death is deterministic
    Machine m(mc);
    LyingSpin d;
    m.core(0).set_driver(&d);
    (void)m.run_until(10'000);
  };
  EXPECT_DEATH(run(),
               "core 0 sent an IPI arriving at cycle [0-9]+, before the "
               "parallel epoch's horizon 10000");
}

// ------------------------------------------------- epoch-boundary edges

TEST(ParallelEpoch, IpiLandingExactlyOnLookaheadHorizonIsNextEpoch) {
  // A core whose only action is at epoch start E sends an IPI whose
  // delivery lands at exactly E + lookahead — the first cycle the
  // current epoch may NOT process. The parallel run must defer it to
  // the next epoch and deliver at the same cycle as the sequential run.
  auto run = [](SchedulerKind sched, ShardPolicy policy) {
    MachineConfig mc;
    mc.num_cores = 2;
    mc.scheduler = sched;
    mc.shard_policy = policy;
    mc.threads = 1;
    mc.max_advances = 1'000'000;
    Machine m(mc);
    // Sender: one zero-extra-cost step at t=0 that fires the IPI; the
    // send cost advances the sender past 0, and delivery is queued at
    // exactly send-time + ipi_latency.
    class OneShotSender final : public CoreDriver {
     public:
      bool runnable(Core& core) override {
        return core.id() == 0 && !sent_;
      }
      void step(Core& core) override {
        sent_ = true;
        core.machine().send_ipi(core, 1, 0x30);
      }

     private:
      bool sent_{false};
    } sender;
    m.core(0).set_driver(&sender);
    Cycles recv = kNever;
    m.core(1).set_irq_handler(0x30,
                              [&](Core& c, int) { recv = c.clock(); });
    EXPECT_TRUE(m.run());
    EXPECT_NE(recv, kNever);
    return recv;
  };
  const Cycles seq =
      run(SchedulerKind::kFrontier, ShardPolicy::kSingleGroup);
  EXPECT_EQ(run(SchedulerKind::kParallelEpoch, ShardPolicy::kPerCore), seq);
  EXPECT_EQ(run(SchedulerKind::kParallelEpoch, ShardPolicy::kSingleGroup),
            seq);
}

TEST(ParallelEpoch, FaultDelayPushesDeliveryAcrossEpochs) {
  // A delay fault stretches deliveries up to 3 lookaheads past the
  // nominal latency, so faulted IPIs routinely skip whole epochs. The
  // fault fate is drawn eagerly in the sender's stream, so the schedule
  // must stay bit-identical to the sequential run under the same plan.
  FaultPlan p;
  p.enabled = true;
  p.ipi_delay_rate = 1.0;
  p.ipi_delay_max = 3 * CostModel::knl().ipi_latency;
  const BcastRun seq = run_broadcast(8, SchedulerKind::kFrontier,
                                     ShardPolicy::kSingleGroup, 1, kWatchdog,
                                     p);
  for (const unsigned threads : {1u, 2u, 8u}) {
    for (const std::uint64_t budget : kDrainBudgets) {
      const BcastRun par = run_broadcast(8, SchedulerKind::kParallelEpoch,
                                         ShardPolicy::kPerCore, threads,
                                         budget, p);
      expect_same(seq, par,
                  ("delay plan, per-core" + budget_label(budget)).c_str());
    }
  }
}

TEST(ParallelEpoch, MixedFaultPlanStaysBitIdentical) {
  // Drops, delays, and duplicates together: every fabric-level fault
  // class drawn from per-sender streams during parallel drains.
  FaultPlan p;
  p.enabled = true;
  p.ipi_drop_rate = 0.05;
  p.ipi_delay_rate = 0.25;
  p.ipi_delay_max = 14'000;
  p.ipi_dup_rate = 0.10;
  p.ipi_dup_lag_max = 300;
  for (const std::uint64_t fault_seed : {0ULL, 7ULL}) {
    const BcastRun seq =
        run_broadcast(8, SchedulerKind::kFrontier, ShardPolicy::kSingleGroup,
                      1, kWatchdog, p, fault_seed);
    for (const std::uint64_t budget : kDrainBudgets) {
      const BcastRun par = run_broadcast(8, SchedulerKind::kParallelEpoch,
                                         ShardPolicy::kPerCore, 2, budget, p,
                                         fault_seed);
      expect_same(seq, par,
                  ("mixed fault plan" + budget_label(budget)).c_str());
    }
  }
}

TEST(ParallelEpoch, RunUntilIsExactAndResumable) {
  // run_until(t) must stop at exactly the same schedule point as the
  // sequential scheduler, and a split run (run_until(a); run_until(b))
  // must equal one run_until(b).
  auto run_split = [](SchedulerKind sched, ShardPolicy policy, bool split) {
    MachineConfig mc;
    mc.num_cores = 4;
    mc.scheduler = sched;
    mc.shard_policy = policy;
    mc.threads = 2;
    mc.max_advances = 50'000'000;
    Machine m(mc);
    obs::TraceRecorder tr;
    m.set_tracer(&tr);
    SpinDriver driver(4, 180, 3000);
    std::vector<IrqCell> irqs(4);
    for (unsigned i = 0; i < 4; ++i) {
      m.core(i).set_driver(&driver);
      m.core(i).set_irq_handler(0x40, [&irqs](Core& c, int) {
        c.consume(120);
        ++irqs[c.id()].v;
        if (c.id() == 0) c.machine().broadcast_ipi(c, 0x40);
      });
    }
    LapicTimer timer(m.core(0), 0x40);
    timer.periodic(20'000);
    if (split) {
      EXPECT_TRUE(m.run_until(310'000));
    }
    EXPECT_TRUE(m.run_until(620'000));
    timer.stop();
    EXPECT_TRUE(m.run());
    return trace_hash(tr);
  };
  const std::uint64_t seq =
      run_split(SchedulerKind::kFrontier, ShardPolicy::kSingleGroup, false);
  EXPECT_EQ(
      run_split(SchedulerKind::kParallelEpoch, ShardPolicy::kPerCore, false),
      seq);
  EXPECT_EQ(
      run_split(SchedulerKind::kParallelEpoch, ShardPolicy::kPerCore, true),
      seq);
}

// --------------------------------- folded epoch start (unbudgeted drain)

constexpr int kWakeVector = 0x50;

/// Per-core finite spin work that can be granted more steps later, so
/// idle cores become runnable mid-run. With `ping_every` set, core 0
/// also sends an IPI to one of cores 2..7 in turn every that many steps.
class GrantDriver final : public CoreDriver {
 public:
  GrantDriver(std::vector<std::uint64_t> steps, std::uint64_t ping_every)
      : remaining_(std::move(steps)), ping_every_(ping_every) {}
  bool runnable(Core& core) override { return remaining_[core.id()] > 0; }
  void step(Core& core) override {
    core.consume(170 + 10 * (core.id() % 3));
    --remaining_[core.id()];
    if (ping_every_ != 0 && core.id() == 0 && ++pings_ % ping_every_ == 0) {
      const auto to = static_cast<CoreId>(2 + (pings_ / ping_every_) % 6);
      core.machine().send_ipi(core, to, kWakeVector);
    }
  }
  void grant(CoreId core, std::uint64_t steps) { remaining_[core] += steps; }

 private:
  std::vector<std::uint64_t> remaining_;
  std::uint64_t ping_every_;
  std::uint64_t pings_{0};  // core 0's shard only
};

/// Machine-queue job: gives payload.w[1] steps of work to core
/// payload.w[0] and tells the scheduler the core's answer changed.
class GrantSink final : public EventSink {
 public:
  explicit GrantSink(GrantDriver& d) : driver_(d) {}
  void on_machine_event(Machine& m, Cycles, const EventPayload& p) override {
    const auto core = static_cast<CoreId>(p.w[0]);
    driver_.grant(core, p.w[1]);
    m.core(core).mark_schedule_dirty();
  }

 private:
  GrantDriver& driver_;
};

struct WakeRun {
  std::uint64_t trace{0};
  std::uint64_t state{0};
  std::uint64_t advances{0};
  std::uint64_t irqs{0};
  Cycles end_time{0};
  std::uint64_t scans{0};
};

void expect_same(const WakeRun& a, const WakeRun& b, const std::string& what) {
  EXPECT_EQ(a.trace, b.trace) << what;
  EXPECT_EQ(a.state, b.state) << what;
  EXPECT_EQ(a.advances, b.advances) << what;
  EXPECT_EQ(a.irqs, b.irqs) << what;
  EXPECT_EQ(a.end_time, b.end_time) << what;
}

enum class Waker { kMachineQueue, kIpi };

/// Eight cores, most of them idle with nothing deliverable for most of
/// the run, woken either by machine-queue jobs or by IPIs whose handler
/// grants the receiving core work. Per-core runs use the production
/// drain (max_advances = 0) with the paranoid_frontier cross-check of
/// the folded epoch start.
WakeRun run_wakeups(Waker waker, SchedulerKind sched, unsigned threads) {
  constexpr unsigned kCores = 8;
  MachineConfig mc;
  mc.num_cores = kCores;
  mc.scheduler = sched;
  mc.shard_policy = ShardPolicy::kPerCore;
  mc.threads = threads;
  mc.paranoid_frontier = true;
  Machine m(mc);
  obs::TraceRecorder tr;
  m.set_tracer(&tr);

  // Cores 0 and 1 start busy; the rest start idle.
  std::vector<std::uint64_t> steps(kCores, 0);
  steps[0] = 2000;
  steps[1] = 300;
  GrantDriver driver(steps, waker == Waker::kIpi ? 25 : 0);
  GrantSink sink(driver);
  const SinkId sink_id = m.register_event_sink(&sink);
  std::vector<IrqCell> irqs(kCores);
  for (unsigned i = 0; i < kCores; ++i) {
    m.core(i).set_driver(&driver);
    m.core(i).set_irq_handler(kWakeVector, [&irqs, &driver](Core& c, int) {
      c.consume(90);
      ++irqs[c.id()].v;
      driver.grant(c.id(), 40 + c.id());  // own core: shard-safe
    });
  }
  if (waker == Waker::kMachineQueue) {
    // {time, core, steps}: each job lands while its target is idle, two
    // of them at the same time; the last one runs in the second run.
    const std::uint64_t jobs[][3] = {{60'000, 3, 200},
                                     {60'000, 5, 150},
                                     {150'000, 1, 400},
                                     {180'000, 7, 90},
                                     {240'000, 2, 120}};
    for (const auto& j : jobs) {
      EventPayload p;
      p.w[0] = j[1];
      p.w[1] = j[2];
      m.schedule_event(j[0], sink_id, p);
    }
  }

  EXPECT_TRUE(m.run_until(200'000));
  EXPECT_TRUE(m.run());

  WakeRun r;
  r.trace = trace_hash(tr);
  r.state = m.snapshot().digest();
  r.advances = m.total_advances();
  for (const auto& c : irqs) r.irqs += c.v;
  r.end_time = m.now();
  r.scans = m.horizon_scans();
  return r;
}

TEST(ParallelEpoch, PerCoreMachineEventWakesIdleCore) {
  const WakeRun seq =
      run_wakeups(Waker::kMachineQueue, SchedulerKind::kFrontier, 1);
  for (const unsigned threads : {1u, 2u, 4u}) {
    const WakeRun par = run_wakeups(Waker::kMachineQueue,
                                    SchedulerKind::kParallelEpoch, threads);
    expect_same(seq, par, "machine-queue wake, threads=" +
                              std::to_string(threads));
    // Full scans: two run entries plus one per machine-queue turn.
    EXPECT_EQ(par.scans, 2u + 5u) << "threads=" << threads;
  }
}

TEST(ParallelEpoch, PerCoreIpisWakeIdleCores) {
  const WakeRun seq = run_wakeups(Waker::kIpi, SchedulerKind::kFrontier, 1);
  EXPECT_GT(seq.irqs, 50u);
  for (const unsigned threads : {1u, 2u, 4u}) {
    const WakeRun par =
        run_wakeups(Waker::kIpi, SchedulerKind::kParallelEpoch, threads);
    expect_same(seq, par, "IPI wake, threads=" + std::to_string(threads));
    // No machine-queue traffic: only the two run entries scan.
    EXPECT_EQ(par.scans, 2u) << "threads=" << threads;
  }
}

TEST(ParallelEpoch, ParanoidCatchesScheduleChangedOutsideItsDrain) {
  // Core 1's steps give core 0 work directly — a cross-core state change
  // the fabric never sees. Core 0 drained first and reported itself
  // idle, so the folded epoch start misses it; paranoid mode must name
  // the divergence instead of running on.
  auto run = [] {
    MachineConfig mc;
    mc.num_cores = 2;
    mc.scheduler = SchedulerKind::kParallelEpoch;
    mc.shard_policy = ShardPolicy::kPerCore;
    mc.threads = 1;  // single host thread: the death is deterministic
    mc.paranoid_frontier = true;
    Machine m(mc);
    GrantDriver d({0, 5}, 0);
    class Leaker final : public CoreDriver {
     public:
      explicit Leaker(GrantDriver& inner) : inner_(inner) {}
      bool runnable(Core& core) override { return inner_.runnable(core); }
      void step(Core& core) override {
        inner_.step(core);
        inner_.grant(0, 1);  // illegal: another core's work
      }

     private:
      GrantDriver& inner_;
    } leaker(d);
    m.core(0).set_driver(&d);
    m.core(1).set_driver(&leaker);
    (void)m.run();
  };
  EXPECT_DEATH(run(), "folded epoch start diverged");
}

// ------------------------------------------------------- kAuto + guards

TEST(ParallelEpoch, AutoResolvesByCoreCount) {
  for (const unsigned cores : {1u, 2u, 4u}) {
    MachineConfig mc;
    mc.num_cores = cores;
    mc.scheduler = SchedulerKind::kAuto;
    Machine m(mc);
    EXPECT_EQ(m.scheduler(), SchedulerKind::kLinearScan) << cores;
    EXPECT_EQ(m.config().scheduler, SchedulerKind::kAuto) << cores;
  }
  for (const unsigned cores : {5u, 16u}) {
    MachineConfig mc;
    mc.num_cores = cores;
    mc.scheduler = SchedulerKind::kAuto;
    Machine m(mc);
    EXPECT_EQ(m.scheduler(), SchedulerKind::kFrontier) << cores;
  }
}

TEST(ParallelEpoch, AutoMatchesExplicitSchedulers) {
  for (const unsigned cores : {2u, 8u}) {
    const BcastRun seq = run_broadcast(cores, SchedulerKind::kFrontier,
                                       ShardPolicy::kSingleGroup, 1);
    const BcastRun aut = run_broadcast(cores, SchedulerKind::kAuto,
                                       ShardPolicy::kSingleGroup, 1);
    expect_same(seq, aut, "kAuto vs frontier");
  }
}

TEST(ParallelEpoch, ShardGuardCatchesCrossCorePosts) {
  // During a per-core drain a core context may only touch its own
  // inboxes; direct cross-core posts (the non-fabric path) must trip
  // the shard guard instead of racing.
  auto cross_post = [] {
    MachineConfig mc;
    mc.num_cores = 2;
    mc.scheduler = SchedulerKind::kParallelEpoch;
    mc.shard_policy = ShardPolicy::kPerCore;
    mc.threads = 1;  // single host thread: the death is deterministic
    Machine m(mc);
    class CrossPoster final : public CoreDriver {
     public:
      bool runnable(Core& core) override {
        return core.id() == 0 && !done_;
      }
      void step(Core& core) override {
        done_ = true;
        // Illegal: posting straight into core 1's inbox from core 0's
        // shard context.
        core.machine().core(1).post_irq(core.clock() + 10, 0x30);
      }

     private:
      bool done_{false};
    } d;
    m.core(0).set_driver(&d);
    (void)m.run();
  };
  EXPECT_DEATH(cross_post(), "cross-shard");
}

}  // namespace
}  // namespace iw::hwsim
