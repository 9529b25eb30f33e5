// Fault-injection layer properties: spec parsing, per-fault semantics at
// the hwsim choke points, and the determinism matrix — the same seed and
// plan must produce bit-identical traces on repeat runs and across both
// DES schedulers, and a disabled plan must cost nothing (bit-identical
// to a run with no fault layer at all).
#include "hwsim/fault_plan.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "heartbeat/delivery.hpp"
#include "hwsim/lapic.hpp"
#include "hwsim/machine.hpp"
#include "obs/trace.hpp"

namespace iw::hwsim {
namespace {

// ------------------------------------------------------------- parsing

TEST(FaultPlanParse, FullSpecRoundTrip) {
  FaultPlan p;
  std::string err;
  ASSERT_TRUE(FaultPlan::parse(
      "drop=0.1,delay=0.05:14000,dup=0.02:300,jitter=0.2:500,drift=7,"
      "spurious=0.01:250,stall=0.001:900,vector=64,window=1000-2000,"
      "window=5000-6000",
      &p, &err))
      << err;
  EXPECT_TRUE(p.enabled);
  EXPECT_DOUBLE_EQ(p.ipi_drop_rate, 0.1);
  EXPECT_DOUBLE_EQ(p.ipi_delay_rate, 0.05);
  EXPECT_EQ(p.ipi_delay_max, 14'000u);
  EXPECT_DOUBLE_EQ(p.ipi_dup_rate, 0.02);
  EXPECT_EQ(p.ipi_dup_lag_max, 300u);
  EXPECT_DOUBLE_EQ(p.timer_jitter_rate, 0.2);
  EXPECT_EQ(p.timer_jitter_max, 500u);
  EXPECT_EQ(p.timer_drift, 7u);
  EXPECT_DOUBLE_EQ(p.spurious_irq_rate, 0.01);
  EXPECT_EQ(p.spurious_lag_max, 250u);
  EXPECT_DOUBLE_EQ(p.stall_rate, 0.001);
  EXPECT_EQ(p.stall_max, 900u);
  EXPECT_EQ(p.vector_filter, 64);
  ASSERT_EQ(p.windows.size(), 2u);
  EXPECT_EQ(p.windows[0].begin, 1'000u);
  EXPECT_EQ(p.windows[0].end, 2'000u);
  EXPECT_TRUE(p.active_at(1'500));
  EXPECT_FALSE(p.active_at(3'000));
  EXPECT_TRUE(p.active_at(5'000));
}

TEST(FaultPlanParse, RejectsMalformedSpecs) {
  const char* bad[] = {
      "drop",           // missing value
      "drop=1.5",       // probability out of range
      "drop=x",         // not a number
      "delay=0.5",      // delay requires a cycle bound
      "stall=0.5",      // stall requires a cycle bound
      "window=5000",    // window needs A-B
      "window=9-3",     // empty window
      "bogus=1",        // unknown key
      "",               // empty spec
  };
  for (const char* s : bad) {
    FaultPlan p;
    std::string err;
    EXPECT_FALSE(FaultPlan::parse(s, &p, &err)) << "spec: " << s;
    EXPECT_FALSE(err.empty()) << "spec: " << s;
  }
}

TEST(FaultPlanParse, RejectsNonFiniteAndNegativeProbabilities) {
  // NaN famously survives naive `v < 0 || v > 1` range checks (every
  // comparison is false); the parser must reject it explicitly, along
  // with negatives and infinities, for every rate key.
  const char* bad[] = {
      "drop=nan",      "drop=-0.1",     "drop=inf",
      "delay=nan:500", "dup=-0.5",      "jitter=nan:300",
      "spurious=-1",   "stall=nan:200",
  };
  for (const char* s : bad) {
    FaultPlan p;
    std::string err;
    EXPECT_FALSE(FaultPlan::parse(s, &p, &err)) << "spec: " << s;
    EXPECT_FALSE(err.empty()) << "spec: " << s;
  }
}

TEST(FaultPlanParse, RejectsSignedAndOutOfRangeCycles) {
  // strtoull alone wraps "-1" to 2^64 - 1, skips leading whitespace and
  // saturates on overflow. Each cycle value must instead fail with a
  // diagnostic that names the item and the rule it broke.
  struct Case {
    const char* spec;
    const char* why;
  };
  const Case bad[] = {
      {"delay=0.5:-1", "sign"},
      {"drift=-3", "sign"},
      {"delay=0.5:99999999999999999999999", "48-bit"},
      {"stall=0.5:+200", "sign"},
      {"drift= 7", "whitespace"},
      {"window=100- 200", "whitespace"},
      {"dup=0.1:12x", "decimal"},
      {"jitter=0.2:281474976710656", "48-bit"},  // 2^48, one past
  };
  for (const Case& c : bad) {
    FaultPlan p;
    std::string err;
    EXPECT_FALSE(FaultPlan::parse(c.spec, &p, &err)) << "spec: " << c.spec;
    EXPECT_NE(err.find(std::string("'") + c.spec + "'"), std::string::npos)
        << err;
    EXPECT_NE(err.find(c.why), std::string::npos) << err;
  }
  // The limit itself is a legal cycle value.
  FaultPlan p;
  std::string err;
  ASSERT_TRUE(FaultPlan::parse("drift=281474976710655", &p, &err)) << err;
  EXPECT_EQ(p.timer_drift, TimedQueue<IrqEvent>::kMaxTime);
}

using FaultPlanValidateDeathTest = ::testing::Test;

TEST(FaultPlanValidateDeathTest, NaNProbabilityAborts) {
  FaultPlan p;
  p.enabled = true;
  p.ipi_drop_rate = std::nan("");
  EXPECT_DEATH(p.validate(), "ipi_drop_rate");
}

TEST(FaultPlanValidateDeathTest, NegativeProbabilityAborts) {
  FaultPlan p;
  p.enabled = true;
  p.spurious_irq_rate = -0.25;
  EXPECT_DEATH(p.validate(), "spurious_irq_rate");
}

TEST(FaultPlanValidateDeathTest, ProbabilityAboveOneAborts) {
  FaultPlan p;
  p.enabled = true;
  p.stall_rate = 1.5;
  EXPECT_DEATH(p.validate(), "stall_rate");
}

TEST(FaultPlanValidateDeathTest, InfiniteProbabilityAborts) {
  FaultPlan p;
  p.enabled = true;
  p.timer_jitter_rate = std::numeric_limits<double>::infinity();
  EXPECT_DEATH(p.validate(), "timer_jitter_rate");
}

TEST(FaultPlanValidateDeathTest, InvertedWindowAborts) {
  FaultPlan p;
  p.enabled = true;
  p.windows.push_back({9'000, 3'000});
  EXPECT_DEATH(p.validate(), "begin < end");
}

TEST(FaultPlanValidateDeathTest, EmptyWindowAborts) {
  FaultPlan p;
  p.enabled = true;
  p.windows.push_back({5'000, 5'000});
  EXPECT_DEATH(p.validate(), "begin < end");
}

TEST(FaultPlanValidateDeathTest, OutOfRangeVectorFilterAborts) {
  FaultPlan p;
  p.enabled = true;
  p.vector_filter = 400;
  EXPECT_DEATH(p.validate(), "vector_filter");
}

TEST(FaultPlanValidateDeathTest, MachineConstructionValidatesPlan) {
  // A programmatically-built bad plan must not survive to the first
  // draw: Machine construction (FaultInjector::configure) validates.
  MachineConfig cfg;
  cfg.num_cores = 2;
  cfg.faults.enabled = true;
  cfg.faults.ipi_drop_rate = std::nan("");
  EXPECT_DEATH({ Machine m(cfg); }, "ipi_drop_rate");
}

TEST(FaultPlanParse, ValidateAcceptsEveryParsedPlan) {
  // parse() and validate() agree: anything parse accepts validates.
  const char* good[] = {
      "drop=0,dup=1",
      "drop=0.1,delay=0.05:14000,dup=0.02:300,jitter=0.2:500,drift=7,"
      "spurious=0.01:250,stall=0.001:900,vector=64,window=1000-2000",
  };
  for (const char* s : good) {
    FaultPlan p;
    std::string err;
    ASSERT_TRUE(FaultPlan::parse(s, &p, &err)) << err;
    p.validate();  // must not abort
  }
}

// ------------------------------------------ choke-point fault semantics

MachineConfig faulted_cfg(unsigned cores, const FaultPlan& plan) {
  MachineConfig cfg;
  cfg.num_cores = cores;
  cfg.max_advances = 10'000'000;
  cfg.faults = plan;
  return cfg;
}

TEST(FaultInjection, DropRateOneDropsEveryIpi) {
  FaultPlan p;
  p.enabled = true;
  p.ipi_drop_rate = 1.0;
  Machine m(faulted_cfg(2, p));
  int delivered = 0;
  m.core(1).set_irq_handler(0x30, [&](Core&, int) { ++delivered; });
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(m.send_ipi(m.core(0), 1, 0x30), IpiStatus::kDropped);
  }
  EXPECT_TRUE(m.run());
  EXPECT_EQ(delivered, 0);
  // Attempts are still accounted (fault-free totals are unchanged by
  // the fault layer; drops are visible in the injector's counters).
  EXPECT_EQ(m.total_ipis(), 8u);
  EXPECT_EQ(m.fault_injector().counters().ipis_dropped, 8u);
}

TEST(FaultInjection, DelayedIpisAllArriveLater) {
  FaultPlan p;
  p.enabled = true;
  p.ipi_delay_rate = 1.0;
  p.ipi_delay_max = 5'000;
  Machine m(faulted_cfg(2, p));
  Cycles recv = 0;
  m.core(1).set_irq_handler(0x30, [&](Core& c, int) { recv = c.clock(); });
  EXPECT_EQ(m.send_ipi(m.core(0), 1, 0x30), IpiStatus::kQueuedDelayed);
  EXPECT_TRUE(m.run());
  const Cycles nominal = m.core(0).clock() + m.costs().ipi_latency +
                         m.costs().interrupt_dispatch;
  EXPECT_GT(recv, nominal);
  EXPECT_LE(recv, nominal + p.ipi_delay_max);
}

TEST(FaultInjection, DuplicatedIpiDeliversTwice) {
  FaultPlan p;
  p.enabled = true;
  p.ipi_dup_rate = 1.0;
  Machine m(faulted_cfg(2, p));
  int delivered = 0;
  m.core(1).set_irq_handler(0x30, [&](Core&, int) { ++delivered; });
  EXPECT_EQ(m.send_ipi(m.core(0), 1, 0x30), IpiStatus::kQueued);
  EXPECT_TRUE(m.run());
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(m.fault_injector().counters().ipis_duplicated, 1u);
}

TEST(FaultInjection, VectorFilterScopesIpiFaults) {
  FaultPlan p;
  p.enabled = true;
  p.ipi_drop_rate = 1.0;
  p.vector_filter = 0x40;
  Machine m(faulted_cfg(2, p));
  int other = 0;
  m.core(1).set_irq_handler(0x30, [&](Core&, int) { ++other; });
  EXPECT_EQ(m.send_ipi(m.core(0), 1, 0x30), IpiStatus::kQueued);
  EXPECT_EQ(m.send_ipi(m.core(0), 1, 0x40), IpiStatus::kDropped);
  EXPECT_TRUE(m.run());
  EXPECT_EQ(other, 1);
}

TEST(FaultInjection, WindowGatesFaults) {
  FaultPlan p;
  p.enabled = true;
  p.ipi_drop_rate = 1.0;
  p.windows.push_back({0, 1'000});
  Machine m(faulted_cfg(2, p));
  int delivered = 0;
  m.core(1).set_irq_handler(0x30, [&](Core&, int) { ++delivered; });
  // Inside the window: dropped. Move the sender past it: delivered.
  EXPECT_EQ(m.post_ipi(1, 0x30, /*sent=*/10), IpiStatus::kDropped);
  EXPECT_EQ(m.post_ipi(1, 0x30, /*sent=*/5'000), IpiStatus::kQueued);
  EXPECT_TRUE(m.run());
  EXPECT_EQ(delivered, 1);
}

TEST(FaultInjection, PostIpiOutOfRangeAsserts) {
  MachineConfig cfg;
  cfg.num_cores = 2;
  Machine m(cfg);
  EXPECT_DEATH(m.post_ipi(2, 0x30, 0), "out of range");
}

TEST(FaultInjection, TimerJitterPreservesCadence) {
  // Jitter delays recognition of individual fires but must not slip the
  // cadence: the sink re-arms from the ideal fire time, so the fire
  // count over a fixed horizon matches the jitter-free run exactly.
  // The period must exceed the IRQ service cost (dispatch + return,
  // ~1.6k cycles on the default model) or the core saturates and the
  // run degenerates into perpetual catch-up regardless of faults.
  auto count_fires = [](bool jitter) {
    FaultPlan p;
    if (jitter) {
      p.enabled = true;
      p.timer_jitter_rate = 1.0;
      p.timer_jitter_max = 9'000;  // < period, but would accumulate if
                                   // the re-arm chained off perturbed
                                   // times
    }
    Machine m(faulted_cfg(1, p));
    int fires = 0;
    m.core(0).set_irq_handler(0x40, [&](Core&, int) { ++fires; });
    LapicTimer t(m.core(0), 0x40);
    t.periodic(10'000);
    EXPECT_TRUE(m.run_until(1'000'000));
    t.stop();
    return fires;
  };
  EXPECT_EQ(count_fires(true), count_fires(false));
}

TEST(FaultInjection, DriftAccumulatesCadenceSlip) {
  FaultPlan p;
  p.enabled = true;
  p.timer_drift = 1'000;  // +10% period per fire
  Machine m(faulted_cfg(1, p));
  int fires = 0;
  m.core(0).set_irq_handler(0x40, [&](Core&, int) { ++fires; });
  LapicTimer t(m.core(0), 0x40);
  t.periodic(10'000);
  EXPECT_TRUE(m.run_until(1'000'000));
  t.stop();
  // Effective period is 11k cycles: ~90 fires instead of ~100.
  EXPECT_LT(fires, 95);
  EXPECT_GT(fires, 80);
}

TEST(FaultInjection, StallsStealCyclesAndAreCounted) {
  FaultPlan p;
  p.enabled = true;
  p.stall_rate = 1.0;
  p.stall_max = 50;
  MachineConfig cfg = faulted_cfg(1, p);
  Machine m(cfg);
  // A driver that runs 100 fixed-cost steps.
  class StepDriver final : public CoreDriver {
   public:
    bool runnable(Core&) override { return left_ > 0; }
    void step(Core& core) override {
      core.consume(100);
      --left_;
    }
    int left_{100};
  } d;
  m.core(0).set_driver(&d);
  EXPECT_TRUE(m.run());
  const auto& n = m.fault_injector().counters();
  EXPECT_EQ(n.stalls, 100u);
  EXPECT_GE(n.stall_cycles_total, 100u);
  EXPECT_EQ(m.core(0).clock(), 100u * 100u + n.stall_cycles_total);
}

/// Index of stream `s`'s stall-opportunity counter in
/// FaultInjector::opportunity_counts().
std::size_t stall_ops_index(unsigned s) {
  return s * kNumFaultSites + static_cast<unsigned>(FaultSite::kStall);
}

TEST(FaultInjection, ZeroRateStallOnlyCountsTheOpportunity) {
  // An IPI-only plan cannot stall: each call takes the inline fast path
  // and still numbers the opportunity, exactly as the draw path would.
  FaultPlan p;
  p.enabled = true;
  p.ipi_drop_rate = 0.5;
  FaultInjector inj;
  inj.configure(p, /*machine_seed=*/7, /*fault_seed=*/0, /*num_streams=*/3);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(inj.opportunity_counts()[stall_ops_index(2)], i);
    EXPECT_EQ(inj.stall_cycles(2, 1000 * i), 0u);
  }
  const std::vector<std::uint64_t> ops = inj.opportunity_counts();
  EXPECT_EQ(ops[stall_ops_index(2)], 5u);
  EXPECT_EQ(ops[stall_ops_index(0)], 0u);
  EXPECT_EQ(ops[stall_ops_index(1)], 0u);
  EXPECT_EQ(inj.counters().stalls, 0u);
  // A nonzero rate with a zero magnitude cannot stall either.
  p.stall_rate = 1.0;
  inj.configure(p, 7, 0, 3);
  EXPECT_EQ(inj.stall_cycles(1, 0), 0u);
  EXPECT_EQ(inj.opportunity_counts()[stall_ops_index(1)], 1u);
  EXPECT_EQ(inj.counters().stalls, 0u);
}

TEST(FaultInjection, ScriptedStallOnZeroRateBaseFiresAtItsIndex) {
  // set_script zeroes the base plan's rates, so the rates alone would
  // select the fast path; the scripted event must still fire.
  FaultPlan base;
  base.enabled = true;
  FaultInjector inj;
  inj.configure(base, 7, 0, 2);
  FaultEvent ev;
  ev.stream = 1;
  ev.site = FaultSite::kStall;
  ev.index = 3;
  ev.effects = kFaultFire;
  ev.magnitude = 77;
  inj.set_script(base, {ev});
  for (std::uint64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(inj.stall_cycles(1, 500 * i), i == 3 ? 77u : 0u) << i;
  }
  EXPECT_EQ(inj.opportunity_counts()[stall_ops_index(1)], 6u);
  EXPECT_EQ(inj.counters().stalls, 1u);
  EXPECT_EQ(inj.counters().stall_cycles_total, 77u);
}

// --------------------------------------------------- determinism matrix

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

/// Spin driver with uneven per-core work (idle/wake paths get exercised).
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

/// The determinism_test heartbeat workload, with a fault plan attached.
std::uint64_t run_faulted_heartbeat(SchedulerKind sched, double drop,
                                    Cycles delay_max,
                                    std::uint64_t fault_seed = 0,
                                    unsigned threads = 1) {
  MachineConfig mc;
  mc.num_cores = 8;
  mc.scheduler = sched;
  mc.threads = threads;
  mc.max_advances = 50'000'000;
  mc.fault_seed = fault_seed;
  if (drop > 0.0 || delay_max > 0) {
    mc.faults.enabled = true;
    mc.faults.ipi_drop_rate = drop;
    mc.faults.ipi_delay_rate = delay_max > 0 ? 0.25 : 0.0;
    mc.faults.ipi_delay_max = delay_max;
  }
  Machine m(mc);
  obs::TraceRecorder tr;
  m.set_tracer(&tr);
  SpinDriver driver(8, 180, 4000);
  for (unsigned i = 0; i < 8; ++i) m.core(i).set_driver(&driver);
  heartbeat::NautilusHeartbeat hb(m);
  heartbeat::FaultToleranceConfig ft;
  ft.enabled = true;
  hb.set_fault_tolerance(ft);
  hb.start(/*period=*/20'000, /*num_workers=*/8);
  EXPECT_TRUE(m.run_until(1'500'000));
  hb.stop();
  EXPECT_TRUE(m.run());
  return trace_hash(tr);
}

TEST(FaultDeterminism, MatrixSameSeedSameTraceAllSchedulers) {
  for (const double drop : {0.0, 0.01, 0.10}) {
    for (const Cycles delay : {Cycles{0}, Cycles{14'000}}) {
      const std::uint64_t f1 =
          run_faulted_heartbeat(SchedulerKind::kFrontier, drop, delay);
      const std::uint64_t f2 =
          run_faulted_heartbeat(SchedulerKind::kFrontier, drop, delay);
      const std::uint64_t l =
          run_faulted_heartbeat(SchedulerKind::kLinearScan, drop, delay);
      EXPECT_EQ(f1, f2) << "repeat run diverged: drop=" << drop
                        << " delay=" << delay;
      EXPECT_EQ(f1, l) << "schedulers diverged: drop=" << drop
                       << " delay=" << delay;
      // Per-core shards, serial deliveries of the supervisor core, on one
      // and two host threads (the TSan job runs this suite).
      for (const unsigned threads : {1u, 2u}) {
        const std::uint64_t p = run_faulted_heartbeat(
            SchedulerKind::kParallelEpoch, drop, delay, 0, threads);
        EXPECT_EQ(f1, p) << "parallel diverged: drop=" << drop
                         << " delay=" << delay << " threads=" << threads;
      }
    }
  }
}

TEST(FaultDeterminism, FaultSeedChangesSchedule) {
  const std::uint64_t a =
      run_faulted_heartbeat(SchedulerKind::kFrontier, 0.10, 0, 1);
  const std::uint64_t b =
      run_faulted_heartbeat(SchedulerKind::kFrontier, 0.10, 0, 2);
  EXPECT_NE(a, b);
}

TEST(FaultDeterminism, DisabledPlanIsBitIdentical) {
  // A default-constructed config and one carrying a fully-populated but
  // *disabled* plan must produce the same trace: the injector draws
  // nothing when off, so the fault layer is invisible.
  auto run = [](bool carry_disabled_plan) {
    MachineConfig mc;
    mc.num_cores = 4;
    mc.max_advances = 50'000'000;
    if (carry_disabled_plan) {
      mc.faults.ipi_drop_rate = 1.0;  // would be catastrophic if enabled
      mc.faults.timer_jitter_rate = 1.0;
      mc.faults.timer_jitter_max = 5'000;
      mc.faults.stall_rate = 1.0;
      mc.faults.stall_max = 5'000;
      mc.faults.enabled = false;
    }
    Machine m(mc);
    obs::TraceRecorder tr;
    m.set_tracer(&tr);
    SpinDriver driver(4, 180, 2000);
    for (unsigned i = 0; i < 4; ++i) m.core(i).set_driver(&driver);
    heartbeat::NautilusHeartbeat hb(m);
    hb.start(20'000, 4);
    EXPECT_TRUE(m.run_until(800'000));
    hb.stop();
    EXPECT_TRUE(m.run());
    return trace_hash(tr);
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace iw::hwsim
