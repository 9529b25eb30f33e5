// Serial cores on the per-core epoch engine: the fault-tolerant
// heartbeat of tools/replay_workload.hpp, whose CPU 0 supervisor reads
// and writes every worker's beat state, must run on per-core shards
// bit-identically to the frontier scheduler — at every host-thread count,
// at 1024 cores, under fault plans that drive the
// supervisor into degraded polling and back out, and across a capture
// taken mid-degraded and hydrated into a fresh machine. Also covers the
// serial-delivery counters, the epochs the spin driver's send horizons
// allow per heartbeat period, a serial core whose head is a masked IRQ,
// serial cores above core 0, the batched advance budget, and the
// diagnostic for a serial core whose own step posts it an event inside
// a parallel epoch.
//
// The SerialEpoch suite runs in CI's ThreadSanitizer job.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "hwsim/lapic.hpp"
#include "hwsim/machine.hpp"
#include "hwsim/snapshot.hpp"
#include "obs/trace.hpp"

#include "../../tools/replay_workload.hpp"

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

constexpr Cycles kPeriod = 20'000;
constexpr Cycles kEnd = 100 * kPeriod;
/// Advance watchdog of the budgeted legs: never reached by these runs.
constexpr std::uint64_t kWatchdog = 50'000'000;

struct Plan {
  const char* name;
  FaultPlan faults;
  bool drops;  // the plan must drive the supervisor into degraded mode
};

std::vector<Plan> plans() {
  std::vector<Plan> out;
  out.push_back({"no faults", FaultPlan{}, false});
  FaultPlan delay_dup;
  delay_dup.enabled = true;
  delay_dup.ipi_delay_rate = 0.25;
  delay_dup.ipi_delay_max = 14'000;
  delay_dup.ipi_dup_rate = 0.1;
  out.push_back({"delay 14000 + dup 0.1", delay_dup, false});
  FaultPlan drop;
  drop.enabled = true;
  drop.ipi_drop_rate = 0.2;
  out.push_back({"drop 0.2", drop, true});
  // Heavy loss for 15 periods, then a clean fabric: the supervisor
  // degrades inside the window and recovers after it.
  FaultPlan window = drop;
  window.ipi_drop_rate = 0.5;
  window.windows.push_back({5 * kPeriod, 20 * kPeriod});
  out.push_back({"drop 0.5 in [5, 20) periods", window, true});
  return out;
}

struct Leg {
  SchedulerKind sched{SchedulerKind::kFrontier};
  unsigned threads{1};
  std::uint64_t max_advances{0};
};

std::string label(unsigned cores, const Plan& p, const Leg& l) {
  return std::to_string(cores) + " cores, " + p.name +
         ", threads=" + std::to_string(l.threads) +
         (l.max_advances != 0 ? " budgeted" : "");
}

struct ReplayRun {
  std::uint64_t digest{0};
  std::uint64_t trace{0};
  std::uint64_t polled{0};
  std::uint64_t entries{0};
  std::uint64_t recoveries{0};
  std::uint64_t serial_epochs{0};
  std::uint64_t fires{0};
  std::uint64_t scans{0};
};

MachineConfig config(unsigned cores, const Plan& p, const Leg& l) {
  MachineConfig mc;
  mc.num_cores = cores;
  mc.seed = 42;
  mc.scheduler = l.sched;
  mc.threads = l.threads;
  mc.max_advances = l.max_advances;
  mc.paranoid_frontier = true;
  mc.faults = p.faults;
  mc.fault_seed = 7;
  return mc;
}

ReplayRun collect(Machine& m, tools::ReplayWorkload& w,
                  const obs::TraceRecorder& tr) {
  ReplayRun r;
  r.digest = m.snapshot().digest();
  r.trace = trace_hash(tr);
  r.polled = w.heartbeat().polled_beats();
  r.entries = w.heartbeat().degraded_entries();
  r.recoveries = w.heartbeat().recoveries();
  r.serial_epochs = m.serial_epochs();
  r.fires = m.core(0).irqs_delivered();  // CPU 0 takes only LAPIC fires
  r.scans = m.horizon_scans();
  return r;
}

ReplayRun run_replay(unsigned cores, const Plan& p, const Leg& l) {
  Machine m(config(cores, p, l));
  obs::TraceRecorder tr;
  m.set_tracer(&tr);
  tools::ReplayWorkload w(m, kPeriod, /*fault_tolerant=*/true);
  EXPECT_TRUE(m.run_until(kEnd));
  return collect(m, w, tr);
}

void expect_same(const ReplayRun& ref, const ReplayRun& r,
                 const std::string& what) {
  EXPECT_EQ(r.digest, ref.digest) << what;
  EXPECT_EQ(r.trace, ref.trace) << what;
  EXPECT_EQ(r.polled, ref.polled) << what;
  EXPECT_EQ(r.entries, ref.entries) << what;
  EXPECT_EQ(r.recoveries, ref.recoveries) << what;
  EXPECT_EQ(r.fires, ref.fires) << what;
}

/// Every per-core leg of one plan against the frontier: 1/2/4 host
/// threads without a watchdog, plus two budgeted legs.
void check_plan(const Plan& p) {
  const Leg per_core_legs[] = {
      {SchedulerKind::kParallelEpoch, 1, 0},
      {SchedulerKind::kParallelEpoch, 2, 0},
      {SchedulerKind::kParallelEpoch, 4, 0},
      {SchedulerKind::kParallelEpoch, 1, kWatchdog},
      {SchedulerKind::kParallelEpoch, 2, kWatchdog},
  };
  for (const unsigned cores : {4u, 8u, 16u}) {
    const ReplayRun ref = run_replay(cores, p, Leg{});
    EXPECT_EQ(ref.serial_epochs, 0u);
    EXPECT_GE(ref.fires, 99u) << cores << " cores, " << p.name;
    if (p.drops) {
      // Without these the matrix could pass on a supervisor that never
      // left interrupt-driven delivery.
      EXPECT_GT(ref.entries, 0u) << cores << " cores, " << p.name;
      EXPECT_GT(ref.polled, 0u) << cores << " cores, " << p.name;
    }
    std::uint64_t serial_epochs = 0;
    for (const Leg& l : per_core_legs) {
      const std::string what = label(cores, p, l);
      const ReplayRun r = run_replay(cores, p, l);
      expect_same(ref, r, what);
      if (serial_epochs == 0) serial_epochs = r.serial_epochs;
      EXPECT_EQ(r.serial_epochs, serial_epochs) << what;
      EXPECT_GT(r.serial_epochs, 0u) << what;
      EXPECT_LE(r.serial_epochs, 2 * r.fires) << what;
      // An advance budget that is never reached folds every epoch start
      // like an unbudgeted run: one scan at entry, one per sequential
      // epoch.
      EXPECT_EQ(r.scans, 1 + r.serial_epochs) << what;
    }
  }
}

TEST(SerialEpoch, ReplayMatchesFrontierWithoutFaults) {
  check_plan(plans()[0]);
}

TEST(SerialEpoch, ReplayMatchesFrontierUnderDelayAndDuplication) {
  check_plan(plans()[1]);
}

TEST(SerialEpoch, ReplayMatchesFrontierUnderSteadyDrops) {
  check_plan(plans()[2]);
}

TEST(SerialEpoch, ReplayMatchesFrontierThroughDegradeAndRecovery) {
  const Plan p = plans()[3];
  check_plan(p);
  // The window must both push the supervisor into polling and let it
  // recover once the fabric is clean again.
  const ReplayRun ref = run_replay(8, p, Leg{});
  EXPECT_GT(ref.recoveries, 0u);
}

TEST(SerialEpoch, ReplayMatchesFrontierAt1024Cores) {
  // Serial deliveries at scale: each LAPIC fire runs one pick in
  // sequence whatever the core count, and the picks between them run in
  // parallel epochs. Twenty periods and no O(cores) paranoid check per
  // advance keep the legs cheap under TSan.
  constexpr unsigned kCores = 1024;
  const auto scaled = [](const Plan& p, const Leg& l) {
    MachineConfig mc = config(kCores, p, l);
    mc.paranoid_frontier = false;
    return mc;
  };
  for (const Plan& p : {plans()[0], plans()[2]}) {
    Machine ref_m(scaled(p, Leg{}));
    obs::TraceRecorder ref_tr;
    ref_m.set_tracer(&ref_tr);
    tools::ReplayWorkload ref_w(ref_m, kPeriod, true);
    ASSERT_TRUE(ref_m.run_until(20 * kPeriod));
    const ReplayRun ref = collect(ref_m, ref_w, ref_tr);
    for (const unsigned threads : {1u, 4u}) {
      const Leg l{SchedulerKind::kParallelEpoch, threads, 0};
      Machine m(scaled(p, l));
      obs::TraceRecorder tr;
      m.set_tracer(&tr);
      tools::ReplayWorkload w(m, kPeriod, true);
      ASSERT_TRUE(m.run_until(20 * kPeriod));
      const ReplayRun r = collect(m, w, tr);
      expect_same(ref, r, label(kCores, p, l));
      EXPECT_EQ(r.serial_epochs, r.fires) << label(kCores, p, l);
      EXPECT_EQ(m.serial_picks(), r.fires) << label(kCores, p, l);
    }
  }
}

TEST(SerialEpoch, MidDegradedCaptureHydratesIntoFreshPerCoreMachine) {
  // Capture inside the drop window, with the supervisor polling, on a
  // per-core machine; serialize; hydrate a fresh per-core machine at a
  // different thread count and run on through the recovery. Digest,
  // trace and supervisor counters must match an uninterrupted frontier
  // run traced from the same point.
  const Plan p = plans()[3];
  constexpr unsigned kCores = 8;
  constexpr Cycles kCapture = 15 * kPeriod;

  Machine ref_m(config(kCores, p, Leg{}));
  tools::ReplayWorkload ref_w(ref_m, kPeriod, true);
  ASSERT_TRUE(ref_m.run_until(kCapture));
  ASSERT_TRUE(ref_w.heartbeat().degraded());
  obs::TraceRecorder ref_tr;
  ref_m.set_tracer(&ref_tr);
  ASSERT_TRUE(ref_m.run_until(kEnd));
  const ReplayRun ref = collect(ref_m, ref_w, ref_tr);
  ASSERT_GT(ref.recoveries, 0u);

  std::vector<std::uint64_t> image;
  {
    Machine donor(config(kCores, p, {SchedulerKind::kParallelEpoch, 2}));
    tools::ReplayWorkload w(donor, kPeriod, true);
    ASSERT_TRUE(donor.run_until(kCapture));
    ASSERT_TRUE(w.heartbeat().degraded());
    image = donor.snapshot().serialize();
  }
  Machine m(config(kCores, p, {SchedulerKind::kParallelEpoch, 4}));
  tools::ReplayWorkload w(m, kPeriod, true);
  m.restore(Snapshot::deserialize(image));
  EXPECT_TRUE(w.heartbeat().degraded());
  obs::TraceRecorder tr;
  m.set_tracer(&tr);
  ASSERT_TRUE(m.run_until(kEnd));
  const ReplayRun r = collect(m, w, tr);
  expect_same(ref, r, "hydrated mid-degraded");
  EXPECT_GT(r.serial_epochs, 0u);
}

TEST(SerialEpoch, SerialCoresAboveCoreZeroRunAfterLowerIdsAtTheirCycle) {
  // Workers 3 and 5 declared serial too: their IPI deliveries run in
  // sequence, after the picks of every lower core id due at the same
  // cycle (the broadcast lands on all workers at once, so those ties
  // occur), and the higher ids tied there run in the next parallel
  // epoch. Any core may be declared serial without changing results.
  for (const Plan& p : {plans()[0], plans()[2]}) {
    const ReplayRun ref = run_replay(8, p, Leg{});
    for (const unsigned threads : {1u, 2u, 4u}) {
      const Leg l{SchedulerKind::kParallelEpoch, threads, 0};
      Machine m(config(8, p, l));
      obs::TraceRecorder tr;
      m.set_tracer(&tr);
      tools::ReplayWorkload w(m, kPeriod, /*fault_tolerant=*/true);
      m.declare_serial_core(3);
      m.declare_serial_core(5);
      ASSERT_TRUE(m.run_until(kEnd));
      const ReplayRun r = collect(m, w, tr);
      const std::string what = label(8, p, l) + ", cores 0, 3, 5 serial";
      expect_same(ref, r, what);
      // Every worker IPI delivery to core 3 or 5 is a serial delivery,
      // and some ran lower-id picks tied at their cycle first.
      EXPECT_GT(r.serial_epochs, 2 * r.fires) << what;
      EXPECT_GT(m.serial_picks(), r.serial_epochs) << what;
    }
  }
}

// ------------------------------------------------------- epoch counts

/// Deterministic epoch counters of one fault-tolerant replay run over
/// kCountPeriods heartbeat periods on per-core epochs.
struct EpochCounts {
  std::uint64_t digest{0};
  std::uint64_t parallel_epochs{0};
  std::uint64_t serial_epochs{0};
  std::uint64_t serial_picks{0};
  std::uint64_t fires{0};
};

constexpr Cycles kCountPeriods = 40;

EpochCounts count_epochs(unsigned cores, const FaultPlan& faults,
                         unsigned threads) {
  MachineConfig mc;
  mc.num_cores = cores;
  mc.scheduler = SchedulerKind::kParallelEpoch;
  mc.threads = threads;
  mc.faults = faults;
  mc.fault_seed = 7;
  Machine m(mc);
  tools::ReplayWorkload w(m, kPeriod, /*fault_tolerant=*/true);
  EXPECT_TRUE(m.run_until(kCountPeriods * kPeriod));
  EpochCounts c;
  c.digest = m.snapshot().digest();
  c.parallel_epochs = m.parallel_epochs();
  c.serial_epochs = m.serial_epochs();
  c.serial_picks = m.serial_picks();
  c.fires = m.core(0).irqs_delivered();
  return c;
}

double per_period(std::uint64_t n) {
  return static_cast<double>(n) / static_cast<double>(kCountPeriods);
}

TEST(SerialEpoch, SpinSendHorizonsWidenEpochsToThePeriod) {
  // The spin driver certifies its steps, so only deliveries bound an
  // epoch: the LAPIC fire, its serial delivery and the IPI fan-out, a
  // few epochs per period instead of one per 600-cycle lookahead (31.8
  // per period before send horizons). The count depends on the
  // simulated schedule only: the same at every core and thread count.
  std::uint64_t epochs = 0;
  for (const unsigned cores : {8u, 64u, 1024u}) {
    for (const unsigned threads : {1u, 2u, 4u}) {
      const EpochCounts c = count_epochs(cores, FaultPlan{}, threads);
      const std::string what = std::to_string(cores) + " cores, threads=" +
                               std::to_string(threads);
      if (epochs == 0) epochs = c.parallel_epochs;
      EXPECT_EQ(c.parallel_epochs, epochs) << what;
      EXPECT_LE(per_period(c.parallel_epochs), 3.0) << what;
      // One serial delivery per LAPIC fire, and it runs one pick: the
      // supervisor's core has the lowest id, so nothing is tied before
      // it.
      EXPECT_GE(c.fires, kCountPeriods - 1) << what;
      EXPECT_EQ(c.serial_epochs, c.fires) << what;
      EXPECT_EQ(c.serial_picks, c.fires) << what;
    }
  }
}

TEST(SerialEpoch, FaultedFabricSplitsEpochsOnlyAtArrivals) {
  // Delayed and duplicated IPIs arrive at scattered cycles, and each
  // arrival bounds the epoch its receiver's handler runs in; drops send
  // the supervisor into degraded polling, whose polls bound epochs too.
  // Still far below the lookahead's 31.9 epochs per period.
  FaultPlan p;
  p.enabled = true;
  p.ipi_drop_rate = 0.2;
  p.ipi_delay_rate = 0.25;
  p.ipi_delay_max = 14'000;
  p.ipi_dup_rate = 0.1;
  std::uint64_t epochs = 0;
  for (const unsigned threads : {1u, 2u, 4u}) {
    const EpochCounts c = count_epochs(8, p, threads);
    if (epochs == 0) epochs = c.parallel_epochs;
    EXPECT_EQ(c.parallel_epochs, epochs) << "threads=" << threads;
    EXPECT_LE(per_period(c.parallel_epochs), 6.0) << "threads=" << threads;
    EXPECT_LE(c.serial_epochs, c.fires) << "threads=" << threads;
  }
}

TEST(SerialEpoch, UnreachedBudgetInBatchesMatchesUnbudgeted) {
  // A pool thread claims advance-budget slots in batches, and a batch it
  // does not spend is stranded. A budget the run never reaches must
  // still leave the schedule and the folds untouched: same digest, and
  // no scan beyond the unbudgeted run's.
  for (const unsigned threads : {2u, 4u}) {
    for (const Plan& p : {plans()[0], plans()[2]}) {
      const Leg free{SchedulerKind::kParallelEpoch, threads, 0};
      const Leg budgeted{SchedulerKind::kParallelEpoch, threads, kWatchdog};
      const ReplayRun a = run_replay(64, p, free);
      const ReplayRun b = run_replay(64, p, budgeted);
      const std::string what = label(64, p, budgeted);
      expect_same(a, b, what);
      EXPECT_EQ(b.scans, a.scans) << what;
    }
  }
}

// ------------------------------------------------------- masked head

/// Core 0 masks its interrupts for steps [10, 40) of its 60; every core
/// spins 60 steps of 100 cycles. Each core counts its steps in its own
/// slot.
class MaskingSpin final : public CoreDriver {
 public:
  explicit MaskingSpin(unsigned cores) : steps_(cores, 0) {}
  bool runnable(Core& core) override { return steps_[core.id()] < 60; }
  void step(Core& core) override {
    core.consume(100);
    const std::uint64_t n = ++steps_[core.id()];
    if (core.id() == 0 && n == 10) core.set_interrupts_enabled(false);
    if (core.id() == 0 && n == 40) core.set_interrupts_enabled(true);
  }

 private:
  std::vector<std::uint64_t> steps_;
};

struct MaskedRun {
  std::uint64_t digest{0};
  std::uint64_t trace{0};
  std::uint64_t serial_epochs{0};
};

/// A one-shot LAPIC fire lands on serial core 0 while it is masked, so
/// the IRQ sits at the head of its inbox for 25 steps; once delivered,
/// its handler broadcasts an IPI that every other core takes.
MaskedRun run_masked(SchedulerKind sched, unsigned threads) {
  constexpr unsigned kCores = 4;
  MachineConfig mc;
  mc.num_cores = kCores;
  mc.scheduler = sched;
  mc.threads = threads;
  mc.paranoid_frontier = true;
  Machine m(mc);
  obs::TraceRecorder tr;
  m.set_tracer(&tr);
  MaskingSpin d(kCores);
  for (unsigned c = 0; c < kCores; ++c) {
    m.core(c).set_driver(&d);
    m.core(c).set_irq_handler(0x40, [](Core& core, int) {
      core.consume(50);
      if (core.id() == 0) core.machine().broadcast_ipi(core, 0x40);
    });
  }
  m.declare_serial_core(0);
  LapicTimer timer(m.core(0), 0x40);
  timer.oneshot(1'500);
  EXPECT_TRUE(m.run_until(3'000));
  EXPECT_EQ(m.core(0).pending_irqs(), 1u);  // fired, still masked
  EXPECT_TRUE(m.run_until(100'000));
  EXPECT_TRUE(m.run());
  for (unsigned c = 0; c < kCores; ++c) {
    EXPECT_EQ(m.core(c).irqs_delivered(), 1u) << "core " << c;
  }
  return {m.snapshot().digest(), trace_hash(tr), m.serial_epochs()};
}

TEST(SerialEpoch, MaskedSerialHeadMakesProgressAndMatchesFrontier) {
  // While the head is masked the core's pick at its delivery point is a
  // plain step, run in sequence; the loop must keep stepping it until a
  // step unmasks and the IRQ is delivered.
  const MaskedRun ref = run_masked(SchedulerKind::kFrontier, 1);
  for (const unsigned threads : {1u, 2u, 4u}) {
    const MaskedRun r = run_masked(SchedulerKind::kParallelEpoch, threads);
    EXPECT_EQ(r.digest, ref.digest) << "threads=" << threads;
    EXPECT_EQ(r.trace, ref.trace) << "threads=" << threads;
    EXPECT_GT(r.serial_epochs, 1u) << "threads=" << threads;
  }
}

// ------------------------------------------------------------ diagnostic

/// Core 0's driver posts its own core an event `lead` cycles ahead on
/// its first step.
class SelfPoster final : public CoreDriver, public EventSink {
 public:
  SelfPoster(Machine& m, Cycles lead)
      : lead_(lead), sink_(m.register_event_sink(this)) {}
  bool runnable(Core& core) override { return core.id() == 0 && steps_ < 8; }
  void step(Core& core) override {
    core.consume(100);
    if (steps_++ == 0) core.post_event(core.clock() + lead_, sink_);
  }
  void on_core_event(Core&, Cycles, const EventPayload&) override {
    ++delivered_;
  }
  [[nodiscard]] unsigned delivered() const { return delivered_; }

 private:
  Cycles lead_;
  SinkId sink_;
  unsigned steps_{0};
  unsigned delivered_{0};
};

/// Runs the self-posting core to quiescence; returns the sequential
/// epochs the run took (the event's delivery is checked here).
std::uint64_t run_self_poster(Cycles lead) {
  MachineConfig mc;
  mc.num_cores = 2;
  mc.scheduler = SchedulerKind::kParallelEpoch;
  mc.threads = 1;  // single host thread: the outcome is deterministic
  Machine m(mc);
  SelfPoster d(m, lead);
  m.core(0).set_driver(&d);
  m.declare_serial_core(0);
  EXPECT_TRUE(m.run());
  EXPECT_EQ(d.delivered(), 1u);
  return m.serial_epochs();
}

TEST(SerialEpochDeathTest, SerialCorePostingItselfInsideAnEpochIsNamed) {
  // 10 cycles ahead lies inside the 600-cycle epoch the step runs in:
  // delivering it there would run the serial handler beside the other
  // shard.
  EXPECT_DEATH((void)run_self_poster(10),
               "serial core 0 posted itself an event due at cycle 110, "
               "before the parallel epoch's horizon 600");
}

TEST(SerialEpoch, SerialCorePostingItselfPastTheHorizonIsLegal) {
  // The same post a lookahead ahead lands in a later, sequential epoch.
  EXPECT_EQ(run_self_poster(CostModel::knl().ipi_latency), 1u);
}

}  // namespace
}  // namespace iw::hwsim
