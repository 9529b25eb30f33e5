// Serial cores on the per-core epoch engine: the fault-tolerant
// heartbeat of tools/replay_workload.hpp, whose CPU 0 supervisor reads
// and writes every worker's beat state, must run on per-core shards
// bit-identically to the frontier scheduler — at every host-thread count
// and steal mode, under fault plans that drive the supervisor into
// degraded polling and back out, and across a capture taken
// mid-degraded and hydrated into a fresh machine. Also covers the
// sequential-epoch counter and the diagnostic for a serial core whose
// own step posts it an event inside a parallel epoch.
//
// The SerialEpoch suite runs in CI's ThreadSanitizer job.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

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
  bool steal{true};
  std::uint64_t max_advances{0};
};

std::string label(unsigned cores, const Plan& p, const Leg& l) {
  return std::to_string(cores) + " cores, " + p.name + ", threads=" +
         std::to_string(l.threads) + (l.steal ? " steal" : " no-steal") +
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
  mc.shard_policy = ShardPolicy::kPerCore;
  mc.threads = l.threads;
  mc.work_stealing = l.steal;
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
/// threads x steal on/off without a watchdog, plus two budgeted legs.
void check_plan(const Plan& p) {
  const Leg per_core_legs[] = {
      {SchedulerKind::kParallelEpoch, 1, true, 0},
      {SchedulerKind::kParallelEpoch, 1, false, 0},
      {SchedulerKind::kParallelEpoch, 2, true, 0},
      {SchedulerKind::kParallelEpoch, 2, false, 0},
      {SchedulerKind::kParallelEpoch, 4, true, 0},
      {SchedulerKind::kParallelEpoch, 4, false, 0},
      {SchedulerKind::kParallelEpoch, 1, true, kWatchdog},
      {SchedulerKind::kParallelEpoch, 2, true, kWatchdog},
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
  mc.shard_policy = ShardPolicy::kPerCore;
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
