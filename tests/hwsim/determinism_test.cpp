// Golden-trace equivalence for the O(log N) frontier scheduler.
//
// The frontier index is only allowed to change *how fast* the DES picks
// the next event, never *which* event it picks: these tests run the same
// seeded multi-core workloads through the frontier scheduler and the
// seed linear-scan scheduler (and through repeated runs of each) and
// assert the recorded trace-event sequences hash identically — i.e. the
// optimized scheduler produces bit-identical event orderings.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "heartbeat/delivery.hpp"
#include "hwsim/machine.hpp"
#include "obs/trace.hpp"
#include "omp/runtime.hpp"
#include "workloads/miniapp.hpp"

namespace iw {
namespace {

/// FNV-1a over the full text dump: name, core, begin/end, vector, count,
/// and recorder sequence of every event, globally ordered.
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

/// Spin work so cores are busy (not just IRQ-driven): the frontier tree
/// must interleave N runnable cores with timer/IPI arrivals.
class SpinDriver final : public hwsim::CoreDriver {
 public:
  SpinDriver(unsigned cores, Cycles step, std::uint64_t steps)
      : step_(step), remaining_(cores, steps) {}

  bool runnable(hwsim::Core& core) override {
    return remaining_[core.id()] > 0;
  }
  void step(hwsim::Core& core) override {
    core.consume(step_);
    --remaining_[core.id()];
  }

 private:
  Cycles step_;
  std::vector<std::uint64_t> remaining_;
};

struct HeartbeatRun {
  std::uint64_t hash{0};
  std::uint64_t advances{0};
  std::uint64_t ipis{0};
  Cycles end_time{0};
};

/// Advance watchdog of the reference runs; the matrices also run the
/// compared scheduler without one (0), the configuration production
/// runs use.
constexpr std::uint64_t kWatchdog = 50'000'000;
constexpr std::uint64_t kBudgets[] = {kWatchdog, 0};

/// Fig. 3-style workload: LAPIC-driven heartbeat on CPU 0 broadcasting
/// IPIs to every worker, over cores that are busy with uneven spin work.
HeartbeatRun run_heartbeat(
    unsigned cores, hwsim::SchedulerKind sched, bool paranoid = false,
    std::uint64_t max_advances = kWatchdog,
    hwsim::ShardPolicy policy = hwsim::ShardPolicy::kSingleGroup,
    unsigned threads = 1) {
  hwsim::MachineConfig mc;
  mc.num_cores = cores;
  mc.scheduler = sched;
  mc.shard_policy = policy;
  mc.threads = threads;
  mc.paranoid_frontier = paranoid;
  mc.max_advances = max_advances;
  hwsim::Machine m(mc);

  obs::TraceRecorder tr;
  m.set_tracer(&tr);

  // Uneven work lengths so cores go idle and wake again at different
  // times (exercises the idle-jump and re-registration paths).
  SpinDriver driver(cores, 180, 4000);
  for (unsigned i = 0; i < cores; ++i) m.core(i).set_driver(&driver);

  heartbeat::NautilusHeartbeat hb(m);
  hb.start(/*period=*/20'000, /*num_workers=*/cores);

  EXPECT_TRUE(m.run_until(1'500'000));
  hb.stop();
  EXPECT_TRUE(m.run());  // drain in-flight events to quiescence

  HeartbeatRun r;
  r.hash = trace_hash(tr);
  r.advances = m.total_advances();
  for (unsigned i = 0; i < cores; ++i) {
    r.ipis += m.core(i).irqs_delivered();
  }
  r.end_time = m.now();
  return r;
}

TEST(SchedulerEquivalence, HeartbeatFrontierMatchesLinearScan) {
  for (const unsigned cores : {2u, 4u, 16u}) {
    const HeartbeatRun frontier =
        run_heartbeat(cores, hwsim::SchedulerKind::kFrontier);
    for (const std::uint64_t budget : kBudgets) {
      const HeartbeatRun linear = run_heartbeat(
          cores, hwsim::SchedulerKind::kLinearScan, false, budget);
      EXPECT_EQ(frontier.hash, linear.hash) << "cores=" << cores;
      EXPECT_EQ(frontier.advances, linear.advances) << "cores=" << cores;
      EXPECT_EQ(frontier.ipis, linear.ipis) << "cores=" << cores;
      EXPECT_EQ(frontier.end_time, linear.end_time) << "cores=" << cores;
    }
    EXPECT_NE(frontier.ipis, 0u);
  }
}

TEST(SchedulerEquivalence, HeartbeatParallelEpochMatchesFrontier) {
  // The CPU 0 handler reads every worker's beat state, so the heartbeat
  // declares core 0 serial: per-core shards run its deliveries in
  // sequential epochs and everything else in parallel. Both shard
  // policies, and per-core shards on 1 and 2 host threads, must be
  // bit-identical to the frontier. (tests/hwsim/serial_epoch_test.cpp
  // runs the fault-tolerant supervisor through degraded mode.)
  struct Leg {
    hwsim::ShardPolicy policy;
    unsigned threads;
  };
  const Leg legs[] = {{hwsim::ShardPolicy::kSingleGroup, 1},
                      {hwsim::ShardPolicy::kPerCore, 1},
                      {hwsim::ShardPolicy::kPerCore, 2}};
  for (const unsigned cores : {2u, 4u, 16u}) {
    const HeartbeatRun frontier =
        run_heartbeat(cores, hwsim::SchedulerKind::kFrontier);
    for (const Leg& leg : legs) {
      for (const std::uint64_t budget : kBudgets) {
        const HeartbeatRun parallel = run_heartbeat(
            cores, hwsim::SchedulerKind::kParallelEpoch,
            /*paranoid=*/budget == 0, budget, leg.policy, leg.threads);
        const std::string what =
            "cores=" + std::to_string(cores) + " threads=" +
            std::to_string(leg.threads) +
            (leg.policy == hwsim::ShardPolicy::kPerCore ? " per-core"
                                                        : " single-group");
        EXPECT_EQ(frontier.hash, parallel.hash) << what;
        EXPECT_EQ(frontier.advances, parallel.advances) << what;
        EXPECT_EQ(frontier.ipis, parallel.ipis) << what;
        EXPECT_EQ(frontier.end_time, parallel.end_time) << what;
      }
    }
  }
}

TEST(SchedulerEquivalence, HeartbeatAutoMatchesFrontier) {
  // kAuto resolves to linear up to its core-count threshold and to the
  // frontier above it; either way the schedule must be unchanged.
  for (const unsigned cores : {2u, 16u}) {
    const HeartbeatRun frontier =
        run_heartbeat(cores, hwsim::SchedulerKind::kFrontier);
    const HeartbeatRun aut =
        run_heartbeat(cores, hwsim::SchedulerKind::kAuto);
    EXPECT_EQ(frontier.hash, aut.hash) << "cores=" << cores;
    EXPECT_EQ(frontier.advances, aut.advances) << "cores=" << cores;
  }
}

TEST(SchedulerEquivalence, HeartbeatRepeatRunsAreDeterministic) {
  const HeartbeatRun a = run_heartbeat(8, hwsim::SchedulerKind::kFrontier);
  const HeartbeatRun b = run_heartbeat(8, hwsim::SchedulerKind::kFrontier);
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.advances, b.advances);
}

TEST(SchedulerEquivalence, ParanoidCrossCheckPasses) {
  // Every frontier decision is compared in-loop against the linear scan;
  // a missing invalidation hook aborts instead of silently reordering.
  const HeartbeatRun r =
      run_heartbeat(8, hwsim::SchedulerKind::kFrontier, /*paranoid=*/true);
  EXPECT_NE(r.advances, 0u);
}

/// Fig. 6-style workload: an OpenMP mini-app over the full kernel stack
/// (threads, barriers, wakes, per-core tasks for CCK; POSIX timers and
/// futexes on the Linux profile).
std::uint64_t run_omp(omp::OmpMode mode, hwsim::SchedulerKind sched,
                      Cycles* makespan) {
  const auto app = workloads::bt_mini(16, 2);
  omp::OmpConfig cfg;
  cfg.mode = mode;
  cfg.num_threads = 8;
  cfg.scheduler = sched;
  obs::TraceRecorder tr;
  cfg.tracer = &tr;
  const omp::OmpResult r = omp::run_miniapp(app, cfg);
  *makespan = r.makespan;
  return trace_hash(tr);
}

TEST(SchedulerEquivalence, OmpModesFrontierMatchesLinearScan) {
  for (const omp::OmpMode mode :
       {omp::OmpMode::kRTK, omp::OmpMode::kCCK, omp::OmpMode::kLinux}) {
    Cycles mk_frontier = 0;
    Cycles mk_linear = 0;
    const std::uint64_t h_frontier =
        run_omp(mode, hwsim::SchedulerKind::kFrontier, &mk_frontier);
    const std::uint64_t h_linear =
        run_omp(mode, hwsim::SchedulerKind::kLinearScan, &mk_linear);
    EXPECT_EQ(h_frontier, h_linear) << omp::mode_name(mode);
    EXPECT_EQ(mk_frontier, mk_linear) << omp::mode_name(mode);
    EXPECT_NE(mk_frontier, 0u) << omp::mode_name(mode);
  }
}

TEST(SchedulerEquivalence, OmpModesParallelEpochMatchesFrontier) {
  // Full kernel-stack workload (threads, barriers, futexes/timers)
  // under the epoch scheduler's default single-group policy.
  for (const omp::OmpMode mode :
       {omp::OmpMode::kRTK, omp::OmpMode::kCCK, omp::OmpMode::kLinux}) {
    Cycles mk_frontier = 0;
    Cycles mk_parallel = 0;
    const std::uint64_t h_frontier =
        run_omp(mode, hwsim::SchedulerKind::kFrontier, &mk_frontier);
    const std::uint64_t h_parallel =
        run_omp(mode, hwsim::SchedulerKind::kParallelEpoch, &mk_parallel);
    EXPECT_EQ(h_frontier, h_parallel) << omp::mode_name(mode);
    EXPECT_EQ(mk_frontier, mk_parallel) << omp::mode_name(mode);
  }
}

}  // namespace
}  // namespace iw
