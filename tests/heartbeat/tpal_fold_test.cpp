// TPAL chunks in one step (DESIGN.md §12, "TPAL chunks").
//
// A worker whose range stays non-empty runs, in one step, every further
// chunk that starts before anything can be delivered to its core: its
// core's next event, and the earliest cycle at which the heartbeat
// backend could send it a beat from another core. Each folded chunk
// still counts as an advance, so only the scheduler's picks change. The
// results and advance counts below were taken from the runtime that
// stepped every chunk, at Fig. 3's size (16 CPUs, 3 M iterations), and
// must hold bit for bit on the frontier and the linear scan; only the
// picks (advances - folded) are this runtime's own.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "heartbeat/tpal.hpp"

namespace iw::heartbeat {
namespace {

enum class Stack { kNautilus, kLinuxRelay, kLinuxPerThread };

struct Leg {
  Stack stack;
  double heart_us;
  // Results and advances of the per-chunk runtime.
  Cycles makespan;
  std::uint64_t promotions;
  std::uint64_t steals;
  std::uint64_t polls;
  std::uint64_t beats;
  Cycles work;
  Cycles overhead;
  std::uint64_t advances;
  // Scheduler picks of this runtime (advances - folded).
  std::uint64_t picks;
};

const Leg kLegs[] = {
    {Stack::kNautilus, 100.0, 6003863, 666, 122, 47194, 671, 90000000,
     4851192, 57169, 12431},
    {Stack::kLinuxRelay, 100.0, 6968712, 742, 132, 47268, 763, 90000000,
     6414674, 60663, 16462},
    {Stack::kLinuxPerThread, 100.0, 6979168, 745, 145, 47251, 783, 90000000,
     5296703, 58147, 13854},
    {Stack::kNautilus, 20.0, 6142607, 3043, 191, 48415, 3490, 90000000,
     2005625, 50616, 13910},
    {Stack::kLinuxRelay, 20.0, 7259329, 1127, 134, 47435, 1175, 90000000,
     2923825, 52852, 9959},
    {Stack::kLinuxPerThread, 20.0, 21123887, 7532, 218, 50734, 11613,
     90000000, 3057322, 52650, 30812},
};

struct Run {
  TpalResult result;
  std::uint64_t advances{0};
  std::uint64_t folded{0};
};

/// Fig. 3's TPAL run (bench/fig3_heartbeat_rate.cpp) on `stack`. With a
/// fault plan the Nautilus backend turns on fault tolerance, as the
/// bench does under --faults.
Run run_fig3(Stack stack, double heart_us, hwsim::SchedulerKind sched,
             const hwsim::FaultPlan& faults = {}) {
  hwsim::MachineConfig mc;
  mc.num_cores = 16;
  mc.costs = hwsim::CostModel::knl();
  mc.max_advances = 2'000'000'000ULL;
  mc.scheduler = sched;
  mc.faults = faults;
  hwsim::Machine m(mc);
  std::unique_ptr<linuxmodel::LinuxStack> lx;
  std::unique_ptr<nautilus::Kernel> nk;
  std::unique_ptr<HeartbeatBackend> hb;
  nautilus::Kernel* k = nullptr;
  if (stack == Stack::kNautilus) {
    nk = std::make_unique<nautilus::Kernel>(m);
    k = nk.get();
    auto nhb = std::make_unique<NautilusHeartbeat>(m);
    if (faults.enabled) {
      FaultToleranceConfig ft;
      ft.enabled = true;
      nhb->set_fault_tolerance(ft);
    }
    hb = std::move(nhb);
  } else {
    lx = std::make_unique<linuxmodel::LinuxStack>(m);
    k = &lx->kernel();
    hb = std::make_unique<LinuxHeartbeat>(
        *lx, stack == Stack::kLinuxRelay ? LinuxHeartbeatMode::kRelay
                                         : LinuxHeartbeatMode::kPerThreadTimer);
  }
  k->attach();
  TpalConfig cfg;
  cfg.num_workers = 16;
  cfg.total_iters = 3'000'000;
  cfg.cycles_per_iter = 30;
  cfg.heartbeat_period = mc.costs.freq.us_to_cycles(heart_us);
  Run r;
  r.result = TpalRuntime(*k, cfg, hb.get()).run();
  r.advances = m.total_advances();
  r.folded = m.folded_steps();
  return r;
}

std::string leg_name(const Leg& l, hwsim::SchedulerKind sched) {
  static const char* const kStacks[] = {"nautilus", "linux-relay",
                                        "linux-per-thread"};
  return std::string(kStacks[static_cast<int>(l.stack)]) + "/" +
         std::to_string(static_cast<int>(l.heart_us)) + "us/" +
         (sched == hwsim::SchedulerKind::kFrontier ? "frontier" : "linear");
}

void check(const Leg& leg, const hwsim::FaultPlan& faults = {}) {
  for (const hwsim::SchedulerKind sched :
       {hwsim::SchedulerKind::kFrontier, hwsim::SchedulerKind::kLinearScan}) {
    SCOPED_TRACE(leg_name(leg, sched));
    const Run r = run_fig3(leg.stack, leg.heart_us, sched, faults);
    EXPECT_EQ(r.result.makespan, leg.makespan);
    EXPECT_EQ(r.result.promotions, leg.promotions);
    EXPECT_EQ(r.result.steals, leg.steals);
    EXPECT_EQ(r.result.polls, leg.polls);
    EXPECT_EQ(r.result.beats_handled, leg.beats);
    EXPECT_EQ(r.result.work_cycles, leg.work);
    EXPECT_EQ(r.result.overhead_cycles, leg.overhead);
    EXPECT_EQ(r.advances, leg.advances);
    EXPECT_EQ(r.advances - r.folded, leg.picks);
  }
}

TEST(TpalFold, Fig3ResultsHoldOnEverySequentialScheduler) {
  for (const Leg& leg : kLegs) check(leg);
}

// A fault plan draws a stall per step, so nothing folds (picks equal
// advances) and every value is the per-chunk runtime's.
TEST(TpalFold, FaultPlanFoldsNothing) {
  hwsim::FaultPlan faults;
  faults.enabled = true;
  faults.ipi_drop_rate = 0.05;
  faults.stall_rate = 0.001;
  faults.stall_max = 2'000;
  check({Stack::kNautilus, 100.0, 5991021, 645, 146, 47197, 652, 90000000,
         4542891, 56475, 56475},
        faults);
}

/// Counts deliveries and does nothing else.
class CountingSink final : public hwsim::EventSink {
 public:
  void on_core_event(hwsim::Core&, Cycles,
                     const hwsim::EventPayload&) override {
    ++delivered;
  }
  unsigned delivered{0};
};

/// One TPAL worker on core 0 with no heartbeat (nothing can reach its
/// core, so its first step folds every chunk but the last) and, on core
/// 1, a thread that posts an event into core 0 at `post_at`.
void run_with_late_post(Cycles post_at, CountingSink* sink) {
  hwsim::MachineConfig mc;
  mc.num_cores = 2;
  mc.max_advances = 400'000'000;
  hwsim::Machine m(mc);
  const hwsim::SinkId id = m.register_event_sink(sink);
  nautilus::Kernel k(m);
  k.attach();
  nautilus::ThreadConfig tc;
  tc.name = "poster";
  tc.bound_core = 1;
  tc.body = [&m, id, post_at](nautilus::ThreadContext&) {
    m.core(0).post_event(post_at, id);
    return nautilus::StepResult::done(1);
  };
  k.spawn(std::move(tc));
  TpalConfig cfg;
  cfg.num_workers = 1;
  cfg.total_iters = 10'000;
  cfg.cycles_per_iter = 20;
  const TpalResult r = TpalRuntime(k, cfg, nullptr).run();
  EXPECT_EQ(r.polls, (10'000u + 63u) / 64u);
  EXPECT_EQ(m.folded_steps(), 10'000u / 64u - 1u);
}

// The poster runs after core 0's first step: a post timed before the
// last chunk that step folded is one the fold's bound did not see.
TEST(TpalFoldDeathTest, LatePostBeforeAFoldedChunkAbortsByName) {
  CountingSink sink;
  EXPECT_DEATH(run_with_late_post(5'000, &sink),
               "folded-step guard: core 0 delivered an event due at cycle "
               "5000 after a step folded the step starting at cycle");
}

// The same post, timed after the last folded chunk's start, is
// delivered at the next step boundary as the per-chunk runtime would.
TEST(TpalFold, LatePostAfterTheFoldedChunksIsDelivered) {
  CountingSink sink;
  run_with_late_post(200'100, &sink);
  EXPECT_EQ(sink.delivered, 1u);
}

}  // namespace
}  // namespace iw::heartbeat
