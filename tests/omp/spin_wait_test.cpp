// Spin-barrier waits and worksharing chunks in one step (DESIGN.md,
// "OpenMP spin waits").
//
// A spinner whose poll reads "not passed" performs, in the same step,
// every later poll that provably reads "not passed" too, and a
// schedule(static) worker runs, in one step, every chunk up to its
// core's next due event, short of the one that finishes its range. That
// changes how many DES advances a run takes and nothing else: the
// results below were taken from the runtime that stepped every 40-cycle
// poll (noise off) or every chunk (noise on), and must hold bit for bit
// on the frontier and the linear scan. Only the advance counts are the
// batched runtime's own; the counts of the runtime that stepped every
// chunk, and of the one that stepped every poll, are given beside them.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "hwsim/machine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "omp/runtime.hpp"
#include "workloads/miniapp.hpp"

namespace iw::omp {
namespace {

/// FNV-1a over the recorder's text dump (as in determinism_test.cpp).
std::uint64_t trace_hash(const obs::TraceRecorder& tr) {
  std::ostringstream os;
  tr.write_text(os);
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : os.str()) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

enum class App { kBt, kSp, kEpcc, kBt48, kSp48 };

workloads::MiniApp make_app(App a) {
  switch (a) {
    case App::kBt: return workloads::bt_mini(16, 2);
    case App::kSp: return workloads::sp_mini(16, 2);
    case App::kEpcc: return workloads::epcc_syncbench(64, 4);
    case App::kBt48: return workloads::bt_mini(48, 3);
    case App::kSp48: return workloads::sp_mini(48, 3);
  }
  return {};
}

struct Leg {
  App app;
  OmpMode mode;
  unsigned threads;
  std::uint64_t dynamic_chunk;
  std::uint64_t iter_chunk;
  // Results of the per-poll runtime.
  Cycles makespan;
  std::uint64_t barriers;
  double tlb_miss_rate;
  std::uint64_t trace;
  std::uint64_t wait_count;
  std::uint64_t wait_sum;
  std::uint64_t wait_max;
  // DES advances of the batched runtime.
  std::uint64_t advances;
  // Linux OS noise: mean gap in µs, 0 = off (burst: the default 5 µs).
  double noise_gap_us{0.0};
};

constexpr OmpMode kLinux = OmpMode::kLinux;
constexpr OmpMode kRTK = OmpMode::kRTK;
constexpr OmpMode kPIK = OmpMode::kPIK;

// Noise is off on every leg (noise_gap_us = 0), so no value depends on
// libm; these runs end before the first 2500 µs noise gap anyway. The
// Linux legs still spin on the master's region-start wake chain.
const Leg kLegs[] = {
    // app, mode, threads, dynamic_chunk, iter_chunk, makespan, barriers,
    // tlb miss rate, trace hash, omp.barrier.wait count/sum/max, advances
    // (comment: per-chunk, per-poll advances)
    {App::kBt, kLinux, 8, 0, 64, 872570, 10, 0x1.17e655f9957e6p-1,
     0x24094e660a039d5fULL, 80, 282640, 23580, 296},  // 572, 7353
    {App::kBt, kLinux, 64, 0, 64, 555960, 10, 0x1.aa22cbce4a902p-1,
     0xd12a9fd8ce051ff6ULL, 640, 27997760, 59940, 2749},  // 2749, 700343
    {App::kBt, kRTK, 8, 0, 64, 780990, 10, 0x1.488052201488p-10,
     0x811dced952fd58b1ULL, 80, 7000, 100, 270},  // 462, 462
    {App::kBt, kRTK, 64, 0, 64, 100070, 10, 0x1.3e22cbce4a902p-8,
     0x032e9db8eb9d669dULL, 640, 63000, 100, 1974},  // 1974, 1974
    {App::kBt, kPIK, 8, 0, 64, 789630, 10, 0x1.488052201488p-10,
     0x868d4a4241e879faULL, 80, 49280, 4420, 284},  // 483, 1519
    {App::kBt, kPIK, 64, 0, 64, 108670, 10, 0x1.3e22cbce4a902p-8,
     0x918234dcac3d593dULL, 640, 443520, 4420, 2226},  // 2226, 11487
    {App::kSp, kLinux, 8, 0, 64, 563560, 14, 0x1.7ada67d508f37p-2,
     0x03df72695443890eULL, 112, 426680, 20380, 464},  // 972, 11200
    {App::kSp, kLinux, 64, 0, 64, 711470, 14, 0x1.50c9ea5dbf194p-1,
     0x2d9160d2152970b1ULL, 896, 40532600, 59580, 3746},  // 3746, 1013848
    {App::kSp, kRTK, 8, 0, 64, 479790, 14, 0x1.ca4b3055ee191p-10,
     0x387f5fff31c00079ULL, 112, 9800, 100, 394},  // 778, 778
    {App::kSp, kRTK, 64, 0, 64, 63190, 14, 0x1.cd85689039b0bp-8,
     0xc9442b63d76c1121ULL, 896, 88200, 100, 2738},  // 2738, 2738
    {App::kSp, kPIK, 8, 0, 64, 491870, 14, 0x1.ca4b3055ee191p-10,
     0x1294e1dedf1e73b9ULL, 112, 78400, 3860, 429},  // 827, 2493
    {App::kSp, kPIK, 64, 0, 64, 75230, 14, 0x1.cd85689039b0bp-8,
     0xa7363c9d06ebf773ULL, 896, 705600, 3060, 3431},  // 3431, 18173
    {App::kEpcc, kLinux, 8, 0, 64, 19870, 4, 0x1.9e79e79e79e7ap-1,
     0x4e7284f99961edcfULL, 32, 99440, 4860, 121},  // 121, 2516
    {App::kEpcc, kLinux, 64, 0, 64, 152590, 4, 0x1.9e79e79e79e7ap-1,
     0x0ed040558a17946aULL, 256, 9387040, 49660, 1017},  // 1017, 234874
    {App::kEpcc, kRTK, 8, 0, 64, 3390, 4, 0x1.8618618618618p-5,
     0xa336a508b33131dbULL, 32, 2800, 100, 100},  // 100, 100
    {App::kEpcc, kRTK, 64, 0, 64, 1710, 4, 0x1.8618618618618p-5,
     0x345b12c7d9d1e981ULL, 256, 25200, 100, 828},  // 828, 828
    {App::kEpcc, kPIK, 8, 0, 64, 6830, 4, 0x1.8618618618618p-5,
     0xe4346562bdfafdd8ULL, 32, 23520, 980, 128},  // 128, 618
    {App::kEpcc, kPIK, 64, 0, 64, 5150, 4, 0x1.8618618618618p-5,
     0x47f5548a30d32edaULL, 256, 236880, 980, 1080},  // 1080, 6120
    // schedule(dynamic, 8).
    {App::kBt, kLinux, 64, 8, 64, 486010, 10, 0x1.76059f94786c1p-1,
     0xe27798ebdbde3b38ULL, 640, 16812920, 47780, 13450},  // 13450, 422962
    // Small iter_chunk: many work steps per phase.
    {App::kSp, kLinux, 64, 0, 8, 711470, 14, 0x1.e31219dbcc486p-2,
     0xebfc45fec86a4210ULL, 896, 40656080, 53580, 4636},  // 10354, 1020519
    // Fig. 6's size, long enough to cross the Linux tick: a spinner
    // takes each tick at the step boundary it falls before.
    {App::kBt48, kLinux, 64, 0, 64, 3123780, 15, 0x1.ecbd323989ffp-1,
     0x34407a63b42254d5ULL, 960, 44647340, 168900, 4448},  // 18961, 1100652
};

// Noise on at the default seed: Fig. 6's BT-/SP-mini n = 48 on Linux,
// at the default gap and under a burst every ~20 µs, where the bursts
// split the batched chunks. The results are the per-chunk runtime's.
const Leg kNoisyLegs[] = {
    {App::kBt48, kLinux, 8, 0, 64, 19512872, 15, 0x1.d01e115ecaa74p-1,
     0x5cb51c8484106604ULL, 120, 655970, 37060, 679, 2'500.0},  // 11318
    {App::kBt48, kLinux, 8, 0, 64, 29173708, 15, 0x1.d01e115ecaa74p-1,
     0xd225d07020095d0aULL, 120, 13253384, 413728, 4902, 20.0},  // 14038
    {App::kBt48, kLinux, 64, 0, 64, 3125682, 15, 0x1.ecbd323989ffp-1,
     0x609eefbdf18ab046ULL, 960, 44716102, 170689, 4526, 2'500.0},  // 19014
    {App::kBt48, kLinux, 64, 0, 64, 4731765, 15, 0x1.ecbd323989ffp-1,
     0x96a8ed5676475ed1ULL, 960, 107675539, 370040, 26135, 20.0},  // 67831
    {App::kSp48, kLinux, 8, 0, 64, 16012053, 21, 0x1.9b46b99e1bae5p-1,
     0x4417924a26e2a471ULL, 168, 992340, 37340, 928, 2'500.0},  // 21995
    {App::kSp48, kLinux, 8, 0, 64, 24950973, 21, 0x1.9b46b99e1bae5p-1,
     0xbfef4007711e52e0ULL, 168, 19028809, 519718, 6263, 20.0},  // 26687
    {App::kSp48, kLinux, 64, 0, 64, 2984082, 21, 0x1.cf906a6f27b2cp-1,
     0x109007a402f5e0bdULL, 1344, 63447246, 102390, 6686, 2'500.0},  // 39248
    {App::kSp48, kLinux, 64, 0, 64, 4807084, 21, 0x1.cf906a6f27b2cp-1,
     0x3d91d24fcf8ec499ULL, 1344, 134982068, 318424, 41392, 20.0},  // 122502
};

std::string leg_name(const Leg& l, hwsim::SchedulerKind sched) {
  static const char* const kApps[] = {"bt", "sp", "epcc", "bt48", "sp48"};
  static const char* const kScheds[] = {"frontier", "linear"};
  return std::string(kApps[static_cast<int>(l.app)]) + "/" +
         mode_name(l.mode) + "/p" + std::to_string(l.threads) + "/dyn" +
         std::to_string(l.dynamic_chunk) + "/chunk" +
         std::to_string(l.iter_chunk) + "/gap" +
         std::to_string(static_cast<int>(l.noise_gap_us)) + "/" +
         kScheds[static_cast<int>(sched)];
}

/// Run `leg` on each sequential scheduler and check every pinned value.
void check_on_every_sequential_scheduler(const Leg& leg) {
  for (const hwsim::SchedulerKind sched :
       {hwsim::SchedulerKind::kFrontier, hwsim::SchedulerKind::kLinearScan}) {
    SCOPED_TRACE(leg_name(leg, sched));
    OmpConfig cfg;
    cfg.mode = leg.mode;
    cfg.num_threads = leg.threads;
    cfg.dynamic_chunk = leg.dynamic_chunk;
    cfg.iter_chunk = leg.iter_chunk;
    cfg.noise_gap_us = leg.noise_gap_us;
    cfg.scheduler = sched;
    obs::TraceRecorder tr;
    obs::MetricsRegistry mx;
    cfg.tracer = &tr;
    cfg.metrics = &mx;
    const OmpResult r = run_miniapp(make_app(leg.app), cfg);
    EXPECT_EQ(r.makespan, leg.makespan);
    EXPECT_EQ(r.barriers_passed, leg.barriers);
    EXPECT_EQ(r.tlb_miss_rate, leg.tlb_miss_rate);
    EXPECT_EQ(trace_hash(tr), leg.trace);
    const auto wait = mx.histogram(obs::names::kOmpBarrierWait).state();
    EXPECT_EQ(wait.total_count, leg.wait_count);
    EXPECT_EQ(wait.sum, static_cast<double>(leg.wait_sum));
    EXPECT_EQ(wait.max, leg.wait_max);
    EXPECT_EQ(r.advances, leg.advances);
  }
}

TEST(SpinWait, PerPollResultsHoldOnEverySequentialScheduler) {
  for (const Leg& leg : kLegs) check_on_every_sequential_scheduler(leg);
}

TEST(SpinWait, NoisyFig6ResultsHoldOnEverySequentialScheduler) {
  for (const Leg& leg : kNoisyLegs) check_on_every_sequential_scheduler(leg);
}

// Static chunks fold; dynamic grabs do not. BT-mini n = 48 Linux p64
// took 18 961 advances (noise off) and 19 014 (default noise) with one
// step per chunk; schedule(dynamic, 8) keeps one grab per step and so
// the per-chunk runtime's 13 450.
TEST(SpinWait, StaticChunksShareAStepAndDynamicGrabsDoNot) {
  OmpConfig cfg;
  cfg.mode = kLinux;
  cfg.num_threads = 64;
  cfg.noise_gap_us = 0.0;
  EXPECT_LE(run_miniapp(workloads::bt_mini(48, 3), cfg).advances * 4,
            18'961u);
  cfg.noise_gap_us = 2'500.0;
  EXPECT_LE(run_miniapp(workloads::bt_mini(48, 3), cfg).advances * 4,
            19'014u);
  cfg.noise_gap_us = 0.0;
  cfg.dynamic_chunk = 8;
  EXPECT_EQ(run_miniapp(workloads::bt_mini(16, 2), cfg).advances, 13'450u);
}

// Noise on: Fig. 6's Linux p64 point (BT-/SP-mini n = 48, default
// noise), and a small run under a burst every ~20 µs, where a worker
// often still spins on a flipped generation while others spin on the
// next one. The blind polls stay exact under bursts and ticks (the
// exactness guard, or blind_polls' check that some worker has not
// arrived, would abort otherwise), both sequential schedulers agree,
// and the advances fall at least 20-fold.
TEST(SpinWait, NoisyLinuxRunsBatchTheirPolls) {
  struct Case {
    workloads::MiniApp app;
    unsigned threads;
    double gap_us;
    double burst_us;
    std::uint64_t per_poll_advances;  // the per-poll runtime's count
  };
  const Case cases[] = {
      {workloads::bt_mini(48, 3), 64, 2'500.0, 5.0, 1'094'342},
      {workloads::sp_mini(48, 3), 64, 2'500.0, 5.0, 1'574'171},
      {workloads::bt_mini(16, 2), 8, 20.0, 10.0, 109'209},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.app.name + " p" + std::to_string(c.threads));
    OmpConfig cfg;
    cfg.mode = kLinux;
    cfg.num_threads = c.threads;
    cfg.noise_gap_us = c.gap_us;
    cfg.noise_burst_us = c.burst_us;
    cfg.seed = 1;
    const OmpResult frontier = run_miniapp(c.app, cfg);
    cfg.scheduler = hwsim::SchedulerKind::kLinearScan;
    const OmpResult linear = run_miniapp(c.app, cfg);
    EXPECT_EQ(frontier.makespan, linear.makespan);
    EXPECT_EQ(frontier.barriers_passed, c.app.barriers());
    EXPECT_EQ(linear.barriers_passed, c.app.barriers());
    EXPECT_EQ(frontier.tlb_miss_rate, linear.tlb_miss_rate);
    EXPECT_EQ(frontier.advances, linear.advances);
    EXPECT_LT(frontier.advances * 20, c.per_poll_advances);
  }
}

TEST(SpinWait, GuardAcceptsBlindPollsBeforeTheFlip) {
  hwsim::MachineConfig mc;
  mc.num_cores = 2;
  hwsim::Machine m(mc);
  SpinBarrier b(2);
  const auto gen = b.arrive(m.core(0));
  m.core(1).consume(1'000);
  b.arrive(m.core(1));  // core 1 flips at cycle 1000
  ASSERT_TRUE(b.passed(gen));
  b.check_poll_order(m.core(0), 960);
  b.check_poll_order(m.core(0), 1'000);  // same cycle, lower core
  b.check_poll_order(m.core(0), kNever);  // no blind poll
}

TEST(SpinWaitDeathTest, GuardNamesABlindPollPastTheFlip) {
  hwsim::MachineConfig mc;
  mc.num_cores = 2;
  hwsim::Machine m(mc);
  SpinBarrier b(2);
  b.arrive(m.core(0));
  m.core(1).consume(1'000);
  b.arrive(m.core(1));
  EXPECT_DEATH(b.check_poll_order(m.core(0), 1'040),
               "worker 0 polled at cycle 1040, but core 1 flipped "
               "generation 0 at cycle 1000");

  // The same cycle on a higher core also comes after the flip.
  hwsim::Machine m2(mc);
  SpinBarrier late(2);
  late.arrive(m2.core(1));
  m2.core(0).consume(2'000);
  late.arrive(m2.core(0));  // core 0 flips at cycle 2000
  late.check_poll_order(m2.core(1), 1'960);
  EXPECT_DEATH(late.check_poll_order(m2.core(1), 2'000),
               "worker 1 polled at cycle 2000, but core 0 flipped "
               "generation 0 at cycle 2000");
}

// Linux at 16 threads, noise off: the master's region-start wake chain
// (7 x 1600 cycles) outlasts the timeout, and the panic line is the one
// the per-poll runtime printed.
TEST(SpinWaitDeathTest, TimeoutFiresAtTheSamePoll) {
  OmpConfig cfg;
  cfg.mode = kLinux;
  cfg.num_threads = 16;
  cfg.noise_gap_us = 0.0;
  cfg.barrier_timeout = 5'000;
  EXPECT_DEATH(run_miniapp(workloads::bt_mini(16, 2), cfg),
               "PANIC: omp barrier timeout on core 15: waited 5020 cycles "
               "\\(limit 5000\\), 15/16 arrived");
}

TEST(OmpConfigDeathTest, ZeroIterChunkFailsByName) {
  OmpConfig cfg;
  cfg.mode = kRTK;
  cfg.num_threads = 2;
  cfg.iter_chunk = 0;
  EXPECT_DEATH(run_miniapp(workloads::bt_mini(8, 1), cfg),
               "iter_chunk must be at least 1");
}

TEST(OmpConfigDeathTest, ParkFractionOutsideTheUnitIntervalFailsByName) {
  OmpConfig cfg;
  cfg.mode = kLinux;
  cfg.num_threads = 4;
  cfg.linux_park_fraction = -0.5;
  EXPECT_DEATH(run_miniapp(workloads::bt_mini(8, 1), cfg),
               "linux_park_fraction must lie in \\[0, 1\\]");
  cfg.linux_park_fraction = 1.5;
  EXPECT_DEATH(run_miniapp(workloads::bt_mini(8, 1), cfg),
               "linux_park_fraction must lie in \\[0, 1\\]");
}

TEST(OmpConfigDeathTest, NonPositiveNoiseBurstFailsByName) {
  OmpConfig cfg;
  cfg.mode = kLinux;
  cfg.num_threads = 4;
  cfg.noise_burst_us = 0.0;
  EXPECT_DEATH(run_miniapp(workloads::bt_mini(8, 1), cfg),
               "noise_burst_us must be positive");
  cfg.noise_burst_us = -5.0;
  EXPECT_DEATH(run_miniapp(workloads::bt_mini(8, 1), cfg),
               "noise_burst_us must be positive");
  // With the noise off the burst length is never read.
  cfg.noise_gap_us = 0.0;
  EXPECT_GT(run_miniapp(workloads::bt_mini(8, 1), cfg).makespan, 0u);
}

// Lognormal means: a 5 µs gap (sigma 0.5) averages 5.67 µs and a 5 µs
// burst (sigma 0.8) 6.89 µs, so the bursts would outrun the clock and
// the run would never return. The Fig. 6 default (2500/5) and the
// 20/5 and 20/10 legs above stay accepted.
TEST(OmpConfigDeathTest, NoiseOutrunningTheClockFailsByName) {
  OmpConfig cfg;
  cfg.mode = kLinux;
  cfg.num_threads = 2;
  cfg.iter_chunk = 1;
  cfg.noise_gap_us = 5.0;
  cfg.noise_burst_us = 5.0;
  EXPECT_DEATH(run_miniapp(workloads::bt_mini(8, 1), cfg),
               "noise_burst_us's lognormal mean must stay below "
               "noise_gap_us's: the noise bursts would outrun the clock");
  cfg.noise_gap_us = 20.0;
  EXPECT_GT(run_miniapp(workloads::bt_mini(8, 1), cfg).makespan, 0u);
}

}  // namespace
}  // namespace iw::omp
