// Edge shapes of the kFrontier winner tree.
//
// The tree pads its leaves to a power of two, stores kNever (and every
// padding leaf) as an all-ones word, and replays only the leaves of
// cores marked dirty. Each case runs one workload under kFrontier with
// paranoid_frontier on — every pick is checked in-loop against the
// linear scan — and compares the final snapshot digest, trace hash and
// accounting with the same workload under kLinearScan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "hwsim/lapic.hpp"
#include "hwsim/machine.hpp"
#include "hwsim/snapshot.hpp"
#include "obs/trace.hpp"

namespace iw {
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

constexpr int kBeatVector = 0x40;
constexpr int kTimerVector = 0x41;
constexpr Cycles kStep = 60;
constexpr Cycles kPeriod = 20'000;
/// Far enough that the first heartbeat broadcast lands well before it.
constexpr Cycles kFarTimer = 7 * kPeriod + 333;
constexpr Cycles kMid = 103'000;
constexpr Cycles kEnd = 206'000;

struct Opts {
  unsigned cores{8};
  hwsim::SchedulerKind sched{hwsim::SchedulerKind::kFrontier};
  bool fast_forward{false};
  /// Core 0 sends a unicast IPI to the last core every this many steps
  /// (0 = never). Uncertified for fast-forward.
  std::uint64_t ping_every{0};
};

/// Heartbeat over uneven finite spin work. Core 0's periodic LAPIC
/// broadcasts to every worker; each beat hands the worker two more
/// steps, so workers run dry between beats (idle with nothing pending:
/// a kNever leaf) and wake again on the next one. Every core with id
/// % 4 == 3 starts idle, holding only a far one-shot timer: the first
/// broadcast lands before it, moving that core's next action earlier.
/// The mutable state is a snapshot participant.
class EdgeWorkload final : public hwsim::CoreDriver,
                           public hwsim::SnapshotParticipant {
 public:
  EdgeWorkload(hwsim::Machine& m, const Opts& o)
      : machine_(m),
        ping_every_(o.ping_every),
        remaining_(m.num_cores()),
        steps_(m.num_cores()),
        beats_(m.num_cores()),
        timer_fires_(m.num_cores()),
        beats_before_timer_(m.num_cores()) {
    const unsigned n = m.num_cores();
    for (unsigned i = 0; i < n; ++i) {
      remaining_[i] = i % 4 == 3 ? 0 : 100 + 53 * (i % 5);
      auto& core = m.core(i);
      core.set_driver(this);
      core.set_irq_handler(kBeatVector, [this](hwsim::Core& c, int) {
        c.consume(120);
        ++beats_[c.id()];
        if (timer_fires_[c.id()] == 0) ++beats_before_timer_[c.id()];
        if (c.id() == 0) {
          c.machine().broadcast_ipi(c, kBeatVector);
        } else {
          remaining_[c.id()] += 2;
        }
      });
      core.set_irq_handler(kTimerVector, [this](hwsim::Core& c, int) {
        c.consume(80);
        ++timer_fires_[c.id()];
      });
    }
    // Timers register as participants before the workload; the order
    // is fixed, as snapshot restore requires.
    heartbeat_ = std::make_unique<hwsim::LapicTimer>(m.core(0), kBeatVector);
    for (unsigned i = 3; i < n; i += 4) {
      far_timers_.push_back(
          std::make_unique<hwsim::LapicTimer>(m.core(i), kTimerVector));
      far_timers_.back()->oneshot(kFarTimer);
    }
    machine_.register_snapshot_participant(this);
    heartbeat_->periodic(kPeriod);
  }
  ~EdgeWorkload() { machine_.unregister_snapshot_participant(this); }

  void stop_heartbeat() { heartbeat_->stop(); }

  bool runnable(hwsim::Core& core) override {
    return remaining_[core.id()] > 0;
  }
  void step(hwsim::Core& core) override {
    core.consume(kStep);
    --remaining_[core.id()];
    ++steps_[core.id()];
    const unsigned last = machine_.num_cores() - 1;
    if (ping_every_ != 0 && core.id() == 0 && last != 0 &&
        steps_[0] % ping_every_ == 0) {
      machine_.send_ipi(core, last, kBeatVector);
    }
  }
  bool plan_fast_forward(hwsim::Core& core, Cycles horizon,
                         hwsim::FastForwardPlan* plan) override {
    if (ping_every_ != 0) return false;
    const Cycles gap = horizon - core.clock();
    const std::uint64_t steps = std::min<std::uint64_t>(
        remaining_[core.id()], (gap + kStep - 1) / kStep);
    if (steps == 0) return false;
    plan->end_clock = core.clock() + steps * kStep;
    plan->steps = steps;
    return true;
  }
  void apply_fast_forward(hwsim::Core& core,
                          const hwsim::FastForwardPlan& plan) override {
    remaining_[core.id()] -= plan.steps;
    steps_[core.id()] += plan.steps;
  }

  void save_state(hwsim::SnapshotWriter& w) const override {
    for (const auto* v : {&remaining_, &steps_, &beats_, &timer_fires_,
                          &beats_before_timer_}) {
      for (const std::uint64_t x : *v) w.u64(x);
    }
  }
  void restore_state(hwsim::SnapshotReader& r) override {
    for (auto* v : {&remaining_, &steps_, &beats_, &timer_fires_,
                    &beats_before_timer_}) {
      for (std::uint64_t& x : *v) x = r.u64();
    }
  }

  [[nodiscard]] std::uint64_t beats() const { return sum(beats_); }
  [[nodiscard]] std::uint64_t timer_fires() const { return sum(timer_fires_); }
  [[nodiscard]] std::uint64_t beats_before_timer(CoreId c) const {
    return beats_before_timer_[c];
  }

 private:
  static std::uint64_t sum(const std::vector<std::uint64_t>& v) {
    std::uint64_t n = 0;
    for (const std::uint64_t x : v) n += x;
    return n;
  }

  hwsim::Machine& machine_;
  std::uint64_t ping_every_;
  std::vector<std::uint64_t> remaining_;
  std::vector<std::uint64_t> steps_;
  std::vector<std::uint64_t> beats_;
  std::vector<std::uint64_t> timer_fires_;
  std::vector<std::uint64_t> beats_before_timer_;
  std::unique_ptr<hwsim::LapicTimer> heartbeat_;
  std::vector<std::unique_ptr<hwsim::LapicTimer>> far_timers_;
};

/// Endless fixed-cost spin on every core; posts nothing, so every
/// invalidation comes from the stepping core itself.
class SpinDriver final : public hwsim::CoreDriver {
 public:
  bool runnable(hwsim::Core&) override { return true; }
  void step(hwsim::Core& core) override { core.consume(kStep + core.id()); }
};

struct Result {
  std::uint64_t digest{0};
  std::uint64_t trace{0};
  std::uint64_t advances{0};
  std::uint64_t beats{0};
  std::uint64_t timer_fires{0};
  std::uint64_t ff_windows{0};
  std::uint64_t ff_steps{0};
  /// Cores idle with nothing pending, summed over the checkpoints.
  std::uint64_t never_leaves{0};
};

hwsim::MachineConfig make_config(const Opts& o) {
  hwsim::MachineConfig mc;
  mc.num_cores = o.cores;
  mc.scheduler = o.sched;
  mc.paranoid_frontier = o.sched == hwsim::SchedulerKind::kFrontier;
  mc.fast_forward.enabled = o.fast_forward;
  return mc;
}

unsigned never_cores(hwsim::Machine& m) {
  unsigned n = 0;
  for (unsigned i = 0; i < m.num_cores(); ++i) {
    n += m.core(i).next_action_time_uncached() == kNever ? 1 : 0;
  }
  return n;
}

/// Run to kEnd in checkpoints of a quarter beat, then stop the heartbeat
/// and drain to quiescence (every leaf kNever at the end).
Result finish(hwsim::Machine& m, EdgeWorkload& w, obs::TraceRecorder& tr) {
  Result r;
  for (Cycles t = m.now() + kPeriod / 4; t < kEnd; t += kPeriod / 4) {
    EXPECT_TRUE(m.run_until(t));
    r.never_leaves += never_cores(m);
  }
  EXPECT_TRUE(m.run_until(kEnd));
  w.stop_heartbeat();
  EXPECT_TRUE(m.run());
  EXPECT_EQ(never_cores(m), m.num_cores());
  r.digest = m.snapshot().digest();
  r.trace = trace_hash(tr);
  r.advances = m.total_advances();
  r.beats = w.beats();
  r.timer_fires = w.timer_fires();
  r.ff_windows = m.fast_forward_windows();
  r.ff_steps = m.fast_forwarded_steps();
  return r;
}

Result run(const Opts& o) {
  hwsim::Machine m(make_config(o));
  obs::TraceRecorder tr;
  m.set_tracer(&tr);
  EdgeWorkload w(m, o);
  return finish(m, w, tr);
}

void expect_same(const Result& a, const Result& b, const std::string& label) {
  EXPECT_EQ(a.digest, b.digest) << label;
  EXPECT_EQ(a.trace, b.trace) << label;
  EXPECT_EQ(a.advances, b.advances) << label;
  EXPECT_EQ(a.beats, b.beats) << label;
  EXPECT_EQ(a.timer_fires, b.timer_fires) << label;
}

Opts linear(Opts o) {
  o.sched = hwsim::SchedulerKind::kLinearScan;
  o.fast_forward = false;
  return o;
}

TEST(FrontierTree, PaddedCoreCountsMatchLinearScan) {
  // 1 core: the root is the only leaf. 3, 5, 9, 65: the tree pads to 4,
  // 8, 16 and 128 leaves, so kNoEntry padding sits beside real leaves
  // at every level.
  for (const unsigned cores : {1u, 3u, 5u, 9u, 65u}) {
    Opts o;
    o.cores = cores;
    o.ping_every = 7;
    const Result frontier = run(o);
    const std::string label = "cores=" + std::to_string(cores);
    expect_same(frontier, run(linear(o)), label);
    EXPECT_GT(frontier.advances, 0u) << label;
  }
}

TEST(FrontierTree, IdleCoreNextActionMovesEarlier) {
  // Core 3 starts idle holding only a far timer; the first heartbeat
  // IPI lands before that timer, so its leaf moves to an earlier time.
  Opts o;
  o.cores = 5;
  hwsim::Machine m(make_config(o));
  obs::TraceRecorder tr;
  m.set_tracer(&tr);
  EdgeWorkload w(m, o);
  EXPECT_GE(m.core(3).next_action_time_uncached(), kFarTimer);
  const Result frontier = finish(m, w, tr);
  EXPECT_GE(w.beats_before_timer(3), 1u);
  EXPECT_EQ(frontier.timer_fires, 1u);  // the far timer still fires
  expect_same(frontier, run(linear(o)), "idle-earlier");
}

TEST(FrontierTree, CoresGoIdleWithNothingPending) {
  // Between beats the workers run dry with empty inboxes (kNever
  // leaves) while core 0 still holds its timer; each broadcast wakes
  // them out of kNever again.
  Opts o;
  o.cores = 9;
  const Result frontier = run(o);
  EXPECT_GT(frontier.never_leaves, 0u);
  expect_same(frontier, run(linear(o)), "never-leaves");
}

TEST(FrontierTree, FastForwardCommitMatchesLinearScan) {
  // Committed skips move many cores' clocks at once, each one dirty.
  Opts o;
  o.cores = 9;
  o.fast_forward = true;
  const Result frontier = run(o);
  EXPECT_GT(frontier.ff_windows, 0u);
  EXPECT_GT(frontier.ff_steps, 0u);
  expect_same(frontier, run(linear(o)), "fast-forward");
}

TEST(FrontierTree, SnapshotRestoreMidRunMatchesLinearScan) {
  // Restore marks every core dirty; the next peek replays every leaf of
  // a tree that still holds the abandoned leg's words.
  for (const unsigned cores : {5u, 9u}) {
    Opts o;
    o.cores = cores;
    o.ping_every = 7;
    const std::string label = "cores=" + std::to_string(cores);
    hwsim::Machine m(make_config(o));
    obs::TraceRecorder tr;
    m.set_tracer(&tr);
    EdgeWorkload w(m, o);
    EXPECT_TRUE(m.run_until(kMid));
    const hwsim::Snapshot snap = m.snapshot();
    EXPECT_TRUE(m.run_until(kEnd - 1));  // the abandoned leg
    m.restore(snap);
    tr.clear();
    const Result replay = finish(m, w, tr);

    hwsim::Machine ref(make_config(linear(o)));
    obs::TraceRecorder ref_tr;
    ref.set_tracer(&ref_tr);
    EdgeWorkload ref_w(ref, linear(o));
    EXPECT_TRUE(ref.run_until(kMid));
    ref_tr.clear();
    const Result reference = finish(ref, ref_w, ref_tr);
    expect_same(replay, reference, label);
  }
}

TEST(FrontierTree, SpinOnlyCoresNeverQueueThemselves) {
  // No cross-core traffic: each step's invalidations are the stepping
  // core's own, and execute() rewrites that core's leaf from the time
  // its advance() returns, so nothing reaches the dirty list after the
  // run-entry refresh (which the counter leaves out).
  for (const unsigned cores : {1u, 5u, 64u}) {
    hwsim::MachineConfig mc;
    mc.num_cores = cores;
    mc.paranoid_frontier = true;
    hwsim::Machine m(mc);
    SpinDriver spin;
    for (unsigned i = 0; i < cores; ++i) m.core(i).set_driver(&spin);
    EXPECT_TRUE(m.run_until(kMid));
    EXPECT_TRUE(m.run_until(kEnd));
    const std::string label = "cores=" + std::to_string(cores);
    EXPECT_GT(m.total_advances(), std::uint64_t{cores} * (kEnd / 128))
        << label;
    EXPECT_EQ(m.frontier_dirty_pushes(), 0u) << label;
  }
}

TEST(FrontierTree, DirtyPushesAtMostOnePerIpi) {
  // Without fast-forward the only invalidations from another context
  // are IPI deliveries (the heartbeat broadcast, plus the unicast
  // pings), and a target already on the list is not pushed again.
  for (const std::uint64_t ping : {0u, 7u}) {
    Opts o;
    o.cores = 9;
    o.ping_every = ping;
    hwsim::Machine m(make_config(o));
    obs::TraceRecorder tr;
    m.set_tracer(&tr);
    EdgeWorkload w(m, o);
    const Result frontier = finish(m, w, tr);
    const std::string label = "ping_every=" + std::to_string(ping);
    EXPECT_GT(m.frontier_dirty_pushes(), 0u) << label;
    EXPECT_LE(m.frontier_dirty_pushes(), m.total_ipis()) << label;
    expect_same(frontier, run(linear(o)), label);
  }
}

}  // namespace
}  // namespace iw
