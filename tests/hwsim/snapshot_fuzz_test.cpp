// Randomized restore-equivalence smoke: random seeds, random fault
// plans, snapshot at a random cycle, assert the replayed window is
// bit-identical to the uninterrupted one — both restored into the same
// machine and hydrated from the serialized image into a fresh one. The
// iteration count is small by default (ctest) and raised by CI via
// IW_FUZZ_ITERS.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "hwsim/fault_plan.hpp"
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

struct alignas(64) Cell {
  std::uint64_t v{0};
};

/// Minimal heartbeat workload-as-participant (same shape as
/// snapshot_test.cpp's, trimmed to what the fuzz loop needs).
class FuzzWorkload final : public hwsim::CoreDriver,
                           public hwsim::SnapshotParticipant {
 public:
  FuzzWorkload(hwsim::Machine& m, Cycles step, Cycles period)
      : machine_(m),
        step_(step),
        remaining_(m.num_cores(), 1u << 30),
        cells_(m.num_cores()) {
    for (unsigned i = 0; i < m.num_cores(); ++i) {
      auto& core = m.core(i);
      core.set_driver(this);
      core.set_irq_handler(0x40, [this](hwsim::Core& c, int) {
        c.consume(110);
        ++cells_[c.id()].v;
        if (c.id() == 0) c.machine().broadcast_ipi(c, 0x40);
      });
    }
    timer_ = std::make_unique<hwsim::LapicTimer>(m.core(0), 0x40);
    machine_.register_snapshot_participant(this);
    timer_->periodic(period);
  }
  ~FuzzWorkload() { machine_.unregister_snapshot_participant(this); }

  bool runnable(hwsim::Core& core) override {
    return remaining_[core.id()] > 0;
  }
  void step(hwsim::Core& core) override {
    core.consume(step_);
    --remaining_[core.id()];
  }
  bool plan_fast_forward(hwsim::Core& core, Cycles horizon,
                         hwsim::FastForwardPlan* plan) override {
    const Cycles gap = horizon - core.clock();
    const std::uint64_t steps = std::min<std::uint64_t>(
        remaining_[core.id()], (gap + step_ - 1) / step_);
    if (steps == 0) return false;
    plan->end_clock = core.clock() + steps * step_;
    plan->steps = steps;
    return true;
  }
  void apply_fast_forward(hwsim::Core& core,
                          const hwsim::FastForwardPlan& plan) override {
    remaining_[core.id()] -= plan.steps;
  }

  void save_state(hwsim::SnapshotWriter& w) const override {
    for (std::uint64_t r : remaining_) w.u64(r);
    for (const Cell& c : cells_) w.u64(c.v);
  }
  void restore_state(hwsim::SnapshotReader& r) override {
    for (std::uint64_t& x : remaining_) x = r.u64();
    for (Cell& c : cells_) c.v = r.u64();
  }

 private:
  hwsim::Machine& machine_;
  Cycles step_;
  std::vector<std::uint64_t> remaining_;
  std::vector<Cell> cells_;
  std::unique_ptr<hwsim::LapicTimer> timer_;
};

unsigned fuzz_iters() {
  if (const char* s = std::getenv("IW_FUZZ_ITERS")) {
    const long v = std::strtol(s, nullptr, 10);
    if (v > 0) return static_cast<unsigned>(v);
  }
  return 12;
}

std::string random_plan(Rng& rng) {
  std::ostringstream os;
  bool first = true;
  auto term = [&](const char* key, double rate, Cycles mag) {
    if (!first) os << ",";
    first = false;
    os << key << "=" << rate;
    if (mag != 0) os << ":" << mag;
  };
  if (rng.chance(0.7)) term("drop", rng.next_double() * 0.3, 0);
  if (rng.chance(0.5)) {
    term("delay", rng.next_double() * 0.3, rng.uniform(200, 1'000));
  }
  if (rng.chance(0.4)) term("dup", rng.next_double() * 0.2, 0);
  if (rng.chance(0.5)) {
    term("jitter", rng.next_double() * 0.3, rng.uniform(100, 500));
  }
  if (rng.chance(0.4)) term("spurious", rng.next_double() * 0.1, 0);
  if (rng.chance(0.4)) {
    term("stall", rng.next_double() * 0.05, rng.uniform(100, 400));
  }
  if (first) term("drop", 0.1, 0);  // never an empty spec
  if (rng.chance(0.3)) {
    const Cycles b = rng.uniform(20'000, 120'000);
    os << ",window=" << b << "-" << (b + rng.uniform(10'000, 90'000));
  }
  return os.str();
}

TEST(SnapshotFuzz, RandomPlansRandomCyclesRestoreEquivalence) {
  constexpr hwsim::SchedulerKind kScheds[] = {
      hwsim::SchedulerKind::kFrontier,
      hwsim::SchedulerKind::kLinearScan,
      hwsim::SchedulerKind::kAuto,
      hwsim::SchedulerKind::kParallelEpoch,
  };
  Rng rng(0x5eedf00dULL);
  const unsigned iters = fuzz_iters();
  for (unsigned it = 0; it < iters; ++it) {
    hwsim::MachineConfig mc;
    mc.num_cores = static_cast<unsigned>(rng.uniform(2, 8));
    mc.seed = rng.next_u64();
    mc.fault_seed = rng.next_u64();
    mc.scheduler = kScheds[rng.uniform(0, 3)];
    mc.shard_policy = hwsim::ShardPolicy::kPerCore;
    mc.threads = static_cast<unsigned>(rng.uniform(1, 3));
    mc.work_stealing = rng.chance(0.5);
    mc.fast_forward.enabled = rng.chance(0.5);
    const std::string plan = random_plan(rng);
    std::string err;
    ASSERT_TRUE(hwsim::FaultPlan::parse(plan, &mc.faults, &err))
        << plan << ": " << err;

    const Cycles snap_at = rng.uniform(30'000, 200'000);
    const Cycles end_at = snap_at + rng.uniform(60'000, 200'000);
    const std::string label = "iter " + std::to_string(it) + " plan=" +
                              plan + " snap@" + std::to_string(snap_at);

    // Period first, then step: the order in which GCC evaluated the two
    // draws when they were arguments of one call, which keeps the
    // sequence every earlier iteration count ran.
    const Cycles period = rng.uniform(8'000, 38'000);
    const Cycles step = rng.uniform(40, 120);
    hwsim::Machine m(mc);
    FuzzWorkload w(m, step, period);
    ASSERT_TRUE(m.run_until(snap_at)) << label;
    hwsim::Snapshot snap = m.snapshot();
    const std::vector<std::uint64_t> image = snap.serialize();

    obs::TraceRecorder t1;
    m.set_tracer(&t1);
    ASSERT_TRUE(m.run_until(end_at)) << label;
    const std::uint64_t hash = trace_hash(t1);
    const std::uint64_t digest = m.snapshot().digest();

    m.restore(snap);
    obs::TraceRecorder t2;
    m.set_tracer(&t2);
    ASSERT_TRUE(m.run_until(end_at)) << label;
    EXPECT_EQ(trace_hash(t2), hash) << label;
    EXPECT_EQ(m.snapshot().digest(), digest) << label;

    hwsim::Machine fresh(mc);
    FuzzWorkload fw(fresh, step, period);
    fresh.restore(hwsim::Snapshot::deserialize(image));
    obs::TraceRecorder t3;
    fresh.set_tracer(&t3);
    ASSERT_TRUE(fresh.run_until(end_at)) << label;
    EXPECT_EQ(trace_hash(t3), hash) << label << " (hydrated)";
    EXPECT_EQ(fresh.snapshot().digest(), digest) << label << " (hydrated)";
  }
}

}  // namespace
}  // namespace iw
