// Restore equivalence for the Linux OS-noise chain: the per-core noise
// streams are snapshot state, so a machine restored mid-run — or a
// fresh machine hydrated from the serialized image — steals the same
// bursts at the same times as the uninterrupted run.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "hwsim/machine.hpp"
#include "hwsim/snapshot.hpp"
#include "omp/runtime.hpp"

namespace iw::omp {
namespace {

/// Every core spins forever in fixed steps; only the noise bursts make
/// one core's step count differ from another's.
class SpinDriver final : public hwsim::CoreDriver {
 public:
  bool runnable(hwsim::Core&) override { return true; }
  void step(hwsim::Core& core) override { core.consume(200); }
};

constexpr Cycles kSnapAt = 200'000;
constexpr Cycles kEnd = 2'000'000;

/// Two spinning cores with 10 µs median noise gaps.
struct NoisyMachine {
  hwsim::Machine m;
  SpinDriver driver;
  LinuxNoise noise;

  NoisyMachine() : m(config()), noise(m, 10.0, 5.0) {
    for (unsigned c = 0; c < m.num_cores(); ++c) {
      m.core(c).set_driver(&driver);
    }
  }

  static hwsim::MachineConfig config() {
    hwsim::MachineConfig mc;
    mc.num_cores = 2;
    mc.seed = 7;
    return mc;
  }
};

TEST(LinuxNoise, RestoredAndHydratedMachinesReplayTheSameNoise) {
  NoisyMachine a;
  ASSERT_TRUE(a.m.run_until(kSnapAt));
  const hwsim::Snapshot snap = a.m.snapshot();
  const std::vector<std::uint64_t> image = snap.serialize();

  ASSERT_TRUE(a.m.run_until(kEnd));
  const std::uint64_t uninterrupted = a.m.snapshot().digest();
  std::vector<std::uint64_t> steps;
  for (unsigned c = 0; c < a.m.num_cores(); ++c) {
    steps.push_back(a.m.core(c).steps_executed());
  }
  // The noise really stole cycles: without it both cores would step
  // alike.
  EXPECT_NE(steps[0], steps[1]);

  a.m.restore(snap);
  ASSERT_TRUE(a.m.run_until(kEnd));
  EXPECT_EQ(a.m.snapshot().digest(), uninterrupted) << "same-machine restore";
  for (unsigned c = 0; c < a.m.num_cores(); ++c) {
    EXPECT_EQ(a.m.core(c).steps_executed(), steps[c]) << "core " << c;
  }

  NoisyMachine fresh;
  fresh.m.restore(hwsim::Snapshot::deserialize(image));
  ASSERT_TRUE(fresh.m.run_until(kEnd));
  EXPECT_EQ(fresh.m.snapshot().digest(), uninterrupted) << "hydration";
}

}  // namespace
}  // namespace iw::omp
