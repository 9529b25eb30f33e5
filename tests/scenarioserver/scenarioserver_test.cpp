// Scenario server tests: worker-count-invariant output, cross-strategy
// digest agreement per group, divergent-children fuzz from one parent
// image, and the snapshot-v2 format gate (death tests).
//
// Every suite here is prefixed `Scenario` so CI can run the server's
// host-thread pool under TSan with a single filter.
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hwsim/machine.hpp"
#include "hwsim/snapshot.hpp"
#include "scenarioserver/arena.hpp"
#include "scenarioserver/queue.hpp"
#include "scenarioserver/results.hpp"
#include "scenarioserver/server.hpp"

#include "../../tools/replay_workload.hpp"

namespace {

using namespace iw;
using namespace iw::scenarioserver;

// ---------------------------------------------------------------------------
// Unit pieces: queue, arena, results store.

TEST(ScenarioQueue, DrainsInOrderAndClosesClean) {
  ScenarioQueue q;
  for (std::uint64_t i = 0; i < 3; ++i) {
    ScenarioSpec s;
    s.id = i;
    q.push(std::move(s));
  }
  EXPECT_EQ(q.pending(), 3u);
  q.close();
  for (std::uint64_t i = 0; i < 3; ++i) {
    auto s = q.pop();
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(s->id, i);
  }
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_FALSE(q.pop().has_value());  // stays drained
}

TEST(ScenarioArena, BumpsAcrossBlocksAndRecyclesOnReset) {
  RunArena a(/*block_size=*/64);
  const std::string_view c1 = a.copy("hello");
  EXPECT_EQ(c1, "hello");
  // Force a second block.
  (void)a.alloc(60);
  (void)a.alloc(60);
  EXPECT_GE(a.high_water(), 125u);
  const std::size_t hw = a.high_water();
  a.reset();
  // Post-reset allocations reuse retained blocks; high water persists.
  const std::string_view c2 = a.copy("world");
  EXPECT_EQ(c2, "world");
  EXPECT_EQ(a.high_water(), hw);
}

TEST(ScenarioResults, SortsByIdAndFlagsSplitGroups) {
  ResultsStore rs;
  rs.add(2, /*group=*/7, /*digest=*/0xAA, "{\"id\":2}");
  rs.add(0, /*group=*/7, /*digest=*/0xAA, "{\"id\":0}");
  rs.add(1, /*group=*/9, /*digest=*/0xBB, "{\"id\":1}");
  rs.add(3, /*group=*/9, /*digest=*/0xCC, "{\"id\":3}");  // disagrees
  rs.finalize();
  ASSERT_EQ(rs.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(rs.entries()[i].id, i);
  const auto agree = rs.group_agreement();
  EXPECT_EQ(agree.groups, 2u);
  EXPECT_EQ(agree.disagreeing, 1u);

  std::ostringstream os;
  rs.write_jsonl(os);
  EXPECT_EQ(os.str(), "{\"id\":0}\n{\"id\":1}\n{\"id\":2}\n{\"id\":3}\n");
}

TEST(ScenarioResults, RecordIsPureFunctionOfSpecAndResult) {
  ScenarioSpec spec;
  spec.id = 4;
  spec.group = 2;
  spec.label = "drop5";
  spec.scheduler = hwsim::SchedulerKind::kParallelEpoch;
  spec.threads = 2;
  spec.fast_forward = true;
  spec.fault_seed = 99;
  ScenarioResult res;
  res.id = 4;
  res.group = 2;
  res.digest = 0x1234;
  res.at = 5000;
  res.metrics.emplace_back("max_gap_periods", 1.5);

  RunArena a1, a2;
  const std::string r1{format_record(spec, res, a1)};
  const std::string r2{format_record(spec, res, a2)};
  EXPECT_EQ(r1, r2);
  EXPECT_NE(r1.find("\"scheduler\":\"parallel_epoch\""), std::string::npos);
  EXPECT_NE(r1.find("\"threads\":2,\"ff\":true"), std::string::npos);
  EXPECT_NE(r1.find("\"digest\":\"0000000000001234\""), std::string::npos);
  EXPECT_NE(r1.find("\"max_gap_periods\":1.5"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end batches over the heartbeat replay workload.

constexpr unsigned kCores = 4;
constexpr Cycles kWarm = 600'000;
constexpr Cycles kHorizon = 1'600'000;

hwsim::MachineConfig donor_config() {
  hwsim::MachineConfig mc;
  mc.num_cores = kCores;
  mc.seed = 42;
  mc.max_advances = 300'000'000ULL;
  return mc;
}

Cycles workload_period(const hwsim::MachineConfig& mc) {
  return mc.costs.freq.us_to_cycles(20.0);
}

/// Warm one donor machine to kWarm and serialize it.
std::vector<std::uint64_t> warm_image(const hwsim::MachineConfig& mc) {
  hwsim::Machine m(mc);
  tools::ReplayWorkload w(m, workload_period(mc), /*fault_tolerant=*/true);
  EXPECT_TRUE(m.run_until(kWarm));
  return m.snapshot().serialize();
}

class ReplayHarness final : public ScenarioHarness {
 public:
  explicit ReplayHarness(hwsim::Machine& m, Cycles period)
      : workload_(m, period, /*fault_tolerant=*/true) {}
  void collect(std::vector<std::pair<std::string, double>>& out) override {
    out.emplace_back("max_gap_periods", workload_.max_gap_periods());
    out.emplace_back("polled_beats",
                     static_cast<double>(workload_.heartbeat().polled_beats()));
  }

 private:
  tools::ReplayWorkload workload_;
};

ScenarioBatch replay_batch() {
  ScenarioBatch batch;
  batch.base = donor_config();
  batch.image = warm_image(batch.base);
  const Cycles period = workload_period(batch.base);
  batch.factory = [period](hwsim::Machine& m) {
    return std::make_unique<ReplayHarness>(m, period);
  };
  return batch;
}

hwsim::FaultPlan drop_plan(double drop) {
  hwsim::FaultPlan plan;
  plan.enabled = drop > 0.0;
  plan.ipi_drop_rate = drop;
  return plan;
}

/// One digest-equivalence group: every execution strategy crossed with
/// the same (plan, fault_seed).
std::vector<ScenarioSpec> strategy_group(std::uint64_t group, double drop,
                                         std::uint64_t fault_seed,
                                         std::uint64_t* next_id) {
  struct Strategy {
    hwsim::SchedulerKind sched;
    unsigned threads;
  };
  const Strategy strategies[] = {
      {hwsim::SchedulerKind::kFrontier, 1},
      {hwsim::SchedulerKind::kLinearScan, 1},
      {hwsim::SchedulerKind::kParallelEpoch, 2},
  };
  std::vector<ScenarioSpec> specs;
  for (const Strategy& st : strategies) {
    for (const bool ff : {false, true}) {
      ScenarioSpec s;
      s.id = (*next_id)++;
      s.group = group;
      s.label = "drop" + std::to_string(static_cast<int>(drop * 100));
      s.scheduler = st.sched;
      s.threads = st.threads;
      s.fast_forward = ff;
      s.plan = drop_plan(drop);
      s.fault_seed = fault_seed;
      s.horizon = kHorizon;
      specs.push_back(std::move(s));
    }
  }
  return specs;
}

std::string run_to_jsonl(const ScenarioBatch& batch,
                         std::vector<ScenarioSpec> specs, unsigned workers,
                         ResultsStore* out_store = nullptr,
                         double* out_rate = nullptr) {
  ScenarioServer server(ScenarioServerConfig{workers});
  ResultsStore rs = server.run(batch, std::move(specs));
  std::ostringstream os;
  rs.write_jsonl(os);
  if (out_rate != nullptr) *out_rate = server.scenarios_per_sec();
  if (out_store != nullptr) *out_store = std::move(rs);
  return os.str();
}

TEST(ScenarioServer, JsonlIsByteIdenticalForAnyWorkerCount) {
  const ScenarioBatch batch = replay_batch();
  std::uint64_t id = 0;
  std::vector<ScenarioSpec> specs;
  std::uint64_t group = 0;
  for (const double drop : {0.0, 0.05, 0.10}) {
    auto g = strategy_group(group, drop, /*fault_seed=*/7 + group, &id);
    ++group;
    specs.insert(specs.end(), g.begin(), g.end());
  }

  double rate1 = 0.0, rate4 = 0.0;
  const std::string serial = run_to_jsonl(batch, specs, 1, nullptr, &rate1);
  const std::string pooled = run_to_jsonl(batch, specs, 4, nullptr, &rate4);
  EXPECT_EQ(serial, pooled);
  EXPECT_GT(rate1, 0.0);
  EXPECT_GT(rate4, 0.0);
  EXPECT_EQ(std::count(serial.begin(), serial.end(), '\n'),
            static_cast<long>(specs.size()));
}

TEST(ScenarioServer, GroupsDigestEqualAcrossExecutionStrategies) {
  const ScenarioBatch batch = replay_batch();
  std::uint64_t id = 0;
  std::vector<ScenarioSpec> specs;
  auto g0 = strategy_group(0, 0.0, 11, &id);
  auto g1 = strategy_group(1, 0.10, 12, &id);
  specs.insert(specs.end(), g0.begin(), g0.end());
  specs.insert(specs.end(), g1.begin(), g1.end());

  ResultsStore rs;
  (void)run_to_jsonl(batch, specs, 3, &rs);
  ASSERT_EQ(rs.size(), specs.size());
  const auto agree = rs.group_agreement();
  EXPECT_EQ(agree.groups, 2u);
  EXPECT_EQ(agree.disagreeing, 0u);
  // Different fault environments must actually diverge.
  EXPECT_NE(rs.entries().front().digest, rs.entries().back().digest);
}

TEST(ScenarioServer, FuzzManyDivergentChildrenFromOneParent) {
  // One parent image, many children that differ only in their installed
  // fault environment. The batch must (a) complete every child, (b) be
  // reproducible run-to-run, and (c) actually diverge across seeds.
  const ScenarioBatch batch = replay_batch();
  std::vector<ScenarioSpec> specs;
  std::uint64_t id = 0;
  for (const double drop : {0.02, 0.08, 0.15}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      ScenarioSpec s;
      s.id = id;
      s.group = id;  // every child its own class
      ++id;
      s.label = "fuzz";
      s.plan = drop_plan(drop);
      s.fault_seed = 0xF00D + seed * 131 + static_cast<std::uint64_t>(
                                               drop * 1000.0);
      s.horizon = kHorizon;
      specs.push_back(std::move(s));
    }
  }

  ResultsStore first;
  const std::string a = run_to_jsonl(batch, specs, 4, &first);
  const std::string b = run_to_jsonl(batch, specs, 2);
  EXPECT_EQ(a, b);
  ASSERT_EQ(first.size(), specs.size());

  std::set<std::uint64_t> digests;
  for (const auto& e : first.entries()) digests.insert(e.digest);
  // 24 distinct fault environments: expect real divergence, not one
  // collapsed trajectory.
  EXPECT_GE(digests.size(), 8u);
}

TEST(ScenarioServer, HydratedChildMatchesSameInstanceRestore) {
  // The server's fresh-machine hydration must land on the same digest a
  // donor-side restore produces for the identical (plan, seed, horizon).
  const ScenarioBatch batch = replay_batch();
  const hwsim::FaultPlan plan = drop_plan(0.10);
  const std::uint64_t fault_seed = 77;

  hwsim::Machine donor(batch.base);
  tools::ReplayWorkload w(donor, workload_period(batch.base), true);
  ASSERT_TRUE(donor.run_until(kWarm));
  const hwsim::Snapshot snap = donor.snapshot();
  donor.restore(snap);
  donor.install_fault_plan(plan, fault_seed);
  ASSERT_TRUE(donor.run_until(kHorizon));
  const std::uint64_t donor_digest = donor.snapshot().digest();

  ScenarioSpec s;
  s.id = 0;
  s.group = 0;
  s.label = "cross";
  s.plan = plan;
  s.fault_seed = fault_seed;
  s.horizon = kHorizon;
  ResultsStore rs;
  (void)run_to_jsonl(batch, {s}, 1, &rs);
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs.entries()[0].digest, donor_digest);
}

// ---------------------------------------------------------------------------
// Snapshot v2 format gate.

using ScenarioVersionGateDeathTest = ::testing::Test;

TEST(ScenarioVersionGateDeathTest, RejectsBadMagic) {
  const ScenarioBatch batch = replay_batch();
  std::vector<std::uint64_t> image = batch.image;
  image[0] ^= 0xDEADBEEFULL;
  EXPECT_DEATH((void)hwsim::Snapshot::deserialize(image), "bad magic");
}

TEST(ScenarioVersionGateDeathTest, RejectsUnknownFormatVersion) {
  const ScenarioBatch batch = replay_batch();
  std::vector<std::uint64_t> image = batch.image;
  image[1] = hwsim::Snapshot::kFormatVersion + 1;
  EXPECT_DEATH((void)hwsim::Snapshot::deserialize(image),
               "unsupported format version");
}

TEST(ScenarioVersionGateDeathTest, RejectsTruncatedOrPaddedImages) {
  const ScenarioBatch batch = replay_batch();
  std::vector<std::uint64_t> trailing = batch.image;
  trailing.push_back(0);
  EXPECT_DEATH((void)hwsim::Snapshot::deserialize(trailing), "");
  std::vector<std::uint64_t> truncated = batch.image;
  truncated.resize(truncated.size() / 2);
  EXPECT_DEATH((void)hwsim::Snapshot::deserialize(truncated), "");
}

}  // namespace
