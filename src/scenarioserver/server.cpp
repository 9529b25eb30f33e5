#include "scenarioserver/server.hpp"

#include <atomic>
#include <chrono>
#include <thread>

#include "common/assert.hpp"
#include "hwsim/snapshot.hpp"
#include "scenarioserver/arena.hpp"
#include "scenarioserver/queue.hpp"

namespace iw::scenarioserver {

namespace {

/// One scenario, end to end: fresh machine in the spec's execution
/// strategy, workload rebound, hydrate from the shared warm snapshot,
/// install the per-run plan, run to the horizon, digest + collect.
void run_one(const ScenarioBatch& batch, const hwsim::Snapshot& warm,
             const ScenarioSpec& spec, RunArena& arena, ResultsStore& out) {
  hwsim::MachineConfig cfg = batch.base;
  cfg.scheduler = spec.scheduler;
  cfg.shard_policy = hwsim::ShardPolicy::kPerCore;
  cfg.threads = spec.threads;
  cfg.work_stealing = spec.work_stealing;
  cfg.fast_forward.enabled = spec.fast_forward;

  hwsim::Machine m(cfg);
  auto harness = batch.factory(m);
  m.restore(warm);
  m.install_fault_plan(spec.plan, spec.fault_seed);
  IW_ASSERT_MSG(spec.horizon > warm.at(),
                "scenario horizon must lie past the warmed snapshot");
  const bool ok = m.run_until(spec.horizon);
  IW_ASSERT_MSG(ok, "scenario run hit a machine limit before its horizon");

  ScenarioResult res;
  res.id = spec.id;
  res.group = spec.group;
  res.at = m.now();
  res.digest = m.snapshot().digest();
  if (harness != nullptr) harness->collect(res.metrics);

  out.add(res.id, res.group, res.digest, format_record(spec, res, arena));
  arena.reset();
}

}  // namespace

ResultsStore ScenarioServer::run(const ScenarioBatch& batch,
                                 std::vector<ScenarioSpec> specs) {
  // Validating the image once here front-loads the format gate: a bad
  // image aborts before any worker spawns. Every run restores from this
  // one validated copy.
  const hwsim::Snapshot warm = hwsim::Snapshot::deserialize(batch.image);

  ScenarioQueue queue;
  for (ScenarioSpec& s : specs) queue.push(std::move(s));
  queue.close();

  ResultsStore results;
  const unsigned workers = cfg_.workers == 0 ? 1 : cfg_.workers;
  std::atomic<std::size_t> high_water{0};

  const auto t0 = std::chrono::steady_clock::now();
  auto drain = [&] {
    RunArena arena;
    while (auto spec = queue.pop()) {
      run_one(batch, warm, *spec, arena, results);
    }
    std::size_t seen = high_water.load(std::memory_order_relaxed);
    while (arena.high_water() > seen &&
           !high_water.compare_exchange_weak(seen, arena.high_water(),
                                             std::memory_order_relaxed)) {
    }
  };
  if (workers == 1) {
    drain();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned i = 0; i < workers; ++i) pool.emplace_back(drain);
    for (std::thread& t : pool) t.join();
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double sec = std::chrono::duration<double>(t1 - t0).count();

  results.finalize();
  scenarios_per_sec_ =
      sec > 0.0 ? static_cast<double>(results.size()) / sec : 0.0;
  arena_high_water_ = high_water.load(std::memory_order_relaxed);
  return results;
}

}  // namespace iw::scenarioserver
