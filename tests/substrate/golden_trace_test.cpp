// Golden-trace determinism for the ported models, mirroring the
// fault-plan matrix: the same seed must produce bit-identical traces on
// repeat runs and on the frontier and the linear scan — with the
// coherence model charging the machine's core clocks, with the pipeline
// replayed on an analytic substrate, and for the fully composed stack
// (heartbeat + coherence on one machine, faulted and fault-free). The
// coherence directory is shared across cores outside the IPI fabric, so
// the per-core epoch engine refuses it by name. Also pins the contract
// that binding a substrate with null sinks changes nothing.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>

#include "coherence/simulator.hpp"
#include "heartbeat/delivery.hpp"
#include "hwsim/machine.hpp"
#include "obs/trace.hpp"
#include "pipeline/interrupt_delivery.hpp"
#include "substrate/substrate.hpp"
#include "workloads/coherence_driver.hpp"

namespace iw::substrate {
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

// ----------------------------- coherence charged to machine core clocks

std::uint64_t run_coherence_on_machine(hwsim::SchedulerKind sched,
                                       std::uint64_t seed, bool faulted) {
  hwsim::MachineConfig mc;
  mc.num_cores = 4;
  mc.scheduler = sched;
  mc.seed = seed;
  mc.max_advances = 10'000'000;
  if (faulted) {
    // Transient stalls hit every driver step — the harshest fault for a
    // clock-charging model.
    mc.faults.enabled = true;
    mc.faults.stall_rate = 0.02;
    mc.faults.stall_max = 400;
  }
  hwsim::Machine m(mc);
  obs::TraceRecorder tr;
  m.set_tracer(&tr);

  coherence::SimConfig sc;
  sc.num_cores = 4;
  sc.selective_deactivation = true;
  coherence::CoherenceSim sim(sc, m.rng_stream("coherence"));
  sim.bind_substrate(&m);

  workloads::CoherenceDriver::Config wc;
  wc.steps_per_core = 400;
  workloads::CoherenceDriver work(sim, 4, wc, m.rng_stream("workload"));
  for (unsigned c = 0; c < 4; ++c) m.core(c).set_driver(&work);

  // Mid-run handoffs so the deactivation flush path is on the trace.
  EXPECT_TRUE(m.run_until(60'000));
  work.handoff_private(0, 1);
  work.handoff_private(2, 3);
  EXPECT_TRUE(m.run());
  EXPECT_EQ(work.total_accesses(), 4u * 400u * wc.accesses_per_step);
  return trace_hash(tr);
}

TEST(GoldenTrace, CoherenceMatrixSameSeedSameTraceAllSchedulers) {
  std::set<std::uint64_t> distinct;
  for (const std::uint64_t seed : {1ULL, 7ULL}) {
    for (const bool faulted : {false, true}) {
      const auto frontier = run_coherence_on_machine(
          hwsim::SchedulerKind::kFrontier, seed, faulted);
      const auto again = run_coherence_on_machine(
          hwsim::SchedulerKind::kFrontier, seed, faulted);
      const auto linear = run_coherence_on_machine(
          hwsim::SchedulerKind::kLinearScan, seed, faulted);
      EXPECT_EQ(frontier, again) << "seed=" << seed << " faulted=" << faulted;
      EXPECT_EQ(frontier, linear) << "seed=" << seed << " faulted=" << faulted;
      distinct.insert(frontier);
    }
  }
  // Different seeds (and the fault layer) genuinely change the trace.
  EXPECT_EQ(distinct.size(), 4u);
}

TEST(GoldenTraceDeathTest, CoherenceDriverRefusesParallelEpochByName) {
  // Every core's accesses go through one shared directory, outside the
  // IPI fabric: the first step on per-core shards aborts, naming the
  // driver, instead of racing on the directory.
  EXPECT_DEATH(
      run_coherence_on_machine(hwsim::SchedulerKind::kParallelEpoch, 1,
                               false),
      "workloads::CoherenceDriver shares state across cores outside the "
      "IPI fabric and cannot run on kParallelEpoch's per-core shards; use "
      "kFrontier or kLinearScan");
}

// ------------------------------------- pipeline on an analytic substrate

std::uint64_t run_pipeline_on_substrate(std::uint64_t seed,
                                        pipeline::PipelineResult* out) {
  AnalyticSubstrate sub(1, seed);
  obs::TraceRecorder tr;
  sub.set_tracer(&tr);
  pipeline::PipelineConfig cfg;
  pipeline::InterruptExperiment exp;
  exp.total_instructions = 150'000;
  exp.interrupt_period = 10'000;
  for (const auto mech : {pipeline::DeliveryMechanism::kClassicIdt,
                          pipeline::DeliveryMechanism::kBranchInject}) {
    exp.mechanism = mech;
    auto res = pipeline::run_pipeline(cfg, exp, &sub, 0);
    if (out != nullptr) *out = res;
  }
  EXPECT_FALSE(tr.find("pipeline.interrupt").empty());
  return trace_hash(tr);
}

TEST(GoldenTrace, PipelineReplayIsSeedDeterministic) {
  pipeline::PipelineResult r1, r2;
  const auto h1 = run_pipeline_on_substrate(5, &r1);
  const auto h2 = run_pipeline_on_substrate(5, &r2);
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(r1.cycles, r2.cycles);
  EXPECT_EQ(r1.interrupts_delivered, r2.interrupts_delivered);
  EXPECT_NE(h1, run_pipeline_on_substrate(6, nullptr));
}

// --------------------------------------------- the composed stack itself

/// TPAL-style promotion poll at every step boundary, then the
/// memory-bound step (the bench/composed_stack.cpp driver, miniature).
class ComposedDriver final : public hwsim::CoreDriver {
 public:
  ComposedDriver(workloads::CoherenceDriver& work,
                 heartbeat::HeartbeatBackend& hb)
      : work_(work), hb_(hb) {}
  bool runnable(hwsim::Core& core) override { return work_.runnable(core); }
  void step(hwsim::Core& core) override {
    if (hb_.poll(core.id(), core.clock())) core.consume(90);
    work_.step(core);
  }

 private:
  workloads::CoherenceDriver& work_;
  heartbeat::HeartbeatBackend& hb_;
};

std::uint64_t run_composed(hwsim::SchedulerKind sched, std::uint64_t seed,
                           bool faulted, obs::TraceRecorder& tr) {
  constexpr unsigned kCores = 4;
  constexpr Cycles kPeriod = 20'000;
  hwsim::MachineConfig mc;
  mc.num_cores = kCores;
  mc.scheduler = sched;
  mc.seed = seed;
  mc.max_advances = 50'000'000;
  if (faulted) {
    mc.faults.enabled = true;
    mc.faults.ipi_drop_rate = 0.05;
  }
  hwsim::Machine m(mc);
  m.set_tracer(&tr);

  coherence::SimConfig sc;
  sc.num_cores = kCores;
  sc.selective_deactivation = true;
  coherence::CoherenceSim sim(sc, m.rng_stream("coherence"));
  sim.bind_substrate(&m);

  workloads::CoherenceDriver::Config wc;
  wc.steps_per_core = 600;
  workloads::CoherenceDriver work(sim, kCores, wc,
                                  m.rng_stream("workload"));

  heartbeat::NautilusHeartbeat hb(m);
  if (faulted) {
    heartbeat::FaultToleranceConfig ft;
    ft.enabled = true;
    hb.set_fault_tolerance(ft);
  }
  ComposedDriver driver(work, hb);
  for (unsigned c = 0; c < kCores; ++c) m.core(c).set_driver(&driver);
  hb.start(kPeriod, kCores);

  auto all_done = [&] {
    for (unsigned c = 0; c < kCores; ++c) {
      if (work.steps_done(c) < wc.steps_per_core) return false;
    }
    return true;
  };
  unsigned guard = 100'000;
  while (!all_done() && guard-- != 0) m.run_until(m.now() + kPeriod);
  EXPECT_TRUE(all_done());
  hb.stop();
  return trace_hash(tr);
}

TEST(GoldenTrace, ComposedStackSameTraceAllSchedulers) {
  for (const bool faulted : {false, true}) {
    obs::TraceRecorder tf, tl;
    const auto frontier =
        run_composed(hwsim::SchedulerKind::kFrontier, 11, faulted, tf);
    const auto linear =
        run_composed(hwsim::SchedulerKind::kLinearScan, 11, faulted, tl);
    EXPECT_EQ(frontier, linear) << "faulted=" << faulted;

    // The acceptance shape: one trace, three layers, one cycle axis —
    // hwsim fabric events, heartbeat deliveries, and coherence misses.
    EXPECT_FALSE(tf.find("ipi.send").empty());
    EXPECT_FALSE(tf.find("heartbeat.beat").empty());
    EXPECT_FALSE(tf.find("heartbeat.poll_consumed").empty());
    EXPECT_FALSE(tf.find("coherence.miss").empty());
    if (faulted) {
      EXPECT_FALSE(tf.find("fault.ipi_drop").empty());
    }
  }
}

// ------------------------------------ null-sink / unbound equivalence

TEST(SubstrateContract, CoherenceStatsIdenticalBoundOrUnbound) {
  coherence::SimConfig sc;
  sc.num_cores = 2;
  coherence::CoherenceSim standalone(sc, Rng(42));
  coherence::CoherenceSim bound(sc, Rng(42));
  AnalyticSubstrate sub(2);  // no sinks attached
  bound.bind_substrate(&sub);

  coherence::Trace t;
  coherence::Region r;
  r.id = 0;
  r.base = 0x1000;
  r.size = 64 * 256;
  r.cls = coherence::RegionClass::kShared;
  t.regions.push_back(r);

  Rng rng(7);
  for (int i = 0; i < 20'000; ++i) {
    coherence::Access a;
    a.core = static_cast<CoreId>(rng.uniform(0, 1));
    a.type = rng.chance(0.3) ? coherence::AccessType::kWrite
                             : coherence::AccessType::kRead;
    a.addr = r.base + rng.uniform(0, 255) * 64;
    a.region = r.id;
    const Cycles lat_a = standalone.access(a, r);
    const Cycles lat_b = bound.access(a, r);
    ASSERT_EQ(lat_a, lat_b);
  }
  const auto& sa = standalone.stats();
  const auto& sb = bound.stats();
  EXPECT_EQ(sa.accesses, sb.accesses);
  EXPECT_EQ(sa.private_hits, sb.private_hits);
  EXPECT_EQ(sa.directory_lookups, sb.directory_lookups);
  EXPECT_EQ(sa.invalidations, sb.invalidations);
  EXPECT_EQ(sa.three_hop_transfers, sb.three_hop_transfers);
  EXPECT_EQ(sa.memory_fetches, sb.memory_fetches);
  EXPECT_EQ(sa.total_latency, sb.total_latency);
  // The bound run additionally charged the issuing cores' clocks.
  EXPECT_EQ(sub.now(), std::max(sub.core_now(0), sub.core_now(1)));
  EXPECT_GT(sub.now(), 0u);
}

TEST(SubstrateContract, PipelineResultUnaffectedByAttachingSinks) {
  pipeline::PipelineConfig cfg;
  pipeline::InterruptExperiment exp;
  exp.total_instructions = 100'000;

  AnalyticSubstrate bare(1, 9);
  const auto quiet = pipeline::run_pipeline(cfg, exp, &bare, 0);

  AnalyticSubstrate observed(1, 9);
  obs::TraceRecorder tr;
  observed.set_tracer(&tr);
  const auto traced = pipeline::run_pipeline(cfg, exp, &observed, 0);

  // Recording must never perturb the model (tracing draws no RNG and
  // consumes no virtual time).
  EXPECT_EQ(quiet.cycles, traced.cycles);
  EXPECT_EQ(quiet.instructions, traced.instructions);
  EXPECT_EQ(quiet.interrupts_delivered, traced.interrupts_delivered);
  EXPECT_EQ(bare.core_now(0), observed.core_now(0));
  EXPECT_GT(tr.total_events(), 0u);
}

}  // namespace
}  // namespace iw::substrate
