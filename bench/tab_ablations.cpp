// Ablations over the design choices DESIGN.md §4 calls out:
//   A. TPAL chunk size (compiler check spacing) vs heartbeat
//      responsiveness and overhead — the knob that *is* the Figs. 3/4
//      story.
//   B. Compiler-timing budget vs instrumentation overhead (the tradeoff
//      curve behind §IV-C).
//   C. Coherence-deactivation coverage: what fraction of eligible
//      regions the language can actually prove private (§V-G: high-
//      level languages as enablers).
//   D. Virtine pool depth vs p99 startup under bursty load.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "coherence/simulator.hpp"
#include "harness.hpp"
#include "common/rng.hpp"
#include "heartbeat/fork_join.hpp"
#include "heartbeat/tpal.hpp"
#include "ir/builder.hpp"
#include "ir/interp.hpp"
#include "passes/timing_placement.hpp"
#include "omp/runtime.hpp"
#include "virtine/wasp.hpp"
#include "workloads/pbbs_traces.hpp"

using namespace iw;

namespace {

bench::Harness harness;

void ablation_chunk() {
  std::printf("-- A. TPAL chunk size (8 workers, ♥=20us, KNL) --\n");
  std::printf("%8s %14s %12s %12s\n", "chunk", "beats_handled",
              "overhead", "makespan_Mc");
  for (std::uint64_t chunk : {8u, 32u, 128u, 512u, 2048u}) {
    hwsim::MachineConfig mc;
    mc.num_cores = 8;
    mc.costs = hwsim::CostModel::knl();
    mc.max_advances = 2'000'000'000ULL;
    harness.apply(mc);
    hwsim::Machine m(mc);
    harness.attach(m, "ablation-A/chunk-" + std::to_string(chunk));
    nautilus::Kernel k(m);
    k.attach();
    heartbeat::NautilusHeartbeat hb(m);
    heartbeat::TpalConfig cfg;
    cfg.num_workers = 8;
    cfg.total_iters = 400'000;
    cfg.cycles_per_iter = 30;
    cfg.chunk = chunk;
    cfg.heartbeat_period = mc.costs.freq.us_to_cycles(20.0);
    const auto res = heartbeat::TpalRuntime(k, cfg, &hb).run();
    const double overhead =
        static_cast<double>(res.overhead_cycles) /
        static_cast<double>(res.work_cycles);
    std::printf("%8llu %14llu %11.2f%% %12.2f\n",
                static_cast<unsigned long long>(chunk),
                static_cast<unsigned long long>(res.beats_handled),
                100 * overhead,
                static_cast<double>(res.makespan) / 1e6);
  }
  std::printf("(small chunks: responsive promotion, more poll overhead; "
              "large chunks: beats wait at chunk boundaries)\n\n");
}

void ablation_timing_budget() {
  std::printf("-- B. compiler-timing budget vs overhead (sum_array) --\n");
  std::printf("%10s %12s %10s\n", "budget", "overhead", "fires");
  for (Cycles budget : {60u, 120u, 300u, 1'000u, 5'000u, 50'000u}) {
    ir::Module base_m;
    ir::Function* base_f = ir::programs::sum_array(base_m);
    ir::Interp base(base_m);
    const auto b = base.run(base_f->id(), {0x100000, 20'000});

    ir::Module m;
    ir::Function* f = ir::programs::sum_array(m);
    passes::inject_timing(*f, budget);
    unsigned fires = 0;
    ir::InterpHooks hooks;
    hooks.on_timing = [&] { ++fires; };
    ir::Interp in(m, hooks);
    const auto r = in.run(f->id(), {0x100000, 20'000});
    std::printf("%10llu %11.2f%% %10u\n",
                static_cast<unsigned long long>(budget),
                100 * (static_cast<double>(r.cycles) /
                           static_cast<double>(b.cycles) -
                       1.0),
                fires);
  }
  std::printf("(the paper's granularity/overhead tradeoff: sub-600-cycle "
              "budgets are usable at single-digit overheads)\n\n");
}

void ablation_deactivation_coverage() {
  std::printf("-- C. deactivation coverage (map kernel, 24 cores) --\n");
  std::printf("%10s %10s %12s\n", "coverage", "speedup", "energy_cut");
  workloads::PbbsParams p;
  p.cores = 24;
  p.elements = 240'000;
  p.rounds = 3;
  auto base_trace = workloads::pbbs_map(p);

  coherence::SimConfig cfg;
  cfg.num_cores = 24;
  cfg.noc.num_cores = 24;
  cfg.private_cache = coherence::CacheConfig{64 * 1024, 8, 64};
  cfg.selective_deactivation = false;
  substrate::AnalyticSubstrate sub(24, harness.seed());
  harness.attach(sub, "ablation-C/coverage");
  coherence::CoherenceSim base(cfg, sub.rng_stream("coherence"));
  base.bind_substrate(&sub);
  const auto b = base.run(base_trace);

  for (double coverage : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    // The language proves only `coverage` of the private regions;
    // the rest fall back to kShared (fully coherent).
    auto trace = workloads::pbbs_map(p);
    Rng rng(7);
    for (auto& r : trace.regions) {
      if (r.cls == coherence::RegionClass::kTaskPrivate &&
          !rng.chance(coverage)) {
        r.cls = coherence::RegionClass::kShared;
      }
    }
    auto dcfg = cfg;
    dcfg.selective_deactivation = true;
    sub.reset_clocks();
    coherence::CoherenceSim sim(dcfg, sub.rng_stream("coherence"));
    sim.bind_substrate(&sub);
    const auto d = sim.run(trace);
    std::printf("%9.0f%% %9.2fx %11.1f%%\n", 100 * coverage,
                static_cast<double>(b.total_latency) /
                    static_cast<double>(d.total_latency),
                100 * (1.0 - d.uncore_energy_pj() / b.uncore_energy_pj()));
  }
  std::printf("(benefit scales with what the language can prove — §V-G's "
              "'high-level parallel languages as enablers')\n\n");
}

void ablation_pool_depth() {
  std::printf("-- D. virtine pool depth vs p99 startup (bursty load) --\n");
  std::printf("%6s %12s %12s\n", "pool", "p50_us", "p99_us");
  using namespace iw::virtine;
  substrate::AnalyticSubstrate sub(1, harness.seed());
  harness.attach(sub, "ablation-D/pool");
  for (unsigned depth : {0u, 2u, 4u, 8u}) {
    Wasp w;
    w.bind_substrate(&sub, 0);
    const auto spec = ContextSpec::faas_handler();
    w.prepare_snapshot(spec);
    w.warm_pool(spec, depth);
    Rng rng(5);
    std::vector<double> lat;
    for (int i = 0; i < 300; ++i) {
      // Bursts of up to 6 back-to-back requests drain the pool.
      const int burst = 1 + static_cast<int>(rng.uniform(0, 5));
      for (int b2 = 0; b2 < burst; ++b2) {
        const auto inv =
            w.invoke(spec, depth > 0 ? SpawnPath::kPooled
                                     : SpawnPath::kSnapshot,
                     [](GuestEnv&) { return GuestResult{0, 1'000}; });
        lat.push_back(w.startup_us(inv.startup_cycles));
      }
      w.warm_pool(spec, depth);  // refill between bursts
    }
    std::sort(lat.begin(), lat.end());
    std::printf("%6u %12.1f %12.1f\n", depth, lat[lat.size() / 2],
                lat[lat.size() * 99 / 100]);
  }
  std::printf("(deeper pools absorb bursts; pool misses degrade to the "
              "cold path)\n");
}

}  // namespace

void ablation_forkjoin_speedup() {
  std::printf("\n-- E. fork-join heartbeat speedup (tree-sum, depth 18, "
              "♥=20us) --\n");
  std::printf("%8s %12s %10s %12s %8s\n", "workers", "makespan_Mc",
              "speedup", "promotions", "steals");
  Cycles serial = 0;
  for (unsigned w : {1u, 2u, 4u, 8u, 16u}) {
    hwsim::MachineConfig mc;
    mc.num_cores = w;
    mc.costs = hwsim::CostModel::knl();
    mc.max_advances = 2'000'000'000ULL;
    harness.apply(mc);
    hwsim::Machine m(mc);
    harness.attach(m, "ablation-E/workers-" + std::to_string(w));
    nautilus::Kernel k(m);
    k.attach();
    heartbeat::NautilusHeartbeat hb(m);
    heartbeat::ForkJoinConfig cfg;
    cfg.num_workers = w;
    cfg.tree_depth = 18;
    cfg.heartbeat_period =
        w > 1 ? mc.costs.freq.us_to_cycles(20.0) : 0;
    const auto res =
        heartbeat::ForkJoinTpal(k, cfg, w > 1 ? &hb : nullptr).run();
    if (w == 1) serial = res.makespan;
    std::printf("%8u %12.2f %9.2fx %12llu %8llu\n", w,
                static_cast<double>(res.makespan) / 1e6,
                static_cast<double>(serial) /
                    static_cast<double>(res.makespan),
                static_cast<unsigned long long>(res.promotions),
                static_cast<unsigned long long>(res.steals));
  }
  std::printf("(promotion at heartbeat rate materializes just enough "
              "parallelism; overheads stay bounded)\n");
}

void ablation_dynamic_schedule() {
  std::printf("\n-- F. omp schedule(static) vs schedule(dynamic) "
              "dispenser contention --\n");
  std::printf("%8s %14s %14s\n", "threads", "static_Mc", "dynamic_Mc");
  const auto app = workloads::sp_mini(24, 2);
  for (unsigned p : {4u, 16u, 32u}) {
    omp::OmpConfig cfg;
    cfg.mode = omp::OmpMode::kRTK;
    cfg.num_threads = p;
    const auto stat = omp::run_miniapp(app, cfg).makespan;
    cfg.dynamic_chunk = 8;
    const auto dyn = omp::run_miniapp(app, cfg).makespan;
    std::printf("%8u %14.2f %14.2f\n", p,
                static_cast<double>(stat) / 1e6,
                static_cast<double>(dyn) / 1e6);
  }
  std::printf("(the shared dispenser serializes at scale — why NAS "
              "defaults to static)\n");
}

int main(int argc, char** argv) {
  if (!harness.parse(argc, argv,
                     {bench::kTrace, bench::kMetricsJson, bench::kFaults,
                      bench::kFaultSeed, bench::kSeed, bench::kScheduler})) {
    return 2;
  }
  std::printf("== design-choice ablations ==\n\n");
  ablation_chunk();
  ablation_timing_budget();
  ablation_deactivation_coverage();
  ablation_pool_depth();
  ablation_forkjoin_speedup();
  ablation_dynamic_schedule();
  return harness.finish() ? 0 : 1;
}
