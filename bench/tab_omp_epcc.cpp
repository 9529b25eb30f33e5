// §V-A (EPCC): Edinburgh-style OpenMP synchronization microbenchmarks
// across all execution modes. Paper: "All three implementations can run
// the full Edinburgh OpenMP microbenchmarks" — this table gives the
// per-construct overheads that explain Fig. 6.
#include <cstdio>
#include <string>

#include "harness.hpp"
#include "omp/runtime.hpp"
#include "omp/tasking.hpp"

using namespace iw;

namespace {

bench::Harness harness;

/// Barrier-dominated microbenchmark: tiny parallel regions repeated.
double per_barrier_cycles(omp::OmpMode mode, unsigned threads,
                          bool passive = false) {
  const auto app = workloads::epcc_syncbench(threads * 4, 200);
  omp::OmpConfig cfg;
  cfg.mode = mode;
  cfg.num_threads = threads;
  cfg.linux_passive_wait = passive;
  cfg.noise_gap_us = 0.0;  // isolate the construct overhead
  harness.begin_run(std::string("epcc/") + omp::mode_name(mode));
  cfg.tracer = harness.tracer();
  cfg.metrics = harness.metrics();
  cfg.scheduler = harness.scheduler(cfg.scheduler);
  const auto res = omp::run_miniapp(app, cfg);
  // Subtract the pure work component.
  const Cycles work = app.serial_work() / threads;
  const double over = static_cast<double>(res.makespan) -
                      static_cast<double>(work);
  return over / static_cast<double>(app.barriers());
}

}  // namespace

int main(int argc, char** argv) {
  if (!harness.parse(argc, argv,
                     {bench::kTrace, bench::kMetricsJson, bench::kScheduler})) {
    return 2;
  }
  std::printf("== EPCC-style sync overheads (cycles per construct) ==\n");
  std::printf("%-26s %8s %8s %8s %8s\n", "construct / mode", "P=2", "P=8",
              "P=16", "P=32");

  struct Row {
    const char* name;
    omp::OmpMode mode;
    bool passive;
  };
  for (const auto& r :
       {Row{"barrier linux(active)", omp::OmpMode::kLinux, false},
        Row{"barrier linux(passive)", omp::OmpMode::kLinux, true},
        Row{"barrier RTK(spin)", omp::OmpMode::kRTK, false},
        Row{"barrier PIK(spin)", omp::OmpMode::kPIK, false}}) {
    std::printf("%-26s", r.name);
    for (unsigned p : {2u, 8u, 16u, 32u}) {
      std::printf(" %8.0f", per_barrier_cycles(r.mode, p, r.passive));
    }
    std::printf("\n");
  }

  // EPCC task suite: per-task overhead of 600-cycle tasks through each
  // mode's dispatch path.
  std::printf("\n(task suite: per-task overhead, 600-cycle tasks)\n");
  for (omp::OmpMode mode : {omp::OmpMode::kLinux, omp::OmpMode::kRTK,
                            omp::OmpMode::kPIK, omp::OmpMode::kCCK}) {
    std::printf("%-26s", (std::string("task ") +
                          omp::mode_name(mode)).c_str());
    for (unsigned p : {2u, 8u, 16u, 32u}) {
      omp::TaskBenchConfig cfg;
      cfg.mode = mode;
      cfg.threads = p;
      cfg.num_tasks = 8'192;
      const auto res = omp::run_task_microbench(cfg);
      std::printf(" %8.0f", res.per_task_overhead);
    }
    std::printf("\n");
  }

  std::printf(
      "\nshape: in-kernel spin barriers stay flat with scale; the futex\n"
      "(passive) path grows with the serialized wake chain — the\n"
      "scalability mechanism behind Fig. 6.\n");
  return harness.finish() ? 0 : 1;
}
