// Fig. 6 reproduction: RTK/PIK/CCK performance relative to Linux OpenMP
// as a function of CPUs used, for NAS BT and SP (mini versions), on the
// KNL-like machine. Baseline (Linux OpenMP) is 1.0; `t` reports the
// single-threaded Linux absolute performance like the original figure.
#include <cstdio>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "harness.hpp"
#include "omp/runtime.hpp"

using namespace iw;

namespace {
bench::Harness harness;

// run_miniapp creates its machine internally, so the sinks, the seed
// and the scheduler ride in on the config rather than through
// Harness::attach.
omp::OmpResult run_app(const workloads::MiniApp& app, omp::OmpConfig cfg,
                       const std::string& label) {
  harness.begin_run(label);
  cfg.tracer = harness.tracer();
  cfg.metrics = harness.metrics();
  cfg.seed = harness.seed(cfg.seed);
  cfg.scheduler = harness.scheduler(cfg.scheduler);
  return omp::run_miniapp(app, cfg);
}
}  // namespace

int main(int argc, char** argv) {
  if (!harness.parse(argc, argv,
                     {bench::kTrace, bench::kMetricsJson, bench::kSeed,
                      bench::kScheduler})) {
    return 2;
  }
  const std::vector<unsigned> cpu_counts{1, 2, 4, 8, 16, 32, 64};
  std::vector<double> rtk_gains;

  for (const char* which : {"BT", "SP"}) {
    const auto app = std::string(which) == "BT" ? workloads::bt_mini(48, 3)
                                                : workloads::sp_mini(48, 3);
    std::printf("== Fig. 6: %s-mini on Phi KNL model ==\n", which);

    // Single-threaded Linux absolute performance (the figure's `t`).
    omp::OmpConfig base;
    base.mode = omp::OmpMode::kLinux;
    base.num_threads = 1;
    const auto t1 = run_app(app, base, std::string(which) + "/linux/p1");
    std::printf("t = %.1f Mcycles (1-thread Linux makespan)\n",
                static_cast<double>(t1.makespan) / 1e6);

    std::printf("%-6s %10s %10s %10s %10s\n", "CPUs", "Linux", "RTK",
                "PIK", "CCK");
    for (unsigned p : cpu_counts) {
      omp::OmpConfig cfg;
      cfg.num_threads = p;
      cfg.mode = omp::OmpMode::kLinux;
      const auto linux = run_app(app, cfg, std::string(which) + "/linux/p" +
                                               std::to_string(p));
      double rel[3];
      int idx = 0;
      for (omp::OmpMode mode :
           {omp::OmpMode::kRTK, omp::OmpMode::kPIK, omp::OmpMode::kCCK}) {
        cfg.mode = mode;
        const auto r = run_app(app, cfg,
                               std::string(which) + "/" +
                                   omp::mode_name(mode) + "/p" +
                                   std::to_string(p));
        rel[idx++] = static_cast<double>(linux.makespan) /
                     static_cast<double>(r.makespan);
      }
      std::printf("%-6u %10.2f %10.2f %10.2f %10.2f\n", p, 1.0, rel[0],
                  rel[1], rel[2]);
      if (p >= 8) rtk_gains.push_back(rel[0]);
    }
    std::printf("\n");
  }
  std::printf(
      "geomean RTK gain over Linux (>=8 CPUs): %.1f%%  (paper: ~22%% across "
      "all scales/benchmarks; PIK similar, CCK 'not easily summarized')\n",
      100.0 * (geomean(std::span<const double>(rtk_gains.data(),
                                               rtk_gains.size())) -
               1.0));

  // "A repetition of the study on an 8 socket, 192 core machine found
  // similar results (~20% for RTK and PIK)."
  std::printf("\n== 8-socket / 192-core repetition (BT-mini) ==\n");
  std::printf("%-6s %10s %10s %10s\n", "CPUs", "Linux", "RTK", "PIK");
  // Class-B-scale grid: phases must dwarf fork-point costs at P=192.
  const auto app8 = workloads::bt_mini(110, 2);
  std::vector<double> gains8;
  for (unsigned p : {48u, 96u, 192u}) {
    omp::OmpConfig cfg;
    cfg.costs = hwsim::CostModel::xeon8s();
    cfg.num_threads = p;
    cfg.mode = omp::OmpMode::kLinux;
    const auto linux =
        run_app(app8, cfg, "BT8s/linux/p" + std::to_string(p));
    double rel[2];
    int idx = 0;
    for (omp::OmpMode mode : {omp::OmpMode::kRTK, omp::OmpMode::kPIK}) {
      cfg.mode = mode;
      const auto r = run_app(app8, cfg,
                             std::string("BT8s/") + omp::mode_name(mode) +
                                 "/p" + std::to_string(p));
      rel[idx++] = static_cast<double>(linux.makespan) /
                   static_cast<double>(r.makespan);
    }
    std::printf("%-6u %10.2f %10.2f %10.2f\n", p, 1.0, rel[0], rel[1]);
    gains8.push_back(rel[0]);
  }
  std::printf("geomean RTK gain on the 8-socket machine: %.1f%%  "
              "(paper: ~20%%)\n",
              100.0 * (geomean(std::span<const double>(gains8.data(),
                                                       gains8.size())) -
                       1.0));
  return harness.finish() ? 0 : 1;
}
