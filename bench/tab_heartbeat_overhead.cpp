// §IV-B table: heartbeat scheduling overheads.
// Paper: "Across a range of benchmarks, the scheduling overheads are
// 13-22% on Linux, and reduce to at most 4.9% in Nautilus."
//
// Overhead = (makespan with heartbeat mechanism on) / (off) - 1 for a
// single worker (pure mechanism cost: signal/IRQ delivery + polls +
// self-promotions), across benchmarks of differing grain.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "heartbeat/fork_join.hpp"
#include "heartbeat/tpal.hpp"
#include "harness.hpp"

using namespace iw;

namespace {

bench::Harness harness;

struct Workload {
  const char* name;
  Cycles cycles_per_iter;
  std::uint64_t chunk;
};

double mechanism_overhead(bool linux_stack, const Workload& w,
                          double target_us) {
  auto makespan = [&](bool hb_on) -> Cycles {
    hwsim::MachineConfig mc;
    mc.num_cores = 1;
    mc.costs = hwsim::CostModel::knl();
    mc.max_advances = 2'000'000'000ULL;
    hwsim::Machine m(mc);
    harness.attach(m, std::string(w.name) + "/" +
                            (linux_stack ? "linux" : "nautilus") +
                            (hb_on ? "/hb-on" : "/hb-off"));
    std::unique_ptr<linuxmodel::LinuxStack> lx;
    std::unique_ptr<nautilus::Kernel> nk;
    nautilus::Kernel* k;
    std::unique_ptr<heartbeat::HeartbeatBackend> hb;
    if (linux_stack) {
      lx = std::make_unique<linuxmodel::LinuxStack>(m);
      k = &lx->kernel();
      if (hb_on) {
        hb = std::make_unique<heartbeat::LinuxHeartbeat>(
            *lx, heartbeat::LinuxHeartbeatMode::kPerThreadTimer);
      }
    } else {
      nk = std::make_unique<nautilus::Kernel>(m);
      k = nk.get();
      if (hb_on) hb = std::make_unique<heartbeat::NautilusHeartbeat>(m);
    }
    k->attach();
    heartbeat::TpalConfig cfg;
    cfg.num_workers = 1;
    cfg.total_iters = 1'000'000;
    cfg.cycles_per_iter = w.cycles_per_iter;
    cfg.chunk = w.chunk;
    cfg.heartbeat_period =
        hb_on ? mc.costs.freq.us_to_cycles(target_us) : 0;
    return heartbeat::TpalRuntime(*k, cfg, hb.get()).run().makespan;
  };
  const Cycles off = makespan(false);
  const Cycles on = makespan(true);
  return static_cast<double>(on) / static_cast<double>(off) - 1.0;
}

double forkjoin_overhead(bool linux_stack, double target_us) {
  auto makespan = [&](bool hb_on) -> Cycles {
    hwsim::MachineConfig mc;
    mc.num_cores = 1;
    mc.costs = hwsim::CostModel::knl();
    mc.max_advances = 2'000'000'000ULL;
    hwsim::Machine m(mc);
    harness.attach(m, std::string("tree-sum/") +
                            (linux_stack ? "linux" : "nautilus") +
                            (hb_on ? "/hb-on" : "/hb-off"));
    std::unique_ptr<linuxmodel::LinuxStack> lx;
    std::unique_ptr<nautilus::Kernel> nk;
    nautilus::Kernel* k;
    std::unique_ptr<heartbeat::HeartbeatBackend> hb;
    if (linux_stack) {
      lx = std::make_unique<linuxmodel::LinuxStack>(m);
      k = &lx->kernel();
      if (hb_on) {
        hb = std::make_unique<heartbeat::LinuxHeartbeat>(
            *lx, heartbeat::LinuxHeartbeatMode::kPerThreadTimer);
      }
    } else {
      nk = std::make_unique<nautilus::Kernel>(m);
      k = nk.get();
      if (hb_on) hb = std::make_unique<heartbeat::NautilusHeartbeat>(m);
    }
    k->attach();
    heartbeat::ForkJoinConfig cfg;
    cfg.num_workers = 1;
    cfg.tree_depth = 17;
    cfg.heartbeat_period =
        hb_on ? mc.costs.freq.us_to_cycles(target_us) : 0;
    return heartbeat::ForkJoinTpal(*k, cfg, hb.get()).run().makespan;
  };
  const Cycles off = makespan(false);
  const Cycles on = makespan(true);
  return static_cast<double>(on) / static_cast<double>(off) - 1.0;
}

}  // namespace

int main(int argc, char** argv) {
  if (!harness.parse(argc, argv, {bench::kTrace, bench::kMetricsJson})) {
    return 2;
  }
  const std::vector<Workload> workloads = {
      {"fine-grain-loop", 18, 32},
      {"mid-grain-loop", 30, 64},
      {"coarse-loop", 60, 128},
      {"spmv-like", 24, 48},
  };
  std::printf("== heartbeat scheduling overhead (1 worker, KNL) ==\n");
  std::printf("%-18s %14s %14s %14s %14s\n", "benchmark",
              "linux@100us", "nk@100us", "linux@20us", "nk@20us");
  std::vector<double> lin100, nk100;
  for (const auto& w : workloads) {
    const double l100 = mechanism_overhead(true, w, 100.0);
    const double n100 = mechanism_overhead(false, w, 100.0);
    const double l20 = mechanism_overhead(true, w, 20.0);
    const double n20 = mechanism_overhead(false, w, 20.0);
    lin100.push_back(l100);
    nk100.push_back(n100);
    std::printf("%-18s %13.1f%% %13.1f%% %13.1f%% %13.1f%%\n", w.name,
                100 * l100, 100 * n100, 100 * l20, 100 * n20);
  }
  {
    const double l100 = forkjoin_overhead(true, 100.0);
    const double n100 = forkjoin_overhead(false, 100.0);
    const double l20 = forkjoin_overhead(true, 20.0);
    const double n20 = forkjoin_overhead(false, 20.0);
    std::printf("%-18s %13.1f%% %13.1f%% %13.1f%% %13.1f%%\n",
                "tree-sum(forkjoin)", 100 * l100, 100 * n100, 100 * l20,
                100 * n20);
  }
  std::printf("\npaper: linux 13-22%%, nautilus <= 4.9%% (at ♥=100us)\n");
  std::printf("measured mean @100us: linux %.1f%%, nautilus %.1f%%\n",
              100 * mean(std::span<const double>(lin100.data(),
                                                 lin100.size())),
              100 * mean(std::span<const double>(nk100.data(),
                                                 nk100.size())));
  return harness.finish() ? 0 : 1;
}
