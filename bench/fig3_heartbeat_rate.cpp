// Fig. 3 reproduction: achieved vs target heartbeat rate in Nautilus
// and Linux, at heart ♥ = 20 µs and 100 µs, 16 CPUs.
//
// Paper: "while the best Linux mechanism cannot sustain heartbeat
// signals at a consistent rate for all benchmarks, even at ♥ = 100 µs
// and a scale of 16 CPUs, Nautilus not only hits the target, but it
// also delivers a consistent, stable rate at both 100 µs and 20 µs."
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "heartbeat/tpal.hpp"
#include "harness.hpp"

using namespace iw;

namespace {

bench::Harness harness;

struct RowResult {
  double worst_rate_khz;
  double mean_rate_khz;
  double worst_cv;
};

RowResult run(const char* stack, const char* mech, double target_us,
              unsigned cpus) {
  hwsim::MachineConfig mc;
  mc.num_cores = cpus;
  mc.costs = hwsim::CostModel::knl();
  mc.max_advances = 2'000'000'000ULL;
  harness.apply(mc);
  hwsim::Machine m(mc);
  harness.attach(m, std::string(stack) + "/" + mech + " @" +
                          std::to_string(static_cast<int>(target_us)) +
                          "us");

  std::unique_ptr<linuxmodel::LinuxStack> lx;
  std::unique_ptr<nautilus::Kernel> nk;
  std::unique_ptr<heartbeat::HeartbeatBackend> hb;
  nautilus::Kernel* k;
  if (std::string(stack) == "nautilus") {
    nk = std::make_unique<nautilus::Kernel>(m);
    k = nk.get();
    auto nhb = std::make_unique<heartbeat::NautilusHeartbeat>(m);
    if (harness.faults_enabled()) {
      heartbeat::FaultToleranceConfig ft;
      ft.enabled = true;
      nhb->set_fault_tolerance(ft);
    }
    hb = std::move(nhb);
  } else {
    lx = std::make_unique<linuxmodel::LinuxStack>(m);
    k = &lx->kernel();
    hb = std::make_unique<heartbeat::LinuxHeartbeat>(
        *lx, std::string(mech) == "relay"
                 ? heartbeat::LinuxHeartbeatMode::kRelay
                 : heartbeat::LinuxHeartbeatMode::kPerThreadTimer);
  }
  k->attach();

  heartbeat::TpalConfig cfg;
  cfg.num_workers = cpus;
  cfg.total_iters = 3'000'000;
  cfg.cycles_per_iter = 30;
  cfg.heartbeat_period = mc.costs.freq.us_to_cycles(target_us);
  heartbeat::TpalRuntime(*k, cfg, hb.get()).run();

  RowResult r{1e18, 0.0, 0.0};
  double sum = 0;
  for (unsigned c = 0; c < cpus; ++c) {
    const double hz = hb->delivered_rate_hz(c, mc.costs.freq);
    r.worst_rate_khz = std::min(r.worst_rate_khz, hz / 1e3);
    sum += hz / 1e3;
    r.worst_cv = std::max(r.worst_cv, hb->jitter_cv(c));
  }
  r.mean_rate_khz = sum / cpus;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  if (!harness.parse(argc, argv,
                     {bench::kTrace, bench::kMetricsJson, bench::kFaults,
                      bench::kFaultSeed, bench::kSeed, bench::kScheduler})) {
    return 2;
  }
  std::printf(
      "== Fig. 3: achieved vs target heartbeat rate (16 CPUs, KNL) ==\n");
  std::printf("%-10s %-12s %9s %14s %14s %10s %8s\n", "stack", "mechanism",
              "target_us", "target_kHz", "achieved_kHz", "worst_kHz",
              "jitter");
  for (double target_us : {100.0, 20.0}) {
    const double target_khz = 1e3 / target_us;
    struct Cfg {
      const char* stack;
      const char* mech;
    };
    for (const auto& c : {Cfg{"nautilus", "lapic+ipi"},
                          Cfg{"linux", "relay"},
                          Cfg{"linux", "per-thread"}}) {
      const auto r = run(c.stack, c.mech, target_us, 16);
      std::printf("%-10s %-12s %9.0f %14.2f %14.2f %10.2f %7.1f%%\n",
                  c.stack, c.mech, target_us, target_khz, r.mean_rate_khz,
                  r.worst_rate_khz, 100.0 * r.worst_cv);
    }
  }
  std::printf(
      "\nshape check: nautilus hits both targets with ~0%% jitter;\n"
      "linux falls short at 20 us (relay saturates the master) and\n"
      "delivers with visible jitter even at 100 us.\n");
  return harness.finish() ? 0 : 1;
}
