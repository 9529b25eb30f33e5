// §V-D table: interrupt dispatch latency, classic IDT dispatch vs
// branch-injected pipeline interrupts. Paper: dispatch is "on the order
// of 1000 cycles"; injection is "similar to a correctly predicted
// branch... 100-1000x better".
#include <cstdio>

#include "harness.hpp"
#include "pipeline/interrupt_delivery.hpp"

using namespace iw;
using namespace iw::pipeline;

int main(int argc, char** argv) {
  bench::Harness harness;
  if (!harness.parse(argc, argv,
                     {bench::kTrace, bench::kMetricsJson, bench::kSeed})) {
    return 2;
  }
  // The whole sweep replays on one analytic core: --trace shows every
  // delivered interrupt as a span, --seed steers the branchy stream.
  substrate::AnalyticSubstrate sub(1, harness.seed());
  harness.attach(sub, "pipeline-interrupts");
  PipelineConfig cfg;

  std::printf("== pipeline interrupts: dispatch latency (cycles) ==\n");
  std::printf("%-14s %12s %8s %8s %8s %8s %8s\n", "mechanism",
              "irq_period", "p50", "p99", "mean", "IPC", "count");

  for (Cycles period : {50'000u, 10'000u, 3'000u, 1'000u}) {
    PipelineResult classic, inject;
    for (auto mech :
         {DeliveryMechanism::kClassicIdt, DeliveryMechanism::kBranchInject}) {
      InterruptExperiment exp;
      exp.mechanism = mech;
      exp.total_instructions = 1'000'000;
      exp.interrupt_period = period;
      const auto res = run_pipeline(cfg, exp, &sub, 0);
      (mech == DeliveryMechanism::kClassicIdt ? classic : inject) = res;
      std::printf("%-14s %12llu %8llu %8llu %8.1f %8.2f %8llu\n",
                  mech == DeliveryMechanism::kClassicIdt ? "classic-idt"
                                                         : "branch-inject",
                  static_cast<unsigned long long>(period),
                  static_cast<unsigned long long>(
                      res.dispatch_latency.value_at_percentile(50)),
                  static_cast<unsigned long long>(
                      res.dispatch_latency.value_at_percentile(99)),
                  res.dispatch_latency.mean(), res.ipc(),
                  static_cast<unsigned long long>(res.interrupts_delivered));
    }
    std::printf("%-14s %12s dispatch ratio: %.0fx, IPC recovered: %+.1f%%\n",
                "", "",
                classic.dispatch_latency.mean() /
                    std::max(1.0, inject.dispatch_latency.mean()),
                100.0 * (inject.ipc() / classic.ipc() - 1.0));
  }
  std::printf(
      "\npaper: classic dispatch ~1000 cycles; injection 100-1000x "
      "better.\n");
  return harness.finish() ? 0 : 1;
}
