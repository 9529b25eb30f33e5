// Fig. 4 reproduction: context-switch cost across the parameter space
// {Linux, specialized kernel} x {RT, non-RT} x {threads, fibers} x
// {cooperative, compiler-timed} x {FP, no-FP}, measured on the KNL-like
// machine by actual ping-pong execution.
#include <cstdio>

#include "harness.hpp"
#include "timing/ctx_switch_model.hpp"

using namespace iw;

int main(int argc, char** argv) {
  iw::bench::Harness harness;
  if (!harness.parse(argc, argv, {})) return 2;
  const auto costs = hwsim::CostModel::knl();
  const auto all = timing::measure_fig4(costs);

  std::printf("== Fig. 4: context switch cost (cycles, Phi KNL model) ==\n");
  std::printf("%-36s %14s %10s\n", "variant", "cycles/switch", "switches");
  for (const auto& m : all) {
    std::printf("%-36s %14.0f %10llu\n", m.variant.label().c_str(),
                m.cycles_per_switch,
                static_cast<unsigned long long>(m.switches));
  }

  // Headline ratios from the paper's annotations.
  auto find = [&](bool linux, bool rt, bool fp,
                  timing::SwitchKind kind) -> double {
    for (const auto& m : all) {
      if (m.variant.linux_stack == linux && m.variant.realtime == rt &&
          m.variant.fp == fp && m.variant.kind == kind) {
        return m.cycles_per_switch;
      }
    }
    return 0.0;
  };
  const double linux_fp =
      find(true, false, true, timing::SwitchKind::kThreadHwTimer);
  const double nk_fp =
      find(false, false, true, timing::SwitchKind::kThreadHwTimer);
  const double nk_nofp =
      find(false, false, false, timing::SwitchKind::kThreadHwTimer);
  const double fib_fp =
      find(false, false, true, timing::SwitchKind::kFiberCompTimed);
  const double fib_nofp =
      find(false, false, false, timing::SwitchKind::kFiberCompTimed);

  std::printf("\nheadlines (paper targets in parentheses):\n");
  std::printf("  linux non-RT FP switch:        %6.0f cycles (~5000)\n",
              linux_fp);
  std::printf("  kernel threads vs linux:       %6.2fx (about half)\n",
              linux_fp / nk_fp);
  std::printf("  comp-timed fibers vs threads:  %6.2fx lower, no FP (4x)\n",
              nk_nofp / fib_nofp);
  std::printf("  comp-timed fibers vs threads:  %6.2fx lower, FP (2.3x)\n",
              nk_fp / fib_fp);
  std::printf("  granularity floor:             %6.0f cycles (<600)\n",
              fib_nofp);
  return 0;
}
