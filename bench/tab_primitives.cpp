// §III table: kernel primitive path lengths, Nautilus vs the Linux
// profile. Paper: "benchmarks show that primitives such as thread
// management and event signaling are orders of magnitude faster" and
// "application benchmark speedups from 20-40% over user-level execution
// on Linux have been demonstrated".
#include <cstdio>
#include <memory>
#include <string>

#include "linuxmodel/linux_stack.hpp"
#include "nautilus/event.hpp"
#include "nautilus/kernel.hpp"
#include "harness.hpp"

using namespace iw;

namespace {

bench::Harness harness;

struct Primitives {
  double thread_create;
  double wake_latency;
  double ctx_switch;
  double crossing;  // syscall round trip (0 for Nautilus: no boundary)
};

Primitives measure(bool linux_stack) {
  Primitives out{};
  // thread create + wake latency measured in the DES; both stacks run
  // the identical experiment.
  hwsim::MachineConfig mc;
  mc.num_cores = 2;
  mc.costs = hwsim::CostModel::knl();
  mc.max_advances = 100'000'000;
  const std::string stack_name = linux_stack ? "linux" : "nautilus";
  hwsim::Machine m(mc);
  harness.attach(m, stack_name + "/create+wake");
  std::unique_ptr<linuxmodel::LinuxStack> lx;
  std::unique_ptr<nautilus::Kernel> nk;
  nautilus::Kernel* k;
  if (linux_stack) {
    lx = std::make_unique<linuxmodel::LinuxStack>(m);
    k = &lx->kernel();
  } else {
    nk = std::make_unique<nautilus::Kernel>(m);
    k = nk.get();
  }
  k->attach();

  nautilus::WaitQueue wq(*k);
  Cycles created_at = 0, create_cost = 0, signaled_at = 0, woken_at = 0;

  nautilus::ThreadConfig sleeper;
  sleeper.bound_core = 0;
  auto phase = std::make_shared<int>(0);
  sleeper.body = [&, phase](nautilus::ThreadContext& ctx)
      -> nautilus::StepResult {
    if (*phase == 0) {
      *phase = 1;
      return nautilus::StepResult::block(10, &wq);
    }
    woken_at = ctx.core.clock();
    return nautilus::StepResult::done(10);
  };
  k->spawn(std::move(sleeper));

  nautilus::ThreadConfig driver;
  driver.bound_core = 1;
  auto dphase = std::make_shared<int>(0);
  driver.body = [&, dphase, linux_stack](nautilus::ThreadContext& ctx)
      -> nautilus::StepResult {
    switch ((*dphase)++) {
      case 0:
        return nautilus::StepResult::cont(20'000);  // let sleeper block
      case 1: {
        const Cycles before = ctx.core.clock();
        nautilus::ThreadConfig child;
        child.bound_core = 1;
        child.body = [](nautilus::ThreadContext&) {
          return nautilus::StepResult::done(1);
        };
        if (linux_stack) {
          lx->spawn_user_thread(std::move(child), &ctx.core);
        } else {
          ctx.kernel.spawn(std::move(child), &ctx.core);
        }
        created_at = ctx.core.clock();
        create_cost = created_at - before;
        return nautilus::StepResult::cont(10);
      }
      case 2: {
        if (linux_stack) lx->syscall(ctx.core);  // futex-wake crossing
        wq.signal(ctx.core);
        signaled_at = ctx.core.clock();
        return nautilus::StepResult::done(10);
      }
      default:
        return nautilus::StepResult::done(1);
    }
  };
  k->spawn(std::move(driver));
  m.run();

  out.thread_create = static_cast<double>(create_cost);
  out.wake_latency = static_cast<double>(woken_at - signaled_at);
  // ctx switch: measured separately by timing/ (Fig. 4); reproduce the
  // switch path cost here from a 200-switch ping-pong.
  {
    hwsim::Machine m2(mc);
    harness.attach(m2, stack_name + "/ctx-switch");
    std::unique_ptr<linuxmodel::LinuxStack> lx2;
    std::unique_ptr<nautilus::Kernel> nk2;
    nautilus::Kernel* k2;
    if (linux_stack) {
      lx2 = std::make_unique<linuxmodel::LinuxStack>(m2);
      k2 = &lx2->kernel();
    } else {
      nk2 = std::make_unique<nautilus::Kernel>(m2);
      k2 = nk2.get();
    }
    k2->attach();
    for (int t = 0; t < 2; ++t) {
      nautilus::ThreadConfig tc;
      tc.uses_fp = true;
      auto left = std::make_shared<int>(200);
      tc.body = [left](nautilus::ThreadContext&) -> nautilus::StepResult {
        if (--*left == 0) return nautilus::StepResult::done(20);
        return nautilus::StepResult::yield(20);
      };
      k2->spawn(std::move(tc));
    }
    m2.run();
    out.ctx_switch = static_cast<double>(k2->stats().switch_overhead) /
                     static_cast<double>(k2->stats().context_switches);
  }
  if (linux_stack) {
    hwsim::Machine m3(mc);
    harness.attach(m3, stack_name + "/crossing");
    linuxmodel::LinuxStack lx3(m3);
    const Cycles before = m3.core(0).clock();
    lx3.syscall(m3.core(0));
    out.crossing = static_cast<double>(m3.core(0).clock() - before);
  } else {
    out.crossing = 0.0;  // no kernel/user boundary exists
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (!harness.parse(argc, argv, {bench::kTrace, bench::kMetricsJson})) {
    return 2;
  }
  const auto linux = measure(true);
  const auto naut = measure(false);
  std::printf("== kernel primitives (cycles, KNL model) ==\n");
  std::printf("%-22s %12s %12s %8s\n", "primitive", "linux", "nautilus",
              "ratio");
  auto row = [](const char* name, double l, double n) {
    std::printf("%-22s %12.0f %12.0f %7.1fx\n", name, l, n,
                n > 0 ? l / n : 0.0);
  };
  row("thread create", linux.thread_create, naut.thread_create);
  row("event wake latency", linux.wake_latency, naut.wake_latency);
  row("context switch (FP)", linux.ctx_switch, naut.ctx_switch);
  std::printf("%-22s %12.0f %12s\n", "kernel crossing", linux.crossing,
              "none");
  std::printf(
      "\npaper: thread management and event signaling 'orders of magnitude "
      "faster'; no kernel/user boundary exists in Nautilus at all.\n");
  return harness.finish() ? 0 : 1;
}
