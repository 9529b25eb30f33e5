// §IV-D table: virtine start-up overheads across spawn paths and
// bespoke context specs. Paper: "start-up overheads as low as 100 µs".
#include <cstdio>

#include "harness.hpp"
#include "virtine/wasp.hpp"

using namespace iw;
using namespace iw::virtine;

namespace {

bench::Harness harness;
substrate::AnalyticSubstrate* g_sub = nullptr;

GuestFn fib_guest(int n) {
  return [n](GuestEnv& env) -> GuestResult {
    env.store(0, 0);
    env.store(1, 1);
    for (int i = 2; i <= n; ++i) {
      env.store(i, env.load(i - 1) + env.load(i - 2));
    }
    return {env.load(n), static_cast<Cycles>(n) * 12};
  };
}

GuestFn echo_guest() {
  return [](GuestEnv& env) -> GuestResult {
    // Touch a request buffer and produce a response (FaaS echo body).
    for (std::size_t i = 0; i < 64; ++i) env.store(i, 0x55);
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < 64; ++i) sum += env.load(i);
    return {sum, 900};
  };
}

void run_spec(const char* fn_name, const GuestFn& fn,
              const char* spec_name, const ContextSpec& spec) {
  Wasp w;
  w.bind_substrate(g_sub, 0);
  w.prepare_snapshot(spec);
  w.warm_pool(spec, 4);
  const auto cold = w.invoke(spec, SpawnPath::kCold, fn);
  const auto pooled = w.invoke(spec, SpawnPath::kPooled, fn);
  const auto snap = w.invoke(spec, SpawnPath::kSnapshot, fn);
  std::printf("%-6s %-10s %10.1f %10.1f %10.1f   %s\n", fn_name, spec_name,
              w.startup_us(cold.startup_cycles),
              w.startup_us(pooled.startup_cycles),
              w.startup_us(snap.startup_cycles), spec.describe().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (!harness.parse(argc, argv, {bench::kTrace, bench::kMetricsJson})) {
    return 2;
  }
  substrate::AnalyticSubstrate sub(1);
  harness.attach(sub, "virtine-startup");
  g_sub = &sub;
  std::printf("== virtine start-up latency (us, 1 GHz cost reference) ==\n");
  std::printf("%-6s %-10s %10s %10s %10s   %s\n", "fn", "context",
              "cold_us", "pooled_us", "snap_us", "spec");
  run_spec("fib", fib_guest(25), "minimal", ContextSpec::minimal());
  run_spec("fib", fib_guest(25), "faas", ContextSpec::faas_handler());
  run_spec("echo", echo_guest(), "faas", ContextSpec::faas_handler());
  run_spec("echo", echo_guest(), "unikernel", ContextSpec::unikernel());

  std::printf(
      "\nbaselines for scale: fork+exec of a Linux process is O(1000+ us);\n"
      "a plain function call is O(0.01 us). Virtines sit in between, and\n"
      "the cached paths reach the ~100 us regime the paper reports.\n");

  // Pool-depth ablation: repeated invocations through a small pool.
  std::printf("\n-- sustained invocations through a pool of 4 --\n");
  Wasp w;
  w.bind_substrate(g_sub, 0);
  const auto spec = ContextSpec::faas_handler();
  w.warm_pool(spec, 4);
  w.prepare_snapshot(spec);
  for (int i = 0; i < 8; ++i) {
    const auto inv = w.invoke(spec, SpawnPath::kPooled, fib_guest(10));
    std::printf("invoke %d: startup %.1f us (%s)\n", i,
                w.startup_us(inv.startup_cycles),
                i < 4 ? "pool hit" : "pool miss -> cold");
  }
  return harness.finish() ? 0 : 1;
}
