// §IV-A table: CARAT guard overhead on real (natively executed) kernels.
//
// Paper: "the overheads are <6% (geometric mean)" for parallel codes
// once protection/tracking checks are aggregated and hoisted; the naive
// per-access placement is far more expensive — that delta is what this
// table shows, with real wall-clock measurements.
#include <algorithm>
#include <chrono>
#include <functional>
#include <cstdio>
#include <vector>

#include "carat/native_guards.hpp"
#include "carat/runtime.hpp"
#include "common/stats.hpp"
#include "harness.hpp"
#include "workloads/native_kernels.hpp"

using namespace iw;
using carat::CachedGuard;
using carat::FullGuard;
using carat::HoistedGuard;
using carat::NoGuard;

namespace {

bench::Harness harness;

volatile double g_sink;
volatile std::uint64_t g_sink_u64;

/// Best-of-N timing after warmup: robust to host noise, which is what
/// an overhead *ratio* between two fast loops needs.
double time_best_ms(int reps, const std::function<void()>& fn) {
  fn();  // warmup: faults + caches
  fn();
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

struct KernelRow {
  const char* name;
  double base_ms;
  double full_ms;
  double cached_ms;
  double hoisted_ms;
};

template <typename F>
KernelRow run_kernel(const char* name, F&& with_policy) {
  KernelRow row{name, 0, 0, 0, 0};
  {
    NoGuard g;
    row.base_ms = with_policy(g, /*hoisted=*/false);
  }
  {
    FullGuard g;
    row.full_ms = with_policy(g, false);
  }
  {
    CachedGuard g;
    row.cached_ms = with_policy(g, false);
  }
  {
    HoistedGuard g;
    row.hoisted_ms = with_policy(g, true);
  }
  return row;
}

}  // namespace

/// Simulated-cost companion to the native table: the same guard/move
/// machinery running on the substrate, where costs are virtual cycles
/// on a core clock and --trace/--metrics-json capture them.
void simulated_substrate_section() {
  substrate::AnalyticSubstrate sub(1, harness.seed());
  harness.attach(sub, "carat/substrate");
  carat::CaratRuntime rt;
  rt.bind_substrate(&sub, 0);
  std::vector<Addr> live;
  Rng rng = sub.rng_stream("carat-bench");
  for (int i = 0; i < 256; ++i) {
    const auto a = rt.alloc(64 + rng.uniform(0, 960));
    if (a) live.push_back(*a);
  }
  // Free every other allocation to fragment, touch the survivors
  // through guards, then compact.
  for (std::size_t i = 0; i < live.size(); i += 2) rt.free(live[i]);
  for (std::size_t i = 1; i < live.size(); i += 2) {
    rt.check_range(live[i]);
    rt.check_access(live[i], 8, true);
    rt.write(live[i], static_cast<std::int64_t>(i));
  }
  const double frag_before = rt.fragmentation();
  const unsigned moved = rt.defragment();
  std::printf(
      "\n-- substrate replay: guards + compaction in virtual cycles --\n"
      "guards %llu, moves %u, bytes moved %llu, frag %.2f -> %.2f, "
      "core cycles %llu\n",
      static_cast<unsigned long long>(rt.stats().guard_checks +
                                      rt.stats().range_checks),
      moved, static_cast<unsigned long long>(rt.stats().bytes_moved),
      frag_before, rt.fragmentation(),
      static_cast<unsigned long long>(sub.core_now(0)));
}

int main(int argc, char** argv) {
  if (!harness.parse(argc, argv,
                     {bench::kTrace, bench::kMetricsJson, bench::kSeed})) {
    return 2;
  }
  constexpr int kReps = 9;
  std::vector<KernelRow> rows;

  // stream triad
  rows.push_back(run_kernel("stream", [&](auto& g, bool hoisted) {
    std::vector<double> a(1 << 21), b(1 << 21, 1.5), c(1 << 21, 2.5);
    g.on_alloc(a.data(), a.size() * 8);
    g.on_alloc(b.data(), b.size() * 8);
    g.on_alloc(c.data(), c.size() * 8);
    return time_best_ms(kReps, [&] {
      g_sink = hoisted ? workloads::stream_triad_hoisted(g, a, b, c, 3.0)
                       : workloads::stream_triad_checked(g, a, b, c, 3.0);
    });
  }));

  // jacobi 2d
  rows.push_back(run_kernel("jacobi2d", [&](auto& g, bool hoisted) {
    const std::size_t n = 1024;
    std::vector<double> src(n * n, 1.0), dst(n * n, 0.0);
    g.on_alloc(src.data(), src.size() * 8);
    g.on_alloc(dst.data(), dst.size() * 8);
    return time_best_ms(kReps, [&] {
      g_sink = hoisted ? workloads::jacobi2d_hoisted(g, dst, src, n)
                       : workloads::jacobi2d_checked(g, dst, src, n);
    });
  }));

  // cg spmv
  rows.push_back(run_kernel("cg-spmv", [&](auto& g, bool hoisted) {
    const std::size_t n = 200'000;
    auto m = workloads::CsrMatrix::random(n, 13, 42);
    std::vector<double> x(n, 1.0), y(n, 0.0);
    g.on_alloc(m.val.data(), m.val.size() * 8);
    g.on_alloc(x.data(), x.size() * 8);
    g.on_alloc(y.data(), y.size() * 8);
    return time_best_ms(kReps, [&] {
      g_sink = hoisted ? workloads::cg_spmv_hoisted(g, m, x, y)
                       : workloads::cg_spmv_checked(g, m, x, y);
    });
  }));

  // nbody
  rows.push_back(run_kernel("nbody", [&](auto& g, bool hoisted) {
    std::vector<workloads::Body> bodies(1200);
    Rng rng(7);
    for (auto& b : bodies) {
      b = {rng.uniform_real(-1, 1), rng.uniform_real(-1, 1),
           rng.uniform_real(-1, 1), 0, 0, 0};
    }
    g.on_alloc(bodies.data(), bodies.size() * sizeof(workloads::Body));
    return time_best_ms(kReps, [&] {
      g_sink = hoisted ? workloads::nbody_step_hoisted(g, bodies, 1e-3)
                       : workloads::nbody_step_checked(g, bodies, 1e-3);
    });
  }));

  // pointer chase: hoisting impossible; the honest "hoisted" number is
  // the cached one-entry fast path CARAT leaves behind.
  rows.push_back(run_kernel("ptr-chase", [&](auto& g, bool) {
    const std::size_t n = 1 << 18;
    std::vector<workloads::ChaseNode> nodes(n);
    Rng rng(13);
    for (std::size_t i = 0; i < n; ++i) {
      nodes[i] = {static_cast<std::uint32_t>(rng.uniform(0, n - 1)),
                  i * 3};
    }
    g.on_alloc(nodes.data(), nodes.size() * sizeof(workloads::ChaseNode));
    return time_best_ms(kReps, [&] {
      g_sink_u64 = workloads::pointer_chase(g, nodes, 2'000'000);
    });
  }));
  // For ptr-chase the compiler cannot hoist: report the cached policy
  // as the achieved ("optimized") configuration.
  rows.back().hoisted_ms = rows.back().cached_ms;

  std::printf("== CARAT guard overhead (native wall clock, best of %d) ==\n",
              kReps);
  std::printf("%-10s %9s %9s %9s %9s %10s %10s\n", "kernel", "base_ms",
              "naive_ms", "cached_ms", "opt_ms", "naive_ovh", "opt_ovh");
  std::vector<double> naive_ratio, opt_ratio;
  for (const auto& r : rows) {
    const double nr = r.full_ms / r.base_ms;
    const double orr = r.hoisted_ms / r.base_ms;
    naive_ratio.push_back(nr);
    opt_ratio.push_back(orr);
    std::printf("%-10s %9.2f %9.2f %9.2f %9.2f %9.1f%% %9.1f%%\n", r.name,
                r.base_ms, r.full_ms, r.cached_ms, r.hoisted_ms,
                100 * (nr - 1), 100 * (orr - 1));
  }
  const double naive_geo = geomean(
      std::span<const double>(naive_ratio.data(), naive_ratio.size()));
  const double opt_geo = geomean(
      std::span<const double>(opt_ratio.data(), opt_ratio.size()));
  std::printf(
      "\ngeomean overhead: naive per-access guards %.1f%%, after CARAT "
      "aggregation+hoisting %.1f%%  (paper: <6%%)\n",
      100 * (naive_geo - 1), 100 * (opt_geo - 1));
  simulated_substrate_section();
  return harness.finish() ? 0 : 1;
}
