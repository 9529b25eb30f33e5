// Wall-clock throughput of the DES scheduling core: simulated events per
// second under an IPI+LAPIC-heavy heartbeat workload (the fig3 interrupt
// pattern) at 2/8/64/256 cores, for every scheduler:
//   frontier — the O(log N) incremental frontier index (default),
//   linear   — the seed O(N)-scan reference,
//   parallel — the epoch-synchronized conservative parallel DES
//              (one shard per core; host threads via --threads).
// All schedulers must execute bit-identical schedules (asserted here via
// the virtual end state, and bit-for-bit in tests/hwsim); only the wall
// clock may differ. The parallel speedup has two sources: lookahead
// batching (per-core drains replace per-event global scheduling — this
// holds even at --threads=1) and host parallelism on multi-core hosts.
//
// A second section measures the host-thread axis: a `host_threads ×
// cores` matrix over 1k–8k simulated cores, parallel scheduler at
// 1/2/4/8 host threads — with a frontier run per core count as the
// equivalence reference. The JSON records the matrix, the
// per-core-count thread-scaling ratios (speedup_threads_vs_1), and the
// measuring host's CPU count, so tools/check_des_regression.py can
// guard the ratios host-awarely (a 1-CPU box cannot express 4-way
// speedup; the guard only requires no collapse there). Per core count
// it also records the engine's host-independent available parallelism
// (parallelism_bound = work / span, the speedup ceiling the thread
// ratios are read against) and its outbox spill count. Each frontier
// row of `results` carries dirty_pushes_per_event: cores an
// invalidation from another context queued for a leaf rewrite, per
// event (deterministic; the heartbeat broadcast is the only source).
//
// Usage: des_throughput [--smoke] [--out=FILE] [--threads=N]
//   --smoke      ~10x shorter runs (CI artifact mode)
//   --out=FILE   JSON output path (default BENCH_des_throughput.json)
//   --threads=N  host worker threads for the parallel series (default 1,
//                the reproducible baseline; the des and hotpath guards
//                require a fresh run at the baseline's count)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "des_workload.hpp"
#include "harness.hpp"

using namespace iw;

namespace {

struct Row {
  unsigned cores{0};
  const char* scheduler{""};
  unsigned threads{1};
  std::uint64_t advances{0};
  std::uint64_t irqs{0};
  Cycles sim_time{0};
  double wall_ms{0.0};
  double events_per_sec{0.0};
  hwsim::ParallelTotals totals;  // parallel rows only
  bool frontier{false};
  /// Cores pushed onto the frontier's dirty list (frontier rows only).
  std::uint64_t dirty_pushes{0};
};

/// Best-of-`repeats` measurement (fresh workload each repeat; minimum
/// wall time wins). Short smoke rows are scheduler-noise-dominated on a
/// loaded host, and the max-throughput repeat is the stable statistic
/// the CI ratio guard needs. The simulated results must be identical
/// across repeats (determinism), which is asserted here for free.
Row run_one(unsigned cores, hwsim::SchedulerKind sched, Cycles sim_cycles,
            unsigned threads, int repeats) {
  Row r;
  r.cores = cores;
  r.scheduler = bench::Harness::scheduler_name(sched);
  r.threads = threads;
  r.frontier = sched == hwsim::SchedulerKind::kFrontier;
  for (int rep = 0; rep < repeats; ++rep) {
    bench::DesWorkload w =
        bench::make_des_workload(cores, sched, 200, 20'000, threads);
    const auto t0 = std::chrono::steady_clock::now();
    const bool ok = w.machine->run_until(sim_cycles);
    const auto t1 = std::chrono::steady_clock::now();
    if (!ok) {
      std::fprintf(stderr, "des_throughput: watchdog fired unexpectedly\n");
      std::exit(1);
    }
    const double wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (rep == 0) {
      r.advances = w.machine->total_advances();
      r.irqs = w.total_irqs();
      r.sim_time = w.machine->now();
      r.wall_ms = wall_ms;
      r.totals = w.machine->parallel_totals();
      r.dirty_pushes = w.machine->frontier_dirty_pushes();
    } else {
      if (r.advances != w.machine->total_advances() ||
          r.irqs != w.total_irqs() || r.sim_time != w.machine->now() ||
          r.dirty_pushes != w.machine->frontier_dirty_pushes()) {
        std::fprintf(stderr,
                     "des_throughput: repeat diverged (%s, %u cores)\n",
                     r.scheduler, cores);
        std::exit(1);
      }
      r.wall_ms = std::min(r.wall_ms, wall_ms);
    }
  }
  r.events_per_sec =
      r.wall_ms > 0.0 ? 1000.0 * static_cast<double>(r.advances) / r.wall_ms
                      : 0.0;
  return r;
}

/// Hot-path allocation discipline: growth reallocations per million
/// events, measured over a post-warmup window (the first fifth of the
/// run absorbs slab growth past the machine's fixed queue reserve; steady
/// state should add ~nothing).
double measure_allocs_per_million(unsigned cores,
                                  hwsim::SchedulerKind sched,
                                  Cycles sim_cycles, unsigned threads) {
  bench::DesWorkload w =
      bench::make_des_workload(cores, sched, 200, 20'000, threads);
  if (!w.machine->run_until(sim_cycles / 5)) std::exit(1);
  const std::uint64_t a0 = w.machine->hot_path_allocs();
  const std::uint64_t adv0 = w.machine->total_advances();
  if (!w.machine->run_until(sim_cycles)) std::exit(1);
  const std::uint64_t da = w.machine->hot_path_allocs() - a0;
  const std::uint64_t dadv = w.machine->total_advances() - adv0;
  return dadv > 0
             ? 1e6 * static_cast<double>(da) / static_cast<double>(dadv)
             : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out = "BENCH_des_throughput.json";
  unsigned threads = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      std::uint64_t v = 0;
      if (!bench::Harness::parse_count(argv[i] + 10, &v) || v == 0 ||
          v > 4096) {
        std::fprintf(stderr,
                     "--threads: expected a positive integer (<= 4096), "
                     "got '%s'\n",
                     argv[i] + 10);
        return 2;
      }
      threads = static_cast<unsigned>(v);
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out=FILE] [--threads=N]\n",
                   argv[0]);
      return 2;
    }
  }
  // Short smoke rows need more repeats to find the clean measurement.
  const int repeats = smoke ? 3 : 2;

  const std::vector<unsigned> core_counts{2, 8, 64, 256};
  const std::vector<hwsim::SchedulerKind> scheds{
      hwsim::SchedulerKind::kFrontier,
      hwsim::SchedulerKind::kLinearScan,
      hwsim::SchedulerKind::kParallelEpoch,
  };
  std::vector<Row> rows;
  std::vector<double> speedup_frontier;  // frontier/linear per core count
  std::vector<double> speedup_parallel;  // parallel/frontier per core count
  std::vector<double> hot_eps_frontier;  // hotpath series, per core count
  std::vector<double> hot_eps_parallel;
  std::vector<double> hot_allocs;        // allocs per million events

  std::printf("%-6s %-9s %12s %10s %10s %12s\n", "cores", "sched",
              "advances", "irqs", "wall_ms", "events/s");
  for (const unsigned cores : core_counts) {
    // Size simulated time so each config does a comparable amount of
    // DES work (~advances) regardless of core count: advances scale
    // roughly with cores x sim_time / step.
    const Cycles sim = std::max<Cycles>(400'000'000 / cores, 1'000'000) /
                       (smoke ? 10 : 1);
    std::vector<Row> group;
    for (const hwsim::SchedulerKind sched : scheds) {
      group.push_back(run_one(cores, sched, sim, threads, repeats));
    }
    // Equivalence guard: every scheduler must have executed the same
    // virtual-time schedule.
    const Row& f = group[0];
    for (const Row& r : group) {
      if (r.advances != f.advances || r.irqs != f.irqs ||
          r.sim_time != f.sim_time) {
        std::fprintf(stderr,
                     "des_throughput: scheduler divergence at %u cores "
                     "(%s vs %s: advances %llu vs %llu, irqs %llu vs "
                     "%llu)\n",
                     cores, r.scheduler, f.scheduler,
                     static_cast<unsigned long long>(r.advances),
                     static_cast<unsigned long long>(f.advances),
                     static_cast<unsigned long long>(r.irqs),
                     static_cast<unsigned long long>(f.irqs));
        return 1;
      }
      std::printf("%-6u %-9s %12llu %10llu %10.1f %12.0f\n", r.cores,
                  r.scheduler, static_cast<unsigned long long>(r.advances),
                  static_cast<unsigned long long>(r.irqs), r.wall_ms,
                  r.events_per_sec);
      rows.push_back(r);
    }
    const Row& l = group[1];
    const Row& p = group[2];
    const double sf =
        l.events_per_sec > 0.0 ? f.events_per_sec / l.events_per_sec : 0.0;
    const double sp =
        f.events_per_sec > 0.0 ? p.events_per_sec / f.events_per_sec : 0.0;
    speedup_frontier.push_back(sf);
    speedup_parallel.push_back(sp);
    hot_eps_frontier.push_back(f.events_per_sec);
    hot_eps_parallel.push_back(p.events_per_sec);
    const double apm = measure_allocs_per_million(
        cores, hwsim::SchedulerKind::kFrontier, sim, threads);
    hot_allocs.push_back(apm);
    std::printf("%-6u speedup   frontier/linear %.2fx  parallel/frontier "
                "%.2fx  allocs/Mevent %.1f\n",
                cores, sf, sp, apm);
  }

  // --- host_threads × cores matrix: 1k–8k simulated cores, parallel
  // engine at 1/2/4/8 host threads, frontier as the per-core-count
  // equivalence reference. Real host parallelism needs
  // real host CPUs; host_cpus is recorded so the regression guard can
  // judge the thread-scaling ratios against what the box can express.
  const std::vector<unsigned> matrix_cores{1024, 4096, 8192};
  const std::vector<unsigned> matrix_threads{1, 2, 4, 8};
  std::vector<Row> matrix_rows;
  // matrix_scaling[i][j]: cores=matrix_cores[i], threads=matrix_threads[j]
  // (j >= 1), ratio vs the 1-thread parallel run.
  std::vector<std::vector<double>> matrix_scaling;
  // Per core count: work / span and outbox spills, identical at every
  // thread count (checked below with the schedule).
  std::vector<double> matrix_bound;
  std::vector<std::uint64_t> matrix_spills;
  std::printf("\n%-6s %-9s %-7s %12s %10s %10s %12s\n", "cores", "sched",
              "threads", "advances", "irqs", "wall_ms", "events/s");
  for (const unsigned cores : matrix_cores) {
    const Cycles sim = std::max<Cycles>(400'000'000 / cores, 500'000) /
                       (smoke ? 10 : 1);
    const Row ref =
        run_one(cores, hwsim::SchedulerKind::kFrontier, sim, 1, repeats);
    std::printf("%-6u %-9s %-7u %12llu %10llu %10.1f %12.0f\n", ref.cores,
                ref.scheduler, ref.threads,
                static_cast<unsigned long long>(ref.advances),
                static_cast<unsigned long long>(ref.irqs), ref.wall_ms,
                ref.events_per_sec);
    double one_thread_eps = 0.0;
    hwsim::ParallelTotals one_thread_totals;
    std::vector<double> ratios;
    for (const unsigned t : matrix_threads) {
      const Row r = run_one(cores, hwsim::SchedulerKind::kParallelEpoch, sim,
                            t, repeats);
      if (t == 1) one_thread_totals = r.totals;
      if (r.advances != ref.advances || r.irqs != ref.irqs ||
          r.sim_time != ref.sim_time ||
          r.totals.work != one_thread_totals.work ||
          r.totals.span != one_thread_totals.span ||
          r.totals.spills != one_thread_totals.spills) {
        std::fprintf(stderr,
                     "des_throughput: matrix divergence at %u cores, %u "
                     "threads (advances %llu vs %llu, work/span %llu/%llu "
                     "vs %llu/%llu at 1 thread)\n",
                     cores, t, static_cast<unsigned long long>(r.advances),
                     static_cast<unsigned long long>(ref.advances),
                     static_cast<unsigned long long>(r.totals.work),
                     static_cast<unsigned long long>(r.totals.span),
                     static_cast<unsigned long long>(one_thread_totals.work),
                     static_cast<unsigned long long>(one_thread_totals.span));
        return 1;
      }
      std::printf("%-6u %-9s %-7u %12llu %10llu %10.1f %12.0f\n", r.cores,
                  r.scheduler, r.threads,
                  static_cast<unsigned long long>(r.advances),
                  static_cast<unsigned long long>(r.irqs), r.wall_ms,
                  r.events_per_sec);
      if (t == 1) {
        one_thread_eps = r.events_per_sec;
      } else {
        ratios.push_back(one_thread_eps > 0.0
                             ? r.events_per_sec / one_thread_eps
                             : 0.0);
      }
      matrix_rows.push_back(r);
    }
    matrix_scaling.push_back(ratios);
    matrix_bound.push_back(
        one_thread_totals.span > 0
            ? static_cast<double>(one_thread_totals.work) /
                  static_cast<double>(one_thread_totals.span)
            : 0.0);
    matrix_spills.push_back(one_thread_totals.spills);
    std::printf("%-6u thread scaling vs 1:", cores);
    for (std::size_t j = 1; j < matrix_threads.size(); ++j) {
      std::printf("  %ut %.2fx", matrix_threads[j],
                  matrix_scaling.back()[j - 1]);
    }
    std::printf("  (bound %.2fx, %llu spills)\n", matrix_bound.back(),
                static_cast<unsigned long long>(matrix_spills.back()));
  }

  std::FILE* fp = std::fopen(out.c_str(), "w");
  if (fp == nullptr) {
    std::fprintf(stderr, "des_throughput: cannot write %s\n", out.c_str());
    return 1;
  }
  const auto write_row = [&](const Row& r, bool with_threads, bool last) {
    std::fprintf(fp, "    {\"cores\": %u, \"scheduler\": \"%s\", ",
                 r.cores, r.scheduler);
    if (with_threads) std::fprintf(fp, "\"threads\": %u, ", r.threads);
    std::fprintf(fp,
                 "\"advances\": %llu, \"irqs\": %llu, \"sim_cycles\": "
                 "%llu, \"wall_ms\": %.2f, \"events_per_sec\": %.0f",
                 static_cast<unsigned long long>(r.advances),
                 static_cast<unsigned long long>(r.irqs),
                 static_cast<unsigned long long>(r.sim_time), r.wall_ms,
                 r.events_per_sec);
    // Deterministic complexity counter: the stepped core rewrites its
    // own leaf, so only cross-core invalidations reach the dirty list.
    if (r.frontier && r.advances > 0) {
      std::fprintf(fp, ", \"dirty_pushes_per_event\": %.6f",
                   static_cast<double>(r.dirty_pushes) /
                       static_cast<double>(r.advances));
    }
    std::fprintf(fp, "}%s\n", last ? "" : ",");
  };
  std::fprintf(fp,
               "{\n  \"bench\": \"des_throughput\",\n"
               "  \"workload\": \"ipi+lapic heartbeat broadcast, 200-cycle "
               "spin steps, 20k-cycle period\",\n"
               "  \"smoke\": %s,\n  \"host_threads\": %u,\n"
               "  \"host_cpus\": %u,\n"
               "  \"results\": [\n",
               smoke ? "true" : "false", threads,
               std::thread::hardware_concurrency());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    write_row(rows[i], false, i + 1 == rows.size());
  }
  std::fprintf(fp, "  ],\n  \"thread_matrix\": [\n");
  for (std::size_t i = 0; i < matrix_rows.size(); ++i) {
    write_row(matrix_rows[i], true, i + 1 == matrix_rows.size());
  }
  std::fprintf(fp, "  ],\n");
  const auto write_map = [&](const char* name,
                             const std::vector<double>& v) {
    std::fprintf(fp, "  \"%s\": {", name);
    for (std::size_t i = 0; i < core_counts.size(); ++i) {
      std::fprintf(fp, "%s\"%u\": %.2f", i ? ", " : "", core_counts[i],
                   v[i]);
    }
    std::fprintf(fp, "}");
  };
  write_map("speedup_frontier_vs_linear", speedup_frontier);
  std::fprintf(fp, ",\n");
  write_map("speedup_parallel_vs_frontier", speedup_parallel);
  // Hot-path memory-discipline series: per-core-count frontier/parallel
  // events_per_sec at this run's host_threads, the packed heap record
  // size every sift moves, and steady-state growth reallocations per
  // million events (tools/check_des_regression.py --profile=hotpath
  // hard-requires all of these).
  std::fprintf(fp, ",\n  \"hotpath\": {\n    \"bytes_per_hot_event\": %u,\n",
               static_cast<unsigned>(
                   sizeof(hwsim::TimedQueue<hwsim::IrqEvent>::Rec)));
  const auto write_hot_map = [&](const char* name,
                                 const std::vector<double>& v, bool last) {
    std::fprintf(fp, "    \"%s\": {", name);
    for (std::size_t i = 0; i < core_counts.size(); ++i) {
      std::fprintf(fp, "%s\"%u\": %.1f", i ? ", " : "", core_counts[i],
                   v[i]);
    }
    std::fprintf(fp, "}%s\n", last ? "" : ",");
  };
  write_hot_map("events_per_sec", hot_eps_frontier, false);
  write_hot_map("events_per_sec_parallel", hot_eps_parallel, false);
  write_hot_map("allocs_per_million_events", hot_allocs, true);
  std::fprintf(fp, "  },\n  \"speedup_threads_vs_1\": {");
  for (std::size_t i = 0; i < matrix_cores.size(); ++i) {
    std::fprintf(fp, "%s\"%u\": {", i ? ", " : "", matrix_cores[i]);
    for (std::size_t j = 1; j < matrix_threads.size(); ++j) {
      std::fprintf(fp, "%s\"%u\": %.2f", j > 1 ? ", " : "",
                   matrix_threads[j], matrix_scaling[i][j - 1]);
    }
    std::fprintf(fp, "}");
  }
  std::fprintf(fp, "},\n  \"parallelism_bound\": {");
  for (std::size_t i = 0; i < matrix_cores.size(); ++i) {
    std::fprintf(fp, "%s\"%u\": %.2f", i ? ", " : "", matrix_cores[i],
                 matrix_bound[i]);
  }
  std::fprintf(fp, "},\n  \"outbox_spills\": {");
  for (std::size_t i = 0; i < matrix_cores.size(); ++i) {
    std::fprintf(fp, "%s\"%u\": %llu", i ? ", " : "", matrix_cores[i],
                 static_cast<unsigned long long>(matrix_spills[i]));
  }
  std::fprintf(fp, "}\n}\n");
  std::fclose(fp);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
