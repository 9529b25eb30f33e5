// Wall-clock win of selectable-fidelity fast-forward on long-horizon
// runs: the fig3 heartbeat workload stretched to benchmark geometry
// (50-cycle spin steps, 100k-cycle beat period — ~2000 inert steps per
// core between consecutive interrupt boundaries), run with skip-ahead
// off and on at 16/64 simulated cores under frontier, linear, and
// parallel scheduling.
//
// Fast-forward is a pure wall-clock knob: both modes of every cell must
// produce the same advances/irqs/end-state digest (asserted here, and
// bit-for-bit over full traces in tests/hwsim/fast_forward_test.cpp —
// this binary re-checks trace equality on a shorter traced run so the
// committed JSON never vouches for digests nobody compared). The JSON
// records per-cell wall times, the skip share (fraction of advances
// replayed analytically), and a `speedup_ff_vs_full` ratio map guarded
// by tools/check_des_regression.py --profile=fastforward.
//
// Usage: fastforward [--smoke] [--out=FILE] [--threads=N]
//   --smoke      ~10x shorter runs (CI artifact mode)
//   --out=FILE   JSON output path (default BENCH_fastforward.json)
//   --threads=N  host worker threads for the parallel series (default 1)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "des_workload.hpp"
#include "harness.hpp"
#include "obs/trace.hpp"

using namespace iw;

namespace {

constexpr Cycles kStep = 50;
constexpr Cycles kPeriod = 100'000;

struct Row {
  unsigned cores{0};
  const char* scheduler{""};
  bool ff{false};
  std::uint64_t advances{0};
  std::uint64_t irqs{0};
  std::uint64_t ff_steps{0};
  Cycles ff_cycles{0};
  std::uint64_t ff_windows{0};
  Cycles sim_time{0};
  double wall_ms{0.0};
  double events_per_sec{0.0};
};

/// Best-of-`repeats` (fresh workload each repeat, minimum wall time
/// wins; the simulated results must be identical across repeats).
Row run_one(unsigned cores, hwsim::SchedulerKind sched, bool ff,
            Cycles sim_cycles, unsigned threads, int repeats) {
  Row r;
  r.cores = cores;
  r.scheduler = bench::Harness::scheduler_name(sched);
  r.ff = ff;
  for (int rep = 0; rep < repeats; ++rep) {
    bench::DesWorkload w =
        bench::make_des_workload(cores, sched, kStep, kPeriod, threads);
    hwsim::FastForwardPolicy pol;
    pol.enabled = ff;
    w.machine->set_fast_forward(pol);
    const auto t0 = std::chrono::steady_clock::now();
    const bool ok = w.machine->run_until(sim_cycles);
    const auto t1 = std::chrono::steady_clock::now();
    if (!ok) {
      std::fprintf(stderr, "fastforward: watchdog fired unexpectedly\n");
      std::exit(1);
    }
    const double wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (rep == 0) {
      r.advances = w.machine->total_advances();
      r.irqs = w.total_irqs();
      r.sim_time = w.machine->now();
      r.ff_steps = w.machine->fast_forwarded_steps();
      r.ff_cycles = w.machine->fast_forwarded_cycles();
      r.ff_windows = w.machine->fast_forward_windows();
      r.wall_ms = wall_ms;
    } else {
      if (r.advances != w.machine->total_advances() ||
          r.irqs != w.total_irqs() || r.sim_time != w.machine->now() ||
          r.ff_steps != w.machine->fast_forwarded_steps()) {
        std::fprintf(stderr, "fastforward: repeat diverged (%s, %u cores)\n",
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

std::uint64_t trace_hash(const obs::TraceRecorder& tr) {
  std::ostringstream os;
  tr.write_text(os);
  const std::string s = os.str();
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Traced equivalence check at a shorter horizon: the committed speedup
/// numbers travel with a digest comparison made by the same binary.
bool traces_identical(unsigned cores, hwsim::SchedulerKind sched,
                      Cycles sim_cycles, unsigned threads) {
  std::uint64_t hashes[2];
  for (const bool ff : {false, true}) {
    bench::DesWorkload w =
        bench::make_des_workload(cores, sched, kStep, kPeriod, threads);
    hwsim::FastForwardPolicy pol;
    pol.enabled = ff;
    w.machine->set_fast_forward(pol);
    obs::TraceRecorder tr;
    w.machine->set_tracer(&tr);
    if (!w.machine->run_until(sim_cycles)) {
      std::fprintf(stderr, "fastforward: traced run hit watchdog\n");
      std::exit(1);
    }
    hashes[ff ? 1 : 0] = trace_hash(tr);
  }
  return hashes[0] == hashes[1];
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out = "BENCH_fastforward.json";
  unsigned threads = 1;
  bench::Harness harness;
  if (!harness.parse(argc, argv, {},
                     {bench::switch_flag("--smoke", &smoke),
                      bench::text_flag("--out", "FILE", &out),
                      bench::count_flag("--threads", &threads, 1,
                                        bench::Harness::kMaxThreads)})) {
    return 2;
  }
  const int repeats = smoke ? 3 : 2;
  const Cycles sim = 20'000'000 / (smoke ? 10 : 1);
  const Cycles sim_traced = sim / 10;

  const std::vector<unsigned> core_counts{16, 64};
  const std::vector<hwsim::SchedulerKind> scheds{
      hwsim::SchedulerKind::kFrontier,
      hwsim::SchedulerKind::kLinearScan,
      hwsim::SchedulerKind::kParallelEpoch,
  };
  std::vector<Row> rows;
  // speedup[s][c]: scheds[s] at core_counts[c], wall_full / wall_ff.
  std::vector<std::vector<double>> speedup(scheds.size());
  bool traces_ok = true;

  std::printf("%-6s %-9s %-5s %12s %10s %12s %10s %12s %8s\n", "cores",
              "sched", "ff", "advances", "irqs", "ff_steps", "wall_ms",
              "events/s", "skip%");
  for (std::size_t s = 0; s < scheds.size(); ++s) {
    for (const unsigned cores : core_counts) {
      const Row full =
          run_one(cores, scheds[s], false, sim, threads, repeats);
      const Row ff = run_one(cores, scheds[s], true, sim, threads, repeats);
      // The digest must not depend on the fidelity mode.
      if (full.advances != ff.advances || full.irqs != ff.irqs ||
          full.sim_time != ff.sim_time) {
        std::fprintf(
            stderr,
            "fastforward: ff digest diverged (%s, %u cores: advances "
            "%llu vs %llu, irqs %llu vs %llu)\n",
            full.scheduler, cores,
            static_cast<unsigned long long>(full.advances),
            static_cast<unsigned long long>(ff.advances),
            static_cast<unsigned long long>(full.irqs),
            static_cast<unsigned long long>(ff.irqs));
        return 1;
      }
      if (full.ff_steps != 0 || ff.ff_steps == 0) {
        std::fprintf(stderr,
                     "fastforward: skip accounting wrong (%s, %u cores)\n",
                     full.scheduler, cores);
        return 1;
      }
      if (!traces_identical(cores, scheds[s], sim_traced, threads)) {
        std::fprintf(stderr,
                     "fastforward: traced runs diverged (%s, %u cores)\n",
                     full.scheduler, cores);
        traces_ok = false;
      }
      for (const Row& r : {full, ff}) {
        const double skip_pct =
            r.advances > 0
                ? 100.0 * static_cast<double>(r.ff_steps) /
                      static_cast<double>(r.advances)
                : 0.0;
        std::printf("%-6u %-9s %-5s %12llu %10llu %12llu %10.1f %12.0f "
                    "%7.1f%%\n",
                    r.cores, r.scheduler, r.ff ? "on" : "off",
                    static_cast<unsigned long long>(r.advances),
                    static_cast<unsigned long long>(r.irqs),
                    static_cast<unsigned long long>(r.ff_steps), r.wall_ms,
                    r.events_per_sec, skip_pct);
        rows.push_back(r);
      }
      const double sp = ff.wall_ms > 0.0 ? full.wall_ms / ff.wall_ms : 0.0;
      speedup[s].push_back(sp);
      std::printf("%-6u %-9s speedup ff/full %.2fx\n", cores,
                  full.scheduler, sp);
    }
  }
  if (!traces_ok) return 1;

  std::FILE* fp = std::fopen(out.c_str(), "w");
  if (fp == nullptr) {
    std::fprintf(stderr, "fastforward: cannot write %s\n", out.c_str());
    return 1;
  }
  std::fprintf(fp,
               "{\n  \"bench\": \"fastforward\",\n"
               "  \"workload\": \"ipi+lapic heartbeat broadcast, %llu-cycle "
               "spin steps, %lluk-cycle period, %llu-cycle horizon\",\n"
               "  \"smoke\": %s,\n  \"host_threads\": %u,\n"
               "  \"host_cpus\": %u,\n  \"traces_identical\": true,\n"
               "  \"results\": [\n",
               static_cast<unsigned long long>(kStep),
               static_cast<unsigned long long>(kPeriod / 1'000),
               static_cast<unsigned long long>(sim), smoke ? "true" : "false",
               threads, std::thread::hardware_concurrency());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        fp,
        "    {\"cores\": %u, \"scheduler\": \"%s\", \"ff\": %s, "
        "\"advances\": %llu, \"irqs\": %llu, \"ff_steps\": %llu, "
        "\"ff_cycles\": %llu, \"ff_windows\": %llu, \"sim_cycles\": %llu, "
        "\"wall_ms\": %.2f, \"events_per_sec\": %.0f}%s\n",
        r.cores, r.scheduler, r.ff ? "true" : "false",
        static_cast<unsigned long long>(r.advances),
        static_cast<unsigned long long>(r.irqs),
        static_cast<unsigned long long>(r.ff_steps),
        static_cast<unsigned long long>(r.ff_cycles),
        static_cast<unsigned long long>(r.ff_windows),
        static_cast<unsigned long long>(r.sim_time), r.wall_ms,
        r.events_per_sec, i + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(fp, "  ],\n  \"speedup_ff_vs_full\": {");
  for (std::size_t s = 0; s < scheds.size(); ++s) {
    std::fprintf(fp, "%s\"%s\": {", s ? ", " : "",
                 bench::Harness::scheduler_name(scheds[s]));
    for (std::size_t c = 0; c < core_counts.size(); ++c) {
      std::fprintf(fp, "%s\"%u\": %.2f", c ? ", " : "", core_counts[c],
                   speedup[s][c]);
    }
    std::fprintf(fp, "}");
  }
  std::fprintf(fp, "}\n}\n");
  std::fclose(fp);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
