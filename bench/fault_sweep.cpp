// Fault sweep: heartbeat beat-gap inflation vs injected IPI loss.
//
// Sweeps FaultPlan drop-rate x extra-delay over the Nautilus heartbeat
// (16 cores, fig3 pattern: LAPIC on CPU 0, IPI fan-out, busy workers)
// with the fault-tolerance supervisor enabled, and reports the beat-gap
// distribution (p50/p99/mean, from the heartbeat.beat_gap histogram)
// plus the recovery machinery's counters. The headline acceptance
// number: at 10% IPI drop the backend degrades to software-polled
// delivery and keeps p99 beat gap under 3x the fault-free p99.
//
// The main sweep runs with ReliableIpi retries OFF so persistent loss
// actually reaches the degradation logic; a second set of rows turns
// retries on to show the layered defense (retries absorb isolated
// drops so degradation never becomes necessary).
//
// The sweep has two tiers. The classic tier (15 rows) keeps the
// histogram-grade acceptance: full beat-gap distributions per (drop,
// delay) cell with the recovery counters. The matrix tier is the first
// scenario-server customer: drop x delay x dup x seed (1080 cells)
// over the heartbeat replay workload, every cell hydrated from ONE
// warmed snapshot-v2 image and diverging only through its installed
// fault plan. The matrix runs twice — one worker, then a pool — and
// the results must be byte-identical (digests_worker_count_invariant);
// pool throughput lands in the JSON as scenarios_per_sec with the
// host-speed-cancelling ratio speedup_workers_vs_1 for the CI guard
// (check_des_regression.py --profile=scenarios).
//
// Usage: fault_sweep [--smoke] [--jobs=N] [--out=FILE]
//   --smoke     ~10x shorter runs (CI artifact mode)
//   --jobs=N    worker pool size for the scenario matrix (default:
//               min(4, hardware threads); the 1-worker reference pass
//               always runs for the invariance check)
//   --out=FILE  JSON output path (default BENCH_fault_sweep.json)
#include <cstdio>
#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "des_workload.hpp"
#include "harness.hpp"
#include "heartbeat/delivery.hpp"
#include "hwsim/snapshot.hpp"
#include "obs/metrics.hpp"
#include "scenarioserver/server.hpp"
#include "workloads/spin_driver.hpp"

#include "../tools/replay_workload.hpp"

using namespace iw;

namespace {

constexpr unsigned kCores = 16;
constexpr int kVector = 0x40;

struct Row {
  const char* mode{"sweep"};  // "sweep" (retry off) or "retry" (on)
  double drop{0.0};
  double delay_rate{0.0};
  Cycles delay_max{0};
  std::uint64_t gaps{0};
  std::uint64_t p50{0};
  std::uint64_t p99{0};
  double mean{0.0};
  std::uint64_t ipis_dropped{0};
  std::uint64_t retries{0};
  std::uint64_t missed{0};
  std::uint64_t polled{0};
  std::uint64_t degraded_entries{0};
  std::uint64_t recoveries{0};
  bool degraded_final{false};
};

Row run_one(double drop, double delay_rate, Cycles delay_max, bool retry,
            std::uint64_t rounds) {
  hwsim::MachineConfig mc;
  mc.num_cores = kCores;
  mc.costs = hwsim::CostModel::knl();
  mc.max_advances = 2'000'000'000ULL;
  mc.faults.enabled = drop > 0.0 || delay_rate > 0.0;
  mc.faults.ipi_drop_rate = drop;
  mc.faults.ipi_delay_rate = delay_rate;
  mc.faults.ipi_delay_max = delay_max;
  hwsim::Machine m(mc);

  // Fresh registry per configuration: the beat_gap histogram must only
  // see this run's gaps.
  obs::MetricsRegistry mx;
  m.set_metrics(&mx);

  workloads::SpinDriver driver(200);
  for (unsigned c = 0; c < kCores; ++c) m.core(c).set_driver(&driver);

  const Cycles period = mc.costs.freq.us_to_cycles(20.0);
  heartbeat::NautilusHeartbeat hb(m, kVector);
  heartbeat::FaultToleranceConfig ft;
  ft.enabled = true;
  ft.ipi_retry = retry;
  // One extra clean round before recovering: at 10% drop a 3-round clean
  // streak still happens by chance every few hundred rounds, and each
  // spurious recovery costs a few lossy interrupt-driven rounds.
  ft.recover_after = 4;
  hb.set_fault_tolerance(ft);
  hb.start(period, kCores);

  if (!m.run_until(rounds * period)) {
    std::fprintf(stderr, "fault_sweep: machine watchdog fired\n");
    std::exit(1);
  }
  hb.stop();

  Row r;
  r.mode = retry ? "retry" : "sweep";
  r.drop = drop;
  r.delay_rate = delay_rate;
  r.delay_max = delay_max;
  const auto& h = mx.histogram(obs::names::kHeartbeatBeatGap);
  r.gaps = h.count();
  r.p50 = h.value_at_percentile(50.0);
  r.p99 = h.value_at_percentile(99.0);
  r.mean = h.mean();
  r.ipis_dropped = mx.counter(obs::names::kFaultsIpiDropped);
  r.retries = mx.counter(obs::names::kFaultsIpiRetries);
  r.missed = hb.missed_beats();
  r.polled = hb.polled_beats();
  r.degraded_entries = hb.degraded_entries();
  r.recoveries = hb.recoveries();
  r.degraded_final = hb.degraded();
  return r;
}

void print_row(const Row& r, double baseline_p99) {
  const double infl =
      baseline_p99 > 0.0 ? static_cast<double>(r.p99) / baseline_p99 : 0.0;
  std::printf(
      "%-6s %5.2f %5.2f %7llu %8llu %8llu %8llu %6.2fx %7llu %7llu %5llu "
      "%4llu %4llu %s\n",
      r.mode, r.drop, r.delay_rate,
      static_cast<unsigned long long>(r.delay_max),
      static_cast<unsigned long long>(r.gaps),
      static_cast<unsigned long long>(r.p50),
      static_cast<unsigned long long>(r.p99), infl,
      static_cast<unsigned long long>(r.ipis_dropped),
      static_cast<unsigned long long>(r.polled),
      static_cast<unsigned long long>(r.missed),
      static_cast<unsigned long long>(r.degraded_entries),
      static_cast<unsigned long long>(r.recoveries),
      r.degraded_final ? "degraded" : "ipi");
}

// --- scenario-server matrix tier -----------------------------------------

class MatrixHarness final : public scenarioserver::ScenarioHarness {
 public:
  MatrixHarness(hwsim::Machine& m, Cycles period)
      : workload_(m, period, /*fault_tolerant=*/true) {}
  void collect(std::vector<std::pair<std::string, double>>& out) override {
    out.emplace_back("max_gap_periods", workload_.max_gap_periods());
    out.emplace_back(
        "polled_beats",
        static_cast<double>(workload_.heartbeat().polled_beats()));
  }

 private:
  tools::ReplayWorkload workload_;
};

struct MatrixOutcome {
  std::size_t cells{0};
  unsigned workers{0};
  double serial_rate{0.0};
  double pooled_rate{0.0};
  bool invariant{false};
  std::size_t distinct_digests{0};
};

MatrixOutcome run_matrix(bool smoke, unsigned jobs) {
  // Small machine, short divergent window: the point of this tier is
  // cell COUNT (1080 fault environments), not per-cell depth — the
  // histogram-grade depth lives in the classic tier above.
  scenarioserver::ScenarioBatch batch;
  batch.base.num_cores = 4;
  batch.base.seed = 42;
  batch.base.max_advances = 4'000'000'000ULL;
  const Cycles period = batch.base.costs.freq.us_to_cycles(20.0);
  const Cycles warm = 20 * period;
  const Cycles horizon = warm + (smoke ? 30 : 60) * period;
  {
    hwsim::Machine donor(batch.base);
    tools::ReplayWorkload w(donor, period, /*fault_tolerant=*/true);
    if (!donor.run_until(warm)) {
      std::fprintf(stderr, "fault_sweep: matrix donor hit a limit\n");
      std::exit(1);
    }
    batch.image = donor.snapshot().serialize();
  }
  batch.factory = [period](hwsim::Machine& m) {
    return std::make_unique<MatrixHarness>(m, period);
  };

  const double drops[] = {0.0, 0.01, 0.05, 0.10, 0.20};
  const Cycles delays[] = {0, 7'000, 14'000};
  const double dups[] = {0.0, 0.05, 0.10};
  constexpr std::uint64_t kSeeds = 24;

  std::vector<scenarioserver::ScenarioSpec> specs;
  std::uint64_t id = 0;
  for (const double drop : drops) {
    for (const Cycles delay_max : delays) {
      for (const double dup : dups) {
        for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
          scenarioserver::ScenarioSpec s;
          s.id = id;
          s.group = id;  // one strategy per cell: every cell its own class
          ++id;
          char label[96];
          std::snprintf(label, sizeof label, "drop%g/dly%llu/dup%g/s%llu",
                        drop, static_cast<unsigned long long>(delay_max),
                        dup, static_cast<unsigned long long>(seed));
          s.label = label;
          s.plan.enabled = drop > 0.0 || delay_max > 0 || dup > 0.0;
          s.plan.ipi_drop_rate = drop;
          s.plan.ipi_delay_rate = delay_max > 0 ? 0.25 : 0.0;
          s.plan.ipi_delay_max = delay_max;
          s.plan.ipi_dup_rate = dup;
          s.fault_seed = 0xBEEF + seed;
          s.horizon = horizon;
          specs.push_back(std::move(s));
        }
      }
    }
  }

  MatrixOutcome mo;
  mo.cells = specs.size();
  if (jobs != 0) {
    mo.workers = jobs;
  } else {
    const unsigned hw = std::thread::hardware_concurrency();
    mo.workers = hw >= 4 ? 4 : (hw >= 2 ? hw : 2);
  }

  scenarioserver::ScenarioServer serial(
      scenarioserver::ScenarioServerConfig{1});
  scenarioserver::ScenarioServer pooled(
      scenarioserver::ScenarioServerConfig{mo.workers});
  std::vector<scenarioserver::ScenarioSpec> specs2 = specs;
  scenarioserver::ResultsStore rs1 = serial.run(batch, std::move(specs));
  scenarioserver::ResultsStore rs2 = pooled.run(batch, std::move(specs2));
  mo.serial_rate = serial.scenarios_per_sec();
  mo.pooled_rate = pooled.scenarios_per_sec();

  std::ostringstream o1, o2;
  rs1.write_jsonl(o1);
  rs2.write_jsonl(o2);
  mo.invariant = o1.str() == o2.str();

  std::set<std::uint64_t> digests;
  for (const auto& e : rs2.entries()) digests.insert(e.digest);
  mo.distinct_digests = digests.size();
  return mo;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  unsigned jobs = 0;
  std::string out = "BENCH_fault_sweep.json";
  bench::Harness harness;
  if (!harness.parse(argc, argv, {},
                     {bench::switch_flag("--smoke", &smoke),
                      bench::count_flag("--jobs", &jobs, 1, 1024),
                      bench::text_flag("--out", "FILE", &out)})) {
    return 2;
  }
  const std::uint64_t rounds = smoke ? 300 : 3'000;

  const std::vector<double> drops{0.0, 0.01, 0.05, 0.10, 0.20};
  const std::vector<Cycles> delays{0, 7'000, 14'000};

  std::printf("== fault_sweep: beat-gap vs IPI loss (16 cores, %llu "
              "rounds, 20us period) ==\n",
              static_cast<unsigned long long>(rounds));
  std::printf("%-6s %5s %5s %7s %8s %8s %8s %7s %7s %7s %5s %4s %4s %s\n",
              "mode", "drop", "dly_p", "dly_max", "gaps", "p50", "p99",
              "infl", "dropped", "polled", "miss", "deg", "rec", "final");

  std::vector<Row> rows;
  double baseline_p99 = 0.0;
  for (const Cycles delay_max : delays) {
    const double delay_rate = delay_max > 0 ? 0.25 : 0.0;
    for (const double drop : drops) {
      Row r = run_one(drop, delay_rate, delay_max, /*retry=*/false, rounds);
      if (drop == 0.0 && delay_max == 0) {
        baseline_p99 = static_cast<double>(r.p99);
      }
      print_row(r, baseline_p99);
      rows.push_back(r);
    }
  }
  // Layered defense: same loss rates with bounded-backoff retries on.
  for (const double drop : {0.01, 0.10}) {
    Row r = run_one(drop, 0.0, 0, /*retry=*/true, rounds);
    print_row(r, baseline_p99);
    rows.push_back(r);
  }

  // Acceptance: 10% drop (no delay, retry off) must have degraded and
  // kept p99 under 3x the fault-free p99.
  const Row* ten = nullptr;
  for (const Row& r : rows) {
    if (std::strcmp(r.mode, "sweep") == 0 && r.drop == 0.10 &&
        r.delay_max == 0) {
      ten = &r;
    }
  }
  if (ten == nullptr || baseline_p99 <= 0.0) {
    std::fprintf(stderr, "fault_sweep: missing acceptance rows\n");
    return 1;
  }
  const double infl10 = static_cast<double>(ten->p99) / baseline_p99;
  const bool accept =
      ten->degraded_entries >= 1 && ten->polled > 0 && infl10 < 3.0;

  const MatrixOutcome mo = run_matrix(smoke, jobs);
  const double workers_vs_1 =
      mo.serial_rate > 0.0 ? mo.pooled_rate / mo.serial_rate : 0.0;
  std::printf("\nscenario matrix: %zu cells (drop x delay x dup x seed), "
              "%u workers\n",
              mo.cells, mo.workers);
  std::printf("  scenarios_per_sec: %.1f (1 worker: %.1f, x%.2f)\n",
              mo.pooled_rate, mo.serial_rate, workers_vs_1);
  std::printf("  worker-count invariant: %s; %zu distinct digests\n",
              mo.invariant ? "yes" : "NO",
              mo.distinct_digests);
  std::printf("\nacceptance: 10%% drop -> degraded=%llu polled=%llu "
              "p99_inflation=%.2fx (< 3x required): %s\n",
              static_cast<unsigned long long>(ten->degraded_entries),
              static_cast<unsigned long long>(ten->polled), infl10,
              accept ? "PASS" : "FAIL");

  std::FILE* fp = std::fopen(out.c_str(), "w");
  if (fp == nullptr) {
    std::fprintf(stderr, "fault_sweep: cannot write %s\n", out.c_str());
    return 1;
  }
  std::fprintf(fp,
               "{\n  \"bench\": \"fault_sweep\",\n"
               "  \"workload\": \"nautilus heartbeat, 16 cores, 20us "
               "period, busy 200-cycle spin steps; FaultPlan drop x "
               "delay on the IPI fabric\",\n"
               "  \"smoke\": %s,\n  \"rounds\": %llu,\n"
               "  \"host_cpus\": %u,\n"
               "  \"scenarios_cells\": %zu,\n"
               "  \"scenarios_workers\": %u,\n"
               "  \"scenarios_per_sec\": %.1f,\n"
               "  \"speedup_workers_vs_1\": {\"%u\": %.3f},\n"
               "  \"digests_worker_count_invariant\": %s,\n"
               "  \"scenario_distinct_digests\": %zu,\n"
               "  \"baseline_p99_cycles\": %.0f,\n  \"results\": [\n",
               smoke ? "true" : "false",
               static_cast<unsigned long long>(rounds),
               std::thread::hardware_concurrency(), mo.cells, mo.workers,
               mo.pooled_rate, mo.workers, workers_vs_1,
               mo.invariant ? "true" : "false", mo.distinct_digests,
               baseline_p99);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const double infl = baseline_p99 > 0.0
                            ? static_cast<double>(r.p99) / baseline_p99
                            : 0.0;
    std::fprintf(
        fp,
        "    {\"mode\": \"%s\", \"drop\": %.2f, \"delay_rate\": %.2f, "
        "\"delay_max\": %llu, \"gaps\": %llu, \"p50\": %llu, \"p99\": "
        "%llu, \"mean\": %.1f, \"p99_inflation\": %.3f, \"ipis_dropped\": "
        "%llu, \"ipi_retries\": %llu, \"missed_beats\": %llu, "
        "\"polled_beats\": %llu, \"degraded_entries\": %llu, "
        "\"recoveries\": %llu, \"degraded_final\": %s}%s\n",
        r.mode, r.drop, r.delay_rate,
        static_cast<unsigned long long>(r.delay_max),
        static_cast<unsigned long long>(r.gaps),
        static_cast<unsigned long long>(r.p50),
        static_cast<unsigned long long>(r.p99), r.mean, infl,
        static_cast<unsigned long long>(r.ipis_dropped),
        static_cast<unsigned long long>(r.retries),
        static_cast<unsigned long long>(r.missed),
        static_cast<unsigned long long>(r.polled),
        static_cast<unsigned long long>(r.degraded_entries),
        static_cast<unsigned long long>(r.recoveries),
        r.degraded_final ? "true" : "false",
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(fp,
               "  ],\n  \"acceptance\": {\"drop10_p99_inflation\": %.3f, "
               "\"drop10_degraded\": %s, \"pass\": %s}\n}\n",
               infl10, ten->degraded_entries >= 1 ? "true" : "false",
               accept ? "true" : "false");
  std::fclose(fp);
  std::printf("wrote %s\n", out.c_str());
  return accept && mo.invariant ? 0 : 1;
}
