// Scenario specs and per-run results for the scenario server.
//
// A scenario is one cell of an experiment matrix: an execution strategy
// (scheduler × threads × ff) crossed with a fault environment
// (FaultPlan × fault_seed) over a fixed workload and machine shape. The
// workload and shape are pinned by the batch's warmed snapshot (see
// server.hpp): every run hydrates the same v2 image into a fresh
// Machine and diverges only through the installed fault plan — so two
// cells with the same (plan, fault_seed) but different execution
// strategies MUST produce the same digest, and the `group` field names
// that equivalence class for the results store to check.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "hwsim/fault_plan.hpp"
#include "hwsim/machine.hpp"

namespace iw::scenarioserver {

/// One cell of the matrix. Everything here is per-run divergence; the
/// machine shape (cores, seed, costs) and the workload come from the
/// batch's warmed snapshot and are NOT per-spec.
struct ScenarioSpec {
  /// Dense submission index; results are re-sorted by id so the output
  /// order is worker-count-independent.
  std::uint64_t id{0};
  /// Digest-equivalence class: runs with equal `group` must digest
  /// equal (same plan + fault_seed under different execution
  /// strategies).
  std::uint64_t group{0};
  /// Human-readable cell label carried into the JSONL record.
  std::string label;

  /// kParallelEpoch runs one shard per core: at one host thread the
  /// fastest engine for the heartbeat workloads, whose supervisor core
  /// is declared serial. A batch whose workload posts across cores
  /// outside the IPI fabric from a core that is not declared serial
  /// must ask for kFrontier.
  hwsim::SchedulerKind scheduler{hwsim::SchedulerKind::kParallelEpoch};
  unsigned threads{1};
  bool fast_forward{false};

  /// Installed AFTER hydration (Machine::install_fault_plan) — the
  /// divergence point of the run.
  hwsim::FaultPlan plan;
  std::uint64_t fault_seed{0};

  /// run_until target (absolute virtual time; must be past the warmed
  /// snapshot's capture time).
  Cycles horizon{0};
};

/// Deterministic per-run outcome. Wall-clock cost is tracked at batch
/// level (scenarios_per_sec), never per record, so the records are
/// byte-identical however many workers raced through the queue.
struct ScenarioResult {
  std::uint64_t id{0};
  std::uint64_t group{0};
  std::uint64_t digest{0};
  Cycles at{0};
  /// (name, value) pairs collected from the harness, in a fixed order.
  std::vector<std::pair<std::string, double>> metrics;
};

/// Per-run binding of the batch workload to a fresh machine. The
/// factory runs BEFORE hydration — its constructor must register the
/// exact participant/sink/timer sequence the donor registered, in the
/// same order — and collect() runs after the horizon.
class ScenarioHarness {
 public:
  virtual ~ScenarioHarness() = default;
  /// Append deterministic workload metrics for the JSONL record.
  virtual void collect(std::vector<std::pair<std::string, double>>& out) {
    (void)out;
  }
};

using HarnessFactory =
    std::function<std::unique_ptr<ScenarioHarness>(hwsim::Machine&)>;

[[nodiscard]] inline const char* scheduler_name(hwsim::SchedulerKind k) {
  switch (k) {
    case hwsim::SchedulerKind::kFrontier: return "frontier";
    case hwsim::SchedulerKind::kLinearScan: return "linear_scan";
    case hwsim::SchedulerKind::kParallelEpoch: return "parallel_epoch";
  }
  return "unknown";
}

}  // namespace iw::scenarioserver
