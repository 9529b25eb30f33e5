// The shared bench harness: one flag surface for every fig*/tab_*
// binary. Replaces the old header-only obs_flags.hpp.
//
//   --trace=FILE         Chrome trace of every attached run
//   --metrics-json=FILE  metrics registry dump at exit
//   --faults=SPEC        deterministic fault plan (fault_plan.hpp grammar)
//   --fault-seed=N       explicit fault-stream seed (0 = derive)
//   --seed=N             experiment seed (machines + analytic substrates)
//   --scheduler=NAME     DES scheduler: frontier | linear | parallel
//                        (unknown names are a usage error); parallel
//                        is the per-core epoch engine, which the
//                        Nautilus, Linux, OpenMP and coherence layers
//                        refuse by name
//   --threads=N          host worker threads for --scheduler=parallel
//   --ff=on|off          selectable-fidelity fast-forward: analytic
//                        skip-ahead over proven-quiet windows (default
//                        off; results are bit-identical either way —
//                        this is purely a wall-clock knob)
//   --checkpoint-every=N capture a deterministic snapshot every N cycles
//                        into a checkpoint list (tools/ttreplay,
//                        tools/fault_bisect; omit the flag for off —
//                        an explicit =0 is a usage error)
//   --jobs=N             host worker pool size for batch consumers
//                        (the scenario-server matrix tier; 0/unset =
//                        the bench's own default)
//
// Every numeric flag is strictly validated: empty values, trailing
// garbage, and signs are usage errors with a diagnostic, never
// silently-wrapped garbage (strtoul happily wraps "-2" to 4e9).
//
// With no flags the benches run with null sinks, no faults, and their
// built-in seeds — the default-off path the determinism guarantees are
// stated against. All flags compose: a bench that attaches its machines
// and substrates through the harness gets the full surface for free.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "hwsim/fault_plan.hpp"
#include "hwsim/machine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "substrate/substrate.hpp"

namespace iw::bench {

class Harness {
 public:
  /// Consume the harness flags from argv (other arguments are ignored
  /// so benches can keep their own). Returns false and prints a
  /// diagnostic on a malformed flag.
  bool parse(int argc, char** argv);

  // --- observability sinks (null unless the matching flag was given) ---
  [[nodiscard]] obs::TraceRecorder* tracer() {
    return trace_path_.empty() ? nullptr : &tracer_;
  }
  [[nodiscard]] obs::MetricsRegistry* metrics() {
    return metrics_path_.empty() ? nullptr : &metrics_;
  }

  /// Mark the start of a logical run (one Chrome-trace process per
  /// call). No-op unless tracing was requested.
  void begin_run(const std::string& label);

  /// Attach the requested sinks to a machine about to run.
  void attach(hwsim::Machine& m, const std::string& label);

  /// Attach sinks (and the parsed fault plan, if any) to an analytic
  /// substrate: the tab_* benches' path onto the shared fabric.
  void attach(substrate::AnalyticSubstrate& sub, const std::string& label);

  // --- config plumbing ---
  /// Install the fault plan, fault seed, and (only if --seed was given)
  /// the experiment seed on a machine config.
  void apply(hwsim::MachineConfig& mc) const;

  /// Experiment seed: --seed=N, else `fallback` (the bench's default).
  [[nodiscard]] std::uint64_t seed(std::uint64_t fallback = 42) const {
    return seed_set_ ? seed_ : fallback;
  }
  [[nodiscard]] bool seed_overridden() const { return seed_set_; }

  [[nodiscard]] bool faults_enabled() const { return plan_.enabled; }
  [[nodiscard]] const hwsim::FaultPlan& fault_plan() const { return plan_; }

  /// --scheduler=NAME, else `fallback` (the bench's default).
  [[nodiscard]] hwsim::SchedulerKind scheduler(
      hwsim::SchedulerKind fallback) const {
    return scheduler_set_ ? scheduler_ : fallback;
  }
  [[nodiscard]] bool scheduler_overridden() const { return scheduler_set_; }
  [[nodiscard]] unsigned threads() const { return threads_; }
  [[nodiscard]] bool fast_forward() const { return ff_; }
  /// --checkpoint-every=N snapshot cadence in cycles (0 = disabled).
  [[nodiscard]] std::uint64_t checkpoint_every() const {
    return checkpoint_every_;
  }
  /// --jobs=N host worker pool size, else `fallback`.
  [[nodiscard]] unsigned jobs(unsigned fallback = 0) const {
    return jobs_set_ ? jobs_ : fallback;
  }

  /// Strict unsigned parse shared by every numeric flag: rejects empty
  /// values, signs, and trailing garbage (strtoul would silently wrap
  /// "-2" and stop at the first non-digit). Benches with their own
  /// numeric flags should use this instead of raw strtoul.
  static bool parse_count(const char* s, std::uint64_t* out);

  /// Parse a scheduler name ("frontier" | "linear" | "parallel");
  /// returns false on anything else. Shared by every bench
  /// that takes scheduler names positionally.
  static bool parse_scheduler(const char* name, hwsim::SchedulerKind* out);
  [[nodiscard]] static const char* scheduler_name(hwsim::SchedulerKind k);

  /// For a bench whose machines cannot honour some harness flags: if
  /// any of `flags` (names such as "--ff") was given, print
  /// "<flag>: <why>" and return false, which the bench turns into exit
  /// status 2, as for a malformed flag.
  [[nodiscard]] bool refuse(std::initializer_list<const char*> flags,
                            const char* why) const;

  /// Write any requested output files; call once before exit.
  /// Returns false if a write failed.
  bool finish();

 private:
  std::string trace_path_;
  std::string metrics_path_;
  obs::TraceRecorder tracer_;
  obs::MetricsRegistry metrics_;

  hwsim::FaultPlan plan_;
  std::uint64_t fault_seed_{0};
  /// The injector handed to analytic substrates (machines own theirs).
  hwsim::FaultInjector analytic_faults_;

  std::uint64_t seed_{42};
  bool seed_set_{false};

  hwsim::SchedulerKind scheduler_{hwsim::SchedulerKind::kFrontier};
  bool scheduler_set_{false};
  unsigned threads_{1};
  bool ff_{false};
  std::uint64_t checkpoint_every_{0};
  unsigned jobs_{0};
  bool jobs_set_{false};
  /// The name part ("--faults", ...) of every NAME=VALUE argument
  /// parse() saw.
  std::vector<std::string> given_;
};

}  // namespace iw::bench
