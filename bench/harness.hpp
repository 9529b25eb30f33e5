// The shared bench harness: every fig*/tab_* bench and every tool
// declares the command-line flags it reads, and parse() accepts exactly
// those.
//
// Shared flags (a binary names the ones it reads, `bench::Shared`):
//   --trace=FILE         Chrome trace of every attached run
//   --metrics-json=FILE  metrics registry dump at exit
//   --faults=SPEC        deterministic fault plan (fault_plan.hpp grammar)
//   --fault-seed=N       explicit fault-stream seed (0 = derive)
//   --seed=N             experiment seed (machines + analytic substrates)
//   --scheduler=NAME     DES scheduler: frontier | linear | parallel;
//                        parallel is the per-core epoch engine, which the
//                        Nautilus, Linux, OpenMP and coherence layers
//                        refuse by name
//   --threads=N          host worker threads for --scheduler=parallel
//   --ff=on|off          selectable-fidelity fast-forward: analytic
//                        skip-ahead over proven-quiet windows (default
//                        off; results are bit-identical either way —
//                        this is purely a wall-clock knob)
//
// A binary's own flags are `Option`s: a count with bounds, a string, a
// switch, or a value read by a named strict parser. Anything else is a
// usage error that names the argument: an unknown flag, a shared flag
// the binary does not read, a malformed or out-of-range value, a value
// flag given without a value, a switch given one. parse() then prints
// the usage line built from the declaration and returns false, and the
// binary exits 2 before it runs or writes anything.
//
// With no flags the benches run with null sinks, no faults, and their
// built-in seeds — the default-off path the determinism guarantees are
// stated against.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "hwsim/fault_plan.hpp"
#include "hwsim/machine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "substrate/substrate.hpp"

namespace iw::bench {

/// The flags the harness itself reads, in the header comment's order.
enum Shared {
  kTrace, kMetricsJson, kFaults, kFaultSeed, kSeed, kScheduler, kThreads,
  kFastForward
};

/// One declared flag: `--NAME=VALUE`, or a bare `--NAME` switch when
/// `value` is empty.
struct Option {
  std::string name;   ///< "--cores"
  std::string value;  ///< usage placeholder ("N", "FILE", "A:B")
  /// Store a well-formed value and return true; on a malformed one
  /// return false and say what was expected in *why.
  std::function<bool(const char* value, std::string* why)> set;
};

class Harness {
 public:
  /// Largest --threads a binary accepts.
  static constexpr std::uint64_t kMaxThreads = 4096;

  /// Parse argv[1..argc) against the declaration: the shared flags
  /// named in `shared` plus the binary's `own`. Returns false after
  /// printing "<argument>: <why>" and the usage line on any argument
  /// the declaration does not accept.
  bool parse(int argc, char** argv, std::initializer_list<Shared> shared,
             std::vector<Option> own = {});

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

  /// Attach the requested sinks to an analytic substrate: the tab_*
  /// benches' path onto the shared fabric.
  void attach(substrate::AnalyticSubstrate& sub, const std::string& label);

  /// Install on a machine config what the given flags set (fault plan,
  /// fault seed, seed, scheduler, threads, fast-forward); every field
  /// no flag set keeps the bench's value.
  void apply(hwsim::MachineConfig& mc) const;

  /// Experiment seed: --seed=N, else `fallback` (the bench's default).
  [[nodiscard]] std::uint64_t seed(std::uint64_t fallback = 42) const {
    return seed_.value_or(fallback);
  }

  [[nodiscard]] bool faults_enabled() const { return plan_.has_value(); }

  /// --scheduler=NAME, else `fallback` (the bench's default).
  [[nodiscard]] hwsim::SchedulerKind scheduler(
      hwsim::SchedulerKind fallback) const {
    return scheduler_.value_or(fallback);
  }

  /// Strict unsigned parse shared by every count flag: rejects empty
  /// values, signs, and trailing garbage (strtoul would silently wrap
  /// "-2" and stop at the first non-digit).
  static bool parse_count(const char* s, std::uint64_t* out);

  /// Strict finite real: rejects empty values, trailing garbage,
  /// infinities and NaN.
  static bool parse_real(const char* s, double* out);

  /// Parse a scheduler name ("frontier" | "linear" | "parallel");
  /// returns false on anything else.
  static bool parse_scheduler(const char* name, hwsim::SchedulerKind* out);
  [[nodiscard]] static const char* scheduler_name(hwsim::SchedulerKind k);

  /// Write any requested output files; call once before exit.
  /// Returns false if a write failed.
  bool finish();

 private:
  Option shared_option(Shared s);

  std::string trace_path_;
  std::string metrics_path_;
  obs::TraceRecorder tracer_;
  obs::MetricsRegistry metrics_;

  // Each holds a value only if its flag was given.
  std::optional<hwsim::FaultPlan> plan_;
  std::optional<std::uint64_t> fault_seed_;
  std::optional<std::uint64_t> seed_;
  std::optional<hwsim::SchedulerKind> scheduler_;
  std::optional<unsigned> threads_;
  std::optional<bool> ff_;
};

/// What a count flag with bounds [lo, hi] expects, for its diagnostic.
std::string count_expectation(std::uint64_t lo, std::uint64_t hi);

/// --NAME=N, an integer in [lo, hi], stored into *out.
template <class T>
Option count_flag(const char* name, T* out, std::uint64_t lo = 0,
                  std::uint64_t hi = ~std::uint64_t{0}) {
  return {name, "N", [=](const char* s, std::string* why) {
            std::uint64_t v = 0;
            if (Harness::parse_count(s, &v) && v >= lo && v <= hi) {
              *out = static_cast<T>(v);
              return true;
            }
            *why = count_expectation(lo, hi);
            return false;
          }};
}

/// --NAME=VALUE, stored as given (an output path, for instance).
Option text_flag(const char* name, const char* value, std::string* out);

/// Bare --NAME: stores `on` into *out.
Option switch_flag(const char* name, bool* out, bool on = true);

/// --NAME=VALUE read by `parse`, a strict parser that returns false on
/// malformed input; the result is stored into *out. `expect` says what
/// a well-formed value is, for the diagnostic.
template <class T, class U>
Option parsed_flag(const char* name, const char* value, const char* expect,
                   bool (*parse)(const char*, T*), U* out) {
  return {name, value, [=](const char* s, std::string* why) {
            T v{};
            if (parse(s, &v)) {
              *out = v;
              return true;
            }
            *why = std::string("expected ") + expect;
            return false;
          }};
}

}  // namespace iw::bench
