// Shared pieces of the perfbench driver: options, the per-run report,
// result checking against pinned or oracle results, and the span
// recorder used by traced runs.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace pb {

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  /// Toy-size runs for the self-test: shrinks every workload's fixed
  /// work (cores, cells, items, iterations) so a run takes seconds.
  bool toy{false};
  /// Pinned results to check against (empty: run the second-scheduler
  /// oracle instead).
  std::string expect_path;
  /// Write the first pass's results here (pin generation).
  std::string write_expect_path;
  /// Chrome trace_event file for the traced run's spans.
  std::string spans_path;
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One run's outcome: every operation's result string is checked here,
/// and the metrics map is what main() prints.
class Report {
 public:
  /// Expected results by op id. Empty when no pins were given.
  void load_expect(const std::string& path);
  [[nodiscard]] bool pinned() const { return !expect_.empty(); }

  /// Record one executed operation. Its result must equal `reference`
  /// if one is given (an oracle run), else the pinned value for `id` if
  /// pins are loaded, else the first result recorded for `id` in this
  /// run. Returns whether the operation passed.
  bool check(const std::string& id, const std::string& result,
             const std::string* reference = nullptr);
  /// An operation that could not produce a result (machine-limit stop).
  void fail(const std::string& id, const std::string& why);

  void metric(const std::string& name, double value, const char* unit) {
    metrics_[name] = {value, unit};
  }

  void write_first_results(const std::string& path) const;

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::map<std::string, std::pair<double, const char*>>&
  metrics() const {
    return metrics_;
  }

 private:
  std::map<std::string, std::string> expect_;
  std::map<std::string, std::string> first_;
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, const char*>> metrics_;
  std::uint64_t attempted_{0};
  std::uint64_t failed_{0};
  unsigned reported_{0};
};

/// Percentile by nearest rank over a copy of `v` (q in [0, 100]).
[[nodiscard]] double percentile(std::vector<double> v, double q);
[[nodiscard]] double median(std::vector<double> v);

/// Peak resident set of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Hand the heap's free memory back to the OS. Called before each set-up
/// repetition, so that every repetition faults its memory in, as the one
/// set-up of a fresh process does. Otherwise whether a repetition reuses
/// what the one before it freed depends on the heap's layout, which moves
/// with unrelated allocations.
void release_free_heap();

/// Host-speed reference: an event-queue loop (pop the earliest packed
/// timestamp, push it back later) over a 2 MiB binary heap, the DES's own
/// access pattern at the size of one core's L2. On a shared host its
/// speed tracks the run-to-run drift of the simulator's speed; the
/// program never touches it, so no change to the program can move it.
/// Sample it only between the program's timed calls.
///
/// A host factor is a sample's time per operation divided by the nominal
/// host's: above 1 while this host runs slower than nominal. Timed work
/// is divided by the factor around the sample taken just before it, so
/// that every reported value is in nominal-host units.
class HostRef {
 public:
  /// Accounts for timed work that is reported separately.
  enum Account : unsigned { kAll = 0, kEventItems = 1, kAccounts = 2 };

  /// Rebuild the heap (warming it into cache), then time a fixed loop.
  void sample();
  /// Attribute `seconds` of timed work to the latest sample.
  void charge(double seconds, Account account = kAll);
  /// The charged seconds of `account`, each divided by the factor near
  /// the sample it was charged to, raised to `sensitivity`: how many times
  /// more steeply the timed work slows down than the reference loop when
  /// the host slows down (measured per workload, see README.md).
  [[nodiscard]] double corrected_s(Account account = kAll,
                                   double sensitivity = 1.0) const;
  /// Record one set-up repetition that took `seconds`, after the latest
  /// sample.
  void add_setup(double seconds);
  /// Median over the recorded set-ups, each divided by the factor near
  /// its sample.
  [[nodiscard]] double setup_s() const;
  /// Median factor over the whole run.
  [[nodiscard]] double factor() const;

  static constexpr double kNominalNs = 200.0;

 private:
  /// Median factor of the five samples centred on sample `i`.
  [[nodiscard]] double factor_near(std::size_t i) const;

  std::vector<std::uint64_t> heap_;
  std::uint64_t rng_{0x9e3779b97f4a7c15ULL};
  std::vector<double> ns_;
  std::vector<std::array<double, kAccounts>> charged_;
  std::vector<std::pair<std::size_t, double>> setups_;
};

/// FNV-1a mixing used for composite result digests.
inline void mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001b3ULL;
  }
}
void mix_double(std::uint64_t& h, double d);
[[nodiscard]] std::string hex(std::uint64_t v);

/// SplitMix64 derivation of independent input streams from --seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream);

// --- spans (traced runs only) ---------------------------------------------

namespace spans {

/// Turn recording on or off for this process (off by default: untraced
/// runs pay one branch per scope).
void enable(bool on);
[[nodiscard]] bool enabled();

/// Suspends recording for its lifetime (untimed oracle runs and the
/// untraced baselines inside a traced run).
class Pause {
 public:
  Pause() : was_(enabled()) { enable(false); }
  ~Pause() { enable(was_); }
  Pause(const Pause&) = delete;
  Pause& operator=(const Pause&) = delete;

 private:
  bool was_;
};

/// RAII span around one call into a layer. Spans nest per thread; the
/// enclosing span on the same thread is the parent. `op` names the
/// cell or item the span belongs to.
class Scope {
 public:
  Scope(const char* name, std::uint64_t op = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::int32_t index_{-1};
};

struct Totals {
  std::uint64_t count{0};
  double total_ns{0.0};
  double self_ns{0.0};
};

/// Per-name totals over every thread's spans recorded so far. Self time
/// is a span's duration minus the duration of its direct children.
[[nodiscard]] std::map<std::string, Totals> totals();

/// Write every recorded span as Chrome trace_event JSON.
bool write_chrome(const std::string& path);

}  // namespace spans

// --- per-layer metrics ------------------------------------------------------

struct LayerMetric {
  const char* name;
  const char* unit;
};
/// Every per-layer metric a traced run reports. A layer the workload does
/// not exercise reads 0 (the table in README.md predicts which).
extern const std::vector<LayerMetric> kLayerMetrics;
/// Set every per-layer metric to 0; workloads then fill in their own.
void zero_layer_metrics(Report& rep);

// --- workloads ----------------------------------------------------------

int run_parallel_4k(const Options& opt, Report& rep);
int run_scenario_sweep(const Options& opt, Report& rep);
int run_paper_stack(const Options& opt, Report& rep);

}  // namespace pb

