// Deterministic fault injection for the simulated machine.
//
// The paper's central quantitative claim (Fig. 2) is about what happens
// when heartbeat delivery is *not* perfect — the Linux path is unsteady,
// heavy-tailed, and occasionally loses cadence. A FaultPlan lets any
// experiment perturb the event stream at well-defined points — drop,
// delay, or duplicate IPIs; jitter, drift, or spuriously repeat timer
// fires; transiently stall cores — while staying bit-reproducible: all
// fault decisions draw from dedicated Rng streams derived from the
// machine seed, never from the machine's own stream, so
//  * a disabled plan (the default) draws nothing and every trace is
//    bit-identical to a build without this layer, and
//  * the same seed and plan produce the same fault schedule under every
//    DES scheduler (the golden-trace equivalence tests run faulted).
//
// The injector keeps one independent stream per *execution context*
// (one per simulated core plus one for machine-level/setup code), and
// every draw is made eagerly in the acting context, in that context's
// local execution order. A context's draw sequence is therefore a pure
// function of its own event stream — independent of how the scheduler
// interleaves contexts — which is what lets the parallel epoch
// scheduler replay the exact fault schedule of the sequential ones.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace iw::hwsim {

class SnapshotWriter;
class SnapshotReader;

/// Half-open virtual-time window [begin, end) during which faults act.
struct FaultWindow {
  Cycles begin{0};
  Cycles end{kNever};
};

/// Declarative fault configuration, attached to MachineConfig. All rates
/// are per-opportunity probabilities in [0, 1]; all magnitudes are in
/// cycles. With `enabled == false` (the default) the injector is inert
/// and zero-cost.
struct FaultPlan {
  bool enabled{false};

  // --- IPI fabric faults (per delivery attempt, at post_ipi) ---
  double ipi_drop_rate{0.0};
  double ipi_delay_rate{0.0};
  Cycles ipi_delay_max{0};  // extra latency drawn uniform in [1, max]
  double ipi_dup_rate{0.0};
  Cycles ipi_dup_lag_max{400};  // duplicate arrives uniform [1, max] later
  /// Restrict IPI faults to one vector (-1 = all vectors).
  int vector_filter{-1};

  // --- timer faults (LAPIC and POSIX fires, at post_timer) ---
  double timer_jitter_rate{0.0};
  Cycles timer_jitter_max{0};  // late delivery, uniform [1, max]; does not
                               // accumulate (cadence stays absolute)
  Cycles timer_drift{0};       // per-fire cadence slip; accumulates

  // --- spurious interrupts (non-IPI vectors, at post_irq) ---
  double spurious_irq_rate{0.0};
  Cycles spurious_lag_max{500};  // ghost copy lands uniform [1, max] later

  // --- transient core stalls (per driver step, at Core::advance) ---
  double stall_rate{0.0};
  Cycles stall_max{0};  // stolen cycles, uniform [1, max]

  /// Scripted activity windows; empty = always active while enabled.
  std::vector<FaultWindow> windows;

  [[nodiscard]] bool active_at(Cycles t) const {
    if (!enabled) return false;
    if (windows.empty()) return true;
    for (const auto& w : windows) {
      if (t >= w.begin && t < w.end) return true;
    }
    return false;
  }

  /// Lower bound on the next virtual time at/after `t` where this plan
  /// could perturb a *driver step* (a transient stall draw), or kNever
  /// if it never can. This is the fast-forward horizon bound: every
  /// other fault site (IPI post, timer arm, spurious IRQ) draws inside
  /// an event the skip-ahead proof already forbids before the horizon,
  /// but stall draws happen on every step of a runnable core, so an
  /// analytic skip must stop where one could be armed. Window
  /// boundaries are honored exactly: a window beginning at W bounds the
  /// horizon to W even when t < W (steps at clocks < W draw nothing —
  /// the off-by-one the equivalence matrix pins down).
  [[nodiscard]] Cycles next_armed_stall_after(Cycles t) const;

  /// Abort (IW_ASSERT, with the offending field named) on ill-formed
  /// parameters: rates outside [0, 1] (NaN included — a NaN rate makes
  /// every chance() draw silently false) and inverted or empty cycle
  /// windows. FaultInjector::configure calls this, so every Machine
  /// construction validates its plan; programmatic plan builders can
  /// also call it directly.
  void validate() const;

  /// Parse a `--faults=` spec: comma-separated items of
  ///   drop=P            IPI drop probability
  ///   delay=P:C         IPI delay probability : max extra cycles
  ///   dup=P[:C]         IPI duplicate probability [: max lag, default 400]
  ///   jitter=P:C        timer jitter probability : max late cycles
  ///   drift=C           per-fire timer cadence slip (cycles)
  ///   spurious=P[:C]    spurious IRQ probability [: max lag, default 500]
  ///   stall=P:C         per-step stall probability : max stolen cycles
  ///   vector=N          restrict IPI faults to vector N
  ///   window=A-B        active window [A, B) cycles; repeatable
  /// Returns false (with *err set) on malformed input; on success *out
  /// has enabled=true.
  static bool parse(const std::string& spec, FaultPlan* out,
                    std::string* err);
};

/// Identifies the choke point a fault decision was drawn at. Values are
/// stable serialization/IDs (FaultEvent, snapshot ephemeral section).
enum class FaultSite : std::uint8_t {
  kIpi = 0,       // ipi_fate (post_ipi)
  kTimer = 1,     // timer_fate (post_timer)
  kSpurious = 2,  // spurious_irq_lag (post_irq, non-IPI)
  kStall = 3,     // stall_cycles (Core::advance, per driver step)
};
inline constexpr unsigned kNumFaultSites = 4;

/// FaultEvent::effects bits. For kIpi the drop/delay/dup bits combine
/// exactly as IpiFate does (drop excludes the others); the other sites
/// use kFaultFire.
inline constexpr std::uint8_t kFaultDrop = 1;
inline constexpr std::uint8_t kFaultDelay = 2;
inline constexpr std::uint8_t kFaultDup = 4;
inline constexpr std::uint8_t kFaultFire = 1;

/// One materialized fault, identified by *provenance*, not wall time:
/// (stream, site, index) names the index-th decision opportunity the
/// given stream saw at that site. Opportunity counting is unconditional
/// (every call counts, before any window/filter early-out), so the
/// numbering is a pure function of the context's event stream — the
/// property that lets a recorded schedule be replayed verbatim and lets
/// delta-debugging subsets splice into a checkpointed clean run.
struct FaultEvent {
  std::uint16_t stream{0};
  FaultSite site{FaultSite::kIpi};
  std::uint64_t index{0};
  std::uint8_t effects{0};
  /// kIpi: extra delay; kTimer: jitter; kSpurious: ghost lag;
  /// kStall: stolen cycles.
  Cycles magnitude{0};
  Cycles dup_lag{0};  // kIpi duplicates only
  /// Virtual time observed when the decision was recorded. Diagnostic
  /// only — replay matches on (stream, site, index).
  Cycles time{0};
  std::int32_t vector{-1};  // kIpi diagnostic
};

/// Runtime side of a FaultPlan: owns the per-context fault Rng streams
/// and the injection counters. One per Machine; consulted from the
/// hwsim choke points (post_ipi / post_timer / post_irq / advance).
/// Draw methods take the acting context's stream index (0 = machine /
/// setup context, core c = stream c + 1); the single-argument overloads
/// draw from stream 0 for standalone users (AnalyticSubstrate).
class FaultInjector {
 public:
  /// Bind a plan. `machine_seed` feeds the fault streams unless the
  /// plan owner supplies an explicit `fault_seed` (nonzero).
  /// `num_streams` is the number of independent decision streams
  /// (Machine passes num_cores + 1; standalone users take the default).
  void configure(const FaultPlan& plan, std::uint64_t machine_seed,
                 std::uint64_t fault_seed = 0, unsigned num_streams = 1);

  [[nodiscard]] bool enabled() const { return plan_.enabled; }
  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  [[nodiscard]] bool active_at(Cycles t) const {
    return plan_.active_at(t);
  }

  /// Fate of one IPI delivery attempt posted at virtual time `sent`.
  struct IpiFate {
    bool drop{false};
    Cycles extra_delay{0};
    bool duplicate{false};
    Cycles dup_lag{0};
  };
  IpiFate ipi_fate(unsigned stream, int vector, Cycles sent);
  IpiFate ipi_fate(int vector, Cycles sent) {
    return ipi_fate(0, vector, sent);
  }

  /// Perturbation of one timer fire scheduled for `ideal`.
  struct TimerFate {
    Cycles jitter{0};  // late delivery only; cadence unaffected
    Cycles drift{0};   // cadence slip, accumulates through re-arms
  };
  TimerFate timer_fate(unsigned stream, Cycles ideal);
  TimerFate timer_fate(Cycles ideal) { return timer_fate(0, ideal); }

  /// Lag of a spurious ghost copy of a non-IPI IRQ posted at `t`
  /// (0 = no spurious copy this time).
  Cycles spurious_irq_lag(unsigned stream, Cycles t);
  Cycles spurious_irq_lag(Cycles t) { return spurious_irq_lag(0, t); }

  /// Cycles stolen from a driver step starting at `now` (0 = no stall).
  /// Called on every step of every runnable core while any fault is
  /// enabled, so a plan that cannot stall (zero rate or magnitude, not
  /// scripted) only counts the opportunity here, inline; everything
  /// else takes the out-of-line draw.
  Cycles stall_cycles(unsigned stream_idx, Cycles now) {
    if (!scripted_ && (plan_.stall_rate <= 0.0 || plan_.stall_max == 0)) {
      ++stream(stream_idx).ops[static_cast<unsigned>(FaultSite::kStall)];
      return 0;
    }
    return draw_stall(stream_idx, now);
  }
  Cycles stall_cycles(Cycles now) { return stall_cycles(0, now); }

  struct Counters {
    std::uint64_t ipis_dropped{0};
    std::uint64_t ipis_delayed{0};
    std::uint64_t ipis_duplicated{0};
    std::uint64_t timer_perturbed{0};
    std::uint64_t spurious_irqs{0};
    std::uint64_t stalls{0};
    Cycles stall_cycles_total{0};
  };
  /// Aggregate counters, summed across streams (by value: per-stream
  /// cells are private so concurrent contexts never share a line).
  [[nodiscard]] Counters counters() const;

  // --- recording / scripted replay (tools/fault_bisect, ttreplay) ---

  /// Capture every materialized fault as a FaultEvent in per-stream
  /// buffers (race-free under parallel shards: a stream is only drawn
  /// from by its own context). Turning recording on clears previous
  /// buffers. Incompatible with scripted mode and with snapshotting
  /// mid-recording.
  void set_recording(bool on);
  [[nodiscard]] bool recording() const { return recording_; }
  /// Merged recorded schedule, sorted by (time, stream, site, index).
  [[nodiscard]] std::vector<FaultEvent> recorded_events() const;

  /// Replace probabilistic draws with an explicit event list: at each
  /// decision opportunity the injector fires the scripted event whose
  /// (stream, site, index) matches, and nothing else — zero RNG draws.
  /// `base` supplies the deterministic parts that must keep acting
  /// (windows, vector filter, timer_drift); its rates are zeroed here
  /// so misuse is impossible. Replaying the full recorded schedule of a
  /// probabilistic run is bit-identical to that run; replaying a subset
  /// is the delta-debugging hypothetical "what if only these faults had
  /// happened" (opportunities an event's index has already passed are
  /// skipped — the schedule legitimately shifts under a subset).
  /// Resets script cursors; opportunity counters are machine state and
  /// are NOT reset (restore() rewinds them instead).
  void set_script(const FaultPlan& base, std::vector<FaultEvent> events);
  [[nodiscard]] bool scripted() const { return scripted_; }

  /// Opportunity counters, stream-major: [stream * kNumFaultSites +
  /// site]. A pure function of the machines's event stream — recorded
  /// alongside checkpoints so fault_bisect can pick the latest
  /// checkpoint at which every candidate event is still in the future.
  [[nodiscard]] std::vector<std::uint64_t> opportunity_counts() const;

  /// Fast-forward horizon bound (see FaultPlan::next_armed_stall_after)
  /// that also covers scripted mode: while any scripted stall event is
  /// unconsumed the machine must stay in full fidelity, because scripted
  /// stalls are indexed by step opportunity and an analytic skip elides
  /// steps.
  [[nodiscard]] Cycles next_armed_stall_after(Cycles t) const;

  /// Snapshot plumbing (Machine::snapshot/restore). RNG states and
  /// fault counters go to `digested` (semantically observable,
  /// scheduler/ff-invariant); opportunity and script cursors go to
  /// `ephemeral` (exact-restore state that legitimately differs across
  /// ff modes). Snapshotting mid-recording is refused.
  void save_state(SnapshotWriter& digested, SnapshotWriter& ephemeral) const;
  void restore_state(SnapshotReader& digested, SnapshotReader& ephemeral);

 private:
  /// One decision stream: an independent Rng plus its own counter
  /// cells, cache-line-sized so concurrent contexts do not false-share.
  struct alignas(64) Stream {
    Rng rng;
    Counters n;
    /// Decision opportunities seen per site (counted unconditionally at
    /// every call, before window/filter early-outs).
    std::uint64_t ops[kNumFaultSites]{0, 0, 0, 0};
    /// Recording buffer (recording mode only).
    std::vector<FaultEvent> rec;
    /// Scripted events per site, sorted by index, plus the replay
    /// cursor (scripted mode only).
    std::array<std::vector<FaultEvent>, kNumFaultSites> script;
    std::array<std::size_t, kNumFaultSites> cursor{};
  };
  [[nodiscard]] Stream& stream(unsigned idx) {
    return streams_[idx < streams_.size() ? idx : 0];
  }
  /// Scripted-mode lookup: consume and return the event scheduled for
  /// opportunity `op` at `site`, or nullptr.
  const FaultEvent* next_scripted(Stream& st, FaultSite site,
                                  std::uint64_t op);
  /// stall_cycles' out-of-line path: scripted lookup or a rate draw.
  Cycles draw_stall(unsigned stream_idx, Cycles now);

  FaultPlan plan_;
  bool recording_{false};
  bool scripted_{false};
  std::vector<Stream> streams_ = std::vector<Stream>(1);
};

}  // namespace iw::hwsim
