// The stack substrate: the shared fabric the paper's interweaving
// argument needs every layer to run *on* rather than beside.
//
// A StackSubstrate bundles the three cross-layer services that used to be
// private to hwsim::Machine:
//   * virtual time   — one clock per core; subsystems charge their cycle
//                      costs to the owning core instead of keeping a
//                      private Cycles accumulator;
//   * observability  — the TraceRecorder / MetricsRegistry sinks, so a
//                      CARAT sweep or a coherence miss lands in the same
//                      Chrome trace as the heartbeat that triggered it;
//   * randomness     — named RNG streams derived from one substrate
//                      seed, so stochastic models stay bit-reproducible
//                      and independent (one subsystem's draws never
//                      perturb another's schedule).
//
// Two implementations exist: hwsim::Machine (the DES — core clocks are
// the simulated cores' clocks, charges move real simulated time) and
// AnalyticSubstrate below (standalone per-core clock vector for the
// analytic models the tab_* benches drive without a DES).
//
// Determinism contract: every substrate operation is free of hidden
// state — recording never draws RNG, rng_stream(name) depends only on
// (seed, name), and a substrate with null sinks behaves bit-identically
// to no substrate at all.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace iw::obs {
class TraceRecorder;
class MetricsRegistry;
}  // namespace iw::obs

namespace iw::substrate {

class StackSubstrate {
 public:
  virtual ~StackSubstrate() = default;

  [[nodiscard]] virtual unsigned num_cores() const = 0;

  /// Current virtual time on `core`'s clock.
  [[nodiscard]] virtual Cycles core_now(CoreId core) const = 0;

  /// Charge `c` cycles of work to `core`'s clock. Implementations must
  /// keep this shard-safe: under hwsim's per-core parallel scheduler
  /// concurrent shard contexts charge different cores simultaneously,
  /// so a charge may only touch state owned by `core` (the Machine
  /// writes only the core's own clock there).
  virtual void charge(CoreId core, Cycles c) = 0;

  /// Global frontier: max over core clocks.
  [[nodiscard]] virtual Cycles now() const = 0;

  /// Observability sinks; nullptr = off (the default-off path the
  /// determinism guarantees are stated against).
  [[nodiscard]] virtual obs::TraceRecorder* tracer() const = 0;
  [[nodiscard]] virtual obs::MetricsRegistry* metrics() const = 0;

  /// Deterministic named RNG stream: same (substrate seed, name) ->
  /// same stream; distinct names -> independent streams. Subsystems
  /// take their stream once at bind time, never share streams.
  [[nodiscard]] virtual Rng rng_stream(const char* name) const = 0;

  // --- null-safe convenience wrappers (all free in virtual time) ---

  /// Record a [begin, end] span on `core`'s timeline if tracing is on.
  void trace_span(CoreId core, const char* name, Cycles begin, Cycles end,
                  int vector = -1);
  /// Record an instantaneous event on `core`'s timeline.
  void trace_instant(CoreId core, const char* name, Cycles at,
                     int vector = -1);
  /// Bump a named counter if metrics are attached.
  void metric_add(const char* name, std::uint64_t n = 1);
  /// Record into a named latency histogram if metrics are attached.
  void metric_record(const char* name, std::uint64_t value);

  /// Charge `cost` cycles to `core` and trace it as a span
  /// [t0, t0 + cost] in one call. Returns the span's end time.
  Cycles charge_span(CoreId core, const char* name, Cycles cost,
                     int vector = -1);

  /// Annotate an analytically-skipped window on `core`'s timeline: a
  /// `kFastForwardSpan` span covering [from, to], so Chrome traces stay
  /// contiguous when a substrate fast-forwards a quiet region instead
  /// of event-stepping it (hwsim's FastForwardPolicy::trace_skips, the
  /// analytic models' fast_forward_core). Free in virtual time.
  void trace_skip(CoreId core, Cycles from, Cycles to);
};

/// Trace-span name for analytically-skipped windows (shared so tools
/// filtering skip annotations out of a trace match every substrate).
inline constexpr const char* kFastForwardSpan = "ff.skip";

/// Derive the stream seed for rng_stream(name): FNV-1a over the name
/// folded into the substrate seed, then diffused through splitmix64.
/// Shared by every implementation so a model sees the same stream on an
/// AnalyticSubstrate and a Machine configured with the same seed.
[[nodiscard]] std::uint64_t derive_stream_seed(std::uint64_t seed,
                                               const char* name);

/// Standalone substrate for the analytic models: a per-core clock
/// vector, attachable sinks, and the shared RNG-stream derivation.
/// This is what gives the tab_* benches --trace/--metrics-json without a
/// DES underneath.
class AnalyticSubstrate final : public StackSubstrate {
 public:
  explicit AnalyticSubstrate(unsigned num_cores, std::uint64_t seed = 42);

  [[nodiscard]] unsigned num_cores() const override {
    return static_cast<unsigned>(clocks_.size());
  }
  [[nodiscard]] Cycles core_now(CoreId core) const override;
  void charge(CoreId core, Cycles c) override;
  [[nodiscard]] Cycles now() const override { return now_; }

  [[nodiscard]] obs::TraceRecorder* tracer() const override {
#ifdef IW_TRACE_COMPILED_OUT
    return nullptr;
#else
    return tracer_;
#endif
  }
  [[nodiscard]] obs::MetricsRegistry* metrics() const override {
    return metrics_;
  }
  [[nodiscard]] Rng rng_stream(const char* name) const override {
    return Rng(derive_stream_seed(seed_, name));
  }

  void set_tracer(obs::TraceRecorder* t) { tracer_ = t; }
  void set_metrics(obs::MetricsRegistry* m) { metrics_ = m; }

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Move `core`'s clock forward to `t` (no-op if already past): lets a
  /// replayed model align its timeline with an external event.
  void advance_core_to(CoreId core, Cycles t);

  /// Selectable-fidelity skip for analytic models: advance `core` to
  /// `t` through the charging path and (optionally) annotate the
  /// skipped window with a kFastForwardSpan span. The analytic
  /// counterpart of hwsim's fast-forward — a model that knows a region
  /// is uneventful jumps it in one call while its trace stays
  /// contiguous. No-op if the clock is already at/past `t`.
  void fast_forward_core(CoreId core, Cycles t, bool annotate = true);

  /// Reset all core clocks to zero (sinks stay attached): one substrate
  /// can host successive independent analytic runs.
  void reset_clocks();

 private:
  std::vector<Cycles> clocks_;
  Cycles now_{0};
  std::uint64_t seed_;
  obs::TraceRecorder* tracer_{nullptr};
  obs::MetricsRegistry* metrics_{nullptr};
};

}  // namespace iw::substrate
