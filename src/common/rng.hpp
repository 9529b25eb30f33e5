// Deterministic, seedable random number generation.
//
// Every stochastic element of the simulation (scheduler jitter, signal
// latency tails, workload irregularity) draws from an explicitly seeded
// Rng so that every figure in EXPERIMENTS.md is bit-reproducible.
// The generator is xoshiro256**, seeded via splitmix64.
//
// The per-access draws (next_u64, next_double, chance, uniform) are
// defined here so they inline into the model loops; the distribution
// shapes built on them stay in rng.cpp.
#pragma once

#include <bit>
#include <cstdint>

#include "common/assert.hpp"

namespace iw {

/// splitmix64 step; used for seeding and as a cheap hash.
std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** PRNG. Not thread-safe; use one per simulated entity.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform 64-bit value.
  std::uint64_t next_u64() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): the 53 high bits of one draw.
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi) {
    IW_ASSERT(lo <= hi);
    const std::uint64_t span = hi - lo + 1;
    if (span == 0) {
      // hi - lo spans the whole u64 range, which (with lo <= hi) forces
      // lo == 0 and hi == UINT64_MAX: every raw draw is already in
      // [lo, hi]. Keep the offset explicit so the full-range path cannot
      // silently drift if the precondition ever changes.
      IW_ASSERT(lo == 0);
      return lo + next_u64();
    }
    // Debiased modulo: draws above `limit` are rejected. For a
    // power-of-two span, ~0 % span is span - 1 and v % span is
    // v & (span - 1), so that path draws, rejects and returns exactly
    // what the divisions would, without them.
    constexpr std::uint64_t kMax = ~std::uint64_t{0};
    const bool pow2 = (span & (span - 1)) == 0;
    const std::uint64_t limit = pow2 ? kMax - (span - 1) : kMax - kMax % span;
    std::uint64_t v = next_u64();
    while (v > limit) v = next_u64();
    return lo + (pow2 ? v & (span - 1) : v % span);
  }

  /// Uniform double in [lo, hi).
  double uniform_real(double lo, double hi);

  /// Standard normal via Box-Muller (cached second value).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Exponential with given mean (> 0).
  double exponential(double mean);

  /// Log-normal such that the *median* of the result is `median` and the
  /// spread parameter is `sigma` (sigma of the underlying normal).
  double lognormal_median(double median, double sigma);

  /// Bounded Pareto-style heavy tail: median `median`, shape `alpha` > 0,
  /// capped at `cap`. Used for OS noise (signal latency tails).
  double heavy_tail(double median, double alpha, double cap);

  /// Bernoulli trial.
  bool chance(double p) { return next_double() < p; }

  /// Derive an independent child stream (for per-core RNGs).
  Rng split();

  /// Complete generator state, exposed so checkpoint/restore
  /// (hwsim::Snapshot) can capture a stream mid-sequence. The cached
  /// Box-Muller second value is part of the state: dropping it would
  /// desynchronize the next normal() draw after a restore.
  struct State {
    std::uint64_t s[4]{0, 0, 0, 0};
    double cached_normal{0.0};
    bool has_cached_normal{false};
  };

  [[nodiscard]] State state() const {
    return State{{s_[0], s_[1], s_[2], s_[3]}, cached_normal_,
                 has_cached_normal_};
  }

  void set_state(const State& st) {
    for (int i = 0; i < 4; ++i) s_[i] = st.s[i];
    cached_normal_ = st.cached_normal;
    has_cached_normal_ = st.has_cached_normal;
  }

 private:
  std::uint64_t s_[4];
  double cached_normal_{0.0};
  bool has_cached_normal_{false};
};

}  // namespace iw
