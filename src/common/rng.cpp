#include "common/rng.hpp"

#include <cmath>

#include "common/assert.hpp"

namespace iw {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

double Rng::uniform_real(double lo, double hi) {
  return lo + (hi - lo) * next_double();
}

double Rng::normal(double mean, double stddev) {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u1;
  do {
    u1 = next_double();
  } while (u1 <= 1e-300);
  const double u2 = next_double();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return mean + stddev * r * std::cos(theta);
}

double Rng::exponential(double mean) {
  IW_ASSERT(mean > 0.0);
  double u;
  do {
    u = next_double();
  } while (u <= 1e-300);
  return -mean * std::log(u);
}

double Rng::lognormal_median(double median, double sigma) {
  IW_ASSERT(median > 0.0);
  return median * std::exp(normal(0.0, sigma));
}

double Rng::heavy_tail(double median, double alpha, double cap) {
  IW_ASSERT(median > 0.0 && alpha > 0.0 && cap >= median);
  // Pareto with x_m chosen so the median equals `median`:
  //   median = x_m * 2^(1/alpha)  =>  x_m = median / 2^(1/alpha)
  const double xm = median / std::pow(2.0, 1.0 / alpha);
  double u;
  do {
    u = next_double();
  } while (u <= 1e-300);
  const double v = xm / std::pow(u, 1.0 / alpha);
  return v > cap ? cap : v;
}

Rng Rng::split() { return Rng(next_u64() ^ 0xd1b54a32d192ed03ULL); }

}  // namespace iw
