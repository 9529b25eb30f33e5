#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <vector>

namespace iw {
namespace {

/// uniform() as it was when it lived in rng.cpp: two 64-bit divisions
/// per call at every span. The inline version must draw, reject and
/// return exactly what this does.
std::uint64_t reference_uniform(Rng& r, std::uint64_t lo, std::uint64_t hi) {
  const std::uint64_t span = hi - lo + 1;
  if (span == 0) return lo + r.next_u64();
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % span);
  std::uint64_t v;
  do {
    v = r.next_u64();
  } while (v > limit);
  return lo + v % span;
}

TEST(Rng, UniformMatchesTheDivisionReference) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  // 0 stands for the full range (hi - lo + 1 wraps). 2^63 and 2^63 + 1
  // reject about half their draws, so a path without the rejection loop
  // diverges there at once.
  const std::uint64_t spans[] = {1,         2,
                                 3,         128,
                                 512,       std::uint64_t{1} << 32,
                                 std::uint64_t{1} << 63,
                                 (std::uint64_t{1} << 63) + 1,
                                 kMax,      0};
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL, 0x9e3779b97f4a7c15ULL}) {
    for (const std::uint64_t span : spans) {
      // The lowest and the highest `lo` the span allows.
      for (const std::uint64_t lo : {std::uint64_t{0}, kMax - (span - 1)}) {
        if (span == 0 && lo != 0) continue;
        const std::uint64_t hi = lo + (span - 1);
        SCOPED_TRACE(testing::Message() << "seed " << seed << " span " << span
                                        << " lo " << lo);
        Rng got(seed), want(seed);
        for (int i = 0; i < 2000; ++i) {
          ASSERT_EQ(got.uniform(lo, hi), reference_uniform(want, lo, hi));
        }
        // Both consumed the same number of draws.
        EXPECT_EQ(got.next_u64(), want.next_u64());
      }
    }
  }
}

TEST(Rng, FirstDrawsArePinned) {
  Rng u(1);
  EXPECT_EQ(u.next_u64(), 0xb3f2af6d0fc710c5ULL);
  EXPECT_EQ(u.next_u64(), 0x853b559647364ceaULL);
  EXPECT_EQ(u.next_u64(), 0x92f89756082a4514ULL);
  EXPECT_EQ(u.next_u64(), 0x642e1c7bc266a3a7ULL);
  Rng d(2);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(d.next_double()),
            0x3fba28690da8a8d0ULL);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(d.next_double()),
            0x3fe73770085b5dbaULL);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(d.next_double()),
            0x3fc78c14d7800f78ULL);
  Rng c(3);
  std::string coins;
  for (int i = 0; i < 16; ++i) coins += c.chance(0.3) ? '1' : '0';
  EXPECT_EQ(coins, "0010001001000001");
  Rng r(4);
  EXPECT_EQ(r.uniform(0, 511), 19u);
  EXPECT_EQ(r.uniform(10, 20), 14u);
  EXPECT_EQ(r.uniform(0, (std::uint64_t{1} << 63) - 1), 8178677626870456958u);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformRespectsBounds) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, UniformCoversRange) {
  Rng r(9);
  std::vector<int> hits(5, 0);
  for (int i = 0; i < 5000; ++i) ++hits[r.uniform(0, 4)];
  for (int h : hits) EXPECT_GT(h, 700);  // ~1000 expected each
}

TEST(Rng, UniformDegenerateRangeReturnsTheOneValue) {
  Rng r(41);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r.uniform(5, 5), 5u);
  EXPECT_EQ(r.uniform(0, 0), 0u);
  const auto big = ~std::uint64_t{0};
  EXPECT_EQ(r.uniform(big, big), big);
}

TEST(Rng, UniformFullU64RangeDoesNotHangOrWrap) {
  // span = hi - lo + 1 overflows to 0 here; the full-range path must
  // return raw draws rather than dividing by zero or rejecting forever.
  Rng r(43);
  bool high_half = false, low_half = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform(0, ~std::uint64_t{0});
    (v >> 63 ? high_half : low_half) = true;
  }
  EXPECT_TRUE(high_half);
  EXPECT_TRUE(low_half);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(11);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const double d = r.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng r(13);
  double sum = 0, sq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal(5.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(Rng, ExponentialMean) {
  Rng r(17);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += r.exponential(100.0);
  EXPECT_NEAR(sum / n, 100.0, 3.0);
}

TEST(Rng, HeavyTailMedianAndCap) {
  Rng r(19);
  std::vector<double> xs;
  for (int i = 0; i < 20001; ++i) {
    const double v = r.heavy_tail(50.0, 1.5, 5000.0);
    ASSERT_LE(v, 5000.0);
    ASSERT_GT(v, 0.0);
    xs.push_back(v);
  }
  std::nth_element(xs.begin(), xs.begin() + 10000, xs.end());
  EXPECT_NEAR(xs[10000], 50.0, 5.0);
}

TEST(Rng, LognormalMedian) {
  Rng r(23);
  std::vector<double> xs;
  for (int i = 0; i < 20001; ++i) xs.push_back(r.lognormal_median(200.0, 0.5));
  std::nth_element(xs.begin(), xs.begin() + 10000, xs.end());
  EXPECT_NEAR(xs[10000], 200.0, 10.0);
}

TEST(Rng, ChanceProbability) {
  Rng r(29);
  int yes = 0;
  for (int i = 0; i < 20000; ++i) {
    if (r.chance(0.3)) ++yes;
  }
  EXPECT_NEAR(yes / 20000.0, 0.3, 0.02);
}

TEST(Rng, SplitStreamsAreIndependentish) {
  Rng parent(31);
  Rng child = parent.split();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.next_u64() == child.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

}  // namespace
}  // namespace iw
