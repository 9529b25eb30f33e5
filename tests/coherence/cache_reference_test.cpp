// PrivateCache against a reference that keeps an LRU stamp in every line
// (a per-cache counter, bumped by each insert and hit). The cache under
// test keeps a per-set recency order instead; both must pick the same
// victims, so every operation's outcome must agree.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "coherence/cache.hpp"
#include "common/rng.hpp"

namespace iw::coherence {
namespace {

class ReferenceCache {
 public:
  struct Line {
    Addr tag{0};
    LineState state{LineState::kInvalid};
    std::uint64_t lru{0};
    std::uint32_t region{0};
    bool dirty{false};
  };

  explicit ReferenceCache(CacheConfig cfg)
      : cfg_(cfg),
        num_sets_(static_cast<unsigned>(
            cfg.size_bytes / (cfg.line_size * cfg.associativity))),
        lines_(static_cast<std::size_t>(num_sets_) * cfg.associativity) {}

  Line* find(Addr addr) {
    const Addr line = line_addr(addr);
    const std::size_t base = set_base(line);
    for (unsigned w = 0; w < cfg_.associativity; ++w) {
      auto& l = lines_[base + w];
      if (l.state != LineState::kInvalid && l.tag == line) {
        l.lru = ++tick_;
        ++hits_;
        return &l;
      }
    }
    ++misses_;
    return nullptr;
  }

  std::optional<Line> insert(Addr addr, LineState state,
                             std::uint32_t region) {
    const Addr line = line_addr(addr);
    const std::size_t base = set_base(line);
    std::size_t victim = base;
    for (unsigned w = 0; w < cfg_.associativity; ++w) {
      auto& l = lines_[base + w];
      if (l.state == LineState::kInvalid) {
        victim = base + w;
        break;
      }
      if (l.lru < lines_[victim].lru) victim = base + w;
    }
    std::optional<Line> evicted;
    if (lines_[victim].state != LineState::kInvalid) evicted = lines_[victim];
    lines_[victim] = Line{line, state, ++tick_, region};
    return evicted;
  }

  LineState invalidate(Addr addr) {
    const Addr line = line_addr(addr);
    const std::size_t base = set_base(line);
    for (unsigned w = 0; w < cfg_.associativity; ++w) {
      auto& l = lines_[base + w];
      if (l.state != LineState::kInvalid && l.tag == line) {
        const LineState prior = l.state;
        l.state = LineState::kInvalid;
        return prior;
      }
    }
    return LineState::kInvalid;
  }

  [[nodiscard]] std::vector<Line> lines_in_region(std::uint32_t r) const {
    std::vector<Line> out;
    for (const auto& l : lines_) {
      if (l.state != LineState::kInvalid && l.region == r) out.push_back(l);
    }
    return out;
  }

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }

 private:
  [[nodiscard]] Addr line_addr(Addr a) const {
    return a & ~static_cast<Addr>(cfg_.line_size - 1);
  }
  [[nodiscard]] std::size_t set_base(Addr line) const {
    return static_cast<std::size_t>((line / cfg_.line_size) &
                                    (num_sets_ - 1)) *
           cfg_.associativity;
  }

  CacheConfig cfg_;
  unsigned num_sets_;
  std::vector<Line> lines_;
  std::uint64_t tick_{0};
  std::uint64_t hits_{0};
  std::uint64_t misses_{0};
};

void expect_same(const CacheLine& got, const ReferenceCache::Line& want) {
  EXPECT_EQ(got.tag, want.tag);
  EXPECT_EQ(got.state, want.state);
  EXPECT_EQ(got.region, want.region);
  EXPECT_EQ(got.dirty, want.dirty);
}

constexpr LineState kFillStates[] = {LineState::kShared, LineState::kExclusive,
                                     LineState::kModified,
                                     LineState::kIncoherent};

TEST(PrivateCacheReference, MatchesPerLineStampsUnderRandomOps) {
  for (const unsigned assoc : {1u, 2u, 4u, 8u, 16u}) {
    // 8 sets; the address pool holds 3x as many lines as the cache, so
    // sets overflow and evict constantly.
    const CacheConfig cfg{8ULL * assoc * 64, assoc, 64};
    PrivateCache cache(cfg);
    ReferenceCache ref(cfg);
    Rng rng(assoc);
    const std::uint64_t pool_lines = 3ULL * 8 * assoc;
    for (int op = 0; op < 40'000; ++op) {
      SCOPED_TRACE(testing::Message() << "assoc " << assoc << " op " << op);
      const Addr addr = rng.uniform(0, pool_lines - 1) * 64 + rng.uniform(0, 63);
      const std::uint64_t dice = rng.uniform(0, 99);
      if (dice < 45) {
        CacheLine* got = cache.find(addr);
        ReferenceCache::Line* want = ref.find(addr);
        ASSERT_EQ(got != nullptr, want != nullptr);
        if (got != nullptr) {
          expect_same(*got, *want);
          if (rng.chance(0.3)) got->dirty = want->dirty = true;
        }
      } else if (dice < 80) {
        // Mostly on a miss, as the simulator does; sometimes a second
        // copy of a resident line, which the reference also allows.
        const bool resident = cache.probe(addr) != nullptr;
        if (resident && rng.chance(0.8)) continue;
        const LineState s = kFillStates[rng.uniform(0, 3)];
        const auto region = static_cast<std::uint32_t>(rng.uniform(0, 3));
        const auto got = cache.insert(addr, s, region);
        const auto want = ref.insert(addr, s, region);
        ASSERT_EQ(got.has_value(), want.has_value());
        if (got) expect_same(*got, *want);
      } else if (dice < 95) {
        ASSERT_EQ(cache.invalidate(addr), ref.invalidate(addr));
      } else {
        const auto r = static_cast<std::uint32_t>(rng.uniform(0, 3));
        const auto got = cache.lines_in_region(r);
        const auto want = ref.lines_in_region(r);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          expect_same(got[i], want[i]);
        }
      }
      ASSERT_EQ(cache.hits(), ref.hits());
      ASSERT_EQ(cache.misses(), ref.misses());
    }
  }
}

TEST(PrivateCacheDeathTest, AssociativityAboveRecencyOrderAborts) {
  EXPECT_DEATH(PrivateCache(CacheConfig{64 * 1024, 32, 64}),
               "associativity above kMaxWays");
  // The widest supported set still constructs.
  PrivateCache widest(CacheConfig{64 * 1024, PrivateCache::kMaxWays, 64});
  EXPECT_EQ(widest.config().associativity, 16u);
}

}  // namespace
}  // namespace iw::coherence
