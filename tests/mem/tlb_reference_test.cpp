// Tlb and DemandPaging against reference models that keep the textbook
// containers: an LRU of std::list + std::unordered_map and a populated
// set of std::unordered_set. The models under test keep the same LRU over
// fixed slot arrays and a flat table; every access must agree.
#include <gtest/gtest.h>

#include <list>
#include <unordered_map>
#include <unordered_set>

#include "common/rng.hpp"
#include "mem/paging.hpp"
#include "mem/tlb.hpp"

namespace iw::mem {
namespace {

class ReferenceTlb {
 public:
  explicit ReferenceTlb(TlbConfig cfg) : cfg_(cfg) {}

  Cycles access(Addr addr) {
    const std::uint64_t page = addr / cfg_.page_size;
    auto it = map_.find(page);
    if (it != map_.end()) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second);
      return cfg_.hit_cost;
    }
    ++misses_;
    if (map_.size() >= cfg_.entries) {
      map_.erase(lru_.back());
      lru_.pop_back();
    }
    lru_.push_front(page);
    map_[page] = lru_.begin();
    return cfg_.miss_walk_cost;
  }

  void flush() {
    lru_.clear();
    map_.clear();
  }

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }

 private:
  TlbConfig cfg_;
  std::list<std::uint64_t> lru_;
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> map_;
  std::uint64_t hits_{0};
  std::uint64_t misses_{0};
};

/// Pages drawn from a window about twice the TLB's reach, with a hot
/// subset, so hits, misses and evictions all occur; a page's offset is
/// random so addresses inside one page vary.
Addr draw(Rng& rng, const TlbConfig& cfg) {
  const std::uint64_t window = 2ULL * cfg.entries + 3;
  const std::uint64_t hot = cfg.entries / 2 + 1;
  const std::uint64_t page = rng.chance(0.5) ? rng.uniform(0, hot - 1)
                                             : rng.uniform(0, window - 1);
  return page * cfg.page_size + rng.uniform(0, cfg.page_size - 1);
}

TEST(TlbReference, MatchesListAndMapLruAccessByAccess) {
  for (const unsigned entries : {1u, 2u, 3u, 64u, 1536u}) {
    for (const std::uint64_t page : {4096ULL, 2ULL << 20, 1ULL << 30}) {
      const TlbConfig cfg{entries, page, 1, 130};
      Tlb tlb(cfg);
      ReferenceTlb ref(cfg);
      Rng rng(entries * 7919 + page);
      const int n = entries == 1536 ? 60'000 : 20'000;
      for (int i = 0; i < n; ++i) {
        if (i == n / 2) {
          tlb.flush();
          ref.flush();
        }
        const Addr a = draw(rng, cfg);
        ASSERT_EQ(tlb.access(a), ref.access(a))
            << "entries=" << entries << " page=" << page << " access " << i;
        ASSERT_EQ(tlb.hits(), ref.hits());
        ASSERT_EQ(tlb.misses(), ref.misses());
      }
      EXPECT_GT(ref.hits(), 0u);
      EXPECT_GT(ref.misses(), static_cast<std::uint64_t>(entries));
    }
  }
}

TEST(TlbReference, DemandPagingFaultsMatchUnorderedSet) {
  DemandPaging::Config cfg;
  cfg.tlb_entries = 16;
  cfg.minor_fault_cost = 2800;
  DemandPaging p(cfg);
  ReferenceTlb tlb(TlbConfig{cfg.tlb_entries, cfg.page_size, 0,
                             cfg.walk_cost});
  std::unordered_set<std::uint64_t> populated;
  Rng rng(11);
  std::uint64_t faults = 0;
  for (int i = 0; i < 50'000; ++i) {
    // Mostly a small working set, sometimes a far page never seen before.
    const Addr a = rng.chance(0.9) ? rng.uniform(0, (64ULL << 12) - 1)
                                   : rng.uniform(0, (1ULL << 40) - 1);
    Cycles expect = tlb.access(a);
    if (populated.insert(a / cfg.page_size).second) {
      ++faults;
      expect += cfg.minor_fault_cost;
    }
    ASSERT_EQ(p.touch(a), expect) << "touch " << i;
  }
  EXPECT_EQ(p.stats().minor_faults, faults);
  EXPECT_EQ(p.stats().fault_cycles, faults * cfg.minor_fault_cost);
  EXPECT_EQ(p.tlb().misses(), tlb.misses());
}

TEST(TlbDeathTest, ZeroPageSizeAborts) {
  EXPECT_DEATH(Tlb(TlbConfig{64, 0, 0, 130}), "page_size must be non-zero");
  EXPECT_DEATH(IdentityPaging(32, 0, 130), "page_size must be non-zero");
  DemandPaging::Config cfg;
  cfg.page_size = 0;
  EXPECT_DEATH(DemandPaging{cfg}, "page_size must be non-zero");
}

TEST(TlbDeathTest, ZeroEntriesAborts) {
  EXPECT_DEATH(Tlb(TlbConfig{0, 4096, 0, 130}), "entries must be at least 1");
}

}  // namespace
}  // namespace iw::mem
