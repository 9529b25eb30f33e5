// Tlb and DemandPaging against reference models that keep the textbook
// containers: an LRU of std::list + std::unordered_map and a populated
// set of std::unordered_set. The models under test keep the same LRU over
// fixed slot arrays and a flat table, and the populated pages as bitmap
// words; every access, and every sweep, must agree.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "common/rng.hpp"
#include "mem/paging.hpp"
#include "mem/tlb.hpp"
#include "substrate/substrate.hpp"

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

/// A sweep's stride: zero, below, at or above the page size.
std::uint64_t draw_stride(Rng& rng, std::uint64_t page) {
  switch (rng.uniform(0, 5)) {
    case 0: return 0;
    case 1: return rng.uniform(1, 64);
    case 2: return rng.uniform(1, page - 1);
    case 3: return page;
    case 4: return page + rng.uniform(1, page - 1);
    default: return page * rng.uniform(2, 5) + rng.uniform(0, 1);
  }
}

/// A sweep near the pages the prior accesses used, so the TLB's prior
/// contents overlap it.
struct Sweep {
  Addr first;
  std::uint64_t count;
  std::uint64_t stride;

  [[nodiscard]] Addr at(std::uint64_t k) const { return first + k * stride; }
};

Sweep draw_sweep(Rng& rng, unsigned entries, std::uint64_t page) {
  Sweep w;
  w.first = rng.uniform(0, 2ULL * entries) * page + rng.uniform(0, page - 1);
  w.count = rng.uniform(0, 500);
  w.stride = draw_stride(rng, page);
  return w;
}

/// Addresses that read the LRU order after a sweep: pages the sweep
/// touched last (resident, in some order) or a little earlier (evicted),
/// and pages around its start.
Addr draw_probe(Rng& rng, const Sweep& w, unsigned entries,
                std::uint64_t page) {
  if (w.count > 0 && rng.chance(0.6)) {
    const std::uint64_t back =
        rng.uniform(0, std::min<std::uint64_t>(w.count - 1, 2ULL * entries));
    return w.at(w.count - 1 - back);
  }
  return rng.uniform(0, 3ULL * entries) * page + rng.uniform(0, page - 1);
}

TEST(TlbReference, SweepMatchesAccessByAccess) {
  Rng rng(23);
  std::uint64_t sweeps = 0, evicting = 0;
  for (unsigned entries = 1; entries <= 70; ++entries) {
    for (const std::uint64_t page : {4096ULL, 2ULL << 20, 1ULL << 30}) {
      const TlbConfig cfg{entries, page, 1, 130};
      Tlb tlb(cfg);
      ReferenceTlb ref(cfg);
      for (int trial = 0; trial < 6; ++trial) {
        SCOPED_TRACE("entries=" + std::to_string(entries) + " page=" +
                     std::to_string(page) + " trial " +
                     std::to_string(trial));
        // A random prior state, sometimes none.
        if (rng.chance(0.2)) {
          tlb.flush();
          ref.flush();
        }
        const std::uint64_t prior = rng.uniform(0, 3ULL * entries);
        for (std::uint64_t i = 0; i < prior; ++i) {
          const Addr a = rng.uniform(0, 3ULL * entries) * page +
                         rng.uniform(0, page - 1);
          ASSERT_EQ(tlb.access(a), ref.access(a));
        }
        const Sweep w = draw_sweep(rng, entries, page);
        SCOPED_TRACE("first=" + std::to_string(w.first) + " count=" +
                     std::to_string(w.count) + " stride=" +
                     std::to_string(w.stride));
        Cycles expect = 0;
        std::unordered_set<std::uint64_t> pages;
        for (std::uint64_t k = 0; k < w.count; ++k) {
          expect += ref.access(w.at(k));
          pages.insert(w.at(k) / page);
        }
        ASSERT_EQ(tlb.sweep(w.first, w.count, w.stride), expect);
        ASSERT_EQ(tlb.hits(), ref.hits());
        ASSERT_EQ(tlb.misses(), ref.misses());
        ++sweeps;
        evicting += pages.size() > entries;
        for (unsigned i = 0; i < 4 * entries + 8; ++i) {
          const Addr a = draw_probe(rng, w, entries, page);
          ASSERT_EQ(tlb.access(a), ref.access(a)) << "probe " << i;
        }
      }
    }
  }
  // Most sweeps run past the TLB's reach, into the path that never
  // probes the index.
  EXPECT_GT(evicting * 2, sweeps);
}

/// DemandPaging or IdentityPaging as the textbook containers see it.
class ReferencePaging {
 public:
  ReferencePaging(TlbConfig tlb, bool demand, Cycles fault_cost)
      : page_(tlb.page_size), tlb_(tlb), demand_(demand),
        fault_cost_(fault_cost) {}

  Cycles touch(Addr addr) {
    ++stats_.accesses;
    const Cycles c = tlb_.access(addr);
    stats_.translation_cycles += c;
    if (!demand_ || !populated_.insert(addr / page_).second) return c;
    ++stats_.minor_faults;
    stats_.fault_cycles += fault_cost_;
    return c + fault_cost_;
  }

  [[nodiscard]] const PagingStats& stats() const { return stats_; }
  [[nodiscard]] const ReferenceTlb& tlb() const { return tlb_; }

 private:
  std::uint64_t page_;
  ReferenceTlb tlb_;
  bool demand_;
  Cycles fault_cost_;
  std::unordered_set<std::uint64_t> populated_;
  PagingStats stats_;
};

void expect_same_stats(const PagingPolicy& p, const ReferencePaging& ref) {
  EXPECT_EQ(p.stats().accesses, ref.stats().accesses);
  EXPECT_EQ(p.stats().minor_faults, ref.stats().minor_faults);
  EXPECT_EQ(p.stats().translation_cycles, ref.stats().translation_cycles);
  EXPECT_EQ(p.stats().fault_cycles, ref.stats().fault_cycles);
  EXPECT_EQ(p.tlb().hits(), ref.tlb().hits());
  EXPECT_EQ(p.tlb().misses(), ref.tlb().misses());
}

TEST(TlbReference, TouchSweepMatchesTouchByTouch) {
  Rng rng(29);
  for (const bool demand : {true, false}) {
    for (unsigned entries = 1; entries <= 70; ++entries) {
      for (const std::uint64_t page : {4096ULL, 2ULL << 20, 1ULL << 30}) {
        SCOPED_TRACE(std::string(demand ? "demand" : "identity") +
                     " entries=" + std::to_string(entries) +
                     " page=" + std::to_string(page));
        std::unique_ptr<PagingPolicy> p;
        if (demand) {
          DemandPaging::Config cfg;
          cfg.tlb_entries = entries;
          cfg.page_size = page;
          cfg.walk_cost = 130;
          cfg.minor_fault_cost = 2800;
          p = std::make_unique<DemandPaging>(cfg);
        } else {
          p = std::make_unique<IdentityPaging>(entries, page, 130);
        }
        ReferencePaging ref(TlbConfig{entries, page, 0, 130}, demand, 2800);
        for (int trial = 0; trial < 3; ++trial) {
          const std::uint64_t prior = rng.uniform(0, 3ULL * entries);
          for (std::uint64_t i = 0; i < prior; ++i) {
            const Addr a = rng.uniform(0, 3ULL * entries) * page +
                           rng.uniform(0, page - 1);
            ASSERT_EQ(p->touch(a), ref.touch(a));
          }
          const Sweep w = draw_sweep(rng, entries, page);
          Cycles expect = 0;
          for (std::uint64_t k = 0; k < w.count; ++k) {
            expect += ref.touch(w.at(k));
          }
          ASSERT_EQ(p->touch_sweep(w.first, w.count, w.stride), expect)
              << "first=" << w.first << " count=" << w.count
              << " stride=" << w.stride;
          expect_same_stats(*p, ref);
          for (unsigned i = 0; i < 2 * entries + 8; ++i) {
            const Addr a = draw_probe(rng, w, entries, page);
            ASSERT_EQ(p->touch(a), ref.touch(a)) << "probe " << i;
          }
        }
        expect_same_stats(*p, ref);
      }
    }
  }
}

// One OpenMP worker's pre-fault at BT-mini n = 48's footprint, then a
// second sweep over the same pages: every page faults once, and the
// second sweep misses on every page again (64 entries, 3240 pages).
TEST(TlbReference, PreFaultSweepFaultsEachPageOnce) {
  DemandPaging::Config cfg;
  DemandPaging p(cfg);
  ReferencePaging ref(TlbConfig{cfg.tlb_entries, cfg.page_size, 0,
                                cfg.walk_cost},
                      true, cfg.minor_fault_cost);
  const std::uint64_t pages = 3240;
  for (int pass = 0; pass < 2; ++pass) {
    Cycles expect = 0;
    for (std::uint64_t k = 0; k < pages; ++k) {
      expect += ref.touch(7 * 64 + k * 4096);
    }
    ASSERT_EQ(p.touch_sweep(7 * 64, pages, 4096), expect);
  }
  expect_same_stats(p, ref);
  EXPECT_EQ(p.stats().minor_faults, pages);
  EXPECT_EQ(p.tlb().misses(), 2 * pages);
}

TEST(TlbDeathTest, NonPowerOfTwoPageSizeAborts) {
  EXPECT_DEATH(Tlb(TlbConfig{64, 3000, 0, 130}),
               "page_size must be a power of two");
  EXPECT_DEATH(IdentityPaging(32, 3ULL << 20, 130),
               "page_size must be a power of two");
  DemandPaging::Config cfg;
  cfg.page_size = 6144;
  EXPECT_DEATH(DemandPaging{cfg}, "page_size must be a power of two");
}

TEST(TlbDeathTest, SweepOnABoundTlbAborts) {
  substrate::AnalyticSubstrate sub(1);
  Tlb tlb(TlbConfig{64, 4096, 0, 130});
  tlb.bind_substrate(&sub, 0);
  EXPECT_DEATH(tlb.sweep(0, 16, 4096),
               "Tlb::sweep on a substrate-bound TLB");
  tlb.bind_substrate(nullptr, 0);
  EXPECT_EQ(tlb.sweep(0, 16, 4096), 16u * 130);
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
