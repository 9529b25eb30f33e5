// Fully-associative LRU TLB model with cycle accounting.
//
// The paper's argument (§I, §IV-A): identity mapping with the largest
// possible pages means TLB entries can cover the whole physical address
// space — after warm-up there are *no* TLB misses; paging-based stacks
// pay walks continuously. Tlb lets both stacks charge translation costs
// against the same access streams.
#pragma once

#include <cstdint>
#include <vector>

#include "common/flat_table.hpp"
#include "common/types.hpp"
#include "substrate/substrate.hpp"

namespace iw::mem {

struct TlbConfig {
  unsigned entries{64};
  std::uint64_t page_size{4096};
  Cycles hit_cost{0};
  Cycles miss_walk_cost{130};
};

class Tlb {
 public:
  /// Aborts with a named diagnostic on zero entries, or on a page size
  /// that is zero or not a power of two (the page is the address
  /// shifted right).
  explicit Tlb(TlbConfig cfg);

  /// Run this TLB on a stack substrate: every translation's cost is
  /// charged to `core`'s clock and mem.tlb_* counters stream to the
  /// registry. Unbound (the default): the caller owns the cycles.
  void bind_substrate(substrate::StackSubstrate* sub, CoreId core);
  [[nodiscard]] substrate::StackSubstrate* substrate() const { return sub_; }

  /// Translate an access to `addr`; returns the cycle cost (hit or walk)
  /// and updates LRU state. A hit on the most recently used page needs
  /// no index probe and leaves the recency order as it is.
  Cycles access(Addr addr);

  /// The same as `count` calls to access(first + k * stride), k = 0 ..
  /// count - 1. The addresses only grow, so once the first `entries`
  /// distinct pages have gone through access(), every later page is a
  /// miss that evicts the least recently used one, and the rest of a
  /// page's run are hits; those are counted, not stepped. The TLB ends
  /// holding the last `entries` distinct pages, newest first. Aborts by
  /// name on a substrate-bound TLB (which charges and traces every walk)
  /// and on a sweep past the top of the address space.
  Cycles sweep(Addr first, std::uint64_t count, std::uint64_t stride);

  void flush();

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] double miss_rate() const {
    const auto total = hits_ + misses_;
    return total ? static_cast<double>(misses_) / static_cast<double>(total)
                 : 0.0;
  }
  [[nodiscard]] const TlbConfig& config() const { return cfg_; }
  /// log2 of the page size: the page of `addr` is addr >> page_shift().
  [[nodiscard]] unsigned page_shift() const { return page_shift_; }

 private:
  /// A resident translation and its neighbours in recency order.
  struct Slot {
    std::uint64_t page{0};
    std::uint32_t newer{0};
    std::uint32_t older{0};
  };

  void unlink(std::uint32_t s);
  void push_front(std::uint32_t s);
  /// Count a hit and charge it to the bound substrate; the hit cost.
  Cycles hit();
  /// Count a miss on `page`, evict the least recently used page if the
  /// slots are full and make `page` the most recently used; the walk
  /// cost.
  Cycles miss(std::uint64_t page);

  TlbConfig cfg_;
  unsigned page_shift_{0};
  /// cfg_.entries slots, then the list head: head.older is the most
  /// recently used slot, head.newer the least (a circular list, so
  /// neither end needs a branch). The head's page is ~0, which no
  /// access reaches, so an empty TLB's "most recently used" slot never
  /// matches.
  std::vector<Slot> slots_;
  std::uint32_t head_;
  std::uint32_t used_{0};
  /// page -> slot, sized for twice the entries, so it is at most a
  /// quarter full: a miss probes for an absent page, erases one and
  /// inserts one, and at half load BM_TlbAccess took twice as long.
  FlatTable<std::uint32_t> index_;
  std::uint64_t hits_{0};
  std::uint64_t misses_{0};

  substrate::StackSubstrate* sub_{nullptr};
  CoreId core_{0};
  /// Cached registry cells (translations are hot). Null while unbound or
  /// metrics are off.
  std::uint64_t* hit_cell_{nullptr};
  std::uint64_t* miss_cell_{nullptr};
};

}  // namespace iw::mem
