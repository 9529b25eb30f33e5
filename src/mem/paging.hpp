// Address-space / paging policy models.
//
// Two policies from the paper:
//  * IdentityPaging (Nautilus): whole physical space identity-mapped at
//    boot with the largest page size; no faults ever, TLB covers the
//    machine, translation is effectively free after warm-up.
//  * DemandPaging (Linux baseline): 4 KiB pages, lazily populated; first
//    touch pays a minor-fault cost, every access goes through a small TLB.
//
// Both expose the same `touch()` and `touch_sweep()` interface and own
// one Tlb, so workloads charge translation costs identically against
// either stack.
#pragma once

#include <cstdint>
#include <memory>

#include "common/flat_table.hpp"
#include "common/types.hpp"
#include "mem/tlb.hpp"

namespace iw::mem {

struct PagingStats {
  std::uint64_t accesses{0};
  std::uint64_t minor_faults{0};
  Cycles translation_cycles{0};
  Cycles fault_cycles{0};
  [[nodiscard]] Cycles total_cycles() const {
    return translation_cycles + fault_cycles;
  }
};

class PagingPolicy {
 public:
  virtual ~PagingPolicy() = default;
  /// Charge the translation (and fault, if any) cost of touching `addr`.
  /// Returns the cycles charged.
  virtual Cycles touch(Addr addr) = 0;
  /// The same as `count` touch() calls at first + k * stride, k = 0 ..
  /// count - 1, in one Tlb::sweep and one pass over the pages.
  virtual Cycles touch_sweep(Addr first, std::uint64_t count,
                             std::uint64_t stride) = 0;
  [[nodiscard]] const PagingStats& stats() const { return stats_; }
  [[nodiscard]] const Tlb& tlb() const { return tlb_; }

 protected:
  explicit PagingPolicy(TlbConfig tlb) : tlb_(tlb) {}

  PagingStats stats_;
  Tlb tlb_;
};

/// Nautilus: identity map, huge pages, pre-populated at boot.
class IdentityPaging final : public PagingPolicy {
 public:
  /// `covering_entries` TLB entries of `page_size` (e.g. 1 GiB pages).
  /// With page_size * entries >= physical memory, misses vanish after
  /// warm-up — the configuration the paper describes.
  IdentityPaging(unsigned covering_entries, std::uint64_t page_size,
                 Cycles walk_cost);
  Cycles touch(Addr addr) override;
  Cycles touch_sweep(Addr first, std::uint64_t count,
                     std::uint64_t stride) override;
};

/// Linux baseline: 4 KiB demand paging + small TLB.
class DemandPaging final : public PagingPolicy {
 public:
  struct Config {
    unsigned tlb_entries{64};
    std::uint64_t page_size{4096};
    Cycles walk_cost{130};
    Cycles minor_fault_cost{2800};  // trap + kernel fault path + return
  };
  explicit DemandPaging(Config cfg);
  Cycles touch(Addr addr) override;
  Cycles touch_sweep(Addr first, std::uint64_t count,
                     std::uint64_t stride) override;

 private:
  /// Count a fault on each of `faults` newly populated pages; their
  /// cycles.
  Cycles fault(std::uint64_t faults);

  Config cfg_;
  /// Pages touched at least once, 64 to a word: bit p % 64 of the word
  /// keyed p / 64 is page p (a page table's last level as a bitmap).
  FlatTable<std::uint64_t> populated_;
};

}  // namespace iw::mem
