#include "mem/paging.hpp"

namespace iw::mem {

IdentityPaging::IdentityPaging(unsigned covering_entries,
                               std::uint64_t page_size, Cycles walk_cost)
    : PagingPolicy(TlbConfig{covering_entries, page_size, 0, walk_cost}) {}

Cycles IdentityPaging::touch(Addr addr) {
  ++stats_.accesses;
  const Cycles c = tlb_.access(addr);
  stats_.translation_cycles += c;
  return c;
}

Cycles IdentityPaging::touch_sweep(Addr first, std::uint64_t count,
                                   std::uint64_t stride) {
  stats_.accesses += count;
  const Cycles c = tlb_.sweep(first, count, stride);
  stats_.translation_cycles += c;
  return c;
}

DemandPaging::DemandPaging(Config cfg)
    : PagingPolicy(TlbConfig{cfg.tlb_entries, cfg.page_size, 0,
                             cfg.walk_cost}),
      cfg_(cfg) {}

Cycles DemandPaging::fault(std::uint64_t faults) {
  stats_.minor_faults += faults;
  stats_.fault_cycles += faults * cfg_.minor_fault_cost;
  return faults * cfg_.minor_fault_cost;
}

Cycles DemandPaging::touch(Addr addr) {
  ++stats_.accesses;
  const Cycles c = tlb_.access(addr);
  stats_.translation_cycles += c;
  const std::uint64_t page = addr >> tlb_.page_shift();
  std::uint64_t& word = populated_[page >> 6];
  const std::uint64_t bit = std::uint64_t{1} << (page & 63);
  if ((word & bit) != 0) return c;
  word |= bit;
  return c + fault(1);
}

Cycles DemandPaging::touch_sweep(Addr first, std::uint64_t count,
                                 std::uint64_t stride) {
  stats_.accesses += count;
  const Cycles c = tlb_.sweep(first, count, stride);
  stats_.translation_cycles += c;
  // Pages only grow along the sweep, so each bitmap word is looked up
  // once per stretch of pages it covers.
  std::uint64_t faults = 0;
  std::uint64_t key = FlatTable<>::kEmptyKey;
  std::uint64_t* word = nullptr;
  for (std::uint64_t k = 0; k < count; ++k) {
    const std::uint64_t page = (first + k * stride) >> tlb_.page_shift();
    if (page >> 6 != key) {
      key = page >> 6;
      word = &populated_[key];
    }
    const std::uint64_t bit = std::uint64_t{1} << (page & 63);
    faults += (*word & bit) == 0;
    *word |= bit;
  }
  return c + fault(faults);
}

}  // namespace iw::mem
