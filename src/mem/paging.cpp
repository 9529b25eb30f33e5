#include "mem/paging.hpp"

namespace iw::mem {

IdentityPaging::IdentityPaging(unsigned covering_entries,
                               std::uint64_t page_size, Cycles walk_cost)
    : tlb_(TlbConfig{covering_entries, page_size, 0, walk_cost}) {}

Cycles IdentityPaging::touch(Addr addr) {
  ++stats_.accesses;
  const Cycles c = tlb_.access(addr);
  stats_.translation_cycles += c;
  return c;
}

DemandPaging::DemandPaging(Config cfg)
    : cfg_(cfg),
      tlb_(TlbConfig{cfg.tlb_entries, cfg.page_size, 0, cfg.walk_cost}) {}

Cycles DemandPaging::touch(Addr addr) {
  ++stats_.accesses;
  Cycles c = tlb_.access(addr);
  stats_.translation_cycles += c;
  const std::uint64_t page = addr / cfg_.page_size;
  if (populated_.insert(page)) {
    ++stats_.minor_faults;
    stats_.fault_cycles += cfg_.minor_fault_cost;
    c += cfg_.minor_fault_cost;
  }
  return c;
}

}  // namespace iw::mem
