#include "mem/tlb.hpp"

#include <algorithm>
#include <bit>

#include "common/assert.hpp"
#include "obs/metrics.hpp"

namespace iw::mem {

Tlb::Tlb(TlbConfig cfg)
    : cfg_(cfg), head_(cfg.entries), index_(2 * cfg.entries) {
  IW_ASSERT_MSG(cfg.entries >= 1, "Tlb: entries must be at least 1");
  IW_ASSERT_MSG(cfg.page_size != 0, "Tlb: page_size must be non-zero");
  IW_ASSERT_MSG(std::has_single_bit(cfg.page_size),
                "Tlb: page_size must be a power of two");
  page_shift_ = static_cast<unsigned>(std::countr_zero(cfg.page_size));
  slots_.resize(static_cast<std::size_t>(cfg.entries) + 1);
  slots_[head_].page = FlatTable<>::kEmptyKey;
  flush();
}

void Tlb::bind_substrate(substrate::StackSubstrate* sub, CoreId core) {
  sub_ = sub;
  core_ = core;
  hit_cell_ = nullptr;
  miss_cell_ = nullptr;
  if (sub_ == nullptr) return;
  IW_ASSERT_MSG(core < sub_->num_cores(), "TLB bound to out-of-range core");
  if (obs::MetricsRegistry* m = sub_->metrics()) {
    hit_cell_ = &m->counter(obs::names::kMemTlbHits);
    miss_cell_ = &m->counter(obs::names::kMemTlbMisses);
  }
}

void Tlb::unlink(std::uint32_t s) {
  slots_[slots_[s].newer].older = slots_[s].older;
  slots_[slots_[s].older].newer = slots_[s].newer;
}

void Tlb::push_front(std::uint32_t s) {
  const std::uint32_t mru = slots_[head_].older;
  slots_[s].newer = head_;
  slots_[s].older = mru;
  slots_[mru].newer = s;
  slots_[head_].older = s;
}

Cycles Tlb::hit() {
  ++hits_;
  if (sub_ != nullptr) {
    sub_->charge(core_, cfg_.hit_cost);
    if (hit_cell_ != nullptr) ++*hit_cell_;
  }
  return cfg_.hit_cost;
}

Cycles Tlb::miss(std::uint64_t page) {
  ++misses_;
  std::uint32_t s = used_;
  if (used_ < cfg_.entries) {
    ++used_;
  } else {
    s = slots_[head_].newer;  // evict the least recently used
    index_.erase(slots_[s].page);
    unlink(s);
  }
  slots_[s].page = page;
  push_front(s);
  index_[page] = s;
  if (sub_ != nullptr) {
    // A walk is long enough to matter on the timeline: record it as a
    // span so miss storms are visible next to whatever triggered them.
    sub_->charge_span(core_, "mem.tlb_walk", cfg_.miss_walk_cost);
    if (miss_cell_ != nullptr) ++*miss_cell_;
  }
  return cfg_.miss_walk_cost;
}

Cycles Tlb::access(Addr addr) {
  const std::uint64_t page = addr >> page_shift_;
  if (slots_[slots_[head_].older].page != page) {
    const std::uint32_t* s = index_.find(page);
    if (s == nullptr) return miss(page);
    unlink(*s);
    push_front(*s);
  }
  return hit();
}

Cycles Tlb::sweep(Addr first, std::uint64_t count, std::uint64_t stride) {
  IW_ASSERT_MSG(sub_ == nullptr,
                "Tlb::sweep on a substrate-bound TLB, which charges and "
                "traces every walk");
  IW_ASSERT_MSG(count == 0 || stride == 0 ||
                    count - 1 <= (~Addr{0} - first) / stride,
                "Tlb::sweep runs past the top of the address space");
  // Accesses from the k-th on that fall on the k-th's page.
  const auto run_from = [&](std::uint64_t k, std::uint64_t page) {
    if (stride >= cfg_.page_size) return std::uint64_t{1};
    const Addr next_page = (page + 1) << page_shift_;
    if (stride == 0 || next_page == 0) return count - k;
    const Addr span = next_page - first;
    return std::min(count, span / stride + (span % stride != 0)) - k;
  };
  Cycles c = 0;
  std::uint64_t k = 0;
  for (unsigned seen = 0; k < count && seen < cfg_.entries; ++seen) {
    const Addr a = first + k * stride;
    const std::uint64_t run = run_from(k, a >> page_shift_);
    c += access(a) + (run - 1) * cfg_.hit_cost;
    hits_ += run - 1;
    k += run;
  }
  if (k == count) return c;
  // The slots hold the last `entries` pages swept, all below the rest,
  // so each later page misses. With a stride of a page or more every
  // access has a page of its own; below that the pages are consecutive.
  const bool apart = stride >= cfg_.page_size;
  const std::uint64_t last = (first + (count - 1) * stride) >> page_shift_;
  const std::uint64_t accesses = count - k;
  const std::uint64_t pages =
      apart ? accesses : last - ((first + k * stride) >> page_shift_) + 1;
  misses_ += pages;
  hits_ += accesses - pages;
  c += pages * cfg_.miss_walk_cost + (accesses - pages) * cfg_.hit_cost;
  // The TLB ends holding the last `entries` pages, newest first.
  flush();
  for (std::uint32_t back = cfg_.entries; back-- > 0;) {
    const std::uint64_t page =
        apart ? (first + (count - 1 - back) * stride) >> page_shift_
              : last - back;
    slots_[used_].page = page;
    push_front(used_);
    index_[page] = used_++;
  }
  return c;
}

void Tlb::flush() {
  index_.clear();
  used_ = 0;
  slots_[head_].newer = slots_[head_].older = head_;
}

}  // namespace iw::mem
