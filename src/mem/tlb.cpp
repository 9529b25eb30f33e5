#include "mem/tlb.hpp"

#include "common/assert.hpp"
#include "obs/metrics.hpp"

namespace iw::mem {

Tlb::Tlb(TlbConfig cfg)
    : cfg_(cfg), head_(cfg.entries), index_(cfg.entries) {
  IW_ASSERT_MSG(cfg.entries >= 1, "Tlb: entries must be at least 1");
  IW_ASSERT_MSG(cfg.page_size != 0, "Tlb: page_size must be non-zero");
  slots_.resize(static_cast<std::size_t>(cfg.entries) + 1);
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

Cycles Tlb::access(Addr addr) {
  const std::uint64_t page = addr / cfg_.page_size;
  if (const std::uint32_t* hit = index_.find(page)) {
    ++hits_;
    if (slots_[head_].older != *hit) {  // move to front
      unlink(*hit);
      push_front(*hit);
    }
    if (sub_ != nullptr) {
      sub_->charge(core_, cfg_.hit_cost);
      if (hit_cell_ != nullptr) ++*hit_cell_;
    }
    return cfg_.hit_cost;
  }
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

void Tlb::flush() {
  index_.clear();
  used_ = 0;
  slots_[head_].newer = slots_[head_].older = head_;
}

}  // namespace iw::mem
