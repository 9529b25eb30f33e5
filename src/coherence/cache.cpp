#include "coherence/cache.hpp"

#include <bit>
#include <memory>
#include <new>

#include "common/assert.hpp"

namespace iw::coherence {

const char* state_name(LineState s) {
  switch (s) {
    case LineState::kInvalid: return "I";
    case LineState::kShared: return "S";
    case LineState::kExclusive: return "E";
    case LineState::kModified: return "M";
    case LineState::kIncoherent: return "D";  // deactivated
  }
  return "?";
}

namespace {

constexpr std::uint64_t kNibbles = 0x1111'1111'1111'1111ULL;

}  // namespace

PrivateCache::PrivateCache(CacheConfig cfg) : cfg_(cfg) {
  IW_ASSERT(cfg.line_size >= 8 && std::has_single_bit(cfg.line_size));
  IW_ASSERT(cfg.associativity >= 1);
  IW_ASSERT_MSG(cfg.associativity <= kMaxWays,
                "PrivateCache: associativity above kMaxWays (16)");
  num_sets_ = static_cast<unsigned>(
      cfg.size_bytes / (cfg.line_size * cfg.associativity));
  IW_ASSERT(num_sets_ >= 1 && std::has_single_bit(num_sets_));
  line_shift_ = static_cast<unsigned>(std::countr_zero(cfg.line_size));
  lines_.reset(static_cast<CacheLine*>(::operator new(
      std::size_t{num_sets_} * cfg.associativity * sizeof(CacheLine))));
  // Any initial order will do: a way is first touched by the insert
  // that makes it valid, and the victim rule reads the order only when
  // every way is valid.
  std::uint64_t identity = 0;
  for (unsigned w = 0; w < cfg.associativity; ++w) {
    identity |= std::uint64_t{w} << (4 * w);
  }
  sets_.assign(num_sets_, SetHeader{identity, 0, false});
}

void PrivateCache::touch(SetHeader& h, unsigned way) {
  std::uint64_t& order = h.order;
  // Position of `way`: the lowest 4-bit field equal to it. The bit trick
  // flags the lowest zero field of `x` exactly (only fields above a zero
  // field can be flagged falsely), and fields at or above associativity
  // hold 0 but sit above the true position.
  const std::uint64_t x = order ^ (kNibbles * way);
  const std::uint64_t zero = (x - kNibbles) & ~x & (kNibbles << 3);
  const int shift = std::countr_zero(zero) & ~3;
  // Fields below the position move up one; fields above it stay.
  const std::uint64_t below = order & ((std::uint64_t{1} << shift) - 1);
  const std::uint64_t above = order & ((~std::uint64_t{0} << shift) << 4);
  order = above | (below << 4) | way;
}

CacheLine* PrivateCache::find(Addr addr) {
  const Addr line = line_addr(addr);
  const std::size_t set = set_index(line);
  SetHeader& h = sets_[set];
  // A hit on the way at the front of the order leaves the order as it
  // is. Without duplicates at most one valid way matches, so that way
  // is also the lowest match.
  const unsigned mru = static_cast<unsigned>(h.order & 0xF);
  if (!h.duplicate && (h.valid >> mru & 1u) != 0 &&
      way(mru, set).tag == line) {
    ++hits_;
    return &way(mru, set);
  }
  for (unsigned m = h.valid; m != 0; m &= m - 1) {
    const auto w = static_cast<unsigned>(std::countr_zero(m));
    CacheLine& l = way(w, set);
    if (l.tag == line) {
      touch(h, w);
      ++hits_;
      return &l;
    }
  }
  ++misses_;
  return nullptr;
}

std::optional<CacheLine> PrivateCache::insert(Addr addr, LineState state,
                                              std::uint32_t region) {
  const Addr line = line_addr(addr);
  const std::size_t set = set_index(line);
  SetHeader& h = sets_[set];
  for (unsigned m = h.valid; m != 0 && !h.duplicate; m &= m - 1) {
    h.duplicate = way(static_cast<unsigned>(std::countr_zero(m)), set).tag ==
                  line;
  }
  // Prefer an invalid way; else evict the least recently touched.
  const unsigned free_ways =
      ~unsigned{h.valid} & ((1u << cfg_.associativity) - 1);
  const unsigned victim =
      free_ways != 0
          ? static_cast<unsigned>(std::countr_zero(free_ways))
          : static_cast<unsigned>(
                (h.order >> (4 * (cfg_.associativity - 1))) & 0xF);
  CacheLine& slot = way(victim, set);
  std::optional<CacheLine> evicted;
  if (free_ways == 0) evicted = slot;
  std::construct_at(&slot, CacheLine{line, state, false, region});
  const auto bit = static_cast<std::uint16_t>(1u << victim);
  h.valid = state != LineState::kInvalid
                ? static_cast<std::uint16_t>(h.valid | bit)
                : static_cast<std::uint16_t>(h.valid & ~bit);
  touch(h, victim);
  return evicted;
}

const CacheLine* PrivateCache::probe(Addr addr) const {
  const Addr line = line_addr(addr);
  const std::size_t set = set_index(line);
  for (unsigned m = sets_[set].valid; m != 0; m &= m - 1) {
    const CacheLine& l = way(static_cast<unsigned>(std::countr_zero(m)), set);
    if (l.tag == line) return &l;
  }
  return nullptr;
}

LineState PrivateCache::invalidate(Addr addr) {
  const Addr line = line_addr(addr);
  const std::size_t set = set_index(line);
  SetHeader& h = sets_[set];
  for (unsigned m = h.valid; m != 0; m &= m - 1) {
    const auto w = static_cast<unsigned>(std::countr_zero(m));
    CacheLine& l = way(w, set);
    if (l.tag == line) {
      const LineState prior = l.state;
      l.state = LineState::kInvalid;
      h.valid = static_cast<std::uint16_t>(h.valid & ~(1u << w));
      return prior;
    }
  }
  return LineState::kInvalid;
}

std::vector<CacheLine> PrivateCache::lines_in_region(
    std::uint32_t region) const {
  // Set by set, not in storage order: the handoff sums floating-point
  // energies over these lines, so the order is part of the results.
  std::vector<CacheLine> out;
  for (std::size_t set = 0; set < num_sets_; ++set) {
    for (unsigned m = sets_[set].valid; m != 0; m &= m - 1) {
      const CacheLine& l =
          way(static_cast<unsigned>(std::countr_zero(m)), set);
      if (l.region == region) out.push_back(l);
    }
  }
  return out;
}

}  // namespace iw::coherence
