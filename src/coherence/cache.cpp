#include "coherence/cache.hpp"

#include <bit>

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
  lines_.assign(static_cast<std::size_t>(num_sets_) * cfg.associativity,
                CacheLine{});
  // Any initial order will do: a way is first touched by the insert
  // that makes it valid, and the victim rule reads the order only when
  // every way is valid.
  std::uint64_t identity = 0;
  for (unsigned w = 0; w < cfg.associativity; ++w) {
    identity |= std::uint64_t{w} << (4 * w);
  }
  recency_.assign(num_sets_, identity);
}

void PrivateCache::touch(std::size_t set, unsigned way) {
  std::uint64_t& order = recency_[set];
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
  CacheLine* ways = &lines_[set * cfg_.associativity];
  for (unsigned w = 0; w < cfg_.associativity; ++w) {
    if (ways[w].tag == line && ways[w].state != LineState::kInvalid) {
      touch(set, w);
      ++hits_;
      return &ways[w];
    }
  }
  ++misses_;
  return nullptr;
}

std::optional<CacheLine> PrivateCache::insert(Addr addr, LineState state,
                                              std::uint32_t region) {
  const Addr line = line_addr(addr);
  const std::size_t set = set_index(line);
  CacheLine* ways = &lines_[set * cfg_.associativity];
  // Prefer an invalid way; else evict the least recently touched.
  unsigned victim = static_cast<unsigned>(
      (recency_[set] >> (4 * (cfg_.associativity - 1))) & 0xF);
  for (unsigned w = 0; w < cfg_.associativity; ++w) {
    if (ways[w].state == LineState::kInvalid) {
      victim = w;
      break;
    }
  }
  std::optional<CacheLine> evicted;
  if (ways[victim].state != LineState::kInvalid) evicted = ways[victim];
  ways[victim] = CacheLine{line, state, false, region};
  touch(set, victim);
  return evicted;
}

const CacheLine* PrivateCache::probe(Addr addr) const {
  const Addr line = line_addr(addr);
  const std::size_t base = set_index(line) * cfg_.associativity;
  for (unsigned w = 0; w < cfg_.associativity; ++w) {
    const auto& l = lines_[base + w];
    if (l.state != LineState::kInvalid && l.tag == line) return &l;
  }
  return nullptr;
}

LineState PrivateCache::invalidate(Addr addr) {
  const Addr line = line_addr(addr);
  const std::size_t base = set_index(line) * cfg_.associativity;
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

std::vector<CacheLine> PrivateCache::lines_in_region(
    std::uint32_t region) const {
  std::vector<CacheLine> out;
  for (const auto& l : lines_) {
    if (l.state != LineState::kInvalid && l.region == region) {
      out.push_back(l);
    }
  }
  return out;
}

}  // namespace iw::coherence
