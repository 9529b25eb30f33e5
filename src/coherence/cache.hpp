// Set-associative private cache with per-line MESI (+deactivated) state.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/types.hpp"

namespace iw::coherence {

enum class LineState : std::uint8_t {
  kInvalid,
  kShared,
  kExclusive,
  kModified,
  kIncoherent,  // selective-deactivation extension: untracked by the
                // directory, owned by exactly one task by construction
};

[[nodiscard]] const char* state_name(LineState s);

struct CacheLine {
  Addr tag{0};  // line-aligned address
  LineState state{LineState::kInvalid};
  bool dirty{false};  // meaningful for kIncoherent (M implies dirty)
  std::uint32_t region{0};
};
static_assert(sizeof(CacheLine) == 16, "four lines per 64-byte host line");

struct CacheConfig {
  std::uint64_t size_bytes{256 * 1024};
  unsigned associativity{8};  // at most PrivateCache::kMaxWays
  unsigned line_size{64};
};

/// One private cache level (models the combined L1+L2 private hierarchy
/// of a core: hit costs are charged by the simulator's latency table).
///
/// Layout: way-major lines (way w of every set is contiguous) plus one
/// 16-byte header per set holding its recency order and valid-way mask.
/// A lookup reads the header, then only the valid ways, so a sparsely
/// filled cache costs the host one line per valid way instead of a
/// whole set (DESIGN.md §11). A way's line is read only while its valid
/// bit is set, and the insert that sets the bit writes the line, so the
/// line array is left unwritten at construction: only the headers are.
class PrivateCache {
 public:
  /// Ways a set's recency order can hold (4 bits per way in one word).
  static constexpr unsigned kMaxWays = 16;

  /// Aborts with a named diagnostic on an associativity above kMaxWays.
  explicit PrivateCache(CacheConfig cfg);

  [[nodiscard]] Addr line_addr(Addr a) const {
    return a & ~static_cast<Addr>(cfg_.line_size - 1);
  }

  /// Look up a line; returns nullptr on miss. Updates LRU on hit. Of
  /// several valid copies, the lowest way's. The caller may change the
  /// line's state and dirty bit through the pointer, but never to
  /// kInvalid: that is invalidate()'s job, which clears the valid bit.
  CacheLine* find(Addr addr);

  /// LRU-neutral const lookup (for invariant checkers / debugging).
  [[nodiscard]] const CacheLine* probe(Addr addr) const;

  /// Insert (possibly evicting). The victim is the set's first invalid
  /// way, else its least recently touched one (insert or hit). Returns
  /// the evicted line if it was valid (caller handles writeback/directory
  /// notification).
  std::optional<CacheLine> insert(Addr addr, LineState state,
                                  std::uint32_t region);

  /// Invalidate the line if present; returns its prior state.
  LineState invalidate(Addr addr);

  /// Enumerate valid lines belonging to `region` (for handoff flushes),
  /// set by set and, within a set, lowest way first.
  std::vector<CacheLine> lines_in_region(std::uint32_t region) const;

  [[nodiscard]] const CacheConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }

 private:
  struct SetHeader {
    /// The set's ways from most to least recently touched: way indices
    /// in 4-bit fields, the most recent in the low bits.
    std::uint64_t order;
    /// Bit w is set iff way w holds a valid line.
    std::uint16_t valid;
    /// Set by an insert that gave the set a second valid copy of a
    /// line, and never cleared. find() then skips its MRU shortcut for
    /// the set, since the lowest matching way must win.
    bool duplicate;
  };
  static_assert(sizeof(SetHeader) == 16, "four headers per host line");

  [[nodiscard]] std::size_t set_index(Addr line) const {
    return static_cast<std::size_t>(line >> line_shift_) & (num_sets_ - 1);
  }
  [[nodiscard]] CacheLine& way(unsigned w, std::size_t set) {
    return lines_.get()[w * std::size_t{num_sets_} + set];
  }
  [[nodiscard]] const CacheLine& way(unsigned w, std::size_t set) const {
    return lines_.get()[w * std::size_t{num_sets_} + set];
  }
  /// Make `way` the most recently touched way of `h`'s set.
  static void touch(SetHeader& h, unsigned way);

  CacheConfig cfg_;
  unsigned num_sets_;
  unsigned line_shift_;  // log2(line_size)
  struct FreeStorage {
    void operator()(CacheLine* p) const { ::operator delete(p); }
  };
  /// assoc x num_sets lines, way-major, in raw storage: a line object
  /// exists from the insert that first fills its way.
  std::unique_ptr<CacheLine, FreeStorage> lines_;
  std::vector<SetHeader> sets_;
  std::uint64_t hits_{0};
  std::uint64_t misses_{0};
};

}  // namespace iw::coherence
