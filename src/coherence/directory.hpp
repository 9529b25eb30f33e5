// Full-map directory: per-line sharer set and owner, distributed across
// LLC home slices. Capacity is unbounded (document: we study protocol
// traffic, not directory sizing — the paper's extension removes entries
// from the directory entirely, which this model captures exactly).
#pragma once

#include <bit>
#include <cstdint>

#include "common/flat_table.hpp"
#include "common/types.hpp"

namespace iw::coherence {

enum class DirState : std::uint8_t {
  kUncached,   // no private copies
  kSharedBy,   // >=1 read copies
  kOwnedBy,    // exactly one M/E copy
};

struct DirEntry {
  std::uint64_t sharers{0};  // bitmask over cores
  std::uint32_t owner{0};    // valid when kOwnedBy
  DirState state{DirState::kUncached};
};

class Directory {
 public:
  explicit Directory(unsigned num_cores) : num_cores_(num_cores) {}

  /// The entry of `line`, created kUncached if the line is untracked. The
  /// reference is valid only until the next call that creates an entry
  /// (entry(), add_sharer() or set_owner() on an untracked line): the
  /// table may grow and move its entries.
  DirEntry& entry(Addr line) { return map_[line]; }

  void add_sharer(Addr line, unsigned core) {
    auto& e = map_[line];
    e.sharers |= (1ULL << core);
    e.state = DirState::kSharedBy;
  }
  void set_owner(Addr line, unsigned core) {
    auto& e = map_[line];
    e.state = DirState::kOwnedBy;
    e.owner = core;
    e.sharers = (1ULL << core);
  }
  void remove_core(Addr line, unsigned core) {
    DirEntry* e = map_.find(line);
    if (e == nullptr) return;
    e->sharers &= ~(1ULL << core);
    if (e->sharers == 0) {
      e->state = DirState::kUncached;
    } else if (e->state == DirState::kOwnedBy && e->owner == core) {
      // Owner dropped; remaining copies (if any) are sharers.
      e->state = DirState::kSharedBy;
    }
  }

  [[nodiscard]] unsigned sharer_count(Addr line) const {
    const DirEntry* e = map_.find(line);
    return e ? static_cast<unsigned>(std::popcount(e->sharers)) : 0;
  }

  [[nodiscard]] std::size_t tracked_lines() const { return map_.size(); }

 private:
  unsigned num_cores_;
  FlatTable<DirEntry> map_;  // line address -> entry
};

}  // namespace iw::coherence
