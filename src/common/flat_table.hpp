// Open-addressed hash table keyed by 64-bit integers: the one hash table
// behind the memory-system models (mem::Tlb's page index, the populated
// pages of mem::DemandPaging, coherence::Directory and the coherence
// simulator's LLC residency set).
//
// Capacity is a power of two and at most half full, so every probe run
// ends at an empty slot. A key's home slot is the top bits of a
// multiplicative (Fibonacci) hash — no division — and collisions probe
// linearly. Erase shifts the rest of the probe run back (no tombstones),
// so lookups stay as short as they were before the erased key arrived.
// Slots are plain (key, value) pairs in one array: no per-entry
// allocation, and a lookup that hits its home slot touches one host line.
//
// The key ~0 marks an empty slot and cannot be stored. Pointers and
// references to values stay valid only until the next insertion or
// erase: an insertion may grow the array, an erase may move a neighbour.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace iw {

/// Value type of a FlatTable used as a set.
struct FlatTableNoValue {};

template <class V = FlatTableNoValue>
class FlatTable {
  static_assert(std::is_trivially_copyable_v<V>);

 public:
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

  /// Room for `expected` keys before the first growth.
  explicit FlatTable(std::size_t expected = 0) {
    std::size_t cap = kMinCapacity;
    while (cap < 2 * expected) cap *= 2;
    reset(cap);
  }

  [[nodiscard]] V* find(std::uint64_t key) {
    IW_ASSERT_MSG(key != kEmptyKey, "FlatTable: key ~0 is reserved");
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.key == key) return &s.value;
      if (s.key == kEmptyKey) return nullptr;
    }
  }
  [[nodiscard]] const V* find(std::uint64_t key) const {
    return const_cast<FlatTable*>(this)->find(key);
  }

  /// The value stored at `key`, value-initialised first if `key` was
  /// absent; `second` tells whether it was.
  std::pair<V*, bool> try_emplace(std::uint64_t key) {
    IW_ASSERT_MSG(key != kEmptyKey, "FlatTable: key ~0 is reserved");
    std::size_t i = home(key);
    for (;; i = (i + 1) & mask_) {
      if (slots_[i].key == key) return {&slots_[i].value, false};
      if (slots_[i].key == kEmptyKey) break;
    }
    if (2 * (size_ + 1) > slots_.size()) {
      grow();
      for (i = home(key); slots_[i].key != kEmptyKey; i = (i + 1) & mask_) {
      }
    }
    slots_[i] = Slot{key, V{}};
    ++size_;
    return {&slots_[i].value, true};
  }
  V& operator[](std::uint64_t key) { return *try_emplace(key).first; }
  /// Set use: true if `key` was absent.
  bool insert(std::uint64_t key) { return try_emplace(key).second; }

  /// Remove `key`; false if it was absent.
  bool erase(std::uint64_t key) {
    IW_ASSERT_MSG(key != kEmptyKey, "FlatTable: key ~0 is reserved");
    std::size_t i = home(key);
    for (; slots_[i].key != key; i = (i + 1) & mask_) {
      if (slots_[i].key == kEmptyKey) return false;
    }
    // Backward shift: a later entry of the run moves into the hole when
    // the hole lies between its home and its slot, i.e. when it was
    // displaced at least as far as the hole is behind it.
    for (std::size_t j = (i + 1) & mask_; slots_[j].key != kEmptyKey;
         j = (j + 1) & mask_) {
      if (((j - home(slots_[j].key)) & mask_) >= ((j - i) & mask_)) {
        slots_[i] = slots_[j];
        i = j;
      }
    }
    slots_[i].key = kEmptyKey;
    --size_;
    return true;
  }

  void clear() {
    for (Slot& s : slots_) s.key = kEmptyKey;
    size_ = 0;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    std::uint64_t key;
    [[no_unique_address]] V value;
  };
  static_assert(!std::is_empty_v<V> || sizeof(Slot) == sizeof(std::uint64_t),
                "a set's slot is its key alone");

  static constexpr std::size_t kMinCapacity = 8;
  /// 2^64 / golden ratio: consecutive keys land far apart.
  static constexpr std::uint64_t kFibonacci = 0x9E3779B97F4A7C15ULL;

  [[nodiscard]] std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * kFibonacci) >> shift_);
  }

  void reset(std::size_t cap) {
    slots_.assign(cap, Slot{kEmptyKey, V{}});
    mask_ = cap - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(cap));
    size_ = 0;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t n = size_;
    reset(2 * old.size());
    for (const Slot& s : old) {
      if (s.key == kEmptyKey) continue;
      std::size_t i = home(s.key);
      while (slots_[i].key != kEmptyKey) i = (i + 1) & mask_;
      slots_[i] = s;
    }
    size_ = n;
  }

  std::vector<Slot> slots_;
  std::size_t mask_{0};
  unsigned shift_{64};
  std::size_t size_{0};
};

}  // namespace iw
