#include "common/flat_table.hpp"

#include <gtest/gtest.h>

#include <unordered_map>

#include "common/rng.hpp"

namespace iw {
namespace {

// Random inserts, lookups and erases against std::unordered_map. Small
// key pools keep probe runs long and make erases hit the middle of runs,
// which is where a wrong backward shift would strand a key.
TEST(FlatTable, MatchesUnorderedMapUnderRandomInsertFindErase) {
  for (const std::uint64_t pool : {4ULL, 61ULL, 700ULL, 50'000ULL}) {
    for (const std::uint64_t stride : {1ULL, 64ULL, 1ULL << 30}) {
      FlatTable<std::uint32_t> t;
      std::unordered_map<std::uint64_t, std::uint32_t> ref;
      Rng rng(pool * 31 + stride);
      for (int op = 0; op < 40'000; ++op) {
        const std::uint64_t key = rng.uniform(0, pool - 1) * stride;
        const std::uint64_t dice = rng.uniform(0, 9);
        if (dice < 4) {
          const auto [v, inserted] = t.try_emplace(key);
          const auto [it, ref_inserted] = ref.try_emplace(key, 0);
          ASSERT_EQ(inserted, ref_inserted) << "key " << key;
          ASSERT_EQ(*v, it->second);
          *v = it->second = static_cast<std::uint32_t>(op);
        } else if (dice < 7) {
          ASSERT_EQ(t.erase(key), ref.erase(key) == 1) << "key " << key;
        } else {
          const std::uint32_t* v = t.find(key);
          const auto it = ref.find(key);
          ASSERT_EQ(v != nullptr, it != ref.end()) << "key " << key;
          if (v != nullptr) {
            ASSERT_EQ(*v, it->second);
          }
        }
        ASSERT_EQ(t.size(), ref.size());
      }
      ASSERT_LE(2 * t.size(), t.capacity());
      for (const auto& [key, value] : ref) {
        const std::uint32_t* v = t.find(key);
        ASSERT_NE(v, nullptr) << "key " << key;
        EXPECT_EQ(*v, value);
      }
    }
  }
}

TEST(FlatTable, SetGrowsAndClears) {
  FlatTable<> s(4);
  EXPECT_EQ(s.capacity(), 8u);
  for (std::uint64_t k = 0; k < 1000; ++k) EXPECT_TRUE(s.insert(k * 4096));
  for (std::uint64_t k = 0; k < 1000; ++k) EXPECT_FALSE(s.insert(k * 4096));
  EXPECT_EQ(s.size(), 1000u);
  EXPECT_EQ(s.capacity(), 2048u);
  s.clear();
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.find(0), nullptr);
  EXPECT_TRUE(s.insert(0));
}

TEST(FlatTable, PresizedTableDoesNotGrow) {
  FlatTable<std::uint32_t> t(1536);
  const std::size_t cap = t.capacity();
  for (std::uint64_t k = 0; k < 1536; ++k) t[k] = 1;
  EXPECT_EQ(t.capacity(), cap);
}

TEST(FlatTableDeathTest, ReservedKeyAborts) {
  FlatTable<> s;
  EXPECT_DEATH(s.insert(FlatTable<>::kEmptyKey), "key ~0 is reserved");
}

}  // namespace
}  // namespace iw
