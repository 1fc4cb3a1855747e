// Unit + property tests for the L1-D cache simulator (sim/cache).
#include <gtest/gtest.h>

#include <random>

#include "sim/cache.hpp"

namespace daedvfs::sim {
namespace {

TEST(Cache, Geometry) {
  CacheSim c;  // 16 KB / 32 B / 4-way = 128 sets
  EXPECT_EQ(c.config().num_sets(), 128u);
}

TEST(Cache, ColdMissThenHit) {
  CacheSim c;
  auto r1 = c.access(0x1000, 4, false);
  EXPECT_EQ(r1.misses, 1u);
  auto r2 = c.access(0x1000, 4, false);
  EXPECT_EQ(r2.hits, 1u);
  EXPECT_EQ(r2.misses, 0u);
  // Same line, different offset: still a hit.
  auto r3 = c.access(0x101c, 4, false);
  EXPECT_EQ(r3.hits, 1u);
}

TEST(Cache, MultiLineAccessCountsEachLine) {
  CacheSim c;
  auto r = c.access(0x2000, 128, false);  // 4 lines
  EXPECT_EQ(r.lines, 4u);
  EXPECT_EQ(r.misses, 4u);
  // Unaligned span covering a line boundary: 2 lines.
  auto r2 = c.access(0x3010, 32, false);
  EXPECT_EQ(r2.lines, 2u);
}

TEST(Cache, AssociativityConflictEviction) {
  CacheSim c;  // 128 sets * 32 B = 4096 B stride maps to the same set
  const uint64_t stride = 128 * 32;
  for (int i = 0; i < 4; ++i) c.access(0x10000 + i * stride, 4, false);
  // All four ways of set 0 filled; all still hit.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(c.access(0x10000 + i * stride, 4, false).hits, 1u);
  }
  // A fifth line in the same set evicts the LRU (the first re-touched is
  // i=0, so LRU is i=1 after the probe loop order... use fresh cache).
  CacheSim c2;
  for (int i = 0; i < 5; ++i) c2.access(0x10000 + i * stride, 4, false);
  EXPECT_EQ(c2.access(0x10000 + 0 * stride, 4, false).misses, 1u)
      << "LRU way must have been evicted";
  EXPECT_EQ(c2.access(0x10000 + 4 * stride, 4, false).hits, 1u);
}

TEST(Cache, WritebackOnDirtyEviction) {
  CacheSim c;
  const uint64_t stride = 128 * 32;
  c.access(0x10000, 4, true);  // dirty line in set 0
  for (int i = 1; i <= 4; ++i) c.access(0x10000 + i * stride, 4, false);
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, CleanEvictionHasNoWriteback) {
  CacheSim c;
  const uint64_t stride = 128 * 32;
  for (int i = 0; i <= 4; ++i) c.access(0x10000 + i * stride, 4, false);
  EXPECT_EQ(c.stats().writebacks, 0u);
}

TEST(Cache, StridedCoalescesSmallStrides) {
  CacheSim c;
  // 32 elements at stride 4 within one 128-byte span: 4 lines, not 32.
  auto r = c.access_strided(0x4000, 4, 32, 1, false);
  EXPECT_EQ(r.lines, 4u);
  EXPECT_EQ(r.misses, 4u);
}

TEST(Cache, StridedLargeStrideTouchesOneLinePerElement) {
  CacheSim c;
  auto r = c.access_strided(0x8000, 96, 16, 1, false);
  EXPECT_EQ(r.lines, 16u);
}

TEST(Cache, StridedMatchesElementwiseAccesses) {
  // Equivalence: strided accounting == issuing each element separately.
  CacheSim a, b;
  const uint64_t base = 0x20000;
  auto ra = a.access_strided(base, 24, 40, 1, false);
  AccessResult rb{};
  uint64_t prev_line = ~0ull;
  for (uint32_t i = 0; i < 40; ++i) {
    const uint64_t addr = base + i * 24;
    if (addr / 32 == prev_line) continue;
    auto r = b.access(addr, 1, false);
    rb.lines += r.lines;
    rb.misses += r.misses;
    rb.hits += r.hits;
    prev_line = addr / 32;
  }
  EXPECT_EQ(ra.lines, rb.lines);
  EXPECT_EQ(ra.misses, rb.misses);
}

/// Property: any working set that fits entirely in the cache is fully
/// resident after one pass — the second pass has zero misses.
class ResidencyProperty : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ResidencyProperty, SecondPassHitsWhenWorkingSetFits) {
  const uint32_t bytes = GetParam();
  CacheSim c;
  ASSERT_LE(bytes, c.config().size_bytes);
  c.access(0x40000, bytes, false);
  auto r = c.access(0x40000, bytes, false);
  EXPECT_EQ(r.misses, 0u) << "working set of " << bytes << " B must fit";
}

INSTANTIATE_TEST_SUITE_P(Sizes, ResidencyProperty,
                         ::testing::Values(32u, 256u, 1024u, 4096u, 8192u,
                                           16384u));

/// Property: a working set larger than the cache thrashes — the second
/// sequential pass misses again (LRU worst case).
TEST(Cache, OversizedWorkingSetThrashes) {
  CacheSim c;
  const uint32_t bytes = 2 * c.config().size_bytes;
  c.access(0x40000, bytes, false);
  auto r = c.access(0x40000, bytes, false);
  EXPECT_EQ(r.misses, r.lines) << "sequential LRU thrash must re-miss all";
}

TEST(Cache, StatsInvariants) {
  CacheSim c;
  std::mt19937 rng(7);
  std::uniform_int_distribution<uint64_t> addr(0, 1 << 20);
  std::uniform_int_distribution<uint64_t> len(1, 256);
  for (int i = 0; i < 5000; ++i) {
    c.access(addr(rng), len(rng), (i % 3) == 0);
  }
  const CacheStats& st = c.stats();
  EXPECT_EQ(st.hits + st.misses, st.accesses);
  EXPECT_LE(st.writebacks, st.misses);
  EXPECT_GE(st.miss_rate(), 0.0);
  EXPECT_LE(st.miss_rate(), 1.0);
}

}  // namespace
}  // namespace daedvfs::sim
