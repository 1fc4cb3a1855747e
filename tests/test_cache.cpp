// Unit + property tests for the L1-D cache simulator (sim/cache).
#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/cache.hpp"

namespace daedvfs::sim {
namespace {

TEST(Cache, Geometry) {
  CacheSim c;  // 16 KB / 32 B / 4-way = 128 sets
  EXPECT_EQ(c.config().num_sets(), 128u);
}

TEST(Cache, RejectsNonPowerOfTwoGeometry) {
  // 24-byte lines and a 3-way 16 KB cache (170 sets) cannot be indexed by
  // shift and mask; neither can a zero line, zero ways or zero sets.
  EXPECT_THROW(CacheSim({16 * 1024, 24, 4}), std::invalid_argument);
  EXPECT_THROW(CacheSim({16 * 1024, 32, 3}), std::invalid_argument);
  EXPECT_THROW(CacheSim({16 * 1024, 0, 4}), std::invalid_argument);
  EXPECT_THROW(CacheSim({16 * 1024, 32, 0}), std::invalid_argument);
  EXPECT_THROW(CacheSim({64, 32, 4}), std::invalid_argument);
  EXPECT_THROW(CacheSim({16 * 1024, 1u << 31, 2}), std::invalid_argument);
  // The default geometry and each of its doublings stay accepted.
  const CacheConfig def;
  EXPECT_NO_THROW(CacheSim{def});
  EXPECT_NO_THROW(CacheSim({2 * def.size_bytes, def.line_bytes, def.ways}));
  EXPECT_NO_THROW(CacheSim({def.size_bytes, 2 * def.line_bytes, def.ways}));
  EXPECT_NO_THROW(CacheSim({def.size_bytes, def.line_bytes, 2 * def.ways}));
  // Associativity itself need not be a power of two.
  EXPECT_NO_THROW(CacheSim({12 * 1024, 32, 3}));
}

TEST(Cache, RejectsOneByteLinesInASingleSet) {
  // With 1-byte lines and one set the tag is the whole address, so no tag
  // value is left to mark an invalid way.
  EXPECT_THROW(CacheSim({4, 1, 4}), std::invalid_argument);
  EXPECT_THROW(CacheSim({1, 1, 1}), std::invalid_argument);
  // One more set (or a wider line) frees the top tag value.
  EXPECT_NO_THROW(CacheSim({8, 1, 4}));
  EXPECT_NO_THROW(CacheSim({8, 2, 4}));
}

TEST(Cache, HighestTagIsNotAnInvalidWay) {
  // The last line below the top address holds the highest tag a geometry
  // can produce; it must miss once, then hit, like any other line.
  for (const CacheConfig cfg : {CacheConfig{8, 1, 4}, CacheConfig{}}) {
    CacheSim c(cfg);
    const uint64_t top = ~0ull - 1;
    EXPECT_EQ(c.access(top, 1, true).misses, 1u);
    EXPECT_EQ(c.access(top, 1, false).hits, 1u);
    EXPECT_EQ(c.access(0, 1, false).misses, 1u);
    EXPECT_EQ(c.access(top, 1, false).hits, 1u);
  }
}

TEST(Cache, SpanEndingOnTheTopByteTerminates) {
  // With 1-byte lines the top byte is a line of its own, and the line after
  // it wraps to line 0: the walk must stop on it, not past it.
  for (const CacheConfig cfg : {CacheConfig{8, 1, 4}, CacheConfig{}}) {
    const uint32_t one_byte = cfg.line_bytes == 1 ? 1u : 0u;
    CacheSim c(cfg);
    EXPECT_EQ(c.access(~0ull - 2, 3, true).lines, 1u + 2 * one_byte);
    EXPECT_EQ(c.access(~0ull, 1, false).hits, 1u);
    // A single element on the top byte is touched, not taken for the line
    // before it.
    EXPECT_EQ(c.access_strided(~0ull, 1, 1, 1, false).lines, 1u);
    // Elements 2 bytes apart ending on the top byte: one line each with
    // 1-byte lines, one line in all with 32-byte lines.
    EXPECT_EQ(c.access_strided(~0ull - 6, 2, 4, 1, false).lines,
              1u + 3 * one_byte);
  }
}

TEST(Cache, RejectsSpanWrappingPast2To64) {
  for (const CacheConfig cfg : {CacheConfig{8, 1, 4}, CacheConfig{}}) {
    CacheSim c(cfg);
    EXPECT_THROW((void)c.access(~0ull, 2, false), std::invalid_argument);
    EXPECT_THROW((void)c.access(2, ~0ull, true), std::invalid_argument);
    // The last element's end wraps; so does the element itself.
    EXPECT_THROW((void)c.access_strided(~0ull - 3, 2, 3, 1, false),
                 std::invalid_argument);
    EXPECT_THROW((void)c.access_strided(~0ull, 0, 2, 2, false),
                 std::invalid_argument);
    // (count - 1) * stride overflows 64 bits.
    EXPECT_THROW((void)c.access_strided(0, ~0ull, 3, 1, false),
                 std::invalid_argument);
    EXPECT_EQ(c.stats().accesses, 0u);
    // Empty spans touch nothing wherever they start.
    EXPECT_EQ(c.access(~0ull, 0, false).lines, 0u);
    EXPECT_EQ(c.access_strided(~0ull, 8, 0, 4, false).lines, 0u);
  }
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

/// Division-based reference of the documented cache: set = line % sets,
/// tag = line / sets, way scan preferring the last invalid way, else the
/// least-recently-used one; write-allocate, write-back.
class ReferenceCache {
 public:
  explicit ReferenceCache(CacheConfig cfg)
      : cfg_(cfg), lines_(std::size_t{cfg.num_sets()} * cfg.ways) {}

  AccessResult access(uint64_t vaddr, uint64_t bytes, bool is_write) {
    AccessResult res;
    if (bytes == 0) return res;
    const uint64_t sets = cfg_.num_sets();
    for (uint64_t ln = vaddr / cfg_.line_bytes;
         ln <= (vaddr + bytes - 1) / cfg_.line_bytes; ++ln) {
      Line* base = &lines_[(ln % sets) * cfg_.ways];
      const uint64_t tag = ln / sets;
      ++res.lines;
      ++stats_.accesses;
      Line* hit = nullptr;
      Line* victim = &base[0];
      for (uint32_t w = 0; w < cfg_.ways; ++w) {
        Line& l = base[w];
        if (l.valid && l.tag == tag) {
          hit = &l;
          break;
        }
        if (!l.valid) {
          victim = &l;
        } else if (victim->valid && l.lru < victim->lru) {
          victim = &l;
        }
      }
      if (hit != nullptr) {
        ++res.hits;
        ++stats_.hits;
        hit->lru = ++stamp_;
        hit->dirty = hit->dirty || is_write;
        continue;
      }
      ++res.misses;
      ++stats_.misses;
      if (victim->valid && victim->dirty) {
        ++res.writebacks;
        ++stats_.writebacks;
      }
      *victim = {tag, ++stamp_, true, is_write};
    }
    return res;
  }

  AccessResult access_strided(uint64_t vaddr, uint64_t stride, uint32_t count,
                              uint64_t elem_bytes, bool is_write) {
    AccessResult total;
    uint64_t prev_line = ~0ull;
    for (uint32_t i = 0; i < count; ++i) {
      const uint64_t a = vaddr + i * stride;
      const uint64_t first = a / cfg_.line_bytes;
      const uint64_t last = (a + elem_bytes - 1) / cfg_.line_bytes;
      if (first == prev_line && last == prev_line) continue;
      const AccessResult r = access(a, elem_bytes, is_write);
      total.lines += r.lines;
      total.hits += r.hits;
      total.misses += r.misses;
      total.writebacks += r.writebacks;
      prev_line = last;
    }
    return total;
  }

  /// CacheSim::state_fingerprint's documented hash: FNV-1a over the ways in
  /// order, (valid | dirty | LRU rank) then tag per valid way, 0 otherwise.
  [[nodiscard]] uint64_t fingerprint() const {
    uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
      }
    };
    for (std::size_t set = 0; set < cfg_.num_sets(); ++set) {
      const Line* base = &lines_[set * cfg_.ways];
      for (uint32_t w = 0; w < cfg_.ways; ++w) {
        if (!base[w].valid) {
          mix(0);
          continue;
        }
        uint64_t rank = 0;
        for (uint32_t v = 0; v < cfg_.ways; ++v) {
          if (base[v].valid && base[v].lru < base[w].lru) ++rank;
        }
        mix(1 | (base[w].dirty ? 2 : 0) | (rank << 2));
        mix(base[w].tag);
      }
    }
    return h;
  }

  [[nodiscard]] const CacheStats& stats() const { return stats_; }

 private:
  struct Line {
    uint64_t tag = 0;
    uint64_t lru = 0;
    bool valid = false;
    bool dirty = false;
  };
  CacheConfig cfg_;
  std::vector<Line> lines_;
  uint64_t stamp_ = 0;
  CacheStats stats_;
};

void expect_same(const AccessResult& a, const AccessResult& b) {
  EXPECT_EQ(a.lines, b.lines);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.writebacks, b.writebacks);
}

/// Differential: the shift/mask CacheSim against the division reference
/// over a seeded stream of plain and strided reads and writes — addresses
/// low and high (tag bits above 32), spans across lines, strides below,
/// above and at exact multiples of the line size (the NHWC channel strides),
/// 1-4 byte elements and elements that straddle two or three lines (the DAE
/// gather's group-wide ones), zero counts and zero-byte elements. Every
/// call's result, the cumulative stats and the behavioral fingerprint must
/// agree.
class CacheDifferential : public ::testing::TestWithParam<CacheConfig> {};

TEST_P(CacheDifferential, MatchesDivisionReference) {
  const CacheConfig cfg = GetParam();
  CacheSim sim(cfg);
  ReferenceCache ref(cfg);
  std::mt19937_64 rng(0x5eed + cfg.size_bytes + cfg.line_bytes + cfg.ways);
  const uint64_t span = 4ull * cfg.size_bytes;
  std::uniform_int_distribution<uint64_t> offset(0, span);
  std::uniform_int_distribution<uint64_t> bytes(0, 3ull * cfg.line_bytes);
  const uint64_t line = cfg.line_bytes;
  std::uniform_int_distribution<uint64_t> stride(1, 3 * line);
  std::uniform_int_distribution<uint64_t> lines(1, 3);
  std::uniform_int_distribution<uint32_t> count(0, 48);
  std::uniform_int_distribution<uint64_t> narrow(1, 4);
  std::uniform_int_distribution<uint64_t> wide(line + 1, 3 * line);
  std::uniform_int_distribution<int> coin(0, 3);
  std::uniform_int_distribution<int> pick(0, 9);
  const uint64_t bases[] = {0x0800'0000ull, 0x2002'0000ull,
                            0x0000'0123'4567'8000ull};
  for (int i = 0; i < 3000; ++i) {
    const uint64_t addr = bases[coin(rng) % 3] + offset(rng);
    const bool is_write = coin(rng) == 0;
    if (coin(rng) < 2) {
      const uint64_t n = bytes(rng);
      expect_same(sim.access(addr, n, is_write), ref.access(addr, n, is_write));
    } else {
      // Strides: 40% any, 40% a whole number of lines, 20% under a line.
      const int ks = pick(rng);
      const uint64_t st = ks < 4   ? stride(rng)
                          : ks < 8 ? lines(rng) * line
                                   : 1 + stride(rng) % line;
      const uint32_t c = pick(rng) == 0 ? 0 : count(rng);
      // Elements: mostly 1-4 bytes, some up to three lines wide, some empty.
      const int ke = pick(rng);
      const uint64_t e = ke < 6 ? narrow(rng) : ke < 9 ? wide(rng) : 0;
      expect_same(sim.access_strided(addr, st, c, e, is_write),
                  ref.access_strided(addr, st, c, e, is_write));
    }
    ASSERT_EQ(sim.stats().accesses, ref.stats().accesses) << "call " << i;
    ASSERT_EQ(sim.stats().hits, ref.stats().hits) << "call " << i;
    ASSERT_EQ(sim.stats().misses, ref.stats().misses) << "call " << i;
    ASSERT_EQ(sim.stats().writebacks, ref.stats().writebacks) << "call " << i;
    ASSERT_EQ(sim.state_fingerprint(), ref.fingerprint()) << "call " << i;
  }
  EXPECT_GT(sim.stats().hits, 0u);
  EXPECT_GT(sim.stats().writebacks, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheDifferential,
    ::testing::Values(CacheConfig{}, CacheConfig{2 * 1024, 16, 2},
                      CacheConfig{4 * 1024, 64, 1},
                      CacheConfig{3 * 1024, 32, 3}, CacheConfig{8, 1, 4}),
    [](const ::testing::TestParamInfo<CacheConfig>& info) {
      const CacheConfig& c = info.param;
      return std::to_string(c.size_bytes) + "B_" +
             std::to_string(c.line_bytes) + "line_" + std::to_string(c.ways) +
             "way";
    });

}  // namespace
}  // namespace daedvfs::sim
