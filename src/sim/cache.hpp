// Set-associative L1 data-cache simulator, modeling the Cortex-M7's 16 KB,
// 4-way, 32-byte-line L1-D (the cache geometry of the STM32F767ZI the paper
// evaluates on). Write-allocate, write-back, true-LRU replacement.
//
// Victim rule: a miss fills the last invalid way of its set, else the least
// recently used one. An invalid way holds use stamp 0 (valid ways hold
// stamps >= 1) and a tag no address can produce, so a lookup is one way scan
// that keeps the last way with the smallest stamp.
//
// The cache is what turns the DAE "decoupling granularity" g into a
// performance knob: group buffers that exceed the cache working set start
// thrashing, which is the paper's observation that "very high buffer size can
// lead the cache misses to skyrocket".
#pragma once

#include <cstdint>
#include <vector>

namespace daedvfs::sim {

struct CacheConfig {
  uint32_t size_bytes = 16 * 1024;
  uint32_t line_bytes = 32;
  uint32_t ways = 4;

  [[nodiscard]] uint32_t num_sets() const {
    return size_bytes / (line_bytes * ways);
  }
};

/// Cumulative statistics.
struct CacheStats {
  uint64_t accesses = 0;    ///< Line-granular accesses.
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t writebacks = 0;  ///< Dirty evictions.

  [[nodiscard]] double miss_rate() const {
    return accesses ? static_cast<double>(misses) / accesses : 0.0;
  }
};

/// Result of a single (possibly multi-line) access.
struct AccessResult {
  uint32_t lines = 0;
  uint32_t hits = 0;
  uint32_t misses = 0;
  uint32_t writebacks = 0;
};

class CacheSim {
 public:
  /// Throws std::invalid_argument unless `cfg.ways` is positive and
  /// `cfg.line_bytes` and `cfg.num_sets()` are nonzero powers of two, not
  /// both 1 (1-byte lines in one set make every 64-bit value a tag, leaving
  /// none to mark an invalid way).
  explicit CacheSim(CacheConfig cfg = {});

  /// Touches [vaddr, vaddr + bytes); returns per-call hit/miss counts.
  /// The span may end on the top byte (2^64 - 1); one that wraps past it
  /// throws std::invalid_argument.
  AccessResult access(uint64_t vaddr, uint64_t bytes, bool is_write);

  /// Touches `count` elements of `elem_bytes` bytes spaced `stride` bytes
  /// apart, starting at `vaddr`. Consecutive elements falling in the same
  /// line are coalesced into one line touch — the access pattern of a
  /// channel-strided NHWC gather (one LDRB per element, many per line when
  /// the stride is small, one line each when the stride exceeds the line).
  /// Throws std::invalid_argument when the last element's span wraps past
  /// 2^64 - 1.
  AccessResult access_strided(uint64_t vaddr, uint64_t stride, uint32_t count,
                              uint64_t elem_bytes, bool is_write);

  /// Canonical fingerprint of the *behavioral* cache state: per way the
  /// (valid, tag, dirty) triple plus each valid line's LRU rank within its
  /// set. Absolute use stamps are normalized away — two caches with equal
  /// fingerprints produce identical hit/miss/writeback streams for any
  /// future access sequence, which is what the schedule-ledger granularity
  /// patch (dse/freq_replay) uses as its re-record stopping rule.
  [[nodiscard]] uint64_t state_fingerprint() const;

  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  [[nodiscard]] const CacheConfig& config() const { return cfg_; }

 private:
  struct Line {
    uint64_t tag = kNoTag;
    uint64_t lru = 0;  ///< Monotonic use stamp; 0 = invalid way.
    bool dirty = false;
  };
  /// Above every tag `line >> set_shift_` can take once
  /// line_shift_ + set_shift_ >= 1, which the constructor ensures.
  static constexpr uint64_t kNoTag = ~0ull;

  /// Looks up one line number (vaddr >> line_shift_) and counts it in `res`.
  void touch(uint64_t line, bool is_write, AccessResult& res);

  CacheConfig cfg_;
  uint8_t line_shift_ = 0;  ///< log2(line_bytes); fills cfg_'s tail padding.
  uint8_t set_shift_ = 0;   ///< log2(num_sets).
  std::vector<Line> lines_;  ///< sets * ways, row-major by set.
  uint64_t use_stamp_ = 0;
  CacheStats stats_;
};

}  // namespace daedvfs::sim
