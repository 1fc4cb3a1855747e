#include "sim/cache.hpp"

#include <bit>
#include <stdexcept>
#include <string>

namespace daedvfs::sim {

CacheSim::CacheSim(CacheConfig cfg) : cfg_(cfg) {
  // The 64-bit product keeps num_sets() from dividing by a wrapped zero.
  if (cfg.ways == 0 || !std::has_single_bit(cfg.line_bytes) ||
      uint64_t{cfg.line_bytes} * cfg.ways > cfg.size_bytes ||
      !std::has_single_bit(cfg.num_sets())) {
    throw std::invalid_argument(
        "cache needs >= 1 way and a power-of-two line size and set count");
  }
  line_shift_ = static_cast<uint8_t>(std::countr_zero(cfg.line_bytes));
  set_shift_ = static_cast<uint8_t>(std::countr_zero(cfg.num_sets()));
  if (line_shift_ + set_shift_ == 0) {
    throw std::invalid_argument(
        "cache with 1-byte lines needs more than one set");
  }
  lines_.resize(static_cast<std::size_t>(cfg_.num_sets()) * cfg_.ways);
}

namespace {

void add_to(CacheStats& st, const AccessResult& r) {
  st.accesses += r.lines;
  st.hits += r.hits;
  st.misses += r.misses;
  st.writebacks += r.writebacks;
}

}  // namespace

inline void CacheSim::touch(uint64_t line, bool is_write, AccessResult& res) {
  const uint64_t set_mask = (uint64_t{1} << set_shift_) - 1;
  const uint64_t tag = line >> set_shift_;
  Line* base = &lines_[static_cast<std::size_t>(line & set_mask) * cfg_.ways];
  ++res.lines;

  // The victim rule of cache.hpp: valid stamps are unique, so `<=` only
  // differs from `<` by keeping the last of several invalid (stamp 0) ways.
  Line* victim = &base[0];
  for (uint32_t w = 0; w < cfg_.ways; ++w) {
    Line& l = base[w];
    if (l.tag == tag) {
      ++res.hits;
      l.lru = ++use_stamp_;
      l.dirty = l.dirty || is_write;
      return;
    }
    if (l.lru <= victim->lru) victim = &l;
  }

  ++res.misses;
  if (victim->dirty) ++res.writebacks;  // invalid ways are never dirty
  victim->dirty = is_write;  // write-allocate
  victim->tag = tag;
  victim->lru = ++use_stamp_;
}

namespace {

/// Out of line and cold, so the throw stays off the access loops' hot path.
[[noreturn]] [[gnu::cold]] [[gnu::noinline]] void reject_wrapping_span(
    const char* who) {
  throw std::invalid_argument(std::string(who) + ": span wraps past 2^64");
}

}  // namespace

AccessResult CacheSim::access(uint64_t vaddr, uint64_t bytes, bool is_write) {
  AccessResult res;
  if (bytes == 0) return res;
  if (bytes - 1 > ~0ull - vaddr) reject_wrapping_span("CacheSim::access");
  // Stop on `last` rather than past it: the top line's successor wraps.
  const uint64_t last = (vaddr + bytes - 1) >> line_shift_;
  for (uint64_t ln = vaddr >> line_shift_;; ++ln) {
    touch(ln, is_write, res);
    if (ln == last) break;
  }
  add_to(stats_, res);
  return res;
}

AccessResult CacheSim::access_strided(uint64_t vaddr, uint64_t stride,
                                      uint32_t count, uint64_t elem_bytes,
                                      bool is_write) {
  AccessResult res;
  if (elem_bytes == 0 || count == 0) return res;
  // Offset of the last element's last byte; the whole walk must end at or
  // below 2^64 - 1.
  uint64_t reach = 0;
  if (__builtin_mul_overflow(static_cast<uint64_t>(count - 1), stride,
                             &reach) ||
      __builtin_add_overflow(reach, elem_bytes - 1, &reach) ||
      reach > ~0ull - vaddr) {
    reject_wrapping_span("CacheSim::access_strided");
  }
  // One below the first element's line, so that line is never taken for
  // the one just touched.
  uint64_t prev_line = (vaddr >> line_shift_) - 1;
  for (uint32_t i = 0; i < count; ++i) {
    const uint64_t a = vaddr + static_cast<uint64_t>(i) * stride;
    const uint64_t first = a >> line_shift_;
    const uint64_t last = (a + elem_bytes - 1) >> line_shift_;
    if (first == prev_line && last == prev_line) continue;
    for (uint64_t ln = first;; ++ln) {
      touch(ln, is_write, res);
      if (ln == last) break;
    }
    prev_line = last;
  }
  add_to(stats_, res);
  return res;
}

uint64_t CacheSim::state_fingerprint() const {
  // FNV-1a over the way-ordered line array. Way positions matter (victim
  // selection scans ways in order when invalid lines exist); absolute LRU
  // stamps do not (only their per-set ordering among valid lines drives
  // future victim choices), so each valid line contributes its rank instead.
  uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
    }
  };
  const uint32_t sets = cfg_.num_sets();
  for (uint32_t set = 0; set < sets; ++set) {
    const Line* base = &lines_[static_cast<std::size_t>(set) * cfg_.ways];
    for (uint32_t w = 0; w < cfg_.ways; ++w) {
      const Line& l = base[w];
      if (l.lru == 0) {  // invalid
        mix(0);
        continue;
      }
      uint64_t rank = 0;
      for (uint32_t v = 0; v < cfg_.ways; ++v) {
        if (base[v].lru != 0 && base[v].lru < l.lru) ++rank;
      }
      mix(1 | (l.dirty ? 2 : 0) | (rank << 2));
      mix(l.tag);
    }
  }
  return h;
}

}  // namespace daedvfs::sim
