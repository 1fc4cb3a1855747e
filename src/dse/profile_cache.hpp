// Profile memoization for the per-layer DSE.
//
// Two structurally identical layers (same kind, shapes, stride/pad, bias
// presence) produce identical timing/energy when profiled in isolation on a
// fresh MCU with canonical tensor placement — the simulator sees the same
// event stream at the same (canonicalized) addresses. MobileNet-family
// models repeat such layers heavily (stacked inverted-residual blocks), so
// the explorer profiles each (layer-signature, candidate-config) pair once
// and reuses the result everywhere else.
//
// The key deliberately *excludes* quantization parameters and weight values:
// kernels emit the same work events regardless of operand values and of
// whether the Full-mode arithmetic runs at all (the Full/Timing equivalence
// invariant, docs/kernels.md § "The two invariants", enforced by
// KernelSweep.AccountingUnchangedAcrossModesOnBorderHeavyShapes) — so
// profiles recorded in either mode are valid for both. The key *includes*
// everything placement-relevant the canonical profiler derives from the
// signature (shapes fix the canonical addresses) plus the candidate's full
// clocking configuration and the simulator parameterization fingerprint.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <unordered_map>

#include "clock/clock_config.hpp"
#include "graph/layer.hpp"
#include "graph/model.hpp"
#include "sim/mcu.hpp"

namespace daedvfs::dse {

/// FNV-1a accumulator for building structural hashes field by field.
class StructHash {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
    }
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(int v) { add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
  void add(bool v) { add(static_cast<std::uint64_t>(v ? 1 : 2)); }
  void add(double v);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Structural signature of one layer: what the isolated-layer profiler's
/// timing depends on, nothing more.
[[nodiscard]] std::uint64_t layer_signature(const graph::Model& model,
                                            const graph::LayerSpec& layer);

/// Hash of one candidate operating point (granularity + full HFO/LFO
/// configuration + DVFS flag).
[[nodiscard]] std::uint64_t candidate_hash(int granularity, bool dvfs_enabled,
                                           const clock::ClockConfig& hfo,
                                           const clock::ClockConfig& lfo);

/// Fingerprint of the simulator parameterization (cache geometry, cost
/// model, memory timing, power model, switch costs). The boot clock is
/// excluded: the profiler boots each candidate at its own HFO, which the
/// candidate hash already covers.
[[nodiscard]] std::uint64_t sim_fingerprint(const sim::SimParams& params);

/// (time, energy) of one profiled candidate.
struct ProfileEntry {
  double t_us = 0.0;
  double energy_uj = 0.0;
};

/// Memo table keyed by (layer signature, candidate, sim fingerprint).
/// The map itself is not internally synchronized: explore_model fills it
/// from the coordinating thread only; share one instance across explore
/// calls via ExploreOptions::cache to reuse profiles between models/QoS
/// sweeps. Once filled, concurrent *readers* are safe — lookup() on a
/// quiescent map is a const hash-table find, and the hit/miss counters are
/// atomics (relaxed: they are observability, never an input to anything
/// deterministic) — which is what lets the fleet layer share one warm
/// per-class cache across worker threads. Mixing store() with concurrent
/// lookup() remains a data race on the map.
class ProfileCache {
 public:
  /// Counter snapshot. stats() returns this by value: a coherent-enough
  /// copy taken with relaxed loads, safe to take while readers run.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    [[nodiscard]] double hit_rate() const {
      const std::uint64_t total = hits + misses;
      return total ? static_cast<double>(hits) / static_cast<double>(total)
                   : 0.0;
    }
  };

  [[nodiscard]] std::optional<ProfileEntry> lookup(std::uint64_t sig,
                                                   std::uint64_t cand,
                                                   std::uint64_t sim_fp) const {
    const auto it = map_.find(key_of(sig, cand, sim_fp));
    if (it == map_.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }

  void store(std::uint64_t sig, std::uint64_t cand, std::uint64_t sim_fp,
             const ProfileEntry& e) {
    map_[key_of(sig, cand, sim_fp)] = e;
  }

  [[nodiscard]] Stats stats() const {
    Stats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    return s;
  }
  [[nodiscard]] std::size_t size() const { return map_.size(); }
  void clear() { map_.clear(); }

 private:
  static std::uint64_t key_of(std::uint64_t sig, std::uint64_t cand,
                              std::uint64_t sim_fp) {
    StructHash h;
    h.add(sig);
    h.add(cand);
    h.add(sim_fp);
    return h.value();
  }

  std::unordered_map<std::uint64_t, ProfileEntry> map_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
};

}  // namespace daedvfs::dse
