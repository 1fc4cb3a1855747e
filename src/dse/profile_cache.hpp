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
//
// The same cache also memoizes whole-schedule simulations (the run memo):
// run_key → the post-inference sim::Mcu of runtime::simulate_schedule. A
// QoS sweep measures the TinyEngine schedule once per model instead of once
// per slack and engine, and each emitted schedule once instead of once in
// the repair loop and again in the iso-latency evaluation. Runs are
// deterministic, so a hit is bitwise the simulation it replaces.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <unordered_map>

#include "clock/clock_config.hpp"
#include "graph/layer.hpp"
#include "graph/model.hpp"
#include "runtime/engine.hpp"
#include "runtime/schedule.hpp"
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

/// Structural fingerprint of an engine: everything an in-situ Timing run
/// depends on besides the schedule and SimParams — layer kinds, shapes,
/// stride/pad and bias presence, tensor wiring and simulated arena
/// addresses, weight/bias flash placement and the DAE scratch placement.
/// Weight values and quantization parameters are excluded (they never move
/// a simulated cost, as for layer_signature), and so is object identity:
/// two engines over equally built models fingerprint equal.
[[nodiscard]] std::uint64_t engine_fingerprint(
    const runtime::InferenceEngine& engine);

/// Run-memo key of one whole-schedule simulation: engine fingerprint, every
/// layer plan (which also fixes the boot clock, the first plan's HFO) and
/// the simulator fingerprint.
[[nodiscard]] std::uint64_t run_key(const runtime::InferenceEngine& engine,
                                    const runtime::Schedule& schedule,
                                    const sim::SimParams& sim);

/// (time, energy) of one profiled candidate.
struct ProfileEntry {
  double t_us = 0.0;
  double energy_uj = 0.0;
};

/// Memo tables: profiles keyed by (layer signature, candidate, sim
/// fingerprint), and whole-schedule runs keyed by run_key.
/// The maps themselves are not internally synchronized: explore_model and
/// the schedule measurements (core::measure_schedule) fill them from the
/// coordinating thread only; share one instance across explore calls via
/// ExploreOptions::cache to reuse profiles and runs between models/QoS
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
  /// Profiles held (the run memo is counted by runs()).
  [[nodiscard]] std::size_t size() const { return map_.size(); }

  /// Post-inference state of the run under `key`, or nullptr. The pointer
  /// stays valid for the cache's lifetime.
  [[nodiscard]] const sim::Mcu* find_run(std::uint64_t key) const {
    const auto it = runs_.find(key);
    return it == runs_.end() ? nullptr : &it->second;
  }
  void store_run(std::uint64_t key, const sim::Mcu& end) {
    runs_.insert_or_assign(key, end);
  }
  /// Distinct whole-schedule runs held.
  [[nodiscard]] std::size_t runs() const { return runs_.size(); }

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
  std::unordered_map<std::uint64_t, sim::Mcu> runs_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
};

}  // namespace daedvfs::dse
