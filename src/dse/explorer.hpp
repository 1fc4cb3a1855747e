// Per-layer DAE-granularity x clocking co-exploration (Step 2 of the paper,
// §III-B): every (g, HFO) candidate of each layer is profiled on a fresh
// simulated MCU in Timing mode; Pareto-optimal (latency, energy) solutions
// are extracted per layer for the MCKP stage.
//
// The sweep is exhaustive: every candidate lands in LayerSolutionSet::all.
// Its cost is kept low by three orthogonal mechanisms (docs/perf.md):
//   * memoization — structurally identical layers (ubiquitous in the
//     MobileNet family) share one profile per candidate config;
//   * frequency replay — one simulation per (layer signature, granularity)
//     covers every HFO of the sweep in closed form (opt-in);
//   * parallel profiling — candidates fan out over a thread pool (each
//     profile runs on its own isolated sim::Mcu).
// Results are bitwise independent of thread count and (with frequency
// replay off) identical to the serial unmemoized sweep.
#pragma once

#include <cstdint>
#include <vector>

#include "dse/design_space.hpp"
#include "graph/model.hpp"
#include "obs/sink.hpp"
#include "runtime/engine.hpp"
#include "sim/mcu.hpp"

namespace daedvfs::dse {

class ProfileCache;

/// One explored operating point of one layer.
struct LayerSolution {
  int granularity = 0;
  clock::ClockConfig hfo;
  bool dvfs_enabled = false;  ///< LFO/HFO toggling active (g > 0).
  double t_us = 0.0;
  double energy_uj = 0.0;

  [[nodiscard]] runtime::LayerPlan to_plan(
      const clock::ClockConfig& lfo) const {
    runtime::LayerPlan plan;
    plan.granularity = granularity;
    plan.hfo = hfo;
    plan.lfo = lfo;
    plan.dvfs_enabled = dvfs_enabled;
    return plan;
  }
};

/// All solutions of one layer + its Pareto front.
struct LayerSolutionSet {
  int layer_idx = 0;
  graph::LayerKind kind = graph::LayerKind::kConv2d;
  std::vector<LayerSolution> all;
  std::vector<LayerSolution> pareto;  ///< Ascending latency.
};

/// Explorer options.
struct ExploreOptions {
  /// Simulator parameterization used for the profiling runs.
  sim::SimParams sim;
  /// Skip granularities whose gather buffer would exceed this bound
  /// (board SRAM scratch budget). 0 = no bound.
  std::size_t max_scratch_bytes = 96 * 1024;
  /// Profiling threads. 0 = the DAEDVFS_THREADS environment variable,
  /// falling back to the hardware concurrency; 1 = serial.
  int num_threads = 0;
  /// Profile each (layer signature, candidate) pair once and reuse the
  /// result for structurally identical layers. Exact: memoized results are
  /// bitwise equal to profiling every layer individually.
  bool memoize = true;
  /// Share profiles across explore_model calls (e.g. QoS sweeps over the
  /// same model). nullptr = a fresh per-call cache. core::Pipeline and the
  /// governor also keep their whole-schedule runs in it (the run memo).
  ProfileCache* cache = nullptr;
  /// Frequency replay (requires memoize): simulate each (layer signature,
  /// granularity) pair once while recording a sim::WorkLedger, then evaluate
  /// every other HFO of the sweep in closed form (dse/freq_replay.hpp).
  /// Replayed values match direct simulation to FP-reassociation error
  /// (~1e-12 relative) — candidate rankings, Pareto fronts and MCKP
  /// schedules are preserved. Off by default: the default path reports
  /// bitwise-exact simulator output for every candidate.
  bool freq_replay = false;
  /// Observability sink (docs/observability.md). When non-null, the
  /// explorer publishes explore.* / profile_cache.* / thread_pool.*
  /// counters to sink->metrics and a wall-clock "explore_model" span on the
  /// host track of sink->trace. Purely observational: results are
  /// bit-identical with and without a sink.
  obs::Sink* sink = nullptr;
};

/// Exploration accounting, for benchmarking and regression tracking.
/// Every candidate is resolved exactly one way:
/// profiled + replayed + cache_hits == total_candidates.
struct ExploreStats {
  std::int64_t total_candidates = 0;  ///< After the scratch bound.
  /// Always 0: the sweep is exhaustive. Kept because the whole-pipeline
  /// benchmark still reads it.
  std::int64_t pruned = 0;
  std::int64_t profiled = 0;          ///< Simulations actually executed.
  std::int64_t cache_hits = 0;        ///< Candidates served from the memo.
  std::int64_t replayed = 0;          ///< Candidates evaluated by freq replay.

  [[nodiscard]] double hit_rate() const {
    return total_candidates > 0 ? static_cast<double>(cache_hits) /
                                      static_cast<double>(total_candidates)
                                : 0.0;
  }
};

/// Profiles one candidate with *canonical* tensor placement (input at the
/// SRAM base, output/scratch/weights at deterministic offsets derived from
/// the shapes alone), so the result is a pure function of the layer's
/// structural signature — the property the profile memoization relies on.
/// Thread-safe: builds its own Mcu and ExecContext. `ledger` (optional)
/// records the run's per-clock-domain work totals for frequency replay.
[[nodiscard]] LayerSolution profile_candidate_isolated(
    const graph::Model& model, int layer_idx, const LayerSolution& candidate,
    const clock::ClockConfig& lfo, const ExploreOptions& opts,
    sim::WorkLedger* ledger);

[[nodiscard]] inline LayerSolution profile_candidate_isolated(
    const graph::Model& model, int layer_idx, const LayerSolution& candidate,
    const clock::ClockConfig& lfo, const ExploreOptions& opts) {
  return profile_candidate_isolated(model, layer_idx, candidate, lfo, opts,
                                    nullptr);
}

/// Runs the full per-layer DSE for `model`. Deterministic for any thread
/// count. `stats` (optional) receives exploration accounting.
[[nodiscard]] std::vector<LayerSolutionSet> explore_model(
    const graph::Model& model, const DesignSpace& space,
    const ExploreOptions& opts, ExploreStats* stats);

[[nodiscard]] inline std::vector<LayerSolutionSet> explore_model(
    const graph::Model& model, const DesignSpace& space,
    const ExploreOptions& opts) {
  return explore_model(model, space, opts, nullptr);
}

}  // namespace daedvfs::dse
