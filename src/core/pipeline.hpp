// End-to-end DAE+DVFS methodology (paper Fig. 3):
//
//   Step 1 — DAE-enable eligible (depthwise/pointwise) layers.   [kernels]
//   Step 2 — per-layer granularity x clocking DSE, Pareto fronts. [dse]
//   Step 3 — QoS-aware energy minimization via MCKP + DP.         [mckp]
//
// The pipeline then *evaluates* the emitted schedule in the iso-latency
// scenario of §IV against the TinyEngine and TinyEngine+clock-gating
// baselines, reporting planned vs measured latency/energy.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "dse/explorer.hpp"
#include "mckp/mckp.hpp"
#include "runtime/baseline.hpp"

namespace daedvfs::core {

struct PipelineConfig {
  /// QoS slack over the TinyEngine-at-216 MHz inference latency:
  /// QoS = T_base * (1 + qos_slack). The paper evaluates 0.10/0.30/0.50.
  double qos_slack = 0.10;
  dse::DesignSpace space;
  /// Exploration options. The pipeline defaults enable the fast path —
  /// frequency replay on top of the always-exact memoization
  /// (docs/perf.md): every candidate is still evaluated, emitted schedules
  /// are identical to the exact sweep across the model zoo (pinned in
  /// tests/test_pipeline.cpp) at an order of magnitude less exploration
  /// cost. Set `exact_simulation` for bitwise-exact simulator output.
  dse::ExploreOptions explore = [] {
    dse::ExploreOptions o;
    o.freq_replay = true;
    return o;
  }();
  /// DP discretization width (see mckp::solve_dp).
  int mckp_ticks = 20000;
  /// Reserve per-layer-transition overhead inside the MCKP budget so the
  /// measured schedule still meets QoS: every layer boundary pays the mux
  /// toggle, plus `reserved_relocks` full PLL relocks (consecutive layers
  /// overwhelmingly share the same HFO, so only a handful of transitions
  /// reprogram the PLL — Fig. 6).
  bool reserve_switch_overhead = true;
  int reserved_relocks = 12;
  /// After MCKP, re-measure the schedule on the simulator (including the
  /// inter-layer switch costs the per-layer DSE cannot see) and, while it
  /// overruns the QoS window, greedily swap layers to faster Pareto points
  /// (minimum energy increase per microsecond recovered). 0 disables.
  /// By default the loop runs on whole-schedule replay (dse/freq_replay):
  /// one recording simulation, then closed-form re-evaluation per swap,
  /// re-simulating only when a swap changes a layer's granularity.
  int max_repair_iterations = 64;
  /// Escape hatch: measure every DSE candidate and every repair-loop
  /// schedule directly on the simulator — disables frequency replay and
  /// whole-schedule replay. Profile memoization stays on (it is bitwise
  /// exact). Schedules are identical to the fast path across the model
  /// zoo; use this to re-validate that equivalence
  /// or when adding simulator channels replay does not model yet.
  bool exact_simulation = false;

  /// Exploration options a run actually uses: `explore` with frequency
  /// replay stripped when `exact_simulation` is set. The single place that
  /// downgrade lives (Pipeline::run and the governor ladder both call it).
  [[nodiscard]] dse::ExploreOptions effective_explore() const {
    dse::ExploreOptions o = explore;
    if (exact_simulation) o.freq_replay = false;
    return o;
  }
};

/// Selected operating point per layer (granularity + HFO).
struct LayerChoice {
  int layer_idx = 0;
  dse::LayerSolution solution;
};

struct IsoLatencyComparison {
  runtime::IsoLatencyResult tinyengine;
  runtime::IsoLatencyResult tinyengine_gated;
  runtime::IsoLatencyResult dae_dvfs;

  [[nodiscard]] double gain_vs_tinyengine_pct() const {
    return 100.0 * (tinyengine.total_uj() - dae_dvfs.total_uj()) /
           tinyengine.total_uj();
  }
  [[nodiscard]] double gated_gain_vs_tinyengine_pct() const {
    return 100.0 * (tinyengine.total_uj() - tinyengine_gated.total_uj()) /
           tinyengine.total_uj();
  }
  [[nodiscard]] double gain_vs_gated_pct() const {
    return 100.0 * (tinyengine_gated.total_uj() - dae_dvfs.total_uj()) /
           tinyengine_gated.total_uj();
  }
};

struct PipelineResult {
  std::string model_name;
  double qos_slack = 0.0;
  double t_base_us = 0.0;  ///< TinyEngine inference latency at 216 MHz.
  double qos_us = 0.0;

  std::vector<dse::LayerSolutionSet> dse;  ///< Step 2 output.
  std::vector<LayerChoice> choices;        ///< Step 3 output.
  runtime::Schedule schedule;
  bool mckp_feasible = false;
  /// True when the optimized schedule measured worse than the clock-gated
  /// baseline and the pipeline deployed the baseline instead ("never worse
  /// than baseline" guard — can trigger for very small models where PLL
  /// relocks rival layer latencies).
  bool fell_back_to_baseline = false;
  double planned_t_us = 0.0;
  double planned_e_uj = 0.0;

  /// Step 2 accounting (zeroed when the run reused a caller's DSE).
  dse::ExploreStats explore_stats;
  /// QoS-repair accounting: greedy swaps applied; full-model simulations
  /// spent measuring them (at most 1 — the initial recording, skipped when
  /// the run memo already holds a schedule that meets QoS — on the replay
  /// path; 1 + #swaps with exact_simulation); and single-layer
  /// re-records spent patching the recording after granularity-changing
  /// swaps (replay path only — granularity moves no longer re-simulate).
  int repair_iterations = 0;
  int repair_simulations = 0;
  int repair_layer_recordings = 0;
  /// Full-model simulations this run performed: the TinyEngine run, the
  /// repair recordings and the DAE evaluation, less every one the run memo
  /// (`explore.cache`, or a run-local memo) already held. A 3-slack sweep
  /// sharing one cache simulates each distinct schedule once.
  int full_sims = 0;

  IsoLatencyComparison comparison;  ///< Measured, iso-latency scenario.
};

class Pipeline {
 public:
  explicit Pipeline(PipelineConfig cfg) : cfg_(std::move(cfg)) {}

  /// Runs steps 1-3 + evaluation for one model. `reuse_dse` (optional)
  /// skips re-exploration when sweeping QoS levels for the same model; set
  /// `explore.cache` to share profiles and simulated runs across the sweep.
  [[nodiscard]] PipelineResult run(
      const graph::Model& model,
      const std::vector<dse::LayerSolutionSet>* reuse_dse = nullptr) const;

  [[nodiscard]] const PipelineConfig& config() const { return cfg_; }

 private:
  PipelineConfig cfg_;
};

}  // namespace daedvfs::core
