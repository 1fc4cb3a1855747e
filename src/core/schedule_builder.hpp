// Schedule construction from per-layer Pareto fronts: MCKP selection,
// frequency smoothing and the QoS-repair loop — the Step-3 machinery of
// core::Pipeline, factored out so the adaptive governor (src/governor/) can
// build a whole ladder of schedules (one per QoS slack) from ONE design-space
// exploration and one shared MCKP DP workspace.
//
// Measurement strategy: every schedule measurement is the full-model
// simulation the paper's methodology calls for (inter-layer PLL relocks,
// regulator settles, cache state inherited across layers). By default the
// repair loop performs that simulation once — recording a
// dse::ScheduleLedger — and re-evaluates every repair swap in closed form
// via dse::replay_schedule. Swaps that change a layer's granularity (which
// alters the cache stream) no longer re-simulate the schedule either: the
// ledger is patched by re-recording the minimal run of single layers from
// the stored entry cache images (dse::patch_recorded_granularity), so one
// recording simulation serves the whole loop. PipelineConfig::
// exact_simulation forces a fresh simulation per measurement instead; both
// paths produce identical schedules (pinned in tests).
//
// Whole-schedule simulations go through the run memo of
// `PipelineConfig::explore.cache` when one is set (dse/profile_cache.hpp):
// the repair loop looks its schedule up first and records nothing when the
// memoized run already meets QoS, and stores what it records, so the
// caller's evaluation of an unrepaired schedule is a memo hit.
#pragma once

#include "core/pipeline.hpp"
#include "mckp/mckp.hpp"

namespace daedvfs::core {

/// One constructed schedule plus its accounting.
struct BuiltSchedule {
  bool feasible = false;
  runtime::Schedule schedule;       ///< Plans sized to the model (all paths).
  std::vector<int> pick;            ///< Pareto index per layer (feasible only).
  double planned_t_us = 0.0;        ///< Sum of per-layer DSE profiles.
  double planned_e_uj = 0.0;
  bool measured = false;
  double measured_t_us = 0.0;       ///< Full-schedule measurement, including
  double measured_e_uj = 0.0;       ///< inter-layer switch costs.
  int repair_iterations = 0;
  /// Full simulations spent measuring: 0 when the run memo already held a
  /// schedule that meets QoS, else 1 on the replay path (1 + #swaps with
  /// exact_simulation).
  int repair_simulations = 0;
  /// Single-layer recordings spent patching the schedule ledger after
  /// granularity-changing swaps (replay path only; each is ~1/num_layers of
  /// a full simulation).
  int repair_layer_recordings = 0;
};

class ScheduleBuilder {
 public:
  /// Borrows all three references for its lifetime.
  ScheduleBuilder(const graph::Model& model,
                  const runtime::InferenceEngine& engine,
                  const PipelineConfig& cfg)
      : model_(model), engine_(engine), cfg_(cfg) {}

  /// Latency budget handed to the MCKP: the QoS window minus the reserved
  /// per-layer-transition overhead (PipelineConfig::reserve_switch_overhead).
  [[nodiscard]] double mckp_capacity(double qos_us) const;

  /// MCKP instance over the per-layer Pareto fronts (capacity unset — the
  /// caller picks solve_dp with mckp_capacity or solve_dp_sweep over a
  /// ladder of them).
  [[nodiscard]] static mckp::Instance make_instance(
      const std::vector<dse::LayerSolutionSet>& dse);

  /// One-shot construction: MCKP solve at `qos_us`, frequency smoothing,
  /// QoS repair. Infeasible budgets return feasible == false with
  /// default-constructed plans (the caller substitutes its fallback).
  [[nodiscard]] BuiltSchedule build(
      const std::vector<dse::LayerSolutionSet>& dse, double qos_us,
      mckp::DpWorkspace& ws) const;

  /// Ladder path: smoothing + repair from a precomputed MCKP solution
  /// (e.g. one rung of an mckp::solve_dp_sweep).
  [[nodiscard]] BuiltSchedule build_from_solution(
      const std::vector<dse::LayerSolutionSet>& dse, double qos_us,
      const mckp::Solution& sol) const;

 private:
  void smooth(const std::vector<dse::LayerSolutionSet>& dse,
              BuiltSchedule& bs) const;
  void repair(const std::vector<dse::LayerSolutionSet>& dse, double qos_us,
              BuiltSchedule& bs) const;

  const graph::Model& model_;
  const runtime::InferenceEngine& engine_;
  const PipelineConfig& cfg_;
};

/// Post-inference state of `schedule` on `engine` (runtime::
/// simulate_schedule): served from `memo`'s run memo when it holds the run,
/// else simulated, counted in `sims` and stored. A null `memo` always
/// simulates.
[[nodiscard]] sim::Mcu measure_schedule(dse::ProfileCache* memo,
                                        const runtime::InferenceEngine& engine,
                                        const runtime::Schedule& schedule,
                                        const sim::SimParams& sim, int& sims);

/// TinyEngine-at-216 MHz inference latency — the QoS reference (§IV).
[[nodiscard]] double tinyengine_baseline_us(
    const runtime::InferenceEngine& engine, const sim::SimParams& sim);

}  // namespace daedvfs::core
