#include "core/pipeline.hpp"

#include "core/schedule_builder.hpp"
#include "dse/profile_cache.hpp"

namespace daedvfs::core {

PipelineResult Pipeline::run(
    const graph::Model& model,
    const std::vector<dse::LayerSolutionSet>* reuse_dse) const {
  PipelineResult res;
  res.model_name = model.name();
  res.qos_slack = cfg_.qos_slack;

  // Every whole-schedule simulation of the run goes through one run memo:
  // the caller's cache (shared across a sweep), else a run-local one.
  dse::ProfileCache run_local;
  PipelineConfig cfg = cfg_;
  if (cfg.explore.cache == nullptr) cfg.explore.cache = &run_local;
  dse::ProfileCache* const memo = cfg.explore.cache;
  const sim::SimParams& sim = cfg.explore.sim;

  // ---- Reference: TinyEngine at 216 MHz defines the QoS window (§IV). Its
  // one simulated inference also yields both TinyEngine windows below.
  const runtime::InferenceEngine engine(model);
  const runtime::Schedule te_schedule =
      runtime::make_tinyengine_schedule(model);
  const sim::Mcu te_end =
      measure_schedule(memo, engine, te_schedule, sim, res.full_sims);
  res.t_base_us = te_end.time_us();
  res.qos_us = res.t_base_us * (1.0 + cfg.qos_slack);

  // ---- Steps 1+2: DAE enabling + per-layer co-exploration. The escape
  // hatch downgrades the fast defaults to bitwise-exact profiling.
  if (reuse_dse != nullptr) {
    res.dse = *reuse_dse;
  } else {
    res.dse = dse::explore_model(model, cfg.space, cfg.effective_explore(),
                                 &res.explore_stats);
  }

  // ---- Step 3: MCKP + frequency smoothing + QoS repair.
  const ScheduleBuilder builder(model, engine, cfg);
  mckp::DpWorkspace ws;
  const BuiltSchedule built = builder.build(res.dse, res.qos_us, ws);
  res.mckp_feasible = built.feasible;
  res.repair_iterations = built.repair_iterations;
  res.repair_simulations = built.repair_simulations;
  res.repair_layer_recordings = built.repair_layer_recordings;
  res.full_sims += built.repair_simulations;

  res.schedule.name = "dae-dvfs(qos=" + std::to_string(cfg.qos_slack) + ")";
  if (built.feasible) {
    res.schedule.plans = built.schedule.plans;
    res.choices.reserve(res.dse.size());
    for (std::size_t k = 0; k < res.dse.size(); ++k) {
      res.choices.push_back(
          {static_cast<int>(k),
           res.dse[k].pareto[static_cast<std::size_t>(built.pick[k])]});
    }
    res.planned_t_us = built.planned_t_us;
    res.planned_e_uj = built.planned_e_uj;
  } else {
    // Fallback: TinyEngine plan when the budget is infeasible.
    res.schedule.plans = te_schedule.plans;
  }

  // ---- Iso-latency evaluation (§IV): all three engines, same QoS window.
  // The DAE run is a memo hit whenever the repair made no swaps.
  res.comparison.tinyengine = runtime::iso_window(te_end, res.qos_us, false);
  res.comparison.tinyengine_gated =
      runtime::iso_window(te_end, res.qos_us, true);
  res.comparison.dae_dvfs = runtime::iso_window(
      measure_schedule(memo, engine, res.schedule, sim, res.full_sims),
      res.qos_us, true);

  // "Never worse than baseline": a deployment tool ships whichever candidate
  // measures cheaper, so the optimized schedule only replaces the gated
  // baseline when it actually wins.
  if (res.comparison.dae_dvfs.total_uj() >
      res.comparison.tinyengine_gated.total_uj()) {
    res.fell_back_to_baseline = true;
    res.schedule = te_schedule;
    res.comparison.dae_dvfs = res.comparison.tinyengine_gated;
  }
  return res;
}

}  // namespace daedvfs::core
