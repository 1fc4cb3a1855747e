#include "governor/governor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>

#include "core/schedule_builder.hpp"
#include "dse/profile_cache.hpp"
#include "scenario/engine.hpp"

namespace daedvfs::governor {
namespace {

/// Peak SYSCLK a schedule touches (HFOs always; the LFO only where DVFS
/// toggling actually engages it) — what thermal derating caps.
double schedule_peak_mhz(const runtime::Schedule& schedule) {
  double peak = 0.0;
  for (const runtime::LayerPlan& plan : schedule.plans) {
    peak = std::max(peak, plan.hfo.sysclk_mhz());
    if (plan.dvfs_enabled && plan.granularity > 0) {
      peak = std::max(peak, plan.lfo.sysclk_mhz());
    }
  }
  return peak;
}

}  // namespace

ScheduleGovernor::ScheduleGovernor(const graph::Model& model,
                                   GovernorConfig cfg)
    : scenario::LadderPolicy(cfg.pipeline.explore.sim.switching,
                             cfg.pipeline.explore.sim.power, cfg.predictive),
      cfg_(std::move(cfg)) {
  // Whole-schedule runs go through one run memo — the shared cache when
  // set (a second governor over the same model then reuses this one's
  // TinyEngine run and identical rungs), else a ladder-local one.
  dse::ProfileCache ladder_local;
  core::PipelineConfig pc = cfg_.pipeline;
  if (pc.explore.cache == nullptr) pc.explore.cache = &ladder_local;
  const runtime::InferenceEngine engine(model);
  int sims = 0;
  t_base_us_ = core::measure_schedule(pc.explore.cache, engine,
                                      runtime::make_tinyengine_schedule(model),
                                      pc.explore.sim, sims)
                   .time_us();

  // One exploration serves every rung (optionally warm via a shared
  // ProfileCache from pc.explore.cache).
  const std::vector<dse::LayerSolutionSet> sets = dse::explore_model(
      model, pc.space, pc.effective_explore(), &explore_stats_);

  // One DP pass answers the whole slack ladder.
  const core::ScheduleBuilder builder(model, engine, pc);
  std::vector<double> slacks = cfg_.qos_slacks;
  std::sort(slacks.begin(), slacks.end());
  slacks.erase(std::unique(slacks.begin(), slacks.end()), slacks.end());
  std::vector<double> capacities;
  capacities.reserve(slacks.size());
  for (double s : slacks) {
    capacities.push_back(builder.mckp_capacity(t_base_us_ * (1.0 + s)));
  }
  mckp::Instance inst = core::ScheduleBuilder::make_instance(sets);
  mckp::DpWorkspace ws;
  const std::vector<mckp::Solution> sols =
      mckp::solve_dp_sweep(inst, capacities, pc.mckp_ticks, ws);
  // Retained for the serving layer: the instance itself plus the affine
  // deadline -> capacity reserve the builder applied (constant per model).
  mckp_instance_ = std::move(inst);
  if (!slacks.empty()) {
    const double qos0 = t_base_us_ * (1.0 + slacks.front());
    mckp_reserve_us_ = qos0 - builder.mckp_capacity(qos0);
  }

  for (std::size_t i = 0; i < slacks.size(); ++i) {
    if (!sols[i].feasible) continue;
    const double qos_us = t_base_us_ * (1.0 + slacks[i]);
    core::BuiltSchedule built =
        builder.build_from_solution(sets, qos_us, sols[i]);
    if (!built.feasible) continue;
    if (!built.measured) {
      // Repair disabled (max_repair_iterations == 0): rungs still need
      // measured latency/energy.
      const sim::Mcu end = core::measure_schedule(
          pc.explore.cache, engine, built.schedule, pc.explore.sim, sims);
      built.measured_t_us = end.time_us();
      built.measured_e_uj = end.energy_uj();
      built.measured = true;
    }
    const bool duplicate =
        std::any_of(schedules_.begin(), schedules_.end(),
                    [&](const runtime::Schedule& s) {
                      return runtime::plans_identical(s, built.schedule);
                    });
    if (duplicate) continue;

    scenario::RungInfo rung;
    rung.name = "qos+" + std::to_string(static_cast<int>(
                             std::lround(slacks[i] * 100.0))) + "%";
    rung.qos_slack = slacks[i];
    rung.t_us = built.measured_t_us;
    rung.e_uj = built.measured_e_uj;
    rung.entry_hfo = built.schedule.plans.front().hfo;
    rung.exit_hfo = built.schedule.plans.back().hfo;
    rung.max_sysclk_mhz = schedule_peak_mhz(built.schedule);
    built.schedule.name = "governor(" + rung.name + ")";
    rungs_.push_back(std::move(rung));
    schedules_.push_back(std::move(built.schedule));
  }

  // Ascending measured latency, then energy-dominance prune: a rung that is
  // both slower and at least as expensive as another can never be chosen.
  std::vector<std::size_t> order(rungs_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (rungs_[a].t_us != rungs_[b].t_us) {
      return rungs_[a].t_us < rungs_[b].t_us;
    }
    return rungs_[a].e_uj < rungs_[b].e_uj;  // latency tie: cheaper first
  });
  std::vector<scenario::RungInfo> sorted_rungs;
  std::vector<runtime::Schedule> sorted_schedules;
  double best_e = std::numeric_limits<double>::infinity();
  for (std::size_t idx : order) {
    if (rungs_[idx].e_uj >= best_e) continue;  // dominated
    best_e = rungs_[idx].e_uj;
    sorted_rungs.push_back(std::move(rungs_[idx]));
    sorted_schedules.push_back(std::move(schedules_[idx]));
  }
  set_rungs(std::move(sorted_rungs));
  schedules_ = std::move(sorted_schedules);
}

}  // namespace daedvfs::governor
