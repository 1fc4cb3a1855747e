#include "core/schedule_builder.hpp"

#include <limits>

#include "dse/freq_replay.hpp"
#include "obs/trace.hpp"
#include "runtime/baseline.hpp"

namespace daedvfs::core {

double ScheduleBuilder::mckp_capacity(double qos_us) const {
  if (!cfg_.reserve_switch_overhead) return qos_us;
  const clock::SwitchCostParams sw = cfg_.explore.sim.switching;
  double cap =
      qos_us -
      static_cast<double>(model_.num_layers()) * 2.0 * sw.mux_switch_us -
      static_cast<double>(cfg_.reserved_relocks) *
          (sw.pll_relock_us + sw.vos_change_us);
  return cap < 0.0 ? 0.0 : cap;
}

mckp::Instance ScheduleBuilder::make_instance(
    const std::vector<dse::LayerSolutionSet>& dse) {
  mckp::Instance inst;
  inst.classes.reserve(dse.size());
  for (const auto& set : dse) {
    std::vector<mckp::Item> cls;
    cls.reserve(set.pareto.size());
    for (const auto& sol : set.pareto) {
      cls.push_back({sol.t_us, sol.energy_uj});
    }
    inst.classes.push_back(std::move(cls));
  }
  return inst;
}

BuiltSchedule ScheduleBuilder::build(
    const std::vector<dse::LayerSolutionSet>& dse, double qos_us,
    mckp::DpWorkspace& ws) const {
  mckp::Instance inst = make_instance(dse);
  inst.capacity = mckp_capacity(qos_us);
  obs::TraceRecorder* const tr =
      cfg_.explore.sink != nullptr ? cfg_.explore.sink->trace : nullptr;
  const double mckp_start_us = tr != nullptr ? obs::host_now_us() : 0.0;
  const mckp::Solution sol = mckp::solve_dp(inst, cfg_.mckp_ticks, ws);
  if (tr != nullptr) {
    tr->complete(obs::Track::kHost, "mckp", mckp_start_us,
                 obs::host_now_us() - mckp_start_us);
  }
  return build_from_solution(dse, qos_us, sol);
}

BuiltSchedule ScheduleBuilder::build_from_solution(
    const std::vector<dse::LayerSolutionSet>& dse, double qos_us,
    const mckp::Solution& sol) const {
  BuiltSchedule bs;
  bs.schedule.plans.resize(static_cast<std::size_t>(model_.num_layers()));
  if (!sol.feasible) return bs;

  bs.feasible = true;
  bs.pick.assign(dse.size(), -1);
  for (std::size_t k = 0; k < dse.size(); ++k) {
    bs.pick[k] = sol.chosen[k];
    bs.schedule.plans[k] =
        dse[k].pareto[static_cast<std::size_t>(bs.pick[k])].to_plan(
            cfg_.space.lfo);
  }

  smooth(dse, bs);
  repair(dse, qos_us, bs);

  for (std::size_t k = 0; k < dse.size(); ++k) {
    const dse::LayerSolution& s =
        dse[k].pareto[static_cast<std::size_t>(bs.pick[k])];
    bs.planned_t_us += s.t_us;
    bs.planned_e_uj += s.energy_uj;
  }
  return bs;
}

// ---- Frequency smoothing: the per-layer DSE ignores the ~200 us PLL
// relock paid whenever consecutive layers use different HFO parameters.
// Aligning a layer's HFO with its predecessor's is accepted when a Pareto
// alternative exists that is *strictly better* once the avoided relock
// (time and stall energy) is credited — safe to apply before QoS repair.
void ScheduleBuilder::smooth(const std::vector<dse::LayerSolutionSet>& dse,
                             BuiltSchedule& bs) const {
  const clock::SwitchCostParams sw = cfg_.explore.sim.switching;
  const double relock_us = sw.pll_relock_us + sw.vos_change_us;
  const power::PowerModel pm(cfg_.explore.sim.power);
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t k = 1; k < dse.size(); ++k) {
      const auto& prev_hfo = bs.schedule.plans[k - 1].hfo;
      if (bs.schedule.plans[k].hfo == prev_hfo) continue;
      const auto& front = dse[k].pareto;
      const auto& cur = front[static_cast<std::size_t>(bs.pick[k])];
      // Relocks avoided: at this layer's entry, plus at the next layer's
      // entry when it already runs at the predecessor's setting.
      double saved_us = relock_us;
      if (k + 1 < dse.size() && bs.schedule.plans[k + 1].hfo == prev_hfo) {
        saved_us += relock_us;
      }
      const double saved_uj =
          saved_us *
          pm.config_power_mw(prev_hfo, power::Activity::kMemoryStall) * 1e-3;
      for (std::size_t j = 0; j < front.size(); ++j) {
        if (!(front[j].hfo == prev_hfo)) continue;
        const double dt = front[j].t_us - cur.t_us;
        const double de = front[j].energy_uj - cur.energy_uj;
        if (dt <= saved_us && de <= saved_uj) {
          bs.pick[k] = static_cast<int>(j);
          bs.schedule.plans[k] = front[j].to_plan(cfg_.space.lfo);
          break;
        }
      }
    }
  }
}

// ---- QoS repair: the per-layer DSE cannot see inter-layer transition
// costs (PLL relocks, regulator scale changes), so a schedule planned to
// the full budget can measure slightly over it. Greedily move layers to
// faster Pareto points (min energy increase per us recovered) until the
// *measured* inference fits the window. The swap choice depends only on the
// planned per-layer profiles; the measurement gates termination — so the
// replay path (record once, closed-form per swap) walks the same swap
// sequence as a fresh simulation per iteration would.
void ScheduleBuilder::repair(const std::vector<dse::LayerSolutionSet>& dse,
                             double qos_us, BuiltSchedule& bs) const {
  if (cfg_.max_repair_iterations <= 0) return;  // unmeasured, like the seed
  obs::TraceRecorder* const tr =
      cfg_.explore.sink != nullptr ? cfg_.explore.sink->trace : nullptr;
  const double repair_start_us = tr != nullptr ? obs::host_now_us() : 0.0;
  const sim::SimParams& sim = cfg_.explore.sim;
  dse::ProfileCache* const memo = cfg_.explore.cache;
  bs.measured = true;

  // A memoized run that already meets QoS is the whole measurement (the
  // loop below stops before its first swap); otherwise record, and keep
  // the recording's end state in the memo.
  const std::uint64_t key =
      memo != nullptr ? dse::run_key(engine_, bs.schedule, sim) : 0;
  const sim::Mcu* const hit = memo != nullptr ? memo->find_run(key) : nullptr;
  dse::ScheduleLedger ledger;
  double t = 0.0;
  double e = 0.0;
  if (hit != nullptr && hit->time_us() <= qos_us) {
    t = hit->time_us();
    e = hit->energy_uj();
  } else {
    ledger = dse::record_schedule(engine_, bs.schedule, sim);
    bs.repair_simulations = 1;
    if (memo != nullptr && hit == nullptr) memo->store_run(key, ledger.end);
    t = ledger.end.time_us();
    e = ledger.end.energy_uj();
  }

  for (int iter = 0; t > qos_us && iter < cfg_.max_repair_iterations;
       ++iter) {
    double best_ratio = std::numeric_limits<double>::infinity();
    std::size_t best_k = dse.size();
    int best_j = -1;
    for (std::size_t k = 0; k < dse.size(); ++k) {
      const auto& front = dse[k].pareto;
      const auto& cur = front[static_cast<std::size_t>(bs.pick[k])];
      for (int j = 0; j < bs.pick[k]; ++j) {  // faster alternatives only
        const auto& alt = front[static_cast<std::size_t>(j)];
        const double dt = cur.t_us - alt.t_us;
        if (dt <= 0.0) continue;
        const double ratio = (alt.energy_uj - cur.energy_uj) / dt;
        if (ratio < best_ratio) {
          best_ratio = ratio;
          best_k = k;
          best_j = j;
        }
      }
    }
    if (best_j < 0) break;  // already fastest everywhere
    bs.pick[best_k] = best_j;
    bs.schedule.plans[best_k] =
        dse[best_k].pareto[static_cast<std::size_t>(best_j)].to_plan(
            cfg_.space.lfo);
    ++bs.repair_iterations;

    if (!cfg_.exact_simulation) {
      // Granularity-changing swaps patch the recording (a couple of
      // single-layer re-records) instead of re-simulating the schedule.
      bs.repair_layer_recordings +=
          dse::patch_recorded_granularity(ledger, engine_, bs.schedule, sim);
      const dse::ProfileEntry pe =
          dse::replay_schedule(ledger, bs.schedule, sim);
      t = pe.t_us;
      e = pe.energy_uj;
    } else {
      ledger = dse::record_schedule(engine_, bs.schedule, sim);
      ++bs.repair_simulations;
      if (memo != nullptr) {
        memo->store_run(dse::run_key(engine_, bs.schedule, sim), ledger.end);
      }
      t = ledger.end.time_us();
      e = ledger.end.energy_uj();
    }
  }
  bs.measured_t_us = t;
  bs.measured_e_uj = e;
  if (tr != nullptr) {
    tr->complete(obs::Track::kHost, "repair", repair_start_us,
                 obs::host_now_us() - repair_start_us, "iterations",
                 static_cast<double>(bs.repair_iterations), "simulations",
                 static_cast<double>(bs.repair_simulations));
  }
}

sim::Mcu measure_schedule(dse::ProfileCache* memo,
                          const runtime::InferenceEngine& engine,
                          const runtime::Schedule& schedule,
                          const sim::SimParams& sim, int& sims) {
  const std::uint64_t key =
      memo != nullptr ? dse::run_key(engine, schedule, sim) : 0;
  if (memo != nullptr) {
    if (const sim::Mcu* hit = memo->find_run(key)) return *hit;
  }
  sim::Mcu end = runtime::simulate_schedule(engine, schedule, sim);
  ++sims;
  if (memo != nullptr) memo->store_run(key, end);
  return end;
}

double tinyengine_baseline_us(const runtime::InferenceEngine& engine,
                              const sim::SimParams& sim) {
  return runtime::simulate_schedule(
             engine, runtime::make_tinyengine_schedule(engine.model()), sim)
      .time_us();
}

}  // namespace daedvfs::core
