#include "scenario/policy.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "clock/rcc.hpp"
#include "obs/metrics.hpp"

namespace daedvfs::scenario {

TransitionCost wake_transition(clock::RccState wake, const RungInfo& to,
                               const clock::SwitchCostParams& sw,
                               const power::PowerModel& pm) {
  return power::price_switch(sw, pm, wake, to.entry_hfo);
}

int WakeTable::intern(const clock::RccState& w) {
  const auto it = std::find(states_.begin(), states_.end(), w);
  if (it != states_.end()) return static_cast<int>(it - states_.begin());
  states_.push_back(w);
  return static_cast<int>(states_.size() - 1);
}

WakeTable::WakeTable(const std::vector<RungInfo>& rungs,
                     const clock::SwitchCostParams& switching,
                     const power::PowerModel& pm,
                     const std::optional<clock::ClockConfig>& boot)
    : rungs_(rungs.size()), switching_(switching), power_(pm.params()) {
  if (boot) boot_ = intern(clock::RccState::at(*boot));
  for (const RungInfo& r : rungs) {
    exit_.push_back(intern(clock::RccState::at(r.exit_hfo)));
  }
  for (const RungInfo& r : rungs) {
    free_.push_back(pm.stall(switching.mux_switch_us,
                             clock::RccState::at(r.entry_hfo)));
  }
  for (const int from : exit_) {
    for (const RungInfo& target : rungs) {
      clock::RccState w = states_[static_cast<std::size_t>(from)];
      const clock::SwitchCost sw =
          clock::background_reposition_cost(switching, target.entry_hfo, w);
      const TransitionCost cost = pm.stall(sw.total_us, w);
      reposition_.push_back({intern(w), cost.us, cost.uj});
    }
  }
  cost_.reserve(states_.size() * rungs_);
  for (const clock::RccState& w : states_) {
    for (const RungInfo& r : rungs) {
      cost_.push_back(wake_transition(w, r, switching, pm));
    }
  }
}

LadderPolicy::LadderPolicy(std::vector<RungInfo> rungs,
                           clock::SwitchCostParams switching,
                           power::PowerModelParams power, std::string name,
                           bool predictive)
    : rungs_(std::move(rungs)),
      switching_(switching),
      pm_(power),
      table_(rungs_, switching_, pm_),
      name_(std::move(name)),
      predictive_(predictive) {}

LadderPolicy::LadderPolicy(clock::SwitchCostParams switching,
                           power::PowerModelParams power, bool predictive)
    : switching_(switching), pm_(power), predictive_(predictive) {}

void LadderPolicy::set_rungs(std::vector<RungInfo> rungs) {
  rungs_ = std::move(rungs);
  table_ = WakeTable(rungs_, switching_, pm_);
}

double catch_up_budget_us(std::uint32_t backlog, double window_remaining_s,
                          double radio_us) {
  // With a backlog and a closing window, aim to serve the queue plus this
  // frame before the window ends. Each frame's share of the window must
  // also fit its uplink burst, so the compute budget is the share net of the
  // radio time — the radio-cost side of the energy / latency-debt trade.
  if (backlog > 0 && window_remaining_s >= 0.0) {
    return window_remaining_s * 1e6 / (static_cast<double>(backlog) + 1.0) -
           radio_us;
  }
  return std::numeric_limits<double>::infinity();
}

RungPick select_rung(const std::vector<RungInfo>& rungs, double deadline_us,
                     double budget_us, double cap_mhz,
                     const TransitionCost* wake) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  int best_budget = -1, best_deadline = -1, fastest = -1, coolest = -1;
  double be_budget = kInf, be_deadline = kInf, fastest_t = kInf;
  double coolest_mhz = kInf;
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    const RungInfo& r = rungs[i];
    if (r.peak_mhz() < coolest_mhz) {
      coolest_mhz = r.peak_mhz();
      coolest = static_cast<int>(i);
    }
    // Thermally barred.
    if (cap_mhz > 0.0 && r.peak_mhz() > cap_mhz + 1e-9) continue;

    const TransitionCost trans = wake != nullptr ? wake[i] : TransitionCost{};
    const double t = r.t_us + trans.us;
    const double e = r.e_uj + trans.uj;
    if (t < fastest_t) {
      fastest_t = t;
      fastest = static_cast<int>(i);
    }
    if (t <= deadline_us + 1e-9 && e < be_deadline) {
      be_deadline = e;
      best_deadline = static_cast<int>(i);
    }
    if (t <= std::min(deadline_us, budget_us) + 1e-9 && e < be_budget) {
      be_budget = e;
      best_budget = static_cast<int>(i);
    }
  }
  if (best_budget >= 0) return {best_budget, kTierBudget};
  if (best_deadline >= 0) return {best_deadline, kTierDeclared};
  // No rung fits the deadline: run the fastest reachable one (the miss is
  // the scenario engine's to count).
  if (fastest >= 0) return {fastest, kTierFastest};
  // The thermal cap excluded everything: run the coolest rung (the engine
  // counts the violation).
  return {coolest, kTierCoolest};
}

namespace {

/// Shared pick of choose() and predict_next(). `wake` holds the
/// wake-transition cost into each rung (nullptr: no transition).
RungPick pick_rung(const std::vector<RungInfo>& rungs, const FrameContext& ctx,
                   const TransitionCost* wake) {
  return select_rung(
      rungs, ctx.deadline_us,
      catch_up_budget_us(ctx.backlog, ctx.window_remaining_s, ctx.radio_us),
      ctx.max_sysclk_mhz, wake);
}

}  // namespace

void LadderPolicy::set_sink(obs::Sink* sink) {
  obs::MetricsRegistry* mx = sink != nullptr ? sink->metrics : nullptr;
  if (mx == nullptr) {
    choose_calls_ = nullptr;
    predict_calls_ = nullptr;
    for (auto& c : tier_counters_) c = nullptr;
    return;
  }
  choose_calls_ = &mx->counter("governor.choose_calls");
  predict_calls_ = &mx->counter("governor.predict_calls");
  tier_counters_[kTierBudget] = &mx->counter("governor.tier_budget");
  tier_counters_[kTierDeclared] = &mx->counter("governor.tier_declared");
  tier_counters_[kTierFastest] = &mx->counter("governor.tier_fastest");
  tier_counters_[kTierCoolest] = &mx->counter("governor.tier_coolest");
}

const TransitionCost* LadderPolicy::wake_row(
    const FrameContext& ctx, int current_rung,
    std::vector<TransitionCost>& repriced) const {
  if (ctx.wake_table != nullptr && ctx.wake_id >= 0) {
    if (ctx.wake_table->prices_like(table_)) {
      return ctx.wake_table->row(ctx.wake_id);
    }
    const clock::RccState& wake = ctx.wake_table->state(ctx.wake_id);
    repriced.clear();
    for (const RungInfo& r : rungs_) {
      repriced.push_back(wake_transition(wake, r, switching_, pm_));
    }
    return repriced.data();
  }
  if (current_rung >= 0) return table_.row(table_.exit_id(current_rung));
  return nullptr;
}

int LadderPolicy::choose(const FrameContext& ctx, int current_rung) const {
  if (rungs_.empty()) return -1;
  std::vector<TransitionCost> repriced;
  const RungPick pick =
      pick_rung(rungs_, ctx, wake_row(ctx, current_rung, repriced));
  if (choose_calls_ != nullptr) {
    choose_calls_->add();
    tier_counters_[pick.tier]->add();
  }
  return pick.rung;
}

std::optional<PrelockAnchor> find_prelock_anchor(
    const std::vector<RungInfo>& rungs, double t_base_us,
    const clock::SwitchCostParams& switching, const power::PowerModel& pm) {
  if (t_base_us <= 0.0) return std::nullopt;
  for (std::size_t j = 0; j < rungs.size(); ++j) {
    const TransitionCost wrap =
        wake_transition(clock::RccState::at(rungs[j].exit_hfo), rungs[j],
                        switching, pm);
    if (wrap.us < 1.0) continue;  // wrap-free: not a mixed rung
    for (std::size_t i = 0; i < j; ++i) {
      const TransitionCost iwrap = wake_transition(
          clock::RccState::at(rungs[i].exit_hfo), rungs[i], switching, pm);
      if (iwrap.us >= 1.0 || rungs[i].e_uj <= rungs[j].e_uj) continue;
      PrelockAnchor anchor;
      anchor.mixed = static_cast<int>(j);
      anchor.pure = static_cast<int>(i);
      anchor.tight_slack =
          (rungs[j].t_us + wrap.us * 0.5) / t_base_us - 1.0;
      return anchor;
    }
  }
  return std::nullopt;
}

std::optional<ThermalAnchor> find_thermal_anchor(
    const std::vector<RungInfo>& rungs) {
  double peak_min = std::numeric_limits<double>::infinity();
  double peak_max = 0.0;
  for (const RungInfo& r : rungs) {
    peak_min = std::min(peak_min, r.peak_mhz());
    peak_max = std::max(peak_max, r.peak_mhz());
  }
  if (!(peak_min + 1.0 < peak_max)) return std::nullopt;
  ThermalAnchor anchor;
  anchor.derate.start_c = 45.0;
  anchor.derate.mhz_per_c = 4.0;
  anchor.derate.nominal_max_mhz = peak_max;
  anchor.cap_mhz = (peak_min + peak_max) / 2.0;
  anchor.hot_ambient_c =
      anchor.derate.start_c + (peak_max - anchor.cap_mhz) / anchor.derate.mhz_per_c;
  return anchor;
}

std::uint32_t degraded_skip(double battery_soc, double miss_ewma,
                            const DegradedModeSpec& spec) {
  if (!spec.enabled()) return 0;
  double severity = 0.0;
  if (spec.critical_soc > 0.0 && battery_soc < spec.critical_soc) {
    severity = (spec.critical_soc - battery_soc) / spec.critical_soc;
  }
  if (spec.miss_pressure > 0.0 && miss_ewma > spec.miss_pressure) {
    const double span = 1.0 - spec.miss_pressure;
    const double miss_sev =
        span > 0.0 ? std::min(1.0, (miss_ewma - spec.miss_pressure) / span)
                   : 1.0;
    severity = std::max(severity, miss_sev);
  }
  if (severity <= 0.0) return 0;
  const double scaled =
      std::ceil(std::min(severity, 1.0) * static_cast<double>(spec.max_skip));
  const auto skip = static_cast<std::uint32_t>(scaled);
  return skip < spec.max_skip ? skip : spec.max_skip;
}

std::uint32_t LadderPolicy::degraded_skip(double battery_soc,
                                          double miss_ewma,
                                          const DegradedModeSpec& spec) const {
  return scenario::degraded_skip(battery_soc, miss_ewma, spec);
}

int LadderPolicy::predict_next(const FrameContext& ctx, int chosen) const {
  (void)chosen;
  if (!predictive_ || rungs_.empty()) return -1;
  if (predict_calls_ != nullptr) predict_calls_->add();
  // Steady-duty-cycle assumption: the next frame looks like this one. Pick
  // the rung the policy would run if waking were free — pre-locking its
  // entry PLL during the coming sleep is exactly what makes that true.
  return pick_rung(rungs_, ctx, table_.free_wake()).rung;
}

}  // namespace daedvfs::scenario
