#include "governor/planning.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/metrics.hpp"

namespace daedvfs::governor {

namespace {

constexpr double kEps = 1e-9;

/// Last event at or before `t` in an at_s-sorted vector, by binary search.
template <typename Event>
const Event* last_at_or_before(const std::vector<Event>& events, double t) {
  auto it = std::upper_bound(
      events.begin(), events.end(), t,
      [](double lhs, const Event& e) { return lhs < e.at_s; });
  if (it == events.begin()) return nullptr;
  return &*std::prev(it);
}

}  // namespace

MissionForecast MissionForecast::from_spec(const scenario::MissionSpec& spec,
                                           double t_base_us) {
  MissionForecast f;
  f.t_base_us = t_base_us;
  f.base_period_s = spec.duty.period_s;
  f.base_qos_slack = spec.base_qos_slack;
  f.low_battery_soc = spec.low_battery_soc;
  f.low_battery_qos_slack = spec.low_battery_qos_slack;
  f.base_harvest_mw = std::max(spec.base_harvest_mw, 0.0);
  f.qos = spec.qos_events;
  std::stable_sort(f.qos.begin(), f.qos.end(),
                   [](const scenario::QosEvent& a, const scenario::QosEvent& b) {
                     return a.at_s < b.at_s;
                   });
  f.bursts = spec.bursts;
  std::stable_sort(f.bursts.begin(), f.bursts.end(),
                   [](const scenario::Burst& a, const scenario::Burst& b) {
                     return a.start_s < b.start_s;
                   });
  f.harvest = spec.harvest_events;
  std::stable_sort(
      f.harvest.begin(), f.harvest.end(),
      [](const scenario::HarvestEvent& a, const scenario::HarvestEvent& b) {
        return a.at_s < b.at_s;
      });
  // Merge positive-duration connectivity windows into sorted disjoint
  // spans (the spec allows overlapping / unordered windows).
  std::vector<ForecastSpan> spans;
  for (const scenario::ConnectivityWindow& w : spec.connectivity) {
    if (w.duration_s > 0.0) spans.push_back({w.start_s, w.start_s + w.duration_s});
  }
  std::sort(spans.begin(), spans.end(),
            [](const ForecastSpan& a, const ForecastSpan& b) {
              return a.start_s < b.start_s;
            });
  for (const ForecastSpan& s : spans) {
    if (!f.windows.empty() && s.start_s <= f.windows.back().end_s) {
      f.windows.back().end_s = std::max(f.windows.back().end_s, s.end_s);
    } else {
      f.windows.push_back(s);
    }
  }
  return f;
}

double MissionForecast::qos_slack_at(double t) const {
  const scenario::QosEvent* e = last_at_or_before(qos, t);
  return e != nullptr ? e->qos_slack : base_qos_slack;
}

double MissionForecast::period_at(double t) const {
  double period = base_period_s;
  for (const scenario::Burst& b : bursts) {
    if (b.start_s > t) break;  // sorted: nothing later can be active
    if (b.period_s > 0.0 && t >= b.start_s && t < b.start_s + b.duration_s) {
      period = std::min(period, b.period_s);
    }
  }
  return period;
}

double MissionForecast::deadline_us_at(double t, double soc) const {
  double slack = qos_slack_at(t);
  if (low_battery_soc > 0.0 && soc < low_battery_soc) {
    slack = std::max(slack, low_battery_qos_slack);
  }
  return t_base_us * (1.0 + slack);
}

bool MissionForecast::connected_at(double t) const {
  if (!gated()) return true;
  return window_remaining_at(t) >= 0.0;
}

double MissionForecast::window_remaining_at(double t) const {
  if (!gated()) return -1.0;
  auto it = std::upper_bound(
      windows.begin(), windows.end(), t,
      [](double lhs, const ForecastSpan& s) { return lhs < s.start_s; });
  if (it == windows.begin()) return -1.0;
  const ForecastSpan& s = *std::prev(it);
  return t < s.end_s ? s.end_s - t : -1.0;
}

double MissionForecast::harvest_mw_at(double t) const {
  const scenario::HarvestEvent* e = last_at_or_before(harvest, t);
  return e != nullptr ? std::max(e->intake_mw, 0.0) : base_harvest_mw;
}

PlanningPolicy::PlanningPolicy(std::vector<scenario::RungInfo> rungs,
                               clock::SwitchCostParams switching,
                               power::PowerModelParams power,
                               PlanningConfig cfg, std::string name,
                               bool predictive)
    : LadderPolicy(std::move(rungs), switching, power, std::move(name),
                   predictive),
      cfg_(std::move(cfg)) {}

void PlanningPolicy::set_sink(obs::Sink* sink) {
  LadderPolicy::set_sink(sink);
  obs::MetricsRegistry* mx = sink != nullptr ? sink->metrics : nullptr;
  if (mx == nullptr) {
    replans_ = nullptr;
    overrides_ = nullptr;
    forecast_predicts_ = nullptr;
    return;
  }
  replans_ = &mx->counter("planner.replans");
  overrides_ = &mx->counter("planner.overrides");
  forecast_predicts_ = &mx->counter("planner.forecast_predicts");
}

int PlanningPolicy::choose(const scenario::FrameContext& ctx,
                           int current_rung) const {
  // The myopic pick first: it keeps the governor.* decision metrics live,
  // is the horizon == 0 answer verbatim, and is the tie-breaker of every
  // plan comparison below.
  const int base = LadderPolicy::choose(ctx, current_rung);
  if (cfg_.horizon == 0 || base < 0) return base;
  if (replans_ != nullptr) replans_->add();

  std::vector<scenario::TransitionCost> repriced;
  const scenario::TransitionCost* const wake0 =
      wake_row(ctx, current_rung, repriced);
  auto slot0_cost = [&](int rung_idx) -> std::pair<double, double> {
    const scenario::RungInfo& r = rungs_[static_cast<std::size_t>(rung_idx)];
    const scenario::TransitionCost trans =
        wake0 != nullptr ? wake0[rung_idx] : scenario::TransitionCost{};
    return {trans.us + r.t_us, trans.uj + r.e_uj};
  };

  // When the myopic pick already misses the declared deadline (fastest /
  // coolest fallback tier) there is no slack for a plan to spend — commit
  // it unchanged.
  const auto [base_t0, base_e0] = slot0_cost(base);
  if (base_t0 > ctx.deadline_us + kEps) return base;

  // Slot-0 feasibility bound: the same effective deadline the online rule
  // applied — catch-up-budget-tightened when the myopic pick met the
  // budget, declared-deadline otherwise (the budget tier was already
  // dropped). Candidates must meet it, so a plan can never trade a
  // real slot-0 miss for forecast energy.
  double budget_us = std::numeric_limits<double>::infinity();
  if (ctx.backlog > 0 && ctx.window_remaining_s >= 0.0) {
    budget_us = ctx.window_remaining_s * 1e6 /
                    (static_cast<double>(ctx.backlog) + 1.0) -
                ctx.radio_us;
  }
  double bound = ctx.deadline_us;
  if (base_t0 <= std::min(ctx.deadline_us, budget_us) + kEps) {
    bound = std::min(ctx.deadline_us, budget_us);
  }

  // Rollout: commit `first` at slot 0, then replay the online rule
  // greedily over the forecast horizon, threading the wake state exactly
  // like the engine does across frames. Backlog evolves under a
  // one-frame-per-connected-slot drain model; disconnected forecast slots
  // queue instead of serving (no compute, no cost). The score is the
  // engine's own lexicographic objective: deadline misses first, then
  // compute-path energy (inference + transitions) — radio cost is
  // identical across plans (same frames uplinked) and drops out.
  struct PlanCost {
    std::uint64_t misses = 0;
    double e_uj = 0.0;
  };
  const MissionForecast& fc = cfg_.forecast;
  auto rollout = [&](int first) -> PlanCost {
    PlanCost cost;
    double t = ctx.time_s;
    std::uint32_t backlog = ctx.backlog;
    const scenario::TransitionCost* wake = wake0;
    for (std::uint32_t slot = 0; slot < cfg_.horizon; ++slot) {
      scenario::FrameContext f;
      f.time_s = t;
      f.battery_soc = ctx.battery_soc;
      f.max_sysclk_mhz = ctx.max_sysclk_mhz;
      f.radio_us = ctx.radio_us;
      f.backlog = backlog;
      if (slot == 0) {
        f.deadline_us = ctx.deadline_us;
        f.period_s = ctx.period_s;
        f.window_remaining_s = ctx.window_remaining_s;
        f.harvest_mw = ctx.harvest_mw;
      } else {
        f.deadline_us = fc.deadline_us_at(t, ctx.battery_soc);
        f.period_s = fc.period_at(t);
        f.window_remaining_s = fc.window_remaining_at(t);
        f.harvest_mw = fc.harvest_mw_at(t);
      }
      const bool served = slot == 0 || !fc.gated() || fc.connected_at(t);
      if (served) {
        const int r = slot == 0 ? first : raw_pick(f, wake);
        if (r < 0) break;
        const scenario::RungInfo& ri = rungs_[static_cast<std::size_t>(r)];
        const scenario::TransitionCost trans =
            wake != nullptr ? wake[r] : scenario::TransitionCost{};
        if (trans.us + ri.t_us > f.deadline_us + kEps) ++cost.misses;
        cost.e_uj += trans.uj + ri.e_uj;
        wake = table_.row(table_.exit_id(r));
        if (backlog > 0) --backlog;
      } else if (backlog < std::numeric_limits<std::uint32_t>::max()) {
        ++backlog;  // the capture queues behind the closed window
      }
      t += f.period_s;
    }
    return cost;
  };

  PlanCost best = rollout(base);
  int pick = base;
  for (std::size_t i = 0; i < rungs_.size(); ++i) {
    const int cand = static_cast<int>(i);
    if (cand == base) continue;
    const scenario::RungInfo& r = rungs_[i];
    if (ctx.max_sysclk_mhz > 0.0 && r.peak_mhz() > ctx.max_sysclk_mhz + kEps) {
      continue;  // thermally barred at slot 0
    }
    if (slot0_cost(cand).first > bound + kEps) continue;
    const PlanCost pc = rollout(cand);
    if (pc.misses < best.misses ||
        (pc.misses == best.misses && pc.e_uj < best.e_uj - kEps)) {
      best = pc;
      pick = cand;
    }
  }
  if (pick != base && overrides_ != nullptr) overrides_->add();
  return pick;
}

int PlanningPolicy::predict_next(const scenario::FrameContext& ctx,
                                 int chosen) const {
  if (cfg_.horizon == 0) return LadderPolicy::predict_next(ctx, chosen);
  if (!predictive_ || rungs_.empty()) return -1;
  if (forecast_predicts_ != nullptr) forecast_predicts_->add();
  // Pre-lock for the slot the node will actually wake into: the forecast
  // context one period ahead, not a frozen copy of this one. At event
  // boundaries (burst starts, QoS steps, window edges) this is where the
  // steady-state predictor systematically mispredicts.
  const MissionForecast& fc = cfg_.forecast;
  const double t_next = ctx.time_s + ctx.period_s;
  scenario::FrameContext next;
  next.time_s = t_next;
  next.battery_soc = ctx.battery_soc;
  next.max_sysclk_mhz = ctx.max_sysclk_mhz;
  next.radio_us = ctx.radio_us;
  next.period_s = fc.period_at(t_next);
  next.deadline_us = fc.deadline_us_at(t_next, ctx.battery_soc);
  next.backlog = ctx.backlog > 0 ? ctx.backlog - 1 : 0;
  next.window_remaining_s = fc.window_remaining_at(t_next);
  next.harvest_mw = fc.harvest_mw_at(t_next);
  return raw_pick(next, table_.free_wake());
}

}  // namespace daedvfs::governor
