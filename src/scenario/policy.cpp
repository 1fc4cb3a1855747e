#include "scenario/policy.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
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
    : ladder_(rungs),
      rungs_(rungs.size()),
      switching_(switching),
      power_(pm.params()) {
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
  index_ = RungIndex(rungs, states_.size() + 2);
  for (std::size_t id = 0; id < states_.size(); ++id) {
    index_.add_row(rungs, row(static_cast<int>(id)));
  }
  index_.add_row(rungs, free_.data());
  index_.add_row(rungs, nullptr);
}

bool WakeTable::built_for(const std::vector<RungInfo>& rungs) const {
  const auto same = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  return std::equal(
      ladder_.begin(), ladder_.end(), rungs.begin(), rungs.end(),
      [&same](const RungInfo& a, const RungInfo& b) {
        return same(a.t_us, b.t_us) && same(a.e_uj, b.e_uj) &&
               same(a.max_sysclk_mhz, b.max_sysclk_mhz) &&
               a.entry_hfo == b.entry_hfo && a.exit_hfo == b.exit_hfo;
      });
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

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The rule's energy order: lower e first, then the lower rung. A slot with
/// e = +inf or NaN never beats the initial (+inf, -1).
bool beats(double e, int rung, double best_e, int best_rung) {
  return e < best_e || (e == best_e && rung < best_rung);
}

}  // namespace

RungIndex::RungIndex(const std::vector<RungInfo>& rungs, std::size_t rows)
    : rungs_(rungs.size()) {
  slots_.reserve(rows * rungs_);
  double coolest_mhz = kInf;
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    const double peak = rungs[i].peak_mhz();
    if (peak < coolest_mhz) {
      coolest_mhz = peak;
      coolest_ = static_cast<int>(i);
    }
    if (peak > max_peak_) max_peak_ = peak;
  }
}

void RungIndex::add_row(const std::vector<RungInfo>& rungs,
                        const TransitionCost* wake) {
  const auto row = static_cast<std::ptrdiff_t>(slots_.size());
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    const RungInfo& r = rungs[i];
    const TransitionCost trans = wake != nullptr ? wake[i] : TransitionCost{};
    Slot s;
    s.t = r.t_us + trans.us;
    s.e = r.e_uj + trans.uj;
    s.peak = r.peak_mhz();
    s.rung = static_cast<int>(i);
    slots_.push_back(s);
  }
  std::sort(slots_.begin() + row, slots_.end(),
            [](const Slot& a, const Slot& b) {
              const bool a_nan = std::isnan(a.t), b_nan = std::isnan(b.t);
              if (a_nan != b_nan) return b_nan;
              if (!a_nan && a.t != b.t) return a.t < b.t;
              return a.rung < b.rung;
            });
  double best_e = kInf;
  int best = -1;
  for (auto it = slots_.begin() + row; it != slots_.end(); ++it) {
    if (beats(it->e, it->rung, best_e, best)) {
      best_e = it->e;
      best = it->rung;
    }
    it->best = best;
  }
}

RungPick RungIndex::pick(std::size_t row, double deadline_us,
                         double budget_us, double cap_mhz) const {
  const Slot* s = slots_.data() + row * rungs_;
  const std::size_t n = rungs_;
  const double deadline = deadline_us + 1e-9;
  const double budget = std::min(deadline_us, budget_us) + 1e-9;
  // budget <= deadline (or both NaN), so the budget's prefix is a prefix of
  // the deadline's. A cap that bars nothing takes the prefix-best walk: it
  // compares latencies only, and it is every frame of a mission without
  // thermal derating. The skip-barred walk below answers the same for such
  // frames, but runs the fleet workload about 16% slower (docs/perf.md,
  // "Indexed rung decisions").
  if (!(cap_mhz > 0.0 && max_peak_ > cap_mhz + 1e-9)) {
    std::size_t k = 0;
    while (k < n && s[k].t <= budget) ++k;
    if (k > 0 && s[k - 1].best >= 0) return {s[k - 1].best, kTierBudget};
    while (k < n && s[k].t <= deadline) ++k;
    if (k > 0 && s[k - 1].best >= 0) return {s[k - 1].best, kTierDeclared};
    // No rung fits the deadline: run the fastest reachable one (the miss
    // is the scenario engine's to count).
    if (n > 0 && s[0].t < kInf) return {s[0].rung, kTierFastest};
    return {coolest_, kTierCoolest};
  }
  // The cap bars some rung: the same walk, skipping barred slots.
  const double cap = cap_mhz + 1e-9;
  int fastest = -1, best_deadline = -1, best_budget = -1;
  double e_deadline = kInf, e_budget = kInf;
  for (std::size_t k = 0; k < n; ++k) {
    const Slot& x = s[k];
    if (x.peak > cap) continue;
    if (fastest < 0 && x.t < kInf) fastest = x.rung;
    // Later slots are no faster, and +inf or NaN ones never set fastest.
    if (!(x.t <= deadline)) break;
    if (beats(x.e, x.rung, e_deadline, best_deadline)) {
      e_deadline = x.e;
      best_deadline = x.rung;
    }
    if (x.t <= budget && beats(x.e, x.rung, e_budget, best_budget)) {
      e_budget = x.e;
      best_budget = x.rung;
    }
  }
  if (best_budget >= 0) return {best_budget, kTierBudget};
  if (best_deadline >= 0) return {best_deadline, kTierDeclared};
  if (fastest >= 0) return {fastest, kTierFastest};
  // The thermal cap excluded everything: run the coolest rung (the engine
  // counts the violation).
  return {coolest_, kTierCoolest};
}

RungPick select_rung(const std::vector<RungInfo>& rungs, double deadline_us,
                     double budget_us, double cap_mhz,
                     const TransitionCost* wake) {
  RungIndex index(rungs, 1);
  index.add_row(rungs, wake);
  return index.pick(0, deadline_us, budget_us, cap_mhz);
}

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

RungPick LadderPolicy::pick(const FrameContext& ctx, int current_rung) const {
  const double budget_us =
      catch_up_budget_us(ctx.backlog, ctx.window_remaining_s, ctx.radio_us);
  if (ctx.wake_table != nullptr && ctx.wake_id >= 0) {
    if (ctx.wake_table->prices_like(table_)) {
      return ctx.wake_table->pick(static_cast<std::size_t>(ctx.wake_id),
                                  ctx.deadline_us, budget_us,
                                  ctx.max_sysclk_mhz);
    }
    const clock::RccState& wake = ctx.wake_table->state(ctx.wake_id);
    std::vector<TransitionCost> repriced;
    for (const RungInfo& r : rungs_) {
      repriced.push_back(wake_transition(wake, r, switching_, pm_));
    }
    return select_rung(rungs_, ctx.deadline_us, budget_us,
                       ctx.max_sysclk_mhz, repriced.data());
  }
  const std::size_t row =
      current_rung >= 0
          ? static_cast<std::size_t>(table_.exit_id(current_rung))
          : table_.no_transition_row();
  return table_.pick(row, ctx.deadline_us, budget_us, ctx.max_sysclk_mhz);
}

int LadderPolicy::choose(const FrameContext& ctx, int current_rung) const {
  if (rungs_.empty()) return -1;
  const RungPick picked = pick(ctx, current_rung);
  if (choose_calls_ != nullptr) {
    choose_calls_->add();
    tier_counters_[picked.tier]->add();
  }
  return picked.rung;
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
  return table_
      .pick(table_.free_row(), ctx.deadline_us,
            catch_up_budget_us(ctx.backlog, ctx.window_remaining_s,
                               ctx.radio_us),
            ctx.max_sysclk_mhz)
      .rung;
}

}  // namespace daedvfs::scenario
