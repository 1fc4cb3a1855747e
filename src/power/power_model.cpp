#include "power/power_model.hpp"
#include <cmath>

namespace daedvfs::power {

using clock::ClockSource;

PowerState PowerState::of(const clock::RccState& rcc) {
  const clock::ClockConfig& active = rcc.config;
  const std::optional<clock::PllConfig>& locked_pll = rcc.locked_pll;
  PowerState st;
  st.sysclk_mhz = active.sysclk_mhz();
  st.scale = rcc.scale;
  st.pll_running = locked_pll.has_value();
  if (st.pll_running) st.vco_mhz = locked_pll->vco_mhz();

  const bool uses_hse =
      active.source == ClockSource::kHse ||
      (st.pll_running && locked_pll->input == ClockSource::kHse);
  st.hse_running = uses_hse;
  st.hse_mhz = uses_hse ? (active.source == ClockSource::kHse
                               ? active.hse_mhz
                               : locked_pll->input_mhz)
                        : 0.0;
  st.hsi_running =
      active.source == ClockSource::kHsi ||
      (st.pll_running && locked_pll->input == ClockSource::kHsi);
  return st;
}

double PowerModel::power_mw(const PowerState& st, Activity act) const {
  if (act == Activity::kIdleClockGated) {
    // Clock gating deactivates unused clocks and trims the regulator
    // (paper §IV); only the floor + the still-running oscillator remain.
    double mw = params_.gated_idle_mw;
    if (st.hse_running) mw += params_.hse_mw_per_mhz * st.hse_mhz;
    return mw;
  }

  double activity = params_.compute_activity;
  switch (act) {
    case Activity::kCompute: activity = params_.compute_activity; break;
    case Activity::kMemoryStall: activity = params_.mem_stall_activity; break;
    case Activity::kIdle: activity = params_.idle_activity; break;
    case Activity::kIdleClockGated: break;  // handled above
  }

  const double v = clock::core_voltage(st.scale);
  double mw = params_.static_mw +
              params_.dynamic_mw_per_mhz_v *
                  std::pow(v, params_.voltage_exponent) * st.sysclk_mhz *
                  activity;
  if (st.pll_running) mw += params_.pll_mw_per_vco_mhz * st.vco_mhz;
  if (st.hse_running) mw += params_.hse_mw_per_mhz * st.hse_mhz;
  if (st.hsi_running) mw += params_.hsi_mw;
  return mw;
}

double PowerModel::config_power_mw(const clock::ClockConfig& cfg,
                                   Activity act) const {
  return power_mw(PowerState::of(clock::RccState::at(cfg)), act);
}

TransitionCost PowerModel::stall(double us,
                                 const clock::RccState& after) const {
  return {us, us * power_mw(PowerState::of(after), Activity::kMemoryStall) *
                  1e-3};
}

TransitionCost price_switch(const clock::SwitchCostParams& sw,
                            const PowerModel& pm, clock::RccState& state,
                            const clock::ClockConfig& target) {
  const clock::SwitchCost cost = clock::apply_switch_policy(sw, state, target);
  return pm.stall(cost.total_us, state);
}

}  // namespace daedvfs::power
