#include "clock/rcc.hpp"

#include <stdexcept>

namespace daedvfs::clock {

RccState RccState::at(const ClockConfig& config) {
  RccState st;
  st.config = config;
  if (config.source == ClockSource::kPll) st.locked_pll = config.pll;
  st.scale = config.voltage_scale();
  return st;
}

Rcc::Rcc(ClockConfig boot, SwitchCostParams params)
    : state_(RccState::at(boot)), params_(params) {
  if (auto err = state_.config.validation_error()) {
    throw std::invalid_argument("invalid boot clock config: " + *err);
  }
}

SwitchCost apply_switch_policy(const SwitchCostParams& params,
                               RccState& state, const ClockConfig& to) {
  if (state.config == to) return {};  // no-op switch
  SwitchCost cost = switch_cost(params, state.config, to, state.locked_pll);

  // Regulator-scale policy: raising the scale is mandatory before running
  // faster; lowering it is only worthwhile on "slow" transitions (PLL
  // relocks, i.e. between layers). Fast intra-layer mux toggles keep the
  // pinned scale so they never wait the ~40 us regulator settle time.
  const VoltageScale needed = to.voltage_scale();
  if (core_voltage(needed) > core_voltage(state.scale)) {
    state.scale = needed;
    cost.total_us += params.vos_change_us;
    cost.vos_changed = true;
  } else if (needed != state.scale && cost.pll_relocked) {
    state.scale = needed;
    cost.total_us += params.vos_change_us;
    cost.vos_changed = true;
  }

  if (to.source == ClockSource::kPll) {
    state.locked_pll = to.pll;  // (re)locked by the switch
  }
  // Selecting HSE/HSI leaves the PLL running (hardware behaviour): the mux
  // merely bypasses it. Rcc::stop_pll() models explicit gating.
  state.config = to;
  return cost;
}

SwitchCost background_reposition_cost(const SwitchCostParams& params,
                                      const ClockConfig& target,
                                      RccState& state) {
  SwitchCost cost;
  if (target.source == ClockSource::kPll && target.pll &&
      (!state.locked_pll || !(*state.locked_pll == *target.pll))) {
    // The PLL cannot be reprogrammed while it drives SYSCLK: park the
    // retained sleep clock on the HSE bypass first (one mux toggle).
    if (state.config.source == ClockSource::kPll) {
      state.config = ClockConfig::hse_direct(state.config.hse_mhz);
      cost.total_us += params.mux_switch_us;
    }
    cost.total_us += params.pll_relock_us;
    cost.pll_relocked = true;
    state.locked_pll = target.pll;
  }
  // The regulator settles at the target's requirement either way: raising is
  // mandatory before running faster, and lowering is free to take here since
  // nothing executes during a background reposition.
  const VoltageScale needed = target.voltage_scale();
  if (needed != state.scale) {
    state.scale = needed;
    cost.total_us += params.vos_change_us;
    cost.vos_changed = true;
  }
  return cost;
}

SwitchCost Rcc::switch_to(const ClockConfig& target) {
  if (auto err = target.validation_error()) {
    throw std::invalid_argument("invalid clock config: " + *err);
  }
  if (state_.config == target) return {};  // no-op switch
  const SwitchCost cost = apply_switch_policy(params_, state_, target);

  ++stats_.switches;
  if (cost.pll_relocked) ++stats_.pll_relocks;
  if (cost.vos_changed) ++stats_.vos_changes;
  stats_.total_switch_us += cost.total_us;
  return cost;
}

void Rcc::stop_pll() {
  if (state_.config.source == ClockSource::kPll) {
    throw std::logic_error("cannot stop the PLL while it drives SYSCLK");
  }
  state_.locked_pll.reset();
}

}  // namespace daedvfs::clock
