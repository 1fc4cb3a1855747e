#include "clock/switch_model.hpp"

namespace daedvfs::clock {

SwitchCost switch_cost(const SwitchCostParams& params, const ClockConfig& from,
                       const ClockConfig& to,
                       const std::optional<PllConfig>& locked_pll) {
  SwitchCost cost;
  if (from == to) return cost;

  // Every switch pays at least the mux toggle + flash wait-state update.
  cost.total_us = params.mux_switch_us;

  if (to.source == ClockSource::kPll) {
    const bool relock_needed = !locked_pll || !(*locked_pll == *to.pll);
    if (relock_needed) {
      cost.total_us += params.pll_relock_us;
      cost.pll_relocked = true;
    }
  }

  // Note: regulator-scale (VOS) transitions are a *policy* decision owned by
  // the Rcc model — the DVFS runtime pins the scale to the layer's HFO
  // requirement so intra-layer LFO<->HFO toggles never wait on the regulator.
  // apply_switch_policy (clock/rcc.hpp) adds the VOS settle cost when it
  // actually changes scale.
  return cost;
}

}  // namespace daedvfs::clock
