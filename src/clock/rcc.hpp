// Behavioural model of the Reset and Clock Control (RCC) peripheral: the
// stateful half of the clock subsystem. It tracks the active SYSCLK source,
// the PLL lock state, and accumulates switch statistics. The key behaviour
// (paper §II-A) is that selecting the HSE as SYSCLK source does *not* stop
// the PLL — so LFO<->HFO toggles inside a DAE loop only pay the mux cost,
// while changing the HFO frequency between layers pays the ~200 us relock.
#pragma once

#include <cstdint>

#include "clock/clock_config.hpp"
#include "clock/switch_model.hpp"

namespace daedvfs::clock {

/// Clock-tree state: the SYSCLK configuration, which PLL parameters are
/// locked (nullopt = PLL off) and where the regulator sits. The one state
/// every clock rule advances: Rcc holds it, and the closed-form users (dse
/// whole-schedule replay, the scenario engine's wake states) carry it bare.
struct RccState {
  ClockConfig config;
  std::optional<PllConfig> locked_pll;
  VoltageScale scale = VoltageScale::kScale3;

  /// Settled at `config`: PLL locked iff the config runs on it, regulator
  /// at the config's requirement. A fresh boot (Rcc's constructor), the
  /// sleep state a frame leaves behind, and a rebooted node's wake state.
  [[nodiscard]] static RccState at(const ClockConfig& config);

  [[nodiscard]] bool operator==(const RccState&) const = default;
};

/// One step of the RCC transition policy as a pure state machine: the
/// switch cost of `state.config -> to` (mux/relock via switch_cost) plus the
/// regulator-scale rule (raising the scale is mandatory before running
/// faster; lowering it only rides a relock), advancing `state` in place.
/// Only `state.config == to` is a no-op (free, `state` untouched), even
/// with zero cost parameters. Rcc::switch_to runs exactly this.
[[nodiscard]] SwitchCost apply_switch_policy(const SwitchCostParams& params,
                                             RccState& state,
                                             const ClockConfig& to);

/// Cost of repositioning the clock tree *in the background*, off any
/// execution critical path (the device sleeps): disable the PLL, reprogram
/// it to `target.pll`, relock, and settle the regulator at `target`'s
/// required scale. Reprogramming the PLL while the retained sleep SYSCLK
/// (`state.config`) is driven by it is impossible (Rcc::stop_pll throws for
/// the same reason), so in that case SYSCLK is first *parked* on the HSE
/// bypass — `state.config` advances to hse_direct and the park's mux toggle
/// joins the cost. Zero when the tree is already positioned. This prices
/// the scenario engine's predictive PLL pre-lock during sleep
/// (scenario/engine.cpp); the wake-up switch into a pre-locked target then
/// degenerates to the near-instant mux toggle, while a mispredicted wake
/// pays the honest relock from the parked state. `state` advances in place.
[[nodiscard]] SwitchCost background_reposition_cost(
    const SwitchCostParams& params, const ClockConfig& target,
    RccState& state);

/// Switch statistics, for profiling and the Fig. 6 analysis.
struct RccStats {
  uint64_t switches = 0;
  uint64_t pll_relocks = 0;
  uint64_t vos_changes = 0;
  double total_switch_us = 0.0;
};

class Rcc {
 public:
  /// Boots on the given configuration (default: HSI 16 MHz, like real HW).
  explicit Rcc(ClockConfig boot = ClockConfig::hsi_direct(),
               SwitchCostParams params = {});

  /// Switches SYSCLK to `target`, returning the cost charged. Invalid
  /// configurations throw std::invalid_argument.
  SwitchCost switch_to(const ClockConfig& target);

  /// Disables the PLL (used by the clock-gated idle baseline). Subsequent
  /// switches back to a PLL config pay the full relock.
  void stop_pll();

  [[nodiscard]] const RccState& state() const { return state_; }
  [[nodiscard]] const ClockConfig& current() const { return state_.config; }
  [[nodiscard]] double sysclk_mhz() const {
    return state_.config.sysclk_mhz();
  }
  [[nodiscard]] bool pll_running() const {
    return state_.locked_pll.has_value();
  }
  [[nodiscard]] const RccStats& stats() const { return stats_; }

 private:
  RccState state_;
  SwitchCostParams params_;
  RccStats stats_;
};

}  // namespace daedvfs::clock
