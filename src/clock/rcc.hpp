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

/// One step of the RCC transition policy as a pure state machine: the
/// switch cost of `from -> to` (mux/relock via switch_cost) plus the
/// regulator-scale rule (raising the scale is mandatory before running
/// faster; lowering it only rides a relock), advancing `locked_pll` and
/// `scale` in place. Rcc::switch_to runs exactly this; closed-form mirrors
/// (dse whole-schedule replay, the scenario engine's rung transitions)
/// call it too so they can never drift from the stateful model.
[[nodiscard]] SwitchCost apply_switch_policy(const SwitchCostParams& params,
                                             const ClockConfig& from,
                                             const ClockConfig& to,
                                             std::optional<PllConfig>& locked_pll,
                                             VoltageScale& scale);

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

  [[nodiscard]] const ClockConfig& current() const { return current_; }
  [[nodiscard]] double sysclk_mhz() const { return current_.sysclk_mhz(); }
  [[nodiscard]] VoltageScale voltage_scale() const { return scale_; }
  /// Pins the regulator scale (the DVFS runtime sets it to the layer's HFO
  /// requirement so intra-layer toggles never wait on the regulator).
  void pin_voltage_scale(VoltageScale s) { scale_ = s; }
  [[nodiscard]] bool pll_running() const { return locked_pll_.has_value(); }
  [[nodiscard]] const std::optional<PllConfig>& locked_pll() const {
    return locked_pll_;
  }
  [[nodiscard]] const RccStats& stats() const { return stats_; }

 private:
  ClockConfig current_;
  VoltageScale scale_;
  std::optional<PllConfig> locked_pll_;
  SwitchCostParams params_;
  RccStats stats_;
};

}  // namespace daedvfs::clock
