// Clock-switch cost model (paper §II-A).
//
// Three cases, in increasing cost:
//   1. SYSCLK mux toggle between HSE and an *already locked* PLL — near
//      instant ("direct wiring of the HSE with the SYSCLK"). This is what
//      makes the intra-layer LFO<->HFO toggles of DAE affordable.
//   2. Reprogramming the PLL dividers — the PLL must be disabled, reconfigured
//      and relocked: ~200 us observed on the F767. Paid when consecutive
//      layers use different HFO parameters.
//   3. Enabling a stopped oscillator (HSE startup) — milliseconds; only paid
//      once at boot in practice, modeled for completeness.
#pragma once

#include "clock/clock_config.hpp"

namespace daedvfs::clock {

/// Tunable switch latencies (microseconds). Defaults match the paper's
/// measurements on the STM32F767ZI.
struct SwitchCostParams {
  double mux_switch_us = 0.3;     ///< SYSCLK mux + flash wait-state reprogram
                                  ///< ("almost instantly", paper §II-A).
  double pll_relock_us = 200.0;   ///< PLL disable + reprogram + lock (paper: ~200 us).
  double hse_startup_us = 2000.0; ///< Crystal startup from cold.
  double vos_change_us = 40.0;    ///< Regulator scale transition settle time.

  [[nodiscard]] bool operator==(const SwitchCostParams&) const = default;
};

/// Cost of one switch, broken down for profiling.
struct SwitchCost {
  double total_us = 0.0;
  bool pll_relocked = false;
  bool vos_changed = false;
};

/// Computes the cost of switching `from -> to` given whether the PLL is
/// currently running with parameters `locked` (nullopt = PLL off).
[[nodiscard]] SwitchCost switch_cost(const SwitchCostParams& params,
                                     const ClockConfig& from,
                                     const ClockConfig& to,
                                     const std::optional<PllConfig>& locked_pll);

}  // namespace daedvfs::clock
