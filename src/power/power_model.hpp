// Analytic board power model, standing in for the paper's INA219 measurement
// rig (see docs/architecture.md, `power/`). Total power decomposes as
//
//   P = P_static(V) + alpha * V^2 * f_sysclk * activity      (core + bus dynamic)
//     + k_vco * f_vco                   [PLL running]        (PLL analog power)
//     + k_hse * f_hse                   [HSE running]        (crystal drive)
//     + P_hsi                           [HSI running]
//
// The decomposition captures every effect the paper relies on:
//   * iso-frequency configs differ in power through the VCO term (Fig. 2);
//   * PLLP = 2 minimizes power (higher PLLP forces a higher VCO);
//   * LFO at HSE-direct 50 MHz is cheap even with the PLL still locked;
//   * voltage scales make energy/cycle genuinely lower at low frequency;
//   * clock-gated idle collapses to near-static power.
//
// Default constants are calibrated against STM32F767 datasheet typical-run
// currents (DS11532 tab. 28-31: ~100 mA @216 MHz all-peripherals-off ->
// ~180-200 mW at 1.8-2 V effective board rail with regulator losses), so the
// absolute numbers land in the same few-hundred-mW band as the paper's Fig. 2.
#pragma once

#include "clock/clock_config.hpp"
#include "clock/rcc.hpp"
#include "clock/voltage.hpp"

namespace daedvfs::power {

/// What the core is doing; scales the dynamic-power activity factor.
enum class Activity {
  kCompute,         ///< MAC-dense execution (full switching activity).
  kMemoryStall,     ///< Waiting on cache refills; pipeline mostly idle.
  kIdle,            ///< Busy-wait idle loop at full clock (TinyEngine idle).
  kIdleClockGated,  ///< Clocks gated + regulators trimmed (baseline #2 idle).
};

[[nodiscard]] constexpr const char* to_string(Activity a) {
  switch (a) {
    case Activity::kCompute: return "compute";
    case Activity::kMemoryStall: return "mem-stall";
    case Activity::kIdle: return "idle";
    case Activity::kIdleClockGated: return "idle-gated";
  }
  return "?";
}

/// Snapshot of everything power depends on.
struct PowerState {
  double sysclk_mhz = 16.0;
  clock::VoltageScale scale = clock::VoltageScale::kScale3;
  bool pll_running = false;
  double vco_mhz = 0.0;
  bool hse_running = false;
  double hse_mhz = 0.0;
  bool hsi_running = false;

  /// The one derivation from clock-tree state: the PLL runs iff it is
  /// locked, the HSE iff it drives SYSCLK or feeds the locked PLL, the HSI
  /// likewise. The simulator (sim::Mcu), frequency replay and the scenario
  /// engine's wake pricing all power their states through it.
  [[nodiscard]] static PowerState of(const clock::RccState& rcc);
};

/// Duration and energy of one clock-tree transition.
struct TransitionCost {
  double us = 0.0;
  double uj = 0.0;
};

/// Calibration constants. All power in mW, frequency in MHz, voltage in V.
///
/// The dynamic term is alpha * V^voltage_exponent * f * activity. The F7's
/// core rail hangs off the internal *LDO*: the board draws I = C*V*f from a
/// fixed 3.3 V rail and the regulator burns the headroom, so board power
/// scales ~linearly in core voltage (exponent 1). exponent 2 models a
/// hypothetical SMPS-fed core (true CV^2f at the board) — kept as an
/// explicit knob because it is exactly the ablation that shows why DVFS
/// gains on LDO-regulated MCUs are modest (bench_policy_ablation).
struct PowerModelParams {
  double static_mw = 18.0;              ///< Leakage + regulator + board overhead.
  double dynamic_mw_per_mhz_v = 0.52;   ///< alpha: core+AHB switching power.
  double voltage_exponent = 1.0;        ///< 1 = LDO board rail, 2 = SMPS.
  double pll_mw_per_vco_mhz = 0.085;    ///< PLL analog power vs VCO frequency.
  double hse_mw_per_mhz = 0.05;         ///< Crystal drive power.
  double hsi_mw = 1.2;                  ///< Internal RC oscillator.
  double compute_activity = 1.0;
  double mem_stall_activity = 0.30;     ///< Pipeline stalled on the bus.
  double idle_activity = 0.55;          ///< Busy-wait idle loop (no WFI).
  double gated_idle_mw = 11.0;          ///< Clock-gated idle floor (abs.).

  [[nodiscard]] bool operator==(const PowerModelParams&) const = default;
};

/// Pure function from (state, activity) to milliwatts.
class PowerModel {
 public:
  PowerModel() = default;
  explicit PowerModel(PowerModelParams params) : params_(params) {}

  [[nodiscard]] double power_mw(const PowerState& st, Activity act) const;

  /// Convenience: steady-state power of a standalone configuration
  /// (clock::RccState::at). Used by Fig. 2 style enumeration.
  [[nodiscard]] double config_power_mw(const clock::ClockConfig& cfg,
                                       Activity act = Activity::kCompute) const;

  /// `us` of clock-transition stall priced at `after`'s memory-stall power
  /// — the core waits while the tree settles in its new state.
  [[nodiscard]] TransitionCost stall(double us,
                                     const clock::RccState& after) const;

  [[nodiscard]] const PowerModelParams& params() const { return params_; }

 private:
  PowerModelParams params_{};
};

/// Switches `state` to `target` through clock::apply_switch_policy and
/// prices the switch's stall at the post-switch state (PowerModel::stall):
/// sim::Mcu::switch_clock's charge in closed form, up to the simulator's
/// end-minus-begin time accumulation. {0, 0} for a no-op switch. The one
/// priced transition of dse::replay_schedule and scenario::wake_transition.
[[nodiscard]] TransitionCost price_switch(const clock::SwitchCostParams& sw,
                                          const PowerModel& pm,
                                          clock::RccState& state,
                                          const clock::ClockConfig& target);

}  // namespace daedvfs::power
