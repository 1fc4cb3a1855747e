// Analytic board power model, standing in for the paper's INA219 measurement
// rig (see DESIGN.md §2). Total power decomposes as
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

/// Snapshot of everything power depends on. Built from the Rcc state.
struct PowerState {
  double sysclk_mhz = 16.0;
  clock::VoltageScale scale = clock::VoltageScale::kScale3;
  bool pll_running = false;
  double vco_mhz = 0.0;
  bool hse_running = false;
  double hse_mhz = 0.0;
  bool hsi_running = false;

  /// Derives the power-relevant state from an RCC snapshot. `hse_board_mhz`
  /// is the crystal mounted on the board (runs whenever any config uses it).
  [[nodiscard]] static PowerState from_rcc(const clock::Rcc& rcc);

  /// The same derivation from bare clock-subsystem state — for closed-form
  /// mirrors (whole-schedule replay, scenario rung transitions) that track
  /// (active config, locked PLL, pinned scale) without a live Rcc.
  [[nodiscard]] static PowerState from_parts(
      const clock::ClockConfig& active,
      const std::optional<clock::PllConfig>& locked_pll,
      clock::VoltageScale scale);

  /// Steady-state view of a standalone configuration: the PLL runs iff the
  /// config uses it, the regulator sits at the config's required scale.
  [[nodiscard]] static PowerState from_config(const clock::ClockConfig& cfg);
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

  /// Convenience: steady-state compute power of a standalone configuration
  /// (PLL running iff the config uses it). Used by Fig. 2 style enumeration.
  [[nodiscard]] double config_power_mw(const clock::ClockConfig& cfg,
                                       Activity act = Activity::kCompute) const;

  [[nodiscard]] const PowerModelParams& params() const { return params_; }

 private:
  PowerModelParams params_{};
};

}  // namespace daedvfs::power
