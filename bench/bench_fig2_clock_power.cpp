// Reproduces Fig. 2 of the paper: power consumption of iso-frequency
// {HSE, PLLM, PLLN} configurations, measured with the same repetitive-
// addition microbenchmark the paper uses (§II-A), plus the two supporting
// observations: PLLP = 2 minimizes power, and HSI-sourced clocks cost more
// than HSE-sourced ones.
#include <iomanip>
#include <iostream>

#include "clock/clock_tree.hpp"
#include "power/power_model.hpp"
#include "sim/mcu.hpp"

using namespace daedvfs;

namespace {

/// The paper's microbenchmark: repetitive additions in a loop — pure
/// compute-bound execution on the simulated MCU.
double measured_power_mw(const clock::ClockConfig& cfg) {
  sim::SimParams params;
  params.boot = cfg;
  sim::Mcu mcu(params);
  constexpr double kAdditions = 5e6;
  mcu.compute(kAdditions);  // 1 add = 1 cycle
  return mcu.energy_uj() / mcu.time_us() * 1000.0;
}

}  // namespace

int main() {
  std::cout << "=== Fig. 2: power of iso-frequency clock configurations ===\n";
  std::cout << "(addition-loop microbenchmark on the simulated STM32F767ZI)\n\n";

  clock::EnumerationSpace space;
  space.hse_mhz = {16.0, 25.0, 50.0};
  space.pllm = {8, 12, 25, 50};
  space.plln = {50, 75, 100, 108, 144, 150, 168, 200, 216, 300, 400, 432};
  space.pllp = {2, 4, 8};

  const power::PowerModel pm;
  std::cout << std::fixed;
  for (double target : {50.0, 100.0, 150.0, 200.0, 216.0}) {
    const auto configs = clock::enumerate_pll_configs(space, target);
    if (configs.empty()) continue;
    std::cout << "SYSCLK = " << std::setprecision(0) << target << " MHz\n";
    double best_mw = 1e18, worst_mw = 0.0;
    for (const auto& cfg : configs) {
      const double mw = measured_power_mw(cfg);
      best_mw = std::min(best_mw, mw);
      worst_mw = std::max(worst_mw, mw);
      std::cout << "  {HSE=" << std::setw(2) << std::setprecision(0)
                << cfg.pll->input_mhz << ", M=" << std::setw(2)
                << cfg.pll->pllm << ", N=" << std::setw(3) << cfg.pll->plln
                << ", P=" << cfg.pll->pllp << "}  VCO=" << std::setw(3)
                << cfg.pll->vco_mhz() << " MHz  ->  " << std::setw(6)
                << std::setprecision(1) << mw << " mW\n";
    }
    std::cout << "  iso-frequency power spread: " << std::setprecision(1)
              << 100.0 * (worst_mw - best_mw) / worst_mw
              << "% (paper reports spreads up to ~50%)\n\n";
  }

  std::cout << "--- PLLP divider observation (paper: pick PLLP=2) ---\n";
  const auto p2 = clock::ClockConfig::pll_hse(50.0, 25, 100, 2);   // VCO 200
  const auto p4 = clock::ClockConfig::pll_hse(50.0, 25, 200, 4);   // VCO 400
  std::cout << "  100 MHz via PLLP=2 (VCO 200): " << std::setprecision(1)
            << measured_power_mw(p2) << " mW\n";
  std::cout << "  100 MHz via PLLP=4 (VCO 400): " << measured_power_mw(p4)
            << " mW   <- higher VCO, more power\n\n";

  std::cout << "--- HSI vs HSE input (paper: HSI costs more, drifts) ---\n";
  const auto hse_in = clock::ClockConfig::pll_hse(16.0, 8, 100, 2);
  const auto hsi_in = clock::ClockConfig::pll_hsi(8, 100, 2);
  std::cout << "  100 MHz from HSE-16: " << measured_power_mw(hse_in)
            << " mW\n";
  std::cout << "  100 MHz from HSI-16: " << measured_power_mw(hsi_in)
            << " mW\n\n";

  std::cout << "--- min-power tuple per target (used by the DSE) ---\n";
  for (double target : {50.0, 100.0, 150.0, 200.0, 216.0}) {
    const auto best = clock::min_power_config(
        space, target, [&](const clock::ClockConfig& c) {
          return pm.config_power_mw(c);
        });
    if (best) {
      std::cout << "  " << std::setw(3) << std::setprecision(0) << target
                << " MHz -> " << best->str() << "\n";
    }
  }
  return 0;
}
