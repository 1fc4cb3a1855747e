// Deployment scenario: a battery-powered visual-wake-word sensor node.
//
// Sweeps the QoS slack, runs the full DAE+DVFS pipeline for each level, and
// translates the per-inference energies into *battery life* under a realistic
// duty cycle (one inference every 30 s, deep sleep in between) — the number a
// far-edge deployment engineer actually decides on.
//
//   $ ./build/examples/vww_deployment
#include <iomanip>
#include <iostream>

#include "core/pipeline.hpp"
#include "dse/profile_cache.hpp"
#include "graph/zoo.hpp"
#include "power/battery.hpp"

int main() {
  using namespace daedvfs;

  const graph::Model model = graph::zoo::make_vww();
  std::cout << "=== VWW sensor-node deployment study ===\n";
  std::cout << "model: " << model.name() << ", "
            << model.stats().total_macs / 1e6 << " MMACs/inference\n\n";

  const power::BatteryModel battery;  // ~2.4 Wh budget at the rail
  const power::DutyCycle duty{30.0, 0.8};

  // One cache across the sweep: profiles, and each distinct schedule's
  // simulation, are computed once.
  dse::ProfileCache cache;
  core::PipelineConfig cfg;
  cfg.space =
      dse::make_paper_design_space(power::PowerModel{cfg.explore.sim.power});
  cfg.explore.cache = &cache;

  std::cout << "QoS     engine              E/window(mJ)  battery life\n";
  std::cout << std::fixed;
  std::vector<dse::LayerSolutionSet> dse_cache;
  for (double slack : {0.10, 0.30, 0.50}) {
    cfg.qos_slack = slack;
    const core::PipelineResult r = core::Pipeline(cfg).run(
        model, dse_cache.empty() ? nullptr : &dse_cache);
    if (dse_cache.empty()) dse_cache = r.dse;

    struct Row {
      const char* name;
      const runtime::IsoLatencyResult* res;
    };
    const Row rows[] = {
        {"TinyEngine@216", &r.comparison.tinyengine},
        {"TinyEngine+Gating", &r.comparison.tinyengine_gated},
        {"DAE+DVFS (ours)", &r.comparison.dae_dvfs},
    };
    for (const Row& row : rows) {
      const double days = battery.lifetime_days(
          row.res->total_uj(), r.qos_us, duty);
      std::cout << "+" << std::setprecision(0) << slack * 100 << "%    "
                << std::left << std::setw(19) << row.name << std::right
                << std::setprecision(2) << std::setw(11)
                << row.res->total_uj() / 1000.0 << "   "
                << std::setprecision(1) << std::setw(7) << days << " days\n";
    }
    std::cout << "\n";
  }

  std::cout << "Reading: every % of energy saved per inference window maps "
               "directly into\nextra days of battery life at this duty "
               "cycle.\n";
  return 0;
}
