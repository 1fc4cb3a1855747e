// Reproduces Fig. 4 of the paper: impact of the operating frequency (left
// pair) and of the DAE granularity g (right pair) on the latency and power
// of representative depthwise and pointwise layers.
//
// Series printed:
//   latency(f), power(f)   at fixed g, f over the paper's HFO set;
//   latency(g), power(g)   at fixed f = 216 MHz, g in {0,2,4,8,12,16}.
#include <iomanip>
#include <iostream>

#include "dse/explorer.hpp"
#include "graph/zoo.hpp"

using namespace daedvfs;

namespace {

struct Probe {
  const char* label;
  int layer_idx;
};

void sweep(const graph::Model& model, const Probe& probe) {
  const power::PowerModel pm;
  const dse::DesignSpace space = dse::make_paper_design_space(pm);
  dse::ExploreOptions opts;

  std::cout << "--- " << probe.label << " ("
            << model.layers()[static_cast<std::size_t>(probe.layer_idx)].name
            << ", "
            << model
                   .tensor_shape(model.layers()[static_cast<std::size_t>(
                                                    probe.layer_idx)]
                                     .inputs[0])
                   .str()
            << " input) ---\n";

  std::cout << "frequency sweep (g = 8, LFO/HFO DVFS active):\n";
  std::cout << "  f(MHz)   latency(ms)   power(mW)\n";
  for (const auto& hfo : space.hfo_configs) {
    dse::LayerSolution cand;
    cand.granularity = 8;
    cand.dvfs_enabled = true;
    cand.hfo = hfo;
    const auto sol = dse::profile_candidate_isolated(model, probe.layer_idx,
                                                     cand, space.lfo, opts);
    std::cout << "  " << std::setw(6) << std::fixed << std::setprecision(0)
              << hfo.sysclk_mhz() << "   " << std::setw(11)
              << std::setprecision(3) << sol.t_us / 1000.0 << "   "
              << std::setw(9) << std::setprecision(1)
              << sol.energy_uj / sol.t_us * 1000.0 << "\n";
  }

  std::cout << "granularity sweep (HFO = 216 MHz):\n";
  std::cout << "  g        latency(ms)   power(mW)\n";
  for (int g : space.granularities) {
    dse::LayerSolution cand;
    cand.granularity = g;
    cand.dvfs_enabled = g > 0;
    cand.hfo = space.hfo_configs.back();  // 216 MHz
    const auto sol = dse::profile_candidate_isolated(model, probe.layer_idx,
                                                     cand, space.lfo, opts);
    std::cout << "  " << std::setw(2) << g << "       " << std::setw(11)
              << std::fixed << std::setprecision(3) << sol.t_us / 1000.0
              << "   " << std::setw(9) << std::setprecision(1)
              << sol.energy_uj / sol.t_us * 1000.0 << "\n";
  }
  std::cout << "\n";
}

}  // namespace

int main() {
  std::cout << "=== Fig. 4: DAE granularity x clocking DSE on representative "
               "layers ===\n\n";
  const graph::Model model = graph::zoo::make_vww();

  // Pick a mid-network depthwise and pointwise layer.
  int dw_idx = -1, pw_idx = -1;
  for (int i = model.num_layers() / 3; i < model.num_layers(); ++i) {
    const auto& l = model.layers()[static_cast<std::size_t>(i)];
    if (dw_idx < 0 && l.kind == graph::LayerKind::kDepthwise) dw_idx = i;
    if (pw_idx < 0 && l.kind == graph::LayerKind::kPointwise) pw_idx = i;
    if (dw_idx >= 0 && pw_idx >= 0) break;
  }
  sweep(model, {"depthwise layer", dw_idx});
  sweep(model, {"pointwise layer", pw_idx});

  std::cout << "Expected shapes (paper Fig. 4): latency falls / power rises "
               "with f;\nlatency falls with g (buffered planes beat strided "
               "access) and power falls\nwith g (longer LFO segments, fewer "
               "switches) until the gather buffer\noutgrows the 16 KB L1 "
               "(see bench_cache_ablation).\n";
  return 0;
}
