// Ablation A2: cache behaviour vs DAE granularity — the mechanism behind the
// paper's warning that "very high buffer size can lead the cache misses to
// skyrocket". Sweeps g for depthwise layers of different plane sizes and
// reports the gather-buffer footprint, the L1 miss rate and the latency.
#include <iomanip>
#include <iostream>

#include "dse/explorer.hpp"
#include "graph/builder.hpp"

using namespace daedvfs;

namespace {

graph::Model dw_probe(int hw, int channels) {
  graph::ModelBuilder b("probe", hw, hw, channels, 1);
  b.depthwise(graph::ModelBuilder::input(), 3, 1, true);
  return b.take();
}

void sweep(int hw, int channels) {
  const graph::Model model = dw_probe(hw, channels);
  runtime::InferenceEngine engine(model);
  const power::PowerModel pm;
  const dse::DesignSpace space = dse::make_paper_design_space(pm);
  dse::ExploreOptions opts;
  opts.max_scratch_bytes = 0;  // no bound: show the knee explicitly

  std::cout << "--- depthwise " << hw << "x" << hw << "x" << channels
            << " (plane = " << hw * hw << " B, L1 = 16 KB) ---\n";
  std::cout << "  g    buffer(KB)   latency(ms)   L1 miss rate\n";
  for (int g : {0, 2, 4, 8, 12, 16, 24, 32}) {
    if (g > channels) break;
    sim::SimParams params;
    params.boot = space.hfo_configs.back();
    sim::Mcu mcu(params);
    runtime::LayerPlan plan;
    plan.granularity = g;
    plan.hfo = space.hfo_configs.back();
    plan.lfo = space.lfo;
    plan.dvfs_enabled = g > 0;
    const auto prof =
        engine.run_layer(mcu, 0, plan, kernels::ExecMode::kTiming);
    const auto& cs = mcu.cache().stats();
    std::cout << "  " << std::setw(2) << g << "   " << std::setw(9)
              << std::fixed << std::setprecision(1) << g * hw * hw / 1024.0
              << "   " << std::setw(11) << std::setprecision(3)
              << prof.t_us / 1000.0 << "   " << std::setw(11)
              << std::setprecision(4) << cs.miss_rate() << "\n";
  }
  std::cout << "\n";
}

}  // namespace

void dtcm_comparison() {
  // Extension: place the gather buffer in the F7's tightly-coupled memory
  // (uncached, single-cycle) instead of cached SRAM — the placement a real
  // TinyEngine port would use when the buffer fits the 128 KB DTCM.
  const graph::Model model = dw_probe(48, 32);
  const power::PowerModel pm;
  const dse::DesignSpace space = dse::make_paper_design_space(pm);
  std::cout << "--- scratch placement (48x48x32 depthwise, g = 8) ---\n";
  for (sim::MemRegion region :
       {sim::MemRegion::kSram, sim::MemRegion::kDtcm}) {
    runtime::InferenceEngine engine(model);
    engine.place_scratch(region);
    sim::SimParams params;
    params.boot = space.hfo_configs.back();
    sim::Mcu mcu(params);
    runtime::LayerPlan plan;
    plan.granularity = 8;
    plan.hfo = space.hfo_configs.back();
    plan.lfo = space.lfo;
    plan.dvfs_enabled = true;
    const auto prof =
        engine.run_layer(mcu, 0, plan, kernels::ExecMode::kTiming);
    std::cout << "  scratch in " << to_string(region) << ": "
              << std::fixed << std::setprecision(3) << prof.t_us / 1000.0
              << " ms, " << mcu.cache().stats().misses << " L1 misses\n";
  }
  std::cout << "\n";
}

int main() {
  std::cout << "=== A2: gather-buffer footprint vs L1 capacity ===\n\n";
  sweep(24, 32);   // small planes: large g stays cache-resident
  sweep(48, 32);   // 2.3 KB planes: g=8 ~ 18 KB -> crosses the L1
  sweep(96, 32);   // 9.2 KB planes: even g=2 thrashes
  dtcm_comparison();
  std::cout
      << "Observed mechanism in this implementation: larger g *reduces*\n"
         "misses because one gather pass serves more channels per touched\n"
         "input line, while the streamed gather buffer has unit reuse and\n"
         "never thrashes — so the paper's miss blow-up at very high g does\n"
         "not reproduce here (see the L1 miss-rate columns above). What\n"
         "bounds g instead is the SRAM scratch footprint (buffer column\n"
         "above vs the ~100 KB budget the explorer enforces) and the flat\n"
         "latency tail: beyond g~8 the returns vanish while the buffer keeps\n"
         "growing.\n";
  return 0;
}
