#include "dse/profile_cache.hpp"

#include <cstring>

namespace daedvfs::dse {
namespace {

void add_clock(StructHash& h, const clock::ClockConfig& cfg) {
  h.add(static_cast<int>(cfg.source));
  h.add(cfg.hse_mhz);
  h.add(cfg.pll.has_value());
  if (cfg.pll) {
    h.add(static_cast<int>(cfg.pll->input));
    h.add(cfg.pll->input_mhz);
    h.add(cfg.pll->pllm);
    h.add(cfg.pll->plln);
    h.add(cfg.pll->pllp);
  }
}

void add_shape(StructHash& h, const tensor::Shape4& s) {
  h.add(s.n);
  h.add(s.h);
  h.add(s.w);
  h.add(s.c);
}

}  // namespace

void StructHash::add(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  add(bits);
}

std::uint64_t layer_signature(const graph::Model& model,
                              const graph::LayerSpec& layer) {
  StructHash h;
  h.add(static_cast<int>(layer.kind));
  for (const int in_id : layer.inputs) {
    add_shape(h, model.tensor_shape(in_id));
  }
  add_shape(h, layer.out_shape);
  add_shape(h, layer.weights.shape());
  h.add(layer.params.stride);
  h.add(layer.params.pad);
  h.add(!layer.bias.empty());
  return h.value();
}

std::uint64_t candidate_hash(int granularity, bool dvfs_enabled,
                             const clock::ClockConfig& hfo,
                             const clock::ClockConfig& lfo) {
  StructHash h;
  h.add(granularity);
  h.add(dvfs_enabled);
  add_clock(h, hfo);
  add_clock(h, lfo);
  return h.value();
}

std::uint64_t engine_fingerprint(const runtime::InferenceEngine& engine) {
  const graph::Model& model = engine.model();
  StructHash h;
  for (int id = 0; id <= model.num_layers(); ++id) {
    add_shape(h, model.tensor_shape(id));
    h.add(engine.tensor_ref(id).mem.vaddr);
  }
  for (const graph::LayerSpec& layer : model.layers()) {
    h.add(static_cast<int>(layer.kind));
    h.add(static_cast<int>(layer.inputs.size()));
    for (const int in_id : layer.inputs) h.add(in_id);
    add_shape(h, layer.weights.shape());
    h.add(layer.params.stride);
    h.add(layer.params.pad);
    h.add(!layer.bias.empty());
    h.add(layer.weight_vaddr);
    h.add(layer.bias_vaddr);
  }
  h.add(engine.scratch_mem().vaddr);
  h.add(static_cast<int>(engine.scratch_mem().region));
  return h.value();
}

std::uint64_t run_key(const runtime::InferenceEngine& engine,
                      const runtime::Schedule& schedule,
                      const sim::SimParams& sim) {
  StructHash h;
  h.add(engine_fingerprint(engine));
  h.add(static_cast<std::uint64_t>(schedule.plans.size()));
  for (const runtime::LayerPlan& p : schedule.plans) {
    h.add(candidate_hash(p.granularity, p.dvfs_enabled, p.hfo, p.lfo));
  }
  h.add(sim_fingerprint(sim));
  return h.value();
}

std::uint64_t sim_fingerprint(const sim::SimParams& p) {
  StructHash h;
  h.add(static_cast<std::uint64_t>(p.cache.size_bytes));
  h.add(static_cast<std::uint64_t>(p.cache.line_bytes));
  h.add(static_cast<std::uint64_t>(p.cache.ways));
  h.add(p.memory.sram_miss_ns);
  h.add(p.memory.flash_miss_ns);
  h.add(p.memory.writeback_ns);
  h.add(p.memory.dtcm_extra_cycles);
  h.add(p.memory.ws_mhz_per_state);
  h.add(p.cost.cycles_per_mac);
  h.add(p.cost.cycles_per_load_word);
  h.add(p.cost.cycles_per_store_word);
  h.add(p.cost.cycles_per_requant);
  h.add(p.cost.loop_overhead_cycles);
  h.add(p.cost.call_overhead_cycles);
  h.add(p.cost.strided_mac_factor);
  h.add(p.power.static_mw);
  h.add(p.power.dynamic_mw_per_mhz_v);
  h.add(p.power.voltage_exponent);
  h.add(p.power.pll_mw_per_vco_mhz);
  h.add(p.power.hse_mw_per_mhz);
  h.add(p.power.hsi_mw);
  h.add(p.power.compute_activity);
  h.add(p.power.mem_stall_activity);
  h.add(p.power.idle_activity);
  h.add(p.power.gated_idle_mw);
  h.add(p.switching.mux_switch_us);
  h.add(p.switching.pll_relock_us);
  h.add(p.switching.hse_startup_us);
  h.add(p.switching.vos_change_us);
  return h.value();
}

}  // namespace daedvfs::dse
