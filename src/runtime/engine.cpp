#include "runtime/engine.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "kernels/add.hpp"
#include "kernels/conv2d.hpp"
#include "kernels/depthwise.hpp"
#include "kernels/fully_connected.hpp"
#include "kernels/pointwise.hpp"
#include "kernels/pooling.hpp"

namespace daedvfs::runtime {
namespace {

/// DVFS policy that also re-tags the energy meter at segment boundaries so
/// memory-segment energy is attributable per layer (paper §III-B profiling).
class TaggingPolicy final : public kernels::DvfsPolicy {
 public:
  TaggingPolicy(std::string base_tag, bool dvfs, clock::ClockConfig lfo,
                clock::ClockConfig hfo)
      : base_(std::move(base_tag)),
        dvfs_(dvfs),
        lfo_(std::move(lfo)),
        hfo_(std::move(hfo)) {}

  void enter_memory_segment(sim::Mcu& mcu) override {
    mcu.set_tag(base_ + "/mem");
    if (dvfs_) mcu.switch_clock(lfo_);
  }
  void enter_compute_segment(sim::Mcu& mcu) override {
    // The switch back to HFO is charged to the memory segment: it is part
    // of the decoupling overhead, not of the convolution itself.
    if (dvfs_) mcu.switch_clock(hfo_);
    mcu.set_tag(base_ + "/cmp");
  }

 private:
  std::string base_;
  bool dvfs_;
  clock::ClockConfig lfo_;
  clock::ClockConfig hfo_;
};

}  // namespace

void dispatch_layer(const graph::LayerSpec& layer, const LayerIo& io,
                    int granularity, kernels::ExecContext& ctx) {
  kernels::TensorRef weights;
  weights.view = layer.weights.view();
  weights.mem = io.weights_mem.value_or(
      sim::MemRef{layer.weight_vaddr, sim::MemRegion::kFlash});
  const sim::MemRef bias_mem = io.bias_mem.value_or(
      sim::MemRef{layer.bias_vaddr, sim::MemRegion::kFlash});
  const int32_t* bias = layer.bias.empty() ? nullptr : layer.bias.data();

  switch (layer.kind) {
    case graph::LayerKind::kConv2d: {
      kernels::Conv2dArgs args{io.input, weights, bias, bias_mem, io.output,
                               layer.params};
      kernels::conv2d(args, ctx);
      break;
    }
    case graph::LayerKind::kDepthwise: {
      kernels::DepthwiseArgs args{io.input,  weights,      bias, bias_mem,
                                  io.output, layer.params, granularity};
      kernels::depthwise_conv(args, ctx);
      break;
    }
    case graph::LayerKind::kPointwise: {
      kernels::PointwiseArgs args{io.input,  weights,      bias, bias_mem,
                                  io.output, layer.params, granularity};
      kernels::pointwise_conv(args, ctx);
      break;
    }
    case graph::LayerKind::kGlobalAvgPool: {
      kernels::GlobalAvgPoolArgs args{io.input, io.output};
      kernels::global_avg_pool(args, ctx);
      break;
    }
    case graph::LayerKind::kFullyConnected: {
      kernels::FullyConnectedArgs args{io.input,  weights, bias, bias_mem,
                                       io.output, layer.params};
      kernels::fully_connected(args, ctx);
      break;
    }
    case graph::LayerKind::kAdd: {
      kernels::AddArgs args =
          kernels::make_add_args(io.input, io.input_b, io.output);
      kernels::elementwise_add(args, ctx);
      break;
    }
  }
}

InferenceEngine::InferenceEngine(const graph::Model& model)
    : model_(model),
      arena_([&] {
        std::size_t total = 0;
        for (int id = 0; id <= model.num_layers(); ++id) {
          total += static_cast<std::size_t>(model.tensor_shape(id).elems()) +
                   tensor::Arena::kAlignment;
        }
        return total + 1024;
      }()) {
  host_ptrs_.resize(static_cast<std::size_t>(model_.num_layers()) + 1);
  vaddrs_.resize(host_ptrs_.size());
  for (int id = 0; id <= model_.num_layers(); ++id) {
    const auto bytes =
        static_cast<std::size_t>(model_.tensor_shape(id).elems());
    int8_t* p = arena_.allocate(bytes);
    std::memset(p, 0, bytes);
    host_ptrs_[static_cast<std::size_t>(id)] = p;
    vaddrs_[static_cast<std::size_t>(id)] =
        sim::kSramBase + static_cast<uint64_t>(p - arena_.base());
  }
  // Place the DAE scratch buffer just past the activation arena, aligned,
  // still in the cached SRAM region.
  constexpr uint64_t align = kernels::kScratchAlignBytes;
  scratch_mem_ = {sim::kSramBase + (static_cast<uint64_t>(arena_.capacity()) +
                                    align - 1) /
                                       align * align,
                  sim::MemRegion::kSram};
}

void InferenceEngine::place_scratch(sim::MemRegion region) {
  if (region == sim::MemRegion::kDtcm) {
    scratch_mem_ = {sim::kDtcmBase, sim::MemRegion::kDtcm};
  } else {
    constexpr uint64_t align = kernels::kScratchAlignBytes;
    scratch_mem_ = {sim::kSramBase +
                        (static_cast<uint64_t>(arena_.capacity()) + align -
                         1) /
                            align * align,
                    region};
  }
}

std::size_t InferenceEngine::activation_bytes() const {
  return arena_.high_water_mark();
}

kernels::TensorRef InferenceEngine::tensor_ref(int id) const {
  kernels::TensorRef ref;
  ref.view.shape = model_.tensor_shape(id);
  ref.view.quant = model_.tensor_quant(id);
  ref.view.data = host_ptrs_.at(static_cast<std::size_t>(id));
  ref.mem = {vaddrs_.at(static_cast<std::size_t>(id)),
             sim::MemRegion::kSram};
  return ref;
}

void InferenceEngine::execute_layer(sim::Mcu& mcu, int layer_idx,
                                    const LayerPlan& plan,
                                    kernels::ExecMode mode,
                                    kernels::ExecContext& ctx) const {
  const graph::LayerSpec& layer =
      model_.layers().at(static_cast<std::size_t>(layer_idx));
  const std::string tag = "L" + std::to_string(layer_idx);
  mcu.set_tag(tag + "/cmp");
  mcu.switch_clock(plan.hfo);

  const int g = layer.is_dae_eligible() ? plan.granularity : 0;
  TaggingPolicy policy(tag, plan.dvfs_enabled && g > 0, plan.lfo, plan.hfo);

  ctx.mcu = &mcu;
  ctx.mode = mode;
  ctx.dvfs = &policy;
  ctx.scratch_mem = scratch_mem_;

  LayerIo io;
  io.input = tensor_ref(layer.inputs.at(0));
  io.output = tensor_ref(layer.id);
  if (layer.inputs.size() > 1) {
    io.input_b = tensor_ref(layer.inputs.at(1));
  }
  dispatch_layer(layer, io, g, ctx);

  ctx.dvfs = nullptr;
  ctx.mcu = nullptr;
}

LayerProfile InferenceEngine::run_layer(sim::Mcu& mcu, int layer_idx,
                                        const LayerPlan& plan,
                                        kernels::ExecMode mode) const {
  kernels::ExecContext ctx;
  return run_layer_in(mcu, layer_idx, plan, mode, ctx);
}

LayerProfile InferenceEngine::run_layer_in(sim::Mcu& mcu, int layer_idx,
                                           const LayerPlan& plan,
                                           kernels::ExecMode mode,
                                           kernels::ExecContext& ctx) const {
  const graph::LayerSpec& layer =
      model_.layers().at(static_cast<std::size_t>(layer_idx));
  const std::string mem_tag = "L" + std::to_string(layer_idx) + "/mem";
  const sim::McuSnapshot before = mcu.snapshot();
  const double mem_before = mcu.meter().tag_uj(mem_tag);

  execute_layer(mcu, layer_idx, plan, mode, ctx);

  const sim::McuSnapshot after = mcu.snapshot();
  LayerProfile p;
  p.layer_idx = layer_idx;
  p.name = layer.name;
  p.kind = layer.kind;
  p.t_us = after.time_us - before.time_us;
  p.energy_uj = after.energy_uj - before.energy_uj;
  p.mem_segment_uj = mcu.meter().tag_uj(mem_tag) - mem_before;
  p.avg_power_mw = p.t_us > 0.0 ? p.energy_uj / p.t_us * 1000.0 : 0.0;
  p.cache_misses = after.cache.misses - before.cache.misses;
  p.clock_switches = after.rcc.switches - before.rcc.switches;
  p.pll_relocks = after.rcc.pll_relocks - before.rcc.pll_relocks;
  p.granularity = layer.is_dae_eligible() ? plan.granularity : 0;
  p.hfo_mhz = plan.hfo.sysclk_mhz();
  return p;
}

InferenceResult InferenceEngine::run(sim::Mcu& mcu, const Schedule& schedule,
                                     kernels::ExecMode mode,
                                     std::span<const int8_t> input) {
  if (schedule.plans.size() != static_cast<std::size_t>(model_.num_layers())) {
    throw std::invalid_argument("schedule size != layer count");
  }
  const auto in_bytes =
      static_cast<std::size_t>(model_.input_shape().elems());
  if (!input.empty()) {
    if (input.size() != in_bytes) {
      throw std::invalid_argument("input size mismatch");
    }
    std::copy(input.begin(), input.end(), host_ptrs_[0]);
  } else if (mode == kernels::ExecMode::kFull) {
    std::memset(host_ptrs_[0], 0, in_bytes);
  }

  InferenceResult res;
  const sim::McuSnapshot start = mcu.snapshot();
  res.layers.reserve(static_cast<std::size_t>(model_.num_layers()));
  kernels::ExecContext ctx;  // one gather-buffer allocation for the run
  for (int i = 0; i < model_.num_layers(); ++i) {
    res.layers.push_back(run_layer_in(mcu, i, schedule.plan(i), mode, ctx));
  }
  const sim::McuSnapshot end = mcu.snapshot();
  res.total_us = end.time_us - start.time_us;
  res.total_energy_uj = end.energy_uj - start.energy_uj;
  if (mode == kernels::ExecMode::kFull) {
    const int out_id = model_.num_layers();
    const auto out_bytes =
        static_cast<std::size_t>(model_.tensor_shape(out_id).elems());
    res.output.assign(host_ptrs_[static_cast<std::size_t>(out_id)],
                      host_ptrs_[static_cast<std::size_t>(out_id)] + out_bytes);
  }
  return res;
}

}  // namespace daedvfs::runtime
