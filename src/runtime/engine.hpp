// The inference engine: executes a graph::Model on a sim::Mcu under a
// Schedule, producing per-layer latency/energy profiles — the "custom
// run-time monitoring mechanism" of the paper (§III-B): timers triggered
// between layer code segments, energy attributed per layer.
//
// Activation tensors live in a tensor::Arena mapped at the simulated SRAM
// base, so cache behaviour is deterministic and independent of host layout.
// All tensors are kept live for the duration of one inference (the models
// fit comfortably; peak-memory planning is orthogonal to this paper).
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/model.hpp"
#include "kernels/exec_context.hpp"
#include "runtime/schedule.hpp"
#include "sim/mcu.hpp"
#include "tensor/arena.hpp"

namespace daedvfs::runtime {

/// Per-layer measurement record.
struct LayerProfile {
  int layer_idx = 0;
  std::string name;
  graph::LayerKind kind = graph::LayerKind::kConv2d;
  double t_us = 0.0;
  double energy_uj = 0.0;
  double avg_power_mw = 0.0;
  uint64_t cache_misses = 0;
  uint64_t clock_switches = 0;
  uint64_t pll_relocks = 0;
  int granularity = 0;
  double hfo_mhz = 0.0;
};

struct InferenceResult {
  std::vector<LayerProfile> layers;
  double total_us = 0.0;
  double total_energy_uj = 0.0;
  /// Copy of the final output tensor (meaningful in Full mode only).
  std::vector<int8_t> output;
};

/// Tensor bindings of one layer invocation: input(s) + output. `input_b` is
/// only read for two-input layers (residual add). The optional mem overrides
/// replace the layer's builder-assigned flash placement — the DSE's
/// isolated-layer profiler uses them to put weights at canonical addresses
/// so structurally identical layers produce identical profiles.
struct LayerIo {
  kernels::TensorRef input;
  kernels::TensorRef input_b;
  kernels::TensorRef output;
  std::optional<sim::MemRef> weights_mem;
  std::optional<sim::MemRef> bias_mem;
};

/// Dispatches one layer's kernel on `ctx` given explicit tensor bindings.
/// Pure function of its arguments — shared by the engine's in-situ execution
/// and by the DSE's isolated-layer profiler (dse/explorer.cpp), so the two
/// can never disagree on kernel selection or argument wiring.
void dispatch_layer(const graph::LayerSpec& layer, const LayerIo& io,
                    int granularity, kernels::ExecContext& ctx);

class InferenceEngine {
 public:
  /// Binds to a model; allocates host + simulated activation storage.
  explicit InferenceEngine(const graph::Model& model);

  /// Runs a full inference. `input` (optional) must match the model input
  /// size; zeros are used when omitted (Timing mode never reads data).
  /// Like run_layer, Full mode writes the shared activation buffers.
  InferenceResult run(sim::Mcu& mcu, const Schedule& schedule,
                      kernels::ExecMode mode,
                      std::span<const int8_t> input = {}) const;

  /// Runs a single layer in isolation under `plan` — the unit of the
  /// paper's per-layer DSE (§III-B). Input activations are whatever the
  /// engine buffers currently hold (zeros initially).
  ///
  /// Re-entrant: uses no mutable engine state, so concurrent calls on
  /// distinct `Mcu` instances are safe in Timing mode (Full mode writes the
  /// shared activation buffers and must not run concurrently).
  LayerProfile run_layer(sim::Mcu& mcu, int layer_idx, const LayerPlan& plan,
                         kernels::ExecMode mode) const;

  [[nodiscard]] const graph::Model& model() const { return model_; }
  /// Where the DAE gather buffer lives (see place_scratch).
  [[nodiscard]] const sim::MemRef& scratch_mem() const { return scratch_mem_; }

  /// Places the DAE gather buffer in a different memory (default: cached AXI
  /// SRAM). `kDtcm` models the real-firmware option of putting the buffer in
  /// the F7's tightly-coupled memory: uncached, single-cycle, but a scarce
  /// 128 KB resource. Timing-only effect; numerics are unchanged.
  void place_scratch(sim::MemRegion region);

  /// Simulated SRAM bytes used by activations.
  [[nodiscard]] std::size_t activation_bytes() const;
  /// View + simulated address of tensor `id`.
  [[nodiscard]] kernels::TensorRef tensor_ref(int id) const;

 private:
  void execute_layer(sim::Mcu& mcu, int layer_idx, const LayerPlan& plan,
                     kernels::ExecMode mode,
                     kernels::ExecContext& ctx) const;
  LayerProfile run_layer_in(sim::Mcu& mcu, int layer_idx,
                            const LayerPlan& plan, kernels::ExecMode mode,
                            kernels::ExecContext& ctx) const;

  const graph::Model& model_;
  tensor::Arena arena_;
  std::vector<int8_t*> host_ptrs_;      ///< Per tensor id.
  std::vector<uint64_t> vaddrs_;        ///< Per tensor id.
  sim::MemRef scratch_mem_;             ///< DAE gather buffer placement.
};

}  // namespace daedvfs::runtime
