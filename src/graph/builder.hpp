// Fluent graph builder with deterministic, seeded weight generation.
//
// The paper's methodology never inspects weight *values* — only layer shapes
// drive the memory/compute behaviour — so the zoo models use reproducible
// random int8 weights (docs/architecture.md, `graph/`). Quantization
// bookkeeping follows TFLM: per-tensor affine activations, symmetric
// weights, int32 bias at input_scale * weight_scale, requant multiplier < 1
// chosen so accumulators land in the int8 output range without systematic
// saturation.
#pragma once

#include <cstdint>
#include <string>

#include "graph/model.hpp"

namespace daedvfs::graph {

class ModelBuilder {
 public:
  ModelBuilder(std::string name, int height, int width, int channels,
               uint32_t seed);

  /// Tensor id of the model input.
  [[nodiscard]] static int input() { return 0; }

  /// KxK standard convolution; returns the output tensor id.
  int conv2d(int in_id, int out_channels, int kernel, int stride, bool relu);
  /// 3x3-style depthwise convolution (DAE-eligible).
  int depthwise(int in_id, int kernel, int stride, bool relu);
  /// 1x1 pointwise convolution (DAE-eligible).
  int pointwise(int in_id, int out_channels, bool relu);
  /// Global average pooling to 1x1xC.
  int global_avg_pool(int in_id);
  /// Dense classifier head.
  int fully_connected(int in_id, int out_features);
  /// Residual addition (shapes must match).
  int add(int a_id, int b_id);

  /// Finalizes and returns the model.
  [[nodiscard]] Model take();

 private:
  struct WeightInit {
    tensor::QTensor weights;
    tensor::BiasVector bias;
    uint64_t weight_vaddr;
    uint64_t bias_vaddr;
  };
  WeightInit init_weights(tensor::Shape4 shape, int bias_count);
  [[nodiscard]] tensor::QuantParams next_act_quant() const;
  int add_conv_like(LayerKind kind, int in_id, tensor::Shape4 out_shape,
                    tensor::Shape4 w_shape, int kernel, int stride, int pad,
                    bool relu, int64_t macs_per_out);

  Model model_;
  uint32_t seed_;
  int layer_counter_ = 0;
  uint64_t flash_cursor_;
};

/// Rounds `v * multiplier` to the nearest multiple of `divisor` (>= divisor),
/// the channel-rounding rule of the MobileNet family.
[[nodiscard]] int make_divisible(double v, int divisor = 8);

}  // namespace daedvfs::graph
