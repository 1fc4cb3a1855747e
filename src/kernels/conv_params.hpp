// Shared convolution/FC parameterization: geometry, zero points and the
// fixed-point requantization pipeline (per-tensor int8, TFLM semantics).
#pragma once

#include <cstdint>

#include "kernels/backend.hpp"
#include "tensor/quant.hpp"

namespace daedvfs::kernels {

struct ConvParams {
  int stride = 1;
  int pad = 0;  ///< Symmetric spatial zero-padding.

  int32_t input_zero_point = 0;
  int32_t output_zero_point = 0;
  /// Rescales acc = sum((x - in_zp) * w) + bias into the output domain:
  /// real multiplier = input_scale * weight_scale / output_scale.
  tensor::QuantizedMultiplier requant;

  /// Fused activation clamp in the quantized output domain. Defaults to the
  /// full int8 range (no activation); ReLU6 tightens these.
  int32_t act_min = -128;
  int32_t act_max = 127;

  /// Builds the requant multiplier from the three tensor scales.
  static tensor::QuantizedMultiplier make_requant(double input_scale,
                                                  double weight_scale,
                                                  double output_scale) {
    return tensor::quantize_multiplier(input_scale * weight_scale /
                                       output_scale);
  }
};

/// Applies requantization + clamp to one accumulator. Thin adapter over
/// tensor::requantize_to_int8 — the one definition of the quantized output
/// semantics shared by the microkernels and the reference oracles.
[[nodiscard]] inline int8_t requantize(int32_t acc, const ConvParams& p) {
  return tensor::requantize_to_int8(acc, p.requant, p.output_zero_point,
                                    p.act_min, p.act_max);
}

/// Requantizes a row of accumulators under `p`.
inline void requantize_row(int8_t* out, int64_t out_stride,
                           const int32_t* acc, int64_t n,
                           const ConvParams& p) {
  requantize_row(out, out_stride, acc, n, p.requant.multiplier,
                 p.requant.shift, p.output_zero_point, p.act_min, p.act_max);
}

}  // namespace daedvfs::kernels
