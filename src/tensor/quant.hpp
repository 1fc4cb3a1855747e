// Linear int8 quantization math.
//
// Implements the standard affine quantization scheme used by TFLite Micro,
// CMSIS-NN and TinyEngine:  real = scale * (q - zero_point), and the
// fixed-point requantization path (32-bit multiplier + shift) that maps
// int32 accumulators back to int8 outputs without floating point — the form
// an actual Cortex-M deployment executes.
#pragma once

#include <cstdint>

namespace daedvfs::tensor {

/// Affine quantization parameters for one tensor (per-tensor quantization, as
/// the paper's models use "linear int8 quantization").
struct QuantParams {
  double scale = 1.0;
  int32_t zero_point = 0;

  [[nodiscard]] double dequantize(int32_t q) const {
    return scale * static_cast<double>(q - zero_point);
  }
  [[nodiscard]] int8_t quantize(double real) const;
  [[nodiscard]] bool operator==(const QuantParams&) const = default;
};

/// Fixed-point representation of a positive real multiplier `m < 1` as
/// `m = q * 2^shift / 2^31` with q in [2^30, 2^31). Used to rescale int32
/// convolution accumulators into the int8 output domain.
struct QuantizedMultiplier {
  int32_t multiplier = 0;  ///< Q31 mantissa.
  int32_t shift = 0;       ///< Left shift (negative = right shift).
};

/// Decomposes a real multiplier (must be > 0 and < 1 for convolution
/// rescaling, but any positive value is accepted) into Q31 mantissa + shift.
[[nodiscard]] QuantizedMultiplier quantize_multiplier(double real_multiplier);

/// gemmlowp-style saturating rounding doubling high multiply:
/// round(a * b / 2^31) with saturation on the single overflow case.
[[nodiscard]] int32_t saturating_rounding_doubling_high_mul(int32_t a,
                                                            int32_t b);

/// Rounding arithmetic right shift (round-half-away-from-zero), exponent >= 0.
[[nodiscard]] int32_t rounding_divide_by_pot(int32_t x, int32_t exponent);

/// Applies a QuantizedMultiplier to an int32 accumulator (TFLM semantics).
[[nodiscard]] int32_t multiply_by_quantized_multiplier(
    int32_t acc, const QuantizedMultiplier& qm);

/// Clamps an int32 to int8 range [lo, hi] (activation fusion uses tightened
/// bounds, e.g. ReLU6 maps to [zp, quantize(6)]).
[[nodiscard]] inline int8_t clamp_to_int8(int32_t v, int32_t lo = -128,
                                          int32_t hi = 127) {
  if (v < lo) v = lo;
  if (v > hi) v = hi;
  return static_cast<int8_t>(v);
}

/// The full accumulator -> int8 requantization pipeline (fixed-point
/// rescale, output zero-point add, activation clamp). The single definition
/// of the quantized output semantics: the kernel microkernels and the
/// reference oracles funnel through it, so they cannot diverge on rounding
/// or saturation behaviour.
[[nodiscard]] inline int8_t requantize_to_int8(int32_t acc,
                                               const QuantizedMultiplier& qm,
                                               int32_t output_zero_point,
                                               int32_t act_min = -128,
                                               int32_t act_max = 127) {
  return clamp_to_int8(multiply_by_quantized_multiplier(acc, qm) +
                           output_zero_point,
                       act_min, act_max);
}

}  // namespace daedvfs::tensor
