// The int8 MAC microkernels behind the Full-mode arithmetic.
//
// Every Full-mode arithmetic path in the kernel library (conv2d, depthwise,
// pointwise, fully_connected) reduces to the handful of int8 multiply-
// accumulate primitives below. They are portable scalar C++, called
// directly by the drivers.
//
// Two invariants define the layer (docs/kernels.md § "The two invariants"):
//
//  * Bit-exactness: outputs are byte-identical to the naive reference
//    oracles. Every primitive accumulates exact int32 sums of int8 products
//    (overflow-free for every shape the drivers issue), and requantization
//    funnels through tensor::requantize_to_int8.
//
//  * Math-independent cost stream: the primitives perform host arithmetic
//    only. Work-event emission (ctx.compute/read/write, DVFS segment hooks)
//    stays in the driver loops, so Full- and Timing-mode costs, WorkLedger
//    recordings and replay results are byte-identical.
#pragma once

#include <cstdint>

namespace daedvfs::kernels {

/// sum_i (a[i] - zp) * b[i] over n contiguous elements. The zero-point-
/// folded callers pass zp == 0.
[[nodiscard]] int32_t dot(const int8_t* a, const int8_t* b, int64_t n,
                          int32_t zp);

/// acc[i] += sum_j x[j] * w[i*w_stride + j] for i < m: one activation
/// block against m contiguous weight rows (conv2d packed windows,
/// pointwise columns).
void dot_many(int32_t* acc, const int8_t* x, const int8_t* w,
              int64_t w_stride, int m, int64_t n);

/// sum_{r < rows} sum_{i < n} a[r * a_row + i] * b[r * b_row + i]:
/// a multi-row dot product (strided depthwise plane windows).
[[nodiscard]] int32_t dot_rows(const int8_t* a, int64_t a_row,
                               const int8_t* b, int64_t b_row, int rows,
                               int64_t n);

/// acc[j] += sum_{r < rows} sum_{k < kw} taps[r*kw + k] * x[r*x_row + j + k]
/// for j < n: the stride-1 depthwise plane row as one sliding-window pass.
/// Reads x[r*x_row + i] only for i < n - 1 + kw — the exact window extent.
void conv_rows_s1(int32_t* acc, const int8_t* x, int64_t x_row,
                  const int8_t* taps, int rows, int kw, int64_t n);

/// acc[j] += sum_{r < rows} sum_{s < m} x[r*x_row + s*c + j] *
///           w[r*w_row + s*c + j]  for j < c:
/// the NHWC depthwise window fold across all channel lanes.
void mac_window(int32_t* acc, const int8_t* x, int64_t x_row,
                const int8_t* w, int64_t w_row, int c, int rows, int m);

/// dst[g * dst_stride + x] = src[x * src_stride + g] for x < n, g < m:
/// the DAE channel-group gather (one NHWC input row transposed into m
/// per-channel plane rows). Data movement only; it emits no work events.
void gather_planes(int8_t* dst, int64_t dst_stride, const int8_t* src,
                   int64_t src_stride, int64_t n, int m);

/// out[j * out_stride] = requantize(acc[j]) for j < n: the fixed-point
/// requantization pipeline (tensor::requantize_to_int8 semantics —
/// gemmlowp rounding, output zero point, activation clamp) applied to a
/// row of accumulators. `multiplier`/`shift` are a QuantizedMultiplier's
/// fields.
void requantize_row(int8_t* out, int64_t out_stride, const int32_t* acc,
                    int64_t n, int32_t multiplier, int32_t shift,
                    int32_t output_zero_point, int32_t act_min,
                    int32_t act_max);

/// Name-only record of the microkernel implementation; nothing dispatches
/// on it. Kept because the whole-pipeline benchmark's provenance prints
/// default_backend().name.
struct BackendInfo {
  const char* name;  ///< Always "scalar".
};

[[nodiscard]] const BackendInfo& default_backend();

}  // namespace daedvfs::kernels
