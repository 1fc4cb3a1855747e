#include "kernels/depthwise.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace daedvfs::kernels {
namespace {

struct Geom {
  int h, w, c, kh, kw, oh, ow, stride, pad;
};

Geom make_geom(const DepthwiseArgs& a) {
  Geom g{};
  g.h = a.input.view.shape.h;
  g.w = a.input.view.shape.w;
  g.c = a.input.view.shape.c;
  g.kh = a.weights.view.shape.h;
  g.kw = a.weights.view.shape.w;
  g.oh = a.output.view.shape.h;
  g.ow = a.output.view.shape.w;
  g.stride = a.params.stride;
  g.pad = a.params.pad;
  if (a.weights.view.shape.c != g.c || a.output.view.shape.c != g.c) {
    throw std::invalid_argument("depthwise: channel mismatch");
  }
  const int expect_oh = (g.h + 2 * g.pad - g.kh) / g.stride + 1;
  const int expect_ow = (g.w + 2 * g.pad - g.kw) / g.stride + 1;
  if (expect_oh != g.oh || expect_ow != g.ow) {
    throw std::invalid_argument("depthwise: output shape mismatch");
  }
  return g;
}

/// Extracts channel `ch`'s filter taps into contiguous caller scratch
/// (kh*kw, row-major) and returns their sum — hoisted out of the row loop
/// so the plane hot loop runs zero-point-folded MACs over row pointers.
int32_t extract_filter(const DepthwiseArgs& a, const Geom& g, int ch,
                       int8_t* taps) {
  int32_t sum = 0;
  for (int ky = 0; ky < g.kh; ++ky) {
    for (int kx = 0; kx < g.kw; ++kx) {
      const int8_t w = a.weights.view.at(ky, kx, ch);
      taps[static_cast<std::size_t>(ky) * g.kw + kx] = w;
      sum += w;
    }
  }
  return sum;
}

/// Convolves channel `ch` for output row `oy` over a zero-point-padded host
/// plane of width `pw` ((w + 2*pad) columns, (h + 2*pad) rows). Padding
/// cells hold the input zero point and so contribute exactly (zp - zp)*w ==
/// 0 to every folded sum — every output column is interior, no bounds
/// clipping anywhere. `acc_row` is caller scratch holding >= g.ow int32s.
void dae_plane_row_math(const DepthwiseArgs& a, const Geom& g, int ch, int oy,
                        const int8_t* plane, int64_t pw, const int8_t* taps,
                        int32_t tap_sum, int32_t* acc_row) {
  const int32_t acc0 = (a.bias != nullptr ? a.bias[ch] : 0) -
                       a.params.input_zero_point * tap_sum;
  int8_t* out_row =
      a.output.view.data + (static_cast<int64_t>(oy) * g.ow) * g.c + ch;
  const int8_t* win =
      plane + static_cast<int64_t>(oy) * g.stride * pw;
  if (g.stride == 1) {
    for (int j = 0; j < g.ow; ++j) acc_row[j] = acc0;
    conv_rows_s1(acc_row, win, pw, taps, g.kh, g.kw, g.ow);
    requantize_row(out_row, g.c, acc_row, g.ow, a.params);
  } else {
    for (int ox = 0; ox < g.ow; ++ox) {
      const int32_t acc =
          acc0 + dot_rows(win + static_cast<int64_t>(ox) * g.stride, pw,
                          taps, g.kw, g.kh, g.kw);
      out_row[static_cast<int64_t>(ox) * g.c] = requantize(acc, a.params);
    }
  }
}

/// Accounts one output row of the *baseline* path for channel `ch`:
/// channel-strided input-row reads (one LDRB per element, register reuse
/// across the kernel window), strided-fed MACs, strided output stores.
void account_row_baseline(const DepthwiseArgs& a, const Geom& g,
                          ExecContext& ctx, int ch, int oy) {
  const int iy0 = std::max(0, oy * g.stride - g.pad);
  const int iy1 = std::min(g.h - 1, oy * g.stride - g.pad + g.kh - 1);
  const int64_t in_row_bytes = static_cast<int64_t>(g.w) * g.c;
  for (int iy = iy0; iy <= iy1; ++iy) {
    ctx.read_strided(
        a.input.mem.offset(static_cast<uint64_t>(iy) * in_row_bytes + ch),
        static_cast<uint64_t>(g.c), static_cast<uint32_t>(g.w));
  }
  const auto& cost = ctx.cost();
  ctx.compute(g.ow *
              (g.kh * g.kw * cost.cycles_per_mac * cost.strided_mac_factor +
               cost.cycles_per_requant + cost.loop_overhead_cycles));
  ctx.write_strided(
      a.output.mem.offset(static_cast<uint64_t>(oy) * g.ow * g.c + ch),
      static_cast<uint64_t>(g.c), static_cast<uint32_t>(g.ow));
}

/// Accounts one output row of the *DAE compute segment* for one buffered
/// plane: contiguous word reads from the scratch plane, packed (SMLAD) MACs,
/// strided output stores (output stays NHWC).
void account_row_dae(const DepthwiseArgs& a, const Geom& g, ExecContext& ctx,
                     int ch, int oy, const sim::MemRef& plane_ref) {
  const int iy0 = std::max(0, oy * g.stride - g.pad);
  const int iy1 = std::min(g.h - 1, oy * g.stride - g.pad + g.kh - 1);
  const double elems = static_cast<double>(g.ow) * g.kh * g.kw;
  if (iy1 >= iy0) {
    // Contiguous plane rows: word loads feed four operands each.
    ctx.read(plane_ref.offset(static_cast<uint64_t>(iy0) * g.w),
             static_cast<uint64_t>(iy1 - iy0 + 1) * g.w, elems / 4.0);
  }
  const auto& cost = ctx.cost();
  ctx.compute(g.ow * (g.kh * g.kw * cost.cycles_per_mac +
                      cost.cycles_per_requant + cost.loop_overhead_cycles));
  ctx.write_strided(
      a.output.mem.offset(static_cast<uint64_t>(oy) * g.ow * g.c + ch),
      static_cast<uint64_t>(g.c), static_cast<uint32_t>(g.ow));
}

void account_weights(const DepthwiseArgs& a, const Geom& g, ExecContext& ctx) {
  // Per-channel filter: KH*KW strided byte loads spanning the whole (small)
  // weight tensor. Bias: one word.
  ctx.read(a.weights.mem, static_cast<uint64_t>(g.kh) * g.kw * g.c,
           static_cast<double>(g.kh) * g.kw);
  if (a.bias != nullptr) ctx.read(a.bias_mem, 4, 1.0);
}

/// Channel-vectorized int8 math of the baseline NHWC path. Works on a
/// zero-point-padded host copy of the input (padding contributes exactly
/// zero to the folded sums), so every pixel is interior: one mac_window
/// call folds the whole kh x kw tap window across all channel lanes
/// and each output pixel requantizes as one contiguous row. `acc` holds
/// >= g.c int32s. Event accounting stays in run_baseline's per-channel
/// loops — where the math runs has no cost-stream effect.
void baseline_math(const DepthwiseArgs& a, const Geom& g, int32_t* acc) {
  const int8_t* wts = a.weights.view.data;
  const int32_t zp = a.params.input_zero_point;
  const int pw = g.w + 2 * g.pad;
  const int64_t prow = static_cast<int64_t>(pw) * g.c;
  std::vector<int8_t> padded;
  const int8_t* base = a.input.view.data;
  if (g.pad > 0) {
    padded.assign(static_cast<std::size_t>(g.h + 2 * g.pad) * prow,
                  static_cast<int8_t>(zp));
    for (int y = 0; y < g.h; ++y) {
      std::memcpy(padded.data() + (static_cast<int64_t>(y) + g.pad) * prow +
                      static_cast<int64_t>(g.pad) * g.c,
                  a.input.view.data +
                      static_cast<int64_t>(y) * g.w * g.c,
                  static_cast<std::size_t>(g.w) * g.c);
    }
    base = padded.data();
  }
  // Per-channel folded initial accumulator: bias - zp * sum(taps).
  std::vector<int32_t> acc0(static_cast<std::size_t>(g.c));
  for (int ch = 0; ch < g.c; ++ch) {
    int32_t s = 0;
    for (int t = 0; t < g.kh * g.kw; ++t) s += wts[t * g.c + ch];
    acc0[static_cast<std::size_t>(ch)] =
        (a.bias != nullptr ? a.bias[ch] : 0) - zp * s;
  }
  const int64_t w_row = static_cast<int64_t>(g.kw) * g.c;
  for (int oy = 0; oy < g.oh; ++oy) {
    const int8_t* in_row =
        base + static_cast<int64_t>(oy) * g.stride * prow;
    int8_t* out_px =
        a.output.view.data + static_cast<int64_t>(oy) * g.ow * g.c;
    for (int ox = 0; ox < g.ow; ++ox, out_px += g.c) {
      std::copy_n(acc0.data(), g.c, acc);
      mac_window(acc, in_row + static_cast<int64_t>(ox) * g.stride * g.c,
                 prow, wts, w_row, g.c, g.kh, g.kw);
      requantize_row(out_px, 1, acc, g.c, a.params);
    }
  }
}

void run_baseline(const DepthwiseArgs& a, const Geom& g, ExecContext& ctx,
                  int32_t* acc_scratch) {
  for (int ch = 0; ch < g.c; ++ch) {
    account_weights(a, g, ctx);
    for (int oy = 0; oy < g.oh; ++oy) {
      account_row_baseline(a, g, ctx, ch, oy);
    }
  }
  if (ctx.do_math()) {
    baseline_math(a, g, acc_scratch);
  }
}

void run_dae(const DepthwiseArgs& a, const Geom& g, ExecContext& ctx,
             int granularity, int32_t* acc_row) {
  // Simulated plane size (drives all work events and the DSE scratch
  // budget, depthwise_scratch_bytes) stays h*w; the *host* staging planes
  // carry a zero-point border so the compute segment needs no bounds
  // clipping — a host-layout detail with no cost-stream effect.
  const int64_t plane_bytes = static_cast<int64_t>(g.h) * g.w;
  const int pw = g.w + 2 * g.pad;
  const int64_t host_plane =
      static_cast<int64_t>(g.h + 2 * g.pad) * pw;
  const int64_t in_row_bytes = static_cast<int64_t>(g.w) * g.c;
  std::vector<int8_t>& buf = ctx.scratch_host(
      static_cast<std::size_t>(granularity) * host_plane);

  for (int c0 = 0; c0 < g.c; c0 += granularity) {
    const int gcur = std::min(granularity, g.c - c0);

    // ---- Memory-bound segment: gather gcur channel planes (Listing 1:5).
    // Adjacent channels are contiguous in NHWC, so the gather loads the
    // whole channel group per pixel (one word load covers four channels)
    // and register-transposes into per-channel plane rows (word stores).
    ctx.memory_segment();
    if (ctx.do_math() && g.pad > 0) {
      // Zero-point the pad border only; the gather fills the interior.
      const int ph = g.h + 2 * g.pad;
      const auto zpb = static_cast<int8_t>(a.params.input_zero_point);
      for (int gi = 0; gi < gcur; ++gi) {
        int8_t* plane = buf.data() + gi * host_plane;
        std::memset(plane, zpb, static_cast<std::size_t>(g.pad) * pw);
        std::memset(plane + (static_cast<int64_t>(ph) - g.pad) * pw, zpb,
                    static_cast<std::size_t>(g.pad) * pw);
        for (int y = 0; y < g.h; ++y) {
          int8_t* row = plane + (static_cast<int64_t>(y) + g.pad) * pw;
          std::memset(row, zpb, static_cast<std::size_t>(g.pad));
          std::memset(row + g.pad + g.w, zpb,
                      static_cast<std::size_t>(g.pad));
        }
      }
    }
    for (int y = 0; y < g.h; ++y) {
      ctx.read_strided(
          a.input.mem.offset(static_cast<uint64_t>(y) * in_row_bytes + c0),
          static_cast<uint64_t>(g.c), static_cast<uint32_t>(g.w),
          /*elem_bytes=*/static_cast<uint64_t>(gcur),
          /*issue_words=*/static_cast<double>(g.w) *
              ((gcur + 3) / 4));
      for (int gi = 0; gi < gcur; ++gi) {
        ctx.write(ctx.scratch_mem.offset(
                      static_cast<uint64_t>(gi) * plane_bytes +
                      static_cast<uint64_t>(y) * g.w),
                  static_cast<uint64_t>(g.w),
                  static_cast<double>(g.w) / 4.0);
      }
      if (ctx.do_math()) {
        gather_planes(
            buf.data() + (static_cast<int64_t>(y) + g.pad) * pw + g.pad,
            host_plane, a.input.view.data + y * in_row_bytes + c0, g.c, g.w,
            gcur);
      }
    }

    // ---- Compute-bound segment: convolve each buffered plane (Listing 1:9).
    ctx.compute_segment();
    std::vector<int8_t> taps(
        ctx.do_math() ? static_cast<std::size_t>(g.kh) * g.kw : 0);
    for (int gi = 0; gi < gcur; ++gi) {
      const int ch = c0 + gi;
      account_weights(a, g, ctx);
      const sim::MemRef plane_ref =
          ctx.scratch_mem.offset(static_cast<uint64_t>(gi) * plane_bytes);
      const int32_t tap_sum =
          ctx.do_math() ? extract_filter(a, g, ch, taps.data()) : 0;
      for (int oy = 0; oy < g.oh; ++oy) {
        account_row_dae(a, g, ctx, ch, oy, plane_ref);
        if (ctx.do_math()) {
          dae_plane_row_math(a, g, ch, oy, buf.data() + gi * host_plane, pw,
                             taps.data(), tap_sum, acc_row);
        }
      }
    }
  }
}

}  // namespace

std::size_t depthwise_scratch_bytes(const tensor::Shape4& input_shape,
                                    int granularity) {
  if (granularity <= 0) return 0;
  return static_cast<std::size_t>(granularity) * input_shape.h *
         input_shape.w;
}

std::size_t depthwise_scratch_bytes(const DepthwiseArgs& args,
                                    int granularity) {
  return depthwise_scratch_bytes(args.input.view.shape, granularity);
}

void depthwise_conv(const DepthwiseArgs& args, ExecContext& ctx) {
  const Geom g = make_geom(args);
  ctx.compute(ctx.cost().call_overhead_cycles);
  // Host-side int32 accumulator scratch for the row microkernels (one
  // output row in the DAE form, one channel row in the baseline form);
  // never touches the simulated memory map.
  std::vector<int32_t> acc_row(
      ctx.do_math() ? static_cast<std::size_t>(std::max(g.ow, g.c)) : 0);
  if (args.granularity <= 0) {
    run_baseline(args, g, ctx, acc_row.data());
  } else {
    run_dae(args, g, ctx, args.granularity, acc_row.data());
  }
}

}  // namespace daedvfs::kernels
