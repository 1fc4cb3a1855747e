#include "kernels/conv2d.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace daedvfs::kernels {
namespace {

struct Geom {
  int h, w, cin, kh, kw, cout, oh, ow, stride, pad;
};

Geom make_geom(const Conv2dArgs& a) {
  Geom g{};
  g.h = a.input.view.shape.h;
  g.w = a.input.view.shape.w;
  g.cin = a.input.view.shape.c;
  g.kh = a.weights.view.shape.h;
  g.kw = a.weights.view.shape.w;
  g.cout = a.weights.view.shape.n;
  g.oh = a.output.view.shape.h;
  g.ow = a.output.view.shape.w;
  g.stride = a.params.stride;
  g.pad = a.params.pad;
  if (a.weights.view.shape.c != g.cin ||
      a.output.view.shape.c != g.cout) {
    throw std::invalid_argument("conv2d: channel mismatch");
  }
  const int expect_oh = (g.h + 2 * g.pad - g.kh) / g.stride + 1;
  const int expect_ow = (g.w + 2 * g.pad - g.kw) / g.stride + 1;
  if (expect_oh != g.oh || expect_ow != g.ow) {
    throw std::invalid_argument("conv2d: output shape mismatch");
  }
  return g;
}

/// Per-filter sums of all weight elements, for folding the input zero point
/// out of the interior hot loop: sum((x - zp) * w) == sum(x * w) - zp * sum(w)
/// whenever every tap of the filter window is in bounds.
std::vector<int32_t> filter_weight_sums(const Conv2dArgs& a, const Geom& g) {
  std::vector<int32_t> sums(static_cast<std::size_t>(g.cout));
  const int64_t kelems = static_cast<int64_t>(g.kh) * g.kw * g.cin;
  const int8_t* w = a.weights.view.data;
  for (int oc = 0; oc < g.cout; ++oc) {
    int32_t s = 0;
    const int8_t* wp = w + oc * kelems;
    for (int64_t j = 0; j < kelems; ++j) s += wp[j];
    sums[static_cast<std::size_t>(oc)] = s;
  }
  return sums;
}

/// int8 math for one output row over a zero-point-padded host copy of the
/// input (padding contributes exactly (zp - zp)*w == 0 to every folded sum,
/// so every pixel is interior). Each pixel packs its filter window into one
/// contiguous block; each output channel's weights are already one
/// contiguous kh*kw*cin block, so the whole pixel reduces to a single
/// dot_many call — packing cost amortizes over cout.
void math_output_row(const Conv2dArgs& a, const Geom& g, int oy,
                     const int32_t* wsum, int32_t* acc_px, int8_t* patch,
                     const int8_t* padded, int64_t prow) {
  int8_t* out_row =
      a.output.view.data + static_cast<int64_t>(oy) * g.ow * g.cout;
  const int64_t w_row_elems = static_cast<int64_t>(g.kw) * g.cin;
  const int64_t kelems = g.kh * w_row_elems;
  const int32_t zp = a.params.input_zero_point;
  const int8_t* win_row =
      padded + static_cast<int64_t>(oy) * g.stride * prow;

  for (int ox = 0; ox < g.ow; ++ox) {
    const int8_t* win =
        win_row + static_cast<int64_t>(ox) * g.stride * g.cin;
    for (int ky = 0; ky < g.kh; ++ky) {
      std::memcpy(patch + static_cast<int64_t>(ky) * w_row_elems,
                  win + static_cast<int64_t>(ky) * prow,
                  static_cast<std::size_t>(w_row_elems));
    }
    for (int oc = 0; oc < g.cout; ++oc) {
      acc_px[oc] = (a.bias != nullptr ? a.bias[oc] : 0) - zp * wsum[oc];
    }
    dot_many(acc_px, patch, a.weights.view.data, kelems, g.cout, kelems);
    requantize_row(out_row + static_cast<int64_t>(ox) * g.cout, 1, acc_px,
                   g.cout, a.params);
  }
}

}  // namespace

void conv2d(const Conv2dArgs& a, ExecContext& ctx) {
  const Geom g = make_geom(a);
  const auto& cost = ctx.cost();
  ctx.compute(cost.call_overhead_cycles);

  const std::vector<int32_t> wsum =
      ctx.do_math() ? filter_weight_sums(a, g) : std::vector<int32_t>{};
  // Host-side staging for the int8 math: per-pixel accumulator block,
  // packed filter window (im2col-style) and (with padding) a
  // zero-point-padded input copy. None of it touches the simulated memory
  // map.
  std::vector<int32_t> acc_px(
      ctx.do_math() ? static_cast<std::size_t>(g.cout) : 0);
  std::vector<int8_t> patch(
      ctx.do_math() ? static_cast<std::size_t>(g.kh) * g.kw * g.cin : 0);
  const int64_t prow = static_cast<int64_t>(g.w + 2 * g.pad) * g.cin;
  std::vector<int8_t> padded;
  const int8_t* math_base = a.input.view.data;
  if (ctx.do_math() && g.pad > 0) {
    padded.assign(static_cast<std::size_t>(g.h + 2 * g.pad) * prow,
                  static_cast<int8_t>(a.params.input_zero_point));
    for (int y = 0; y < g.h; ++y) {
      std::memcpy(padded.data() + (static_cast<int64_t>(y) + g.pad) * prow +
                      static_cast<int64_t>(g.pad) * g.cin,
                  a.input.view.data +
                      static_cast<int64_t>(y) * g.w * g.cin,
                  static_cast<std::size_t>(g.w) * g.cin);
    }
    math_base = padded.data();
  }

  const int64_t in_row_bytes = static_cast<int64_t>(g.w) * g.cin;
  const int64_t out_row_bytes = static_cast<int64_t>(g.ow) * g.cout;
  const uint64_t weight_bytes =
      static_cast<uint64_t>(g.cout) * g.kh * g.kw * g.cin;

  for (int oy = 0; oy < g.oh; ++oy) {
    const int iy0 = std::max(0, oy * g.stride - g.pad);
    const int iy1 = std::min(g.h - 1, oy * g.stride - g.pad + g.kh - 1);
    if (iy1 >= iy0) {
      const double elems =
          static_cast<double>(g.ow) * g.kh * g.kw * g.cin;
      ctx.read(a.input.mem.offset(static_cast<uint64_t>(iy0) * in_row_bytes),
               static_cast<uint64_t>(iy1 - iy0 + 1) * in_row_bytes,
               elems / 4.0);
    }
    // Weight matrix streamed once per output row through the cache; early
    // convs have small Cin so the matrix is cache-resident anyway.
    ctx.read(a.weights.mem, weight_bytes,
             static_cast<double>(weight_bytes) / 4.0);
    if (a.bias != nullptr) {
      ctx.read(a.bias_mem, static_cast<uint64_t>(g.cout) * 4,
               static_cast<double>(g.cout));
    }
    ctx.compute(static_cast<double>(g.ow) * g.cout *
                    (g.kh * g.kw * g.cin * cost.cycles_per_mac +
                     cost.cycles_per_requant) +
                g.ow * cost.loop_overhead_cycles);
    ctx.write(a.output.mem.offset(static_cast<uint64_t>(oy) * out_row_bytes),
              static_cast<uint64_t>(out_row_bytes),
              static_cast<double>(out_row_bytes) / 4.0);

    if (ctx.do_math()) {
      math_output_row(a, g, oy, wsum.data(), acc_px.data(), patch.data(),
                      math_base, prow);
    }
  }
}

}  // namespace daedvfs::kernels
