#include "kernels/pointwise.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace daedvfs::kernels {
namespace {

struct Geom {
  int h, w, cin, cout;
  int64_t columns;  ///< h * w spatial positions.
};

Geom make_geom(const PointwiseArgs& a) {
  Geom g{};
  g.h = a.input.view.shape.h;
  g.w = a.input.view.shape.w;
  g.cin = a.input.view.shape.c;
  g.cout = a.output.view.shape.c;
  g.columns = static_cast<int64_t>(g.h) * g.w;
  if (a.params.stride != 1 || a.params.pad != 0) {
    throw std::invalid_argument("pointwise: stride/pad must be 1/0");
  }
  if (a.weights.view.shape.n != g.cout || a.weights.view.shape.c != g.cin) {
    throw std::invalid_argument("pointwise: weight shape mismatch");
  }
  if (a.output.view.shape.h != g.h || a.output.view.shape.w != g.w) {
    throw std::invalid_argument("pointwise: output spatial mismatch");
  }
  return g;
}

/// Charges the weight-matrix traffic for `n_streams` full passes over the
/// Cout x Cin matrix. The first pass goes through the cache simulator; the
/// remaining passes are charged analytically — all-hit when the matrix fits
/// in the L1, all-miss otherwise. This keeps the event count (and simulation
/// cost) independent of the column count while preserving the real effect
/// that oversized weight matrices re-stream from flash for every column.
void stream_weights(const PointwiseArgs& a, const Geom& g, ExecContext& ctx,
                    int64_t n_streams) {
  if (n_streams <= 0) return;
  const uint64_t bytes = static_cast<uint64_t>(g.cout) * g.cin;
  ctx.read(a.weights.mem, bytes, static_cast<double>(bytes) / 4.0);
  if (a.bias != nullptr) {
    ctx.read(a.bias_mem, static_cast<uint64_t>(g.cout) * 4,
             static_cast<double>(g.cout));
  }
  if (n_streams == 1 || ctx.mcu == nullptr) return;

  const auto& cache = ctx.mcu->cache().config();
  const double issue_cycles = static_cast<double>(n_streams - 1) *
                              (static_cast<double>(bytes) / 4.0) *
                              ctx.cost().cycles_per_load_word;
  double stall_ns = 0.0;
  if (bytes > cache.size_bytes) {
    const double lines = static_cast<double>(bytes) / cache.line_bytes;
    stall_ns = static_cast<double>(n_streams - 1) * lines *
               sim::miss_penalty_ns(a.weights.mem.region,
                                    ctx.mcu->sysclk_mhz(),
                                    ctx.mcu->params().memory);
  }
  ctx.charge_memory(issue_cycles, stall_ns);
}

/// Per-output-channel sums of the weight row, folding the input zero point
/// out of the channel-mixing hot loop: columns have no padding, so every MAC
/// is interior and acc == sum(x * w) - zp * sum(w) + bias exactly.
std::vector<int32_t> row_weight_sums(const PointwiseArgs& a, const Geom& g) {
  std::vector<int32_t> sums(static_cast<std::size_t>(g.cout));
  const int8_t* wrow = a.weights.view.data;
  for (int oc = 0; oc < g.cout; ++oc, wrow += g.cin) {
    int32_t s = 0;
    for (int ic = 0; ic < g.cin; ++ic) s += wrow[ic];
    sums[static_cast<std::size_t>(oc)] = s;
  }
  return sums;
}

/// Computes output channels for the contiguous input column at flat position
/// `idx`: one dot_many over the whole Cout x Cin weight matrix, with
/// the input zero point folded into the initial accumulators.
void mix_column_math(const PointwiseArgs& a, const Geom& g, int64_t idx,
                     const int8_t* col, const int32_t* wsum,
                     int32_t* acc_px) {
  const int32_t zp = a.params.input_zero_point;
  int8_t* out = a.output.view.data + idx * g.cout;
  for (int oc = 0; oc < g.cout; ++oc) {
    acc_px[oc] = (a.bias != nullptr ? a.bias[oc] : 0) - zp * wsum[oc];
  }
  dot_many(acc_px, col, a.weights.view.data, g.cin, g.cout, g.cin);
  requantize_row(out, 1, acc_px, g.cout, a.params);
}

/// Charges the MAC + requant work for `n_cols` columns.
void account_mix(const Geom& g, ExecContext& ctx, int64_t n_cols) {
  const auto& cost = ctx.cost();
  ctx.compute(static_cast<double>(n_cols) *
              (static_cast<double>(g.cout) * g.cin * cost.cycles_per_mac +
               g.cout * cost.cycles_per_requant +
               cost.loop_overhead_cycles));
}

void run_baseline(const PointwiseArgs& a, const Geom& g, ExecContext& ctx,
                  const std::vector<int32_t>& wsum, int32_t* acc_px) {
  // Per-column execution, accounted row-by-row: each row issues its column
  // loads, one weight-matrix stream per *column pair* (TinyEngine unrolls
  // two columns to reuse each loaded weight row), the MACs, and the output
  // stores. Loads and MACs interleave on hardware; at a fixed clock the
  // batched accounting integrates to the same time and energy.
  const int64_t in_row_bytes = static_cast<int64_t>(g.w) * g.cin;
  const int64_t out_row_bytes = static_cast<int64_t>(g.w) * g.cout;
  for (int y = 0; y < g.h; ++y) {
    ctx.read(a.input.mem.offset(static_cast<uint64_t>(y) * in_row_bytes),
             static_cast<uint64_t>(in_row_bytes),
             static_cast<double>(in_row_bytes) / 4.0);
    stream_weights(a, g, ctx, (g.w + 1) / 2);
    account_mix(g, ctx, g.w);
    ctx.write(a.output.mem.offset(static_cast<uint64_t>(y) * out_row_bytes),
              static_cast<uint64_t>(out_row_bytes),
              static_cast<double>(out_row_bytes) / 4.0);
    if (ctx.do_math()) {
      const int8_t* in_row = a.input.view.data + y * in_row_bytes;
      for (int x = 0; x < g.w; ++x) {
        const int8_t* col = in_row + static_cast<int64_t>(x) * g.cin;
        mix_column_math(a, g, static_cast<int64_t>(y) * g.w + x, col,
                        wsum.data(), acc_px);
      }
    }
  }
}

void run_dae(const PointwiseArgs& a, const Geom& g, ExecContext& ctx,
             int granularity, const std::vector<int32_t>& wsum,
             int32_t* acc_px) {
  const std::size_t buf_bytes =
      static_cast<std::size_t>(granularity) * g.cin;
  std::vector<int8_t>& buf = ctx.scratch_host(buf_bytes);

  for (int64_t col0 = 0; col0 < g.columns; col0 += granularity) {
    const int64_t gcur =
        std::min<int64_t>(granularity, g.columns - col0);
    const uint64_t group_in_bytes = static_cast<uint64_t>(gcur) * g.cin;

    // ---- Memory-bound segment: buffer gcur contiguous columns.
    ctx.memory_segment();
    ctx.read(a.input.mem.offset(static_cast<uint64_t>(col0) * g.cin),
             group_in_bytes, static_cast<double>(group_in_bytes) / 4.0);
    ctx.write(ctx.scratch_mem, group_in_bytes,
              static_cast<double>(group_in_bytes) / 4.0);
    if (ctx.do_math()) {
      std::copy_n(a.input.view.data + col0 * g.cin, group_in_bytes,
                  buf.data());
    }

    // ---- Compute-bound segment: channel mixing per buffered column.
    // Buffering enables the oc-outer loop interchange (TinyEngine-style
    // register tiling), so the weight matrix streams once per *group*
    // rather than once per column — the iso-frequency latency gain of DAE
    // pointwise in the paper's Fig. 4.
    ctx.compute_segment();
    ctx.read(ctx.scratch_mem, group_in_bytes,
             static_cast<double>(group_in_bytes) / 4.0);
    stream_weights(a, g, ctx, 1);
    account_mix(g, ctx, gcur);
    ctx.write(a.output.mem.offset(static_cast<uint64_t>(col0) * g.cout),
              static_cast<uint64_t>(gcur) * g.cout,
              static_cast<double>(gcur) * g.cout / 4.0);
    if (ctx.do_math()) {
      for (int64_t i = 0; i < gcur; ++i) {
        const int8_t* col = buf.data() + i * g.cin;
        mix_column_math(a, g, col0 + i, col, wsum.data(), acc_px);
      }
    }
  }
}

}  // namespace

std::size_t pointwise_scratch_bytes(const tensor::Shape4& input_shape,
                                    int granularity) {
  if (granularity <= 0) return 0;
  return static_cast<std::size_t>(granularity) * input_shape.c;
}

std::size_t pointwise_scratch_bytes(const PointwiseArgs& args,
                                    int granularity) {
  return pointwise_scratch_bytes(args.input.view.shape, granularity);
}

void pointwise_conv(const PointwiseArgs& args, ExecContext& ctx) {
  const Geom g = make_geom(args);
  ctx.compute(ctx.cost().call_overhead_cycles);
  const std::vector<int32_t> wsum =
      ctx.do_math() ? row_weight_sums(args, g) : std::vector<int32_t>{};
  // Host-side per-column accumulator block for the row requantization;
  // never touches the simulated memory map.
  std::vector<int32_t> acc_px(
      ctx.do_math() ? static_cast<std::size_t>(g.cout) : 0);
  if (args.granularity <= 0) {
    run_baseline(args, g, ctx, wsum, acc_px.data());
  } else {
    run_dae(args, g, ctx, args.granularity, wsum, acc_px.data());
  }
}

}  // namespace daedvfs::kernels
