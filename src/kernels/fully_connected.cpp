#include "kernels/fully_connected.hpp"

#include <stdexcept>
#include <vector>

namespace daedvfs::kernels {

void fully_connected(const FullyConnectedArgs& a, ExecContext& ctx) {
  const int64_t in = a.input.view.shape.elems();
  const int64_t out = a.output.view.shape.elems();
  if (a.weights.view.shape.n != out || a.weights.view.shape.c != in) {
    throw std::invalid_argument("fully_connected: weight shape mismatch");
  }
  const auto& cost = ctx.cost();
  ctx.compute(cost.call_overhead_cycles);

  ctx.read(a.input.mem, static_cast<uint64_t>(in),
           static_cast<double>(in) / 4.0);
  const uint64_t weight_bytes = static_cast<uint64_t>(out) * in;
  ctx.read(a.weights.mem, weight_bytes,
           static_cast<double>(weight_bytes) / 4.0);
  if (a.bias != nullptr) {
    ctx.read(a.bias_mem, static_cast<uint64_t>(out) * 4,
             static_cast<double>(out));
  }
  ctx.compute(static_cast<double>(out) * in * cost.cycles_per_mac +
              static_cast<double>(out) *
                  (cost.cycles_per_requant + cost.loop_overhead_cycles));
  ctx.write(a.output.mem, static_cast<uint64_t>(out),
            static_cast<double>(out) / 4.0);

  if (ctx.do_math()) {
    const int8_t* x = a.input.view.data;
    std::vector<int32_t> acc(static_cast<std::size_t>(out));
    for (int64_t o = 0; o < out; ++o) {
      const int8_t* wrow = a.weights.view.data + o * in;
      acc[static_cast<std::size_t>(o)] =
          (a.bias != nullptr ? a.bias[o] : 0) +
          dot(x, wrow, in, a.params.input_zero_point);
    }
    requantize_row(a.output.view.data, 1, acc.data(), out, a.params);
  }
}

}  // namespace daedvfs::kernels
