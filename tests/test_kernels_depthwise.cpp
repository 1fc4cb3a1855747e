// Depthwise kernel tests: correctness vs the naive reference oracle, DAE ==
// baseline bit-exactness for every granularity ("no accuracy drops"), and
// Full == Timing equivalence of the simulated cost stream.
#include <gtest/gtest.h>

#include <tuple>

#include "kernels/depthwise.hpp"
#include "kernels/reference.hpp"
#include "test_util.hpp"

namespace daedvfs::kernels {
namespace {

using testutil::basic_params;
using testutil::random_bias;
using testutil::random_tensor;
using testutil::ref_of;

struct DwCase {
  int h, w, c, k, stride, pad, granularity;
};

DepthwiseArgs make_args(const DwCase& tc, tensor::QTensor& in,
                        tensor::QTensor& w, tensor::BiasVector& bias,
                        tensor::QTensor& out) {
  DepthwiseArgs a;
  a.input = ref_of(in, sim::kSramBase, sim::MemRegion::kSram);
  a.weights = ref_of(w, sim::kFlashBase, sim::MemRegion::kFlash);
  a.bias = bias.data();
  a.bias_mem = {sim::kFlashBase + 0x40000, sim::MemRegion::kFlash};
  a.output = ref_of(out, sim::kSramBase + 0x8000, sim::MemRegion::kSram);
  a.params = basic_params(tc.stride, tc.pad);
  a.granularity = tc.granularity;
  return a;
}

std::tuple<tensor::QTensor, tensor::QTensor, tensor::BiasVector,
           tensor::QTensor>
make_tensors(const DwCase& tc, uint32_t seed) {
  tensor::QTensor in = random_tensor({1, tc.h, tc.w, tc.c}, seed);
  tensor::QTensor w =
      random_tensor({1, tc.k, tc.k, tc.c}, seed + 1, -90, 90);
  tensor::BiasVector bias = random_bias(tc.c, seed + 2);
  const int oh = (tc.h + 2 * tc.pad - tc.k) / tc.stride + 1;
  const int ow = (tc.w + 2 * tc.pad - tc.k) / tc.stride + 1;
  tensor::QTensor out({1, oh, ow, tc.c}, {0.05, -1});
  return {std::move(in), std::move(w), std::move(bias), std::move(out)};
}

/// Default simulator parameters, booted on the 216 MHz PLL clock.
sim::SimParams params_216() {
  sim::SimParams p;
  p.boot = clock::ClockConfig::pll_hse(50.0, 25, 216, 2);
  return p;
}

class DepthwiseVsReference : public ::testing::TestWithParam<DwCase> {};

TEST_P(DepthwiseVsReference, MatchesOracle) {
  const DwCase tc = GetParam();
  auto [in, w, bias, out] = make_tensors(tc, 11);
  auto [in2, w2, bias2, expected] = make_tensors(tc, 11);

  DepthwiseArgs a = make_args(tc, in, w, bias, out);
  ExecContext ctx;  // no simulator: pure numerics
  depthwise_conv(a, ctx);

  DepthwiseArgs oracle = make_args(tc, in2, w2, bias2, expected);
  reference::depthwise_conv(oracle);

  ASSERT_EQ(out.size_bytes(), expected.size_bytes());
  for (std::size_t i = 0; i < out.size_bytes(); ++i) {
    ASSERT_EQ(out.data()[i], expected.data()[i]) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DepthwiseVsReference,
    ::testing::Values(DwCase{8, 8, 4, 3, 1, 1, 0},   // padded 3x3
                      DwCase{8, 8, 4, 3, 1, 1, 2},   // DAE g=2
                      DwCase{8, 8, 4, 3, 1, 1, 4},   // g == C
                      DwCase{8, 8, 4, 3, 1, 1, 16},  // g > C (one group)
                      DwCase{16, 16, 6, 3, 2, 1, 4}, // stride 2, C % g != 0
                      DwCase{7, 9, 5, 3, 1, 1, 2},   // odd dims, ragged group
                      DwCase{12, 12, 8, 5, 1, 2, 8}, // 5x5 kernel
                      DwCase{6, 6, 3, 3, 1, 0, 2},   // no padding
                      DwCase{9, 9, 16, 3, 3, 1, 12}));

/// The paper's central claim for Step 1: "DAE-enabled CNNs entail no
/// accuracy drops" — every granularity produces bit-identical outputs.
class DaeGranularityBitExact : public ::testing::TestWithParam<int> {};

TEST_P(DaeGranularityBitExact, EqualsBaseline) {
  const DwCase base{12, 10, 9, 3, 1, 1, 0};
  DwCase dae = base;
  dae.granularity = GetParam();

  auto [in1, w1, b1, out_base] = make_tensors(base, 23);
  auto [in2, w2, b2, out_dae] = make_tensors(dae, 23);

  ExecContext ctx1, ctx2;
  DepthwiseArgs a1 = make_args(base, in1, w1, b1, out_base);
  DepthwiseArgs a2 = make_args(dae, in2, w2, b2, out_dae);
  depthwise_conv(a1, ctx1);
  depthwise_conv(a2, ctx2);

  for (std::size_t i = 0; i < out_base.size_bytes(); ++i) {
    ASSERT_EQ(out_base.data()[i], out_dae.data()[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Granularities, DaeGranularityBitExact,
                         ::testing::Values(2, 4, 8, 12, 16));

/// Full and Timing mode must report the *identical* simulated cost stream.
class FullTimingEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(FullTimingEquivalence, SameTimeAndEnergy) {
  const DwCase tc{10, 10, 8, 3, 1, 1, GetParam()};
  auto run = [&](ExecMode mode) {
    auto [in, w, bias, out] = make_tensors(tc, 5);
    sim::Mcu mcu(params_216());
    LfoHfoPolicy policy(clock::ClockConfig::hse_direct(50.0),
                        clock::ClockConfig::pll_hse(50.0, 25, 216, 2));
    ExecContext ctx;
    ctx.mcu = &mcu;
    ctx.mode = mode;
    ctx.dvfs = &policy;
    DepthwiseArgs a = make_args(tc, in, w, bias, out);
    depthwise_conv(a, ctx);
    return std::pair{mcu.time_us(), mcu.energy_uj()};
  };
  const auto full = run(ExecMode::kFull);
  const auto timing = run(ExecMode::kTiming);
  EXPECT_DOUBLE_EQ(full.first, timing.first);
  EXPECT_DOUBLE_EQ(full.second, timing.second);
}

INSTANTIATE_TEST_SUITE_P(Granularities, FullTimingEquivalence,
                         ::testing::Values(0, 2, 4, 8));

TEST(Depthwise, DvfsHooksFirePerGroup) {
  const DwCase tc{8, 8, 8, 3, 1, 1, 4};  // 2 groups
  auto [in, w, bias, out] = make_tensors(tc, 3);
  sim::Mcu mcu(params_216());
  LfoHfoPolicy policy(clock::ClockConfig::hse_direct(50.0),
                      clock::ClockConfig::pll_hse(50.0, 25, 216, 2));
  ExecContext ctx;
  ctx.mcu = &mcu;
  ctx.dvfs = &policy;
  DepthwiseArgs a = make_args(tc, in, w, bias, out);
  depthwise_conv(a, ctx);
  // 2 groups x (switch to LFO + switch to HFO) = 4 switches, no relocks.
  EXPECT_EQ(mcu.rcc().stats().switches, 4u);
  EXPECT_EQ(mcu.rcc().stats().pll_relocks, 0u);
}

TEST(Depthwise, ScratchBytesFormula) {
  const DwCase tc{8, 8, 4, 3, 1, 1, 0};
  auto [in, w, bias, out] = make_tensors(tc, 3);
  DepthwiseArgs a = make_args(tc, in, w, bias, out);
  EXPECT_EQ(depthwise_scratch_bytes(a, 0), 0u);
  EXPECT_EQ(depthwise_scratch_bytes(a, 4), 4u * 8 * 8);
}

TEST(Depthwise, RejectsShapeMismatch) {
  const DwCase tc{8, 8, 4, 3, 1, 1, 0};
  auto [in, w, bias, out] = make_tensors(tc, 3);
  DepthwiseArgs a = make_args(tc, in, w, bias, out);
  a.output.view.shape.c = 5;  // channel mismatch
  ExecContext ctx;
  EXPECT_THROW(depthwise_conv(a, ctx), std::invalid_argument);
}

TEST(Depthwise, DaeIsFasterAtIsoFrequency) {
  // The Fig. 4 effect: buffered planes beat strided interleaved execution
  // at the same clock for cache-friendly sizes.
  const DwCase base{24, 24, 16, 3, 1, 1, 0};
  DwCase dae = base;
  dae.granularity = 8;
  auto time_of = [&](const DwCase& tc) {
    auto [in, w, bias, out] = make_tensors(tc, 9);
    sim::Mcu mcu(params_216());
    ExecContext ctx;
    ctx.mcu = &mcu;
    ctx.mode = ExecMode::kTiming;
    DepthwiseArgs a = make_args(tc, in, w, bias, out);
    depthwise_conv(a, ctx);
    return mcu.time_us();
  };
  EXPECT_LT(time_of(dae), time_of(base));
}

}  // namespace
}  // namespace daedvfs::kernels
