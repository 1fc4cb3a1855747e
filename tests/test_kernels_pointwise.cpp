// Pointwise (1x1) kernel tests: reference oracle, DAE bit-exactness across
// granularities, Full/Timing equivalence, DVFS hook behaviour.
#include <gtest/gtest.h>

#include <tuple>

#include "kernels/pointwise.hpp"
#include "kernels/reference.hpp"
#include "test_util.hpp"

namespace daedvfs::kernels {
namespace {

using testutil::basic_params;
using testutil::random_bias;
using testutil::random_tensor;
using testutil::ref_of;

struct PwCase {
  int h, w, cin, cout, granularity;
};

std::tuple<tensor::QTensor, tensor::QTensor, tensor::BiasVector,
           tensor::QTensor>
make_tensors(const PwCase& tc, uint32_t seed) {
  tensor::QTensor in = random_tensor({1, tc.h, tc.w, tc.cin}, seed);
  tensor::QTensor w =
      random_tensor({tc.cout, 1, 1, tc.cin}, seed + 1, -90, 90);
  tensor::BiasVector bias = random_bias(tc.cout, seed + 2);
  tensor::QTensor out({1, tc.h, tc.w, tc.cout}, {0.05, -1});
  return {std::move(in), std::move(w), std::move(bias), std::move(out)};
}

/// Default simulator parameters, booted on the 216 MHz PLL clock.
sim::SimParams params_216() {
  sim::SimParams p;
  p.boot = clock::ClockConfig::pll_hse(50.0, 25, 216, 2);
  return p;
}

PointwiseArgs make_args(const PwCase& tc, tensor::QTensor& in,
                        tensor::QTensor& w, tensor::BiasVector& bias,
                        tensor::QTensor& out) {
  PointwiseArgs a;
  a.input = ref_of(in, sim::kSramBase, sim::MemRegion::kSram);
  a.weights = ref_of(w, sim::kFlashBase, sim::MemRegion::kFlash);
  a.bias = bias.data();
  a.bias_mem = {sim::kFlashBase + 0x40000, sim::MemRegion::kFlash};
  a.output = ref_of(out, sim::kSramBase + 0x8000, sim::MemRegion::kSram);
  a.params = basic_params(1, 0);
  a.granularity = tc.granularity;
  return a;
}

class PointwiseVsReference : public ::testing::TestWithParam<PwCase> {};

TEST_P(PointwiseVsReference, MatchesOracle) {
  const PwCase tc = GetParam();
  auto [in, w, bias, out] = make_tensors(tc, 31);
  auto [in2, w2, bias2, expected] = make_tensors(tc, 31);

  PointwiseArgs a = make_args(tc, in, w, bias, out);
  ExecContext ctx;
  pointwise_conv(a, ctx);

  PointwiseArgs oracle = make_args(tc, in2, w2, bias2, expected);
  reference::pointwise_conv(oracle);

  for (std::size_t i = 0; i < out.size_bytes(); ++i) {
    ASSERT_EQ(out.data()[i], expected.data()[i]) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PointwiseVsReference,
    ::testing::Values(PwCase{8, 8, 3, 8, 0},    // expand
                      PwCase{8, 8, 3, 8, 4},    // DAE
                      PwCase{8, 8, 16, 4, 8},   // project
                      PwCase{5, 7, 6, 10, 2},   // odd spatial, ragged groups
                      PwCase{4, 4, 12, 12, 16}, // g == columns
                      PwCase{3, 3, 4, 4, 16},   // g > columns (one group)
                      PwCase{1, 1, 32, 16, 2}));

class PwDaeBitExact : public ::testing::TestWithParam<int> {};

TEST_P(PwDaeBitExact, EqualsBaseline) {
  PwCase base{9, 7, 12, 10, 0};
  PwCase dae = base;
  dae.granularity = GetParam();
  auto [in1, w1, b1, out_base] = make_tensors(base, 51);
  auto [in2, w2, b2, out_dae] = make_tensors(dae, 51);
  ExecContext c1, c2;
  PointwiseArgs a1 = make_args(base, in1, w1, b1, out_base);
  PointwiseArgs a2 = make_args(dae, in2, w2, b2, out_dae);
  pointwise_conv(a1, c1);
  pointwise_conv(a2, c2);
  for (std::size_t i = 0; i < out_base.size_bytes(); ++i) {
    ASSERT_EQ(out_base.data()[i], out_dae.data()[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Granularities, PwDaeBitExact,
                         ::testing::Values(2, 4, 8, 12, 16));

class PwFullTimingEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(PwFullTimingEquivalence, SameTimeAndEnergy) {
  const PwCase tc{8, 8, 12, 16, GetParam()};
  auto run = [&](ExecMode mode) {
    auto [in, w, bias, out] = make_tensors(tc, 5);
    sim::Mcu mcu(params_216());
    LfoHfoPolicy policy(clock::ClockConfig::hse_direct(50.0),
                        clock::ClockConfig::pll_hse(50.0, 25, 216, 2));
    ExecContext ctx;
    ctx.mcu = &mcu;
    ctx.mode = mode;
    ctx.dvfs = &policy;
    PointwiseArgs a = make_args(tc, in, w, bias, out);
    pointwise_conv(a, ctx);
    return std::pair{mcu.time_us(), mcu.energy_uj()};
  };
  const auto full = run(ExecMode::kFull);
  const auto timing = run(ExecMode::kTiming);
  EXPECT_DOUBLE_EQ(full.first, timing.first);
  EXPECT_DOUBLE_EQ(full.second, timing.second);
}

INSTANTIATE_TEST_SUITE_P(Granularities, PwFullTimingEquivalence,
                         ::testing::Values(0, 2, 8, 16));

TEST(Pointwise, DvfsHooksFirePerGroup) {
  const PwCase tc{4, 4, 8, 8, 8};  // 16 columns / g=8 -> 2 groups
  auto [in, w, bias, out] = make_tensors(tc, 3);
  sim::Mcu mcu(params_216());
  LfoHfoPolicy policy(clock::ClockConfig::hse_direct(50.0),
                      clock::ClockConfig::pll_hse(50.0, 25, 216, 2));
  ExecContext ctx;
  ctx.mcu = &mcu;
  ctx.dvfs = &policy;
  PointwiseArgs a = make_args(tc, in, w, bias, out);
  pointwise_conv(a, ctx);
  EXPECT_EQ(mcu.rcc().stats().switches, 4u);
  EXPECT_EQ(mcu.rcc().stats().pll_relocks, 0u);
}

TEST(Pointwise, RejectsStrideOrPad) {
  const PwCase tc{4, 4, 4, 4, 0};
  auto [in, w, bias, out] = make_tensors(tc, 3);
  PointwiseArgs a = make_args(tc, in, w, bias, out);
  a.params.stride = 2;
  ExecContext ctx;
  EXPECT_THROW(pointwise_conv(a, ctx), std::invalid_argument);
}

TEST(Pointwise, RejectsWeightMismatch) {
  const PwCase tc{4, 4, 4, 4, 0};
  auto [in, w, bias, out] = make_tensors(tc, 3);
  PointwiseArgs a = make_args(tc, in, w, bias, out);
  a.weights.view.shape.c = 5;
  ExecContext ctx;
  EXPECT_THROW(pointwise_conv(a, ctx), std::invalid_argument);
}

TEST(Pointwise, ScratchBytesFormula) {
  const PwCase tc{4, 4, 24, 4, 0};
  auto [in, w, bias, out] = make_tensors(tc, 3);
  PointwiseArgs a = make_args(tc, in, w, bias, out);
  EXPECT_EQ(pointwise_scratch_bytes(a, 8), 8u * 24);
}

TEST(Pointwise, WeightAmortizationHelpsLargeMatrices) {
  // When Cout*Cin exceeds the L1, buffering g columns amortizes the weight
  // re-streaming — DAE must be faster at iso-frequency (Fig. 4).
  const PwCase base{12, 12, 160, 160, 0};  // 25.6 KB weight matrix > 16 KB L1
  PwCase dae = base;
  dae.granularity = 16;
  auto time_of = [&](const PwCase& tc) {
    auto [in, w, bias, out] = make_tensors(tc, 9);
    sim::Mcu mcu(params_216());
    ExecContext ctx;
    ctx.mcu = &mcu;
    ctx.mode = ExecMode::kTiming;
    PointwiseArgs a = make_args(tc, in, w, bias, out);
    pointwise_conv(a, ctx);
    return mcu.time_us();
  };
  EXPECT_LT(time_of(dae), time_of(base));
}

}  // namespace
}  // namespace daedvfs::kernels
