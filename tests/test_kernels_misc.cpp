// Tests for conv2d, fully-connected, global average pooling and residual add.
#include <gtest/gtest.h>

#include <string>

#include "kernels/add.hpp"
#include "kernels/conv2d.hpp"
#include "kernels/fully_connected.hpp"
#include "kernels/pooling.hpp"
#include "kernels/reference.hpp"
#include "test_util.hpp"

namespace daedvfs::kernels {
namespace {

using testutil::basic_params;
using testutil::random_bias;
using testutil::random_tensor;
using testutil::ref_of;

struct ConvCase {
  int h, w, cin, cout, k, stride, pad;
};

class Conv2dVsReference : public ::testing::TestWithParam<ConvCase> {};

TEST_P(Conv2dVsReference, MatchesOracle) {
  const ConvCase tc = GetParam();
  tensor::QTensor in = random_tensor({1, tc.h, tc.w, tc.cin}, 7);
  tensor::QTensor w =
      random_tensor({tc.cout, tc.k, tc.k, tc.cin}, 8, -90, 90);
  tensor::BiasVector bias = random_bias(tc.cout, 9);
  const int oh = (tc.h + 2 * tc.pad - tc.k) / tc.stride + 1;
  const int ow = (tc.w + 2 * tc.pad - tc.k) / tc.stride + 1;
  tensor::QTensor out({1, oh, ow, tc.cout}, {0.05, -1});
  tensor::QTensor expected({1, oh, ow, tc.cout}, {0.05, -1});

  Conv2dArgs a;
  a.input = ref_of(in, sim::kSramBase, sim::MemRegion::kSram);
  a.weights = ref_of(w, sim::kFlashBase, sim::MemRegion::kFlash);
  a.bias = bias.data();
  a.bias_mem = {sim::kFlashBase + 0x40000, sim::MemRegion::kFlash};
  a.output = ref_of(out, sim::kSramBase + 0x8000, sim::MemRegion::kSram);
  a.params = basic_params(tc.stride, tc.pad, 0.002);

  ExecContext ctx;
  conv2d(a, ctx);

  Conv2dArgs oracle = a;
  oracle.output = ref_of(expected, sim::kSramBase + 0x8000,
                         sim::MemRegion::kSram);
  reference::conv2d(oracle);

  for (std::size_t i = 0; i < out.size_bytes(); ++i) {
    ASSERT_EQ(out.data()[i], expected.data()[i]) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, Conv2dVsReference,
                         ::testing::Values(ConvCase{8, 8, 3, 8, 3, 2, 1},
                                           ConvCase{6, 6, 3, 4, 3, 1, 1},
                                           ConvCase{9, 7, 2, 5, 3, 1, 0},
                                           ConvCase{8, 8, 4, 4, 1, 1, 0},
                                           ConvCase{10, 10, 3, 6, 5, 2, 2}));

TEST(Conv2d, ReluClampTightensOutputs) {
  tensor::QTensor in = random_tensor({1, 6, 6, 3}, 2);
  tensor::QTensor w = random_tensor({4, 3, 3, 3}, 3, -90, 90);
  tensor::QTensor out({1, 6, 6, 4}, {0.05, -1});
  Conv2dArgs a;
  a.input = ref_of(in, sim::kSramBase, sim::MemRegion::kSram);
  a.weights = ref_of(w, sim::kFlashBase, sim::MemRegion::kFlash);
  a.output = ref_of(out, sim::kSramBase + 0x8000, sim::MemRegion::kSram);
  a.params = basic_params(1, 1, 0.002);
  a.params.act_min = a.params.output_zero_point;  // fused ReLU
  ExecContext ctx;
  conv2d(a, ctx);
  for (std::size_t i = 0; i < out.size_bytes(); ++i) {
    EXPECT_GE(out.data()[i], a.params.output_zero_point);
  }
}

TEST(FullyConnected, MatchesOracle) {
  uint32_t seed = 4;
  for (int in_n : {1, 9, 16, 33, 64, 160}) {
    for (int out_n : {1, 10}) {
      SCOPED_TRACE("in=" + std::to_string(in_n) +
                   " out=" + std::to_string(out_n));
      tensor::QTensor in = random_tensor({1, 1, 1, in_n}, seed++);
      tensor::QTensor w = random_tensor({out_n, 1, 1, in_n}, seed++, -90, 90);
      tensor::BiasVector bias = random_bias(out_n, seed++);
      tensor::QTensor out({1, 1, 1, out_n}, {0.05, -1});
      tensor::QTensor expected({1, 1, 1, out_n}, {0.05, -1});

      FullyConnectedArgs a;
      a.input = ref_of(in, sim::kSramBase, sim::MemRegion::kSram);
      a.weights = ref_of(w, sim::kFlashBase, sim::MemRegion::kFlash);
      a.bias = bias.data();
      a.bias_mem = {sim::kFlashBase + 0x40000, sim::MemRegion::kFlash};
      a.output = ref_of(out, sim::kSramBase + 0x8000, sim::MemRegion::kSram);
      a.params = basic_params(1, 0, 0.001);
      ExecContext ctx;
      fully_connected(a, ctx);

      FullyConnectedArgs oracle = a;
      oracle.output = ref_of(expected, sim::kSramBase + 0x8000,
                             sim::MemRegion::kSram);
      reference::fully_connected(oracle);
      for (int i = 0; i < out_n; ++i) {
        EXPECT_EQ(out.data()[i], expected.data()[i]) << "at " << i;
      }
    }
  }
}

TEST(FullyConnected, RejectsWeightMismatch) {
  tensor::QTensor in = random_tensor({1, 1, 1, 64}, 4);
  tensor::QTensor w = random_tensor({10, 1, 1, 32}, 5);
  tensor::QTensor out({1, 1, 1, 10}, {0.05, -1});
  FullyConnectedArgs a;
  a.input = ref_of(in, sim::kSramBase, sim::MemRegion::kSram);
  a.weights = ref_of(w, sim::kFlashBase, sim::MemRegion::kFlash);
  a.output = ref_of(out, sim::kSramBase + 0x8000, sim::MemRegion::kSram);
  ExecContext ctx;
  EXPECT_THROW(fully_connected(a, ctx), std::invalid_argument);
}

TEST(GlobalAvgPool, ComputesRoundedChannelMeans) {
  tensor::QTensor in({1, 2, 2, 2}, {0.05, -1});
  // Channel 0: {1, 2, 3, 4} -> mean 2.5 -> rounds away from zero to 3.
  // Channel 1: {-1, -2, -3, -4} -> mean -2.5 -> -3.
  const int8_t vals[] = {1, -1, 2, -2, 3, -3, 4, -4};
  std::copy(std::begin(vals), std::end(vals), in.data());
  tensor::QTensor out({1, 1, 1, 2}, {0.05, -1});
  GlobalAvgPoolArgs a;
  a.input = ref_of(in, sim::kSramBase, sim::MemRegion::kSram);
  a.output = ref_of(out, sim::kSramBase + 0x1000, sim::MemRegion::kSram);
  ExecContext ctx;
  global_avg_pool(a, ctx);
  EXPECT_EQ(out.data()[0], 3);
  EXPECT_EQ(out.data()[1], -3);
}

TEST(Add, RescalesBothOperands) {
  // a has scale 0.1, b has scale 0.05, out has scale 0.1 (zero points 0):
  // real(a)=0.1*qa, real(b)=0.05*qb, out_q = qa + qb/2.
  tensor::QTensor a_t({1, 1, 1, 4}, {0.1, 0});
  tensor::QTensor b_t({1, 1, 1, 4}, {0.05, 0});
  tensor::QTensor o_t({1, 1, 1, 4}, {0.1, 0});
  const int8_t av[] = {10, -20, 40, 0};
  const int8_t bv[] = {20, 40, -60, 8};
  std::copy(std::begin(av), std::end(av), a_t.data());
  std::copy(std::begin(bv), std::end(bv), b_t.data());

  AddArgs args = make_add_args(
      ref_of(a_t, sim::kSramBase, sim::MemRegion::kSram),
      ref_of(b_t, sim::kSramBase + 0x100, sim::MemRegion::kSram),
      ref_of(o_t, sim::kSramBase + 0x200, sim::MemRegion::kSram));
  ExecContext ctx;
  elementwise_add(args, ctx);
  EXPECT_EQ(o_t.data()[0], 20);   // 10 + 10
  EXPECT_EQ(o_t.data()[1], 0);    // -20 + 20
  EXPECT_EQ(o_t.data()[2], 10);   // 40 - 30
  EXPECT_EQ(o_t.data()[3], 4);    // 0 + 4
}

TEST(Add, SaturatesAtInt8Range) {
  tensor::QTensor a_t({1, 1, 1, 2}, {1.0, 0});
  tensor::QTensor b_t({1, 1, 1, 2}, {1.0, 0});
  tensor::QTensor o_t({1, 1, 1, 2}, {1.0, 0});
  a_t.data()[0] = 100;
  b_t.data()[0] = 100;
  a_t.data()[1] = -100;
  b_t.data()[1] = -100;
  AddArgs args = make_add_args(
      ref_of(a_t, sim::kSramBase, sim::MemRegion::kSram),
      ref_of(b_t, sim::kSramBase + 0x100, sim::MemRegion::kSram),
      ref_of(o_t, sim::kSramBase + 0x200, sim::MemRegion::kSram));
  ExecContext ctx;
  elementwise_add(args, ctx);
  EXPECT_EQ(o_t.data()[0], 127);
  EXPECT_EQ(o_t.data()[1], -128);
}

TEST(Add, RejectsShapeMismatch) {
  tensor::QTensor a_t({1, 2, 2, 2}, {0.1, 0});
  tensor::QTensor b_t({1, 2, 2, 3}, {0.1, 0});
  tensor::QTensor o_t({1, 2, 2, 2}, {0.1, 0});
  AddArgs args;
  args.input_a = ref_of(a_t, sim::kSramBase, sim::MemRegion::kSram);
  args.input_b = ref_of(b_t, sim::kSramBase + 0x100, sim::MemRegion::kSram);
  args.output = ref_of(o_t, sim::kSramBase + 0x200, sim::MemRegion::kSram);
  ExecContext ctx;
  EXPECT_THROW(elementwise_add(args, ctx), std::invalid_argument);
}

}  // namespace
}  // namespace daedvfs::kernels
