// Exhaustive small-shape sweep of the restructured kernel fast paths against
// the naive reference oracles: stride in {1, 2}, pad in {0, 1, 2}, odd/even
// H/W, with/without bias, and (for the DAE-eligible kernels) a granularity
// sweep — every combination must be bit-exact. This pins down the
// interior/border split and the zero-point weight-sum folding, whose bugs
// show up exactly at region boundaries and ragged edges.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "kernels/add.hpp"
#include "kernels/conv2d.hpp"
#include "kernels/depthwise.hpp"
#include "kernels/pointwise.hpp"
#include "kernels/pooling.hpp"
#include "kernels/reference.hpp"
#include "test_util.hpp"

namespace daedvfs::kernels {
namespace {

using testutil::basic_params;
using testutil::random_bias;
using testutil::random_tensor;
using testutil::ref_of;

std::string case_str(int h, int w, int k, int stride, int pad, bool bias,
                     int g) {
  return "h=" + std::to_string(h) + " w=" + std::to_string(w) +
         " k=" + std::to_string(k) + " s=" + std::to_string(stride) +
         " p=" + std::to_string(pad) + " bias=" + std::to_string(bias) +
         " g=" + std::to_string(g);
}

TEST(KernelSweep, Conv2dBitExactVsReference) {
  uint32_t seed = 100;
  for (int h : {6, 9}) {
    for (int w : {7, 8}) {
      for (int k : {1, 3, 5}) {
        for (int stride : {1, 2}) {
          for (int pad : {0, 1, 2}) {
            for (bool bias : {false, true}) {
              if (h + 2 * pad < k || w + 2 * pad < k) continue;
              const int cin = 3, cout = 5;
              const int oh = (h + 2 * pad - k) / stride + 1;
              const int ow = (w + 2 * pad - k) / stride + 1;
              tensor::QTensor in = random_tensor({1, h, w, cin}, ++seed);
              tensor::QTensor wt =
                  random_tensor({cout, k, k, cin}, ++seed, -90, 90);
              tensor::BiasVector bv = random_bias(cout, ++seed);
              tensor::QTensor out({1, oh, ow, cout}, {0.05, -1});
              tensor::QTensor expected({1, oh, ow, cout}, {0.05, -1});

              Conv2dArgs a;
              a.input = ref_of(in, sim::kSramBase, sim::MemRegion::kSram);
              a.weights = ref_of(wt, sim::kFlashBase, sim::MemRegion::kFlash);
              a.bias = bias ? bv.data() : nullptr;
              a.bias_mem = {sim::kFlashBase + 0x40000,
                            sim::MemRegion::kFlash};
              a.output =
                  ref_of(out, sim::kSramBase + 0x8000, sim::MemRegion::kSram);
              a.params = basic_params(stride, pad, 0.002);

              ExecContext ctx;
              conv2d(a, ctx);
              Conv2dArgs oracle = a;
              oracle.output = ref_of(expected, sim::kSramBase + 0x8000,
                                     sim::MemRegion::kSram);
              reference::conv2d(oracle);
              for (std::size_t i = 0; i < out.size_bytes(); ++i) {
                ASSERT_EQ(out.data()[i], expected.data()[i])
                    << case_str(h, w, k, stride, pad, bias, 0) << " at " << i;
              }
            }
          }
        }
      }
    }
  }
}

TEST(KernelSweep, DepthwiseBitExactVsReference) {
  uint32_t seed = 500;
  for (int h : {6, 9}) {
    for (int w : {7, 8}) {
      for (int stride : {1, 2}) {
        for (int pad : {0, 1, 2}) {
          for (bool bias : {false, true}) {
            for (int g : {0, 2, 3, 16}) {
              const int k = 3, c = 5;
              if (h + 2 * pad < k || w + 2 * pad < k) continue;
              const int oh = (h + 2 * pad - k) / stride + 1;
              const int ow = (w + 2 * pad - k) / stride + 1;
              tensor::QTensor in = random_tensor({1, h, w, c}, ++seed);
              tensor::QTensor wt =
                  random_tensor({1, k, k, c}, ++seed, -90, 90);
              tensor::BiasVector bv = random_bias(c, ++seed);
              tensor::QTensor out({1, oh, ow, c}, {0.05, -1});
              tensor::QTensor expected({1, oh, ow, c}, {0.05, -1});

              DepthwiseArgs a;
              a.input = ref_of(in, sim::kSramBase, sim::MemRegion::kSram);
              a.weights = ref_of(wt, sim::kFlashBase, sim::MemRegion::kFlash);
              a.bias = bias ? bv.data() : nullptr;
              a.bias_mem = {sim::kFlashBase + 0x40000,
                            sim::MemRegion::kFlash};
              a.output =
                  ref_of(out, sim::kSramBase + 0x8000, sim::MemRegion::kSram);
              a.params = basic_params(stride, pad);
              a.granularity = g;

              ExecContext ctx;
              depthwise_conv(a, ctx);
              DepthwiseArgs oracle = a;
              oracle.granularity = 0;
              oracle.output = ref_of(expected, sim::kSramBase + 0x8000,
                                     sim::MemRegion::kSram);
              reference::depthwise_conv(oracle);
              for (std::size_t i = 0; i < out.size_bytes(); ++i) {
                ASSERT_EQ(out.data()[i], expected.data()[i])
                    << case_str(h, w, k, stride, pad, bias, g) << " at " << i;
              }
            }
          }
        }
      }
    }
  }
}

TEST(KernelSweep, PointwiseBitExactVsReference) {
  uint32_t seed = 900;
  for (int h : {1, 5, 8}) {
    for (int w : {1, 7, 8}) {
      for (int cin : {3, 8}) {
        for (int cout : {5, 8}) {
          for (bool bias : {false, true}) {
            for (int g : {0, 2, 7, 16}) {
              tensor::QTensor in = random_tensor({1, h, w, cin}, ++seed);
              tensor::QTensor wt =
                  random_tensor({cout, 1, 1, cin}, ++seed, -90, 90);
              tensor::BiasVector bv = random_bias(cout, ++seed);
              tensor::QTensor out({1, h, w, cout}, {0.05, -1});
              tensor::QTensor expected({1, h, w, cout}, {0.05, -1});

              PointwiseArgs a;
              a.input = ref_of(in, sim::kSramBase, sim::MemRegion::kSram);
              a.weights = ref_of(wt, sim::kFlashBase, sim::MemRegion::kFlash);
              a.bias = bias ? bv.data() : nullptr;
              a.bias_mem = {sim::kFlashBase + 0x40000,
                            sim::MemRegion::kFlash};
              a.output =
                  ref_of(out, sim::kSramBase + 0x8000, sim::MemRegion::kSram);
              a.params = basic_params(1, 0);
              a.granularity = g;

              ExecContext ctx;
              pointwise_conv(a, ctx);
              PointwiseArgs oracle = a;
              oracle.granularity = 0;
              oracle.output = ref_of(expected, sim::kSramBase + 0x8000,
                                     sim::MemRegion::kSram);
              reference::pointwise_conv(oracle);
              for (std::size_t i = 0; i < out.size_bytes(); ++i) {
                ASSERT_EQ(out.data()[i], expected.data()[i])
                    << case_str(h, w, 1, 1, 0, bias, g) << " at " << i;
              }
            }
          }
        }
      }
    }
  }
}

TEST(KernelSweep, AddBitExactVsReference) {
  uint32_t seed = 1300;
  for (int h : {1, 5, 8}) {
    for (int w : {1, 7}) {
      for (int c : {3, 8, 17}) {
        for (double scale_b : {0.02, 0.05, 0.11}) {
          tensor::QTensor ta =
              random_tensor({1, h, w, c}, ++seed, -128, 127, {0.05, -1});
          tensor::QTensor tb =
              random_tensor({1, h, w, c}, ++seed, -128, 127, {scale_b, 3});
          tensor::QTensor out({1, h, w, c}, {0.07, -2});
          tensor::QTensor expected({1, h, w, c}, {0.07, -2});

          AddArgs a = make_add_args(
              ref_of(ta, sim::kSramBase, sim::MemRegion::kSram),
              ref_of(tb, sim::kSramBase + 0x4000, sim::MemRegion::kSram),
              ref_of(out, sim::kSramBase + 0x8000, sim::MemRegion::kSram));
          ExecContext ctx;
          elementwise_add(a, ctx);
          AddArgs oracle = a;
          oracle.output =
              ref_of(expected, sim::kSramBase + 0x8000, sim::MemRegion::kSram);
          reference::elementwise_add(oracle);
          for (std::size_t i = 0; i < out.size_bytes(); ++i) {
            ASSERT_EQ(out.data()[i], expected.data()[i])
                << "add h=" << h << " w=" << w << " c=" << c
                << " scale_b=" << scale_b << " at " << i;
          }
        }
      }
    }
  }
}

TEST(KernelSweep, PoolingBitExactVsReference) {
  uint32_t seed = 1700;
  for (int h : {1, 4, 9}) {
    for (int w : {1, 7}) {
      for (int c : {1, 5, 16}) {
        tensor::QTensor in = random_tensor({1, h, w, c}, ++seed, -128, 127);
        tensor::QTensor out({1, 1, 1, c}, {0.05, -1});
        tensor::QTensor expected({1, 1, 1, c}, {0.05, -1});

        GlobalAvgPoolArgs a;
        a.input = ref_of(in, sim::kSramBase, sim::MemRegion::kSram);
        a.output = ref_of(out, sim::kSramBase + 0x8000, sim::MemRegion::kSram);
        ExecContext ctx;
        global_avg_pool(a, ctx);
        GlobalAvgPoolArgs oracle = a;
        oracle.output =
            ref_of(expected, sim::kSramBase + 0x8000, sim::MemRegion::kSram);
        reference::global_avg_pool(oracle);
        for (int i = 0; i < c; ++i) {
          ASSERT_EQ(out.data()[i], expected.data()[i])
              << "pool h=" << h << " w=" << w << " c=" << c << " at " << i;
        }
      }
    }
  }
}

/// Everything the simulated cost stream produces: totals plus the
/// per-clock-domain WorkLedger the DSE's replay and profile cache rest on.
struct CostStream {
  double t_us = 0.0;
  double energy_uj = 0.0;
  uint64_t misses = 0;
  uint64_t switches = 0;
  std::vector<sim::WorkLedger::Domain> domains;
};

/// The restructured math paths must not perturb the simulated cost stream:
/// Full and Timing modes report the identical cost stream, bit for bit (the
/// profile cache keys on bit-equality), for border-heavy shapes (large pad,
/// stride 2) where the interior/border split is busiest, on the baseline and
/// DAE paths, with the LFO/HFO DVFS hooks firing.
TEST(KernelSweep, AccountingUnchangedAcrossModesOnBorderHeavyShapes) {
  for (int k : {3, 5}) {
    for (int pad : {1, 2}) {
      for (int stride : {1, 2}) {
        for (int g : {0, 4}) {
          SCOPED_TRACE(case_str(7, 9, k, stride, pad, true, g));
          auto run = [&](ExecMode mode) {
            tensor::QTensor in = random_tensor({1, 7, 9, 6}, 77);
            tensor::QTensor wt = random_tensor({1, k, k, 6}, 78, -90, 90);
            tensor::BiasVector bv = random_bias(6, 79);
            const int oh = (7 + 2 * pad - k) / stride + 1;
            const int ow = (9 + 2 * pad - k) / stride + 1;
            tensor::QTensor out({1, oh, ow, 6}, {0.05, -1});
            sim::Mcu mcu;
            sim::WorkLedger ledger;
            mcu.set_ledger(&ledger);
            LfoHfoPolicy policy(clock::ClockConfig::hse_direct(50.0),
                                clock::ClockConfig::pll_hse(50.0, 25, 216, 2));
            ExecContext ctx;
            ctx.mcu = &mcu;
            ctx.mode = mode;
            ctx.dvfs = &policy;
            DepthwiseArgs a;
            a.input = ref_of(in, sim::kSramBase, sim::MemRegion::kSram);
            a.weights = ref_of(wt, sim::kFlashBase, sim::MemRegion::kFlash);
            a.bias = bv.data();
            a.bias_mem = {sim::kFlashBase + 0x40000, sim::MemRegion::kFlash};
            a.output = ref_of(out, sim::kSramBase + 0x8000,
                              sim::MemRegion::kSram);
            a.params = basic_params(stride, pad);
            a.granularity = g;
            depthwise_conv(a, ctx);
            CostStream c;
            c.t_us = mcu.time_us();
            c.energy_uj = mcu.energy_uj();
            c.misses = mcu.snapshot().cache.misses;
            c.switches = mcu.snapshot().rcc.switches;
            c.domains = ledger.domains;
            return c;
          };
          const CostStream full = run(ExecMode::kFull);
          const CostStream timing = run(ExecMode::kTiming);
          ASSERT_FALSE(full.domains.empty());
          if (g > 0) {
            EXPECT_GT(full.switches, 0u);
          }
          EXPECT_EQ(full.t_us, timing.t_us);
          EXPECT_EQ(full.energy_uj, timing.energy_uj);
          EXPECT_EQ(full.misses, timing.misses);
          EXPECT_EQ(full.switches, timing.switches);
          ASSERT_EQ(full.domains.size(), timing.domains.size());
          for (std::size_t i = 0; i < full.domains.size(); ++i) {
            const auto& x = full.domains[i];
            const auto& y = timing.domains[i];
            EXPECT_TRUE(x.config == y.config) << "domain " << i;
            EXPECT_EQ(x.compute_cycles, y.compute_cycles);
            EXPECT_EQ(x.issue_cycles, y.issue_cycles);
            EXPECT_EQ(x.sram_misses, y.sram_misses);
            EXPECT_EQ(x.flash_misses, y.flash_misses);
            EXPECT_EQ(x.writebacks, y.writebacks);
            EXPECT_EQ(x.charge_issue_cycles, y.charge_issue_cycles);
            EXPECT_EQ(x.charge_stall_ns, y.charge_stall_ns);
            EXPECT_EQ(x.switches_in, y.switches_in);
            EXPECT_EQ(x.switch_us, y.switch_us);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace daedvfs::kernels
