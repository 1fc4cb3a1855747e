// Cross-backend sweep (DESIGN.md §5.1, docs/kernels.md): for every
// compiled-in kernels::Backend,
//
//  * outputs are byte-identical to the scalar backend and to the naive
//    reference oracles across the kernel shape matrix and the zoo models
//    (bit-exactness invariant), and
//  * the simulated event stream — latency, energy, cache misses, clock
//    switches, WorkLedger work totals — is bit-equal no matter which
//    backend executes the Full-mode math (backend-independent cost stream).
//
// When only the scalar backend is compiled in (DAEDVFS_DISABLE_SIMD), the
// sweeps degenerate to scalar-vs-reference, keeping the portable leg green.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "graph/zoo.hpp"
#include "kernels/backend.hpp"
#include "kernels/conv2d.hpp"
#include "kernels/depthwise.hpp"
#include "kernels/fully_connected.hpp"
#include "kernels/pointwise.hpp"
#include "kernels/reference.hpp"
#include "runtime/engine.hpp"
#include "test_util.hpp"

namespace daedvfs::kernels {
namespace {

using testutil::basic_params;
using testutil::random_bias;
using testutil::random_tensor;
using testutil::ref_of;

ExecContext ctx_for(const Backend* be) {
  ExecContext ctx;
  ctx.backend = be;
  return ctx;
}

// ---- Primitive-level exactness ---------------------------------------------
// Every backend primitive must equal the scalar backend's exact int32 sum
// for ragged lengths (SIMD chunk + tail boundaries), strides and zero points.

TEST(BackendPrimitives, MatchScalarOnRaggedLengths) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> dist(-128, 127);
  std::vector<int8_t> a(4096), b(4096);
  for (auto& v : a) v = static_cast<int8_t>(dist(rng));
  for (auto& v : b) v = static_cast<int8_t>(dist(rng));
  std::vector<int32_t> acc_ref(512), acc(512);
  const Backend& sc = scalar_backend();

  for (const Backend* be : available_backends()) {
    SCOPED_TRACE(be->name);
    for (int n : {0, 1, 3, 7, 8, 9, 15, 16, 17, 24, 31, 33, 64, 100, 257}) {
      for (int32_t zp : {0, -1, 5, -128, 127}) {
        EXPECT_EQ(be->dot(a.data(), b.data(), n, zp),
                  sc.dot(a.data(), b.data(), n, zp))
            << "dot n=" << n << " zp=" << zp;
      }
      for (int m : {1, 2, 3, 8}) {
        for (auto& v : acc_ref) v = 7;
        acc = acc_ref;
        sc.dot_many(acc_ref.data(), a.data(), b.data(), n, m, n);
        be->dot_many(acc.data(), a.data(), b.data(), n, m, n);
        EXPECT_EQ(acc, acc_ref) << "dot_many n=" << n << " m=" << m;
      }
      for (int rows : {1, 2, 5}) {
        EXPECT_EQ(be->dot_rows(a.data(), 40, b.data(), n, rows, n),
                  sc.dot_rows(a.data(), 40, b.data(), n, rows, n))
            << "dot_rows n=" << n << " rows=" << rows;
      }
      for (int rows : {1, 3}) {
        for (int kw : {1, 3, 5}) {
          for (auto& v : acc_ref) v = 1000;
          acc = acc_ref;
          sc.conv_rows_s1(acc_ref.data(), a.data(), 40, b.data(), rows, kw, n);
          be->conv_rows_s1(acc.data(), a.data(), 40, b.data(), rows, kw, n);
          EXPECT_EQ(acc, acc_ref)
              << "conv_rows_s1 n=" << n << " rows=" << rows << " kw=" << kw;
        }
      }
      for (int m : {1, 5, 8, 16, 19}) {
        if (static_cast<int64_t>(n) * m > 4000) continue;  // src bound
        std::vector<int8_t> dst_ref(8192, 42), dst(8192, 42);
        sc.gather_planes(dst_ref.data(), 300, a.data(), m, n, m);
        be->gather_planes(dst.data(), 300, a.data(), m, n, m);
        EXPECT_EQ(dst, dst_ref) << "gather_planes n=" << n << " m=" << m;
      }
      if (n > 0 && n <= 40) {  // n plays the channel-count role here
        for (int rows : {1, 2}) {
          for (int m : {1, 3}) {
            for (auto& v : acc_ref) v = -3000;
            acc = acc_ref;
            sc.mac_window(acc_ref.data(), a.data(), 160, b.data(), 120, n,
                          rows, m);
            be->mac_window(acc.data(), a.data(), 160, b.data(), 120, n, rows,
                           m);
            EXPECT_EQ(acc, acc_ref)
                << "mac_window c=" << n << " rows=" << rows << " m=" << m;
          }
        }
      }
    }
  }
}

/// requantize_row must be bit-exact with the scalar gemmlowp pipeline across
/// multiplier magnitudes, left and right shifts, rounding ties, accumulator
/// extremes, activation clamps, strides and ragged lengths.
TEST(BackendPrimitives, RequantizeRowMatchesScalar) {
  std::mt19937 rng(11);
  std::uniform_int_distribution<int32_t> accd(-2'000'000, 2'000'000);
  const Backend& sc = scalar_backend();
  std::vector<int32_t> acc(300);
  std::vector<int8_t> out_ref(1024), out(1024);

  for (const Backend* be : available_backends()) {
    SCOPED_TRACE(be->name);
    for (double mult : {0.9, 0.004, 1.7e-4, 3.1}) {  // shifts ~0, -8, -12, +1
      const tensor::QuantizedMultiplier qm = tensor::quantize_multiplier(mult);
      for (int n : {0, 1, 3, 4, 5, 8, 11, 64, 255}) {
        for (int64_t stride : {1, 3}) {
          for (auto& v : acc) v = accd(rng);
          // Exact rounding-tie accumulators for the final right shift.
          if (n > 2 && qm.shift < 0) {
            acc[0] = 3 << (-qm.shift - 1);
            acc[1] = -(3 << (-qm.shift - 1));
            acc[2] = 1 << (-qm.shift - 1);
          }
          std::fill(out_ref.begin(), out_ref.end(), int8_t{99});
          std::fill(out.begin(), out.end(), int8_t{99});
          sc.requantize_row(out_ref.data(), stride, acc.data(), n,
                            qm.multiplier, qm.shift, -1, -128, 127);
          be->requantize_row(out.data(), stride, acc.data(), n,
                             qm.multiplier, qm.shift, -1, -128, 127);
          EXPECT_EQ(out, out_ref) << "mult=" << mult << " n=" << n
                                  << " stride=" << stride;
          // Tight activation clamp (ReLU6-style bounds).
          sc.requantize_row(out_ref.data(), stride, acc.data(), n,
                            qm.multiplier, qm.shift, 3, -1, 96);
          be->requantize_row(out.data(), stride, acc.data(), n,
                             qm.multiplier, qm.shift, 3, -1, 96);
          EXPECT_EQ(out, out_ref) << "clamped mult=" << mult << " n=" << n;
        }
      }
    }
    // Saturation extremes.
    const tensor::QuantizedMultiplier qm = tensor::quantize_multiplier(0.5);
    std::vector<int32_t> extremes{INT32_MAX, INT32_MIN, INT32_MAX - 1,
                                  INT32_MIN + 1, 0, 1, -1, 255, -256};
    sc.requantize_row(out_ref.data(), 1, extremes.data(),
                      static_cast<int64_t>(extremes.size()), qm.multiplier,
                      qm.shift, -1, -128, 127);
    be->requantize_row(out.data(), 1, extremes.data(),
                       static_cast<int64_t>(extremes.size()), qm.multiplier,
                       qm.shift, -1, -128, 127);
    EXPECT_EQ(out, out_ref) << "extremes";
  }
}

TEST(BackendRegistry, ScalarAlwaysPresentAndNamesResolve) {
  const auto all = available_backends();
  ASSERT_FALSE(all.empty());
  EXPECT_EQ(all.front(), &scalar_backend());
  EXPECT_EQ(backend_by_name("scalar"), &scalar_backend());
  EXPECT_EQ(backend_by_name("auto"), &default_backend());
  EXPECT_EQ(backend_by_name("no-such-backend"), nullptr);
  if (const Backend* simd = simd_backend()) {
    EXPECT_TRUE(simd->vectorized);
    EXPECT_EQ(backend_by_name("simd"), simd);
    EXPECT_EQ(backend_by_name(simd->name), simd);
    EXPECT_EQ(&default_backend(), simd);
  } else {
    EXPECT_EQ(&default_backend(), &scalar_backend());
  }
}

// ---- Kernel-level sweep: every backend vs scalar vs reference --------------

template <typename Args, typename RunFn, typename OracleFn>
void expect_backends_match_oracle(Args args, tensor::QTensor& out,
                                  tensor::QTensor& expected, RunFn run,
                                  OracleFn oracle, const std::string& what) {
  Args oracle_args = args;
  oracle_args.output =
      ref_of(expected, sim::kSramBase + 0x8000, sim::MemRegion::kSram);
  oracle(oracle_args);
  for (const Backend* be : available_backends()) {
    std::fill_n(out.data(), out.size_bytes(), int8_t{0});
    ExecContext ctx = ctx_for(be);
    run(args, ctx);
    for (std::size_t i = 0; i < out.size_bytes(); ++i) {
      ASSERT_EQ(out.data()[i], expected.data()[i])
          << what << " backend=" << be->name << " at " << i;
    }
  }
}

TEST(BackendSweep, Conv2dBitExactAcrossBackends) {
  uint32_t seed = 1000;
  for (int h : {6, 9}) {
    for (int k : {1, 3, 5}) {
      for (int stride : {1, 2}) {
        for (int pad : {0, 1, 2}) {
          const int w = 8, cin = 3, cout = 5;
          if (h + 2 * pad < k || w + 2 * pad < k) continue;
          const int oh = (h + 2 * pad - k) / stride + 1;
          const int ow = (w + 2 * pad - k) / stride + 1;
          tensor::QTensor in = random_tensor({1, h, w, cin}, ++seed);
          tensor::QTensor wt = random_tensor({cout, k, k, cin}, ++seed, -90, 90);
          tensor::BiasVector bv = random_bias(cout, ++seed);
          tensor::QTensor out({1, oh, ow, cout}, {0.05, -1});
          tensor::QTensor expected({1, oh, ow, cout}, {0.05, -1});

          Conv2dArgs a;
          a.input = ref_of(in, sim::kSramBase, sim::MemRegion::kSram);
          a.weights = ref_of(wt, sim::kFlashBase, sim::MemRegion::kFlash);
          a.bias = bv.data();
          a.bias_mem = {sim::kFlashBase + 0x40000, sim::MemRegion::kFlash};
          a.output = ref_of(out, sim::kSramBase + 0x8000, sim::MemRegion::kSram);
          a.params = basic_params(stride, pad, 0.002);
          expect_backends_match_oracle(
              a, out, expected, [](const Conv2dArgs& x, ExecContext& c) { conv2d(x, c); },
              [](const Conv2dArgs& x) { reference::conv2d(x); },
              "conv2d h=" + std::to_string(h) + " k=" + std::to_string(k) +
                  " s=" + std::to_string(stride) + " p=" + std::to_string(pad));
        }
      }
    }
  }
}

TEST(BackendSweep, DepthwiseBitExactAcrossBackends) {
  uint32_t seed = 2000;
  for (int h : {6, 9}) {
    for (int w : {7, 8, 33}) {  // 33: interior wider than one SIMD row chunk
      for (int stride : {1, 2}) {
        for (int pad : {0, 1, 2}) {
          for (int g : {0, 3, 16}) {
            const int k = 3, c = 5;
            if (h + 2 * pad < k || w + 2 * pad < k) continue;
            const int oh = (h + 2 * pad - k) / stride + 1;
            const int ow = (w + 2 * pad - k) / stride + 1;
            tensor::QTensor in = random_tensor({1, h, w, c}, ++seed);
            tensor::QTensor wt = random_tensor({1, k, k, c}, ++seed, -90, 90);
            tensor::BiasVector bv = random_bias(c, ++seed);
            tensor::QTensor out({1, oh, ow, c}, {0.05, -1});
            tensor::QTensor expected({1, oh, ow, c}, {0.05, -1});

            DepthwiseArgs a;
            a.input = ref_of(in, sim::kSramBase, sim::MemRegion::kSram);
            a.weights = ref_of(wt, sim::kFlashBase, sim::MemRegion::kFlash);
            a.bias = bv.data();
            a.bias_mem = {sim::kFlashBase + 0x40000, sim::MemRegion::kFlash};
            a.output = ref_of(out, sim::kSramBase + 0x8000, sim::MemRegion::kSram);
            a.params = basic_params(stride, pad);
            a.granularity = g;
            expect_backends_match_oracle(
                a, out, expected,
                [](const DepthwiseArgs& x, ExecContext& c) { depthwise_conv(x, c); },
                [&](DepthwiseArgs x) {
                  x.granularity = 0;
                  reference::depthwise_conv(x);
                },
                "depthwise w=" + std::to_string(w) + " s=" +
                    std::to_string(stride) + " p=" + std::to_string(pad) +
                    " g=" + std::to_string(g));
          }
        }
      }
    }
  }
}

TEST(BackendSweep, PointwiseBitExactAcrossBackends) {
  uint32_t seed = 3000;
  for (int hw : {1, 7, 8}) {
    for (int cin : {3, 8, 33}) {
      for (int cout : {5, 16}) {
        for (int g : {0, 7, 16}) {
          tensor::QTensor in = random_tensor({1, hw, hw, cin}, ++seed);
          tensor::QTensor wt = random_tensor({cout, 1, 1, cin}, ++seed, -90, 90);
          tensor::BiasVector bv = random_bias(cout, ++seed);
          tensor::QTensor out({1, hw, hw, cout}, {0.05, -1});
          tensor::QTensor expected({1, hw, hw, cout}, {0.05, -1});

          PointwiseArgs a;
          a.input = ref_of(in, sim::kSramBase, sim::MemRegion::kSram);
          a.weights = ref_of(wt, sim::kFlashBase, sim::MemRegion::kFlash);
          a.bias = bv.data();
          a.bias_mem = {sim::kFlashBase + 0x40000, sim::MemRegion::kFlash};
          a.output = ref_of(out, sim::kSramBase + 0x8000, sim::MemRegion::kSram);
          a.params = basic_params(1, 0);
          a.granularity = g;
          expect_backends_match_oracle(
              a, out, expected,
              [](const PointwiseArgs& x, ExecContext& c) { pointwise_conv(x, c); },
              [](PointwiseArgs x) {
                x.granularity = 0;
                reference::pointwise_conv(x);
              },
              "pointwise hw=" + std::to_string(hw) + " cin=" +
                  std::to_string(cin) + " g=" + std::to_string(g));
        }
      }
    }
  }
}

TEST(BackendSweep, FullyConnectedBitExactAcrossBackends) {
  uint32_t seed = 4000;
  for (int in_n : {1, 9, 16, 33, 160}) {
    for (int out_n : {1, 10}) {
      tensor::QTensor in = random_tensor({1, 1, 1, in_n}, ++seed);
      tensor::QTensor wt = random_tensor({out_n, 1, 1, in_n}, ++seed, -90, 90);
      tensor::BiasVector bv = random_bias(out_n, ++seed);
      tensor::QTensor out({1, 1, 1, out_n}, {0.05, -1});
      tensor::QTensor expected({1, 1, 1, out_n}, {0.05, -1});

      FullyConnectedArgs a;
      a.input = ref_of(in, sim::kSramBase, sim::MemRegion::kSram);
      a.weights = ref_of(wt, sim::kFlashBase, sim::MemRegion::kFlash);
      a.bias = bv.data();
      a.bias_mem = {sim::kFlashBase + 0x40000, sim::MemRegion::kFlash};
      a.output = ref_of(out, sim::kSramBase + 0x8000, sim::MemRegion::kSram);
      a.params = basic_params(1, 0, 0.002);
      expect_backends_match_oracle(
          a, out, expected,
          [](const FullyConnectedArgs& x, ExecContext& c) {
            fully_connected(x, c);
          },
          [](const FullyConnectedArgs& x) { reference::fully_connected(x); },
          "fc in=" + std::to_string(in_n) + " out=" + std::to_string(out_n));
    }
  }
}

// ---- Cost-stream invariance ------------------------------------------------

struct EventTotals {
  double t_us = 0.0;
  double energy_uj = 0.0;
  uint64_t misses = 0;
  uint64_t switches = 0;
  std::vector<sim::WorkLedger::Domain> domains;
};

EventTotals run_depthwise_on_mcu(const Backend* be, ExecMode mode) {
  tensor::QTensor in = random_tensor({1, 9, 9, 6}, 77);
  tensor::QTensor wt = random_tensor({1, 3, 3, 6}, 78, -90, 90);
  tensor::BiasVector bv = random_bias(6, 79);
  tensor::QTensor out({1, 9, 9, 6}, {0.05, -1});
  sim::Mcu mcu;
  sim::WorkLedger ledger;
  mcu.set_ledger(&ledger);
  LfoHfoPolicy policy(clock::ClockConfig::hse_direct(50.0),
                      clock::ClockConfig::pll_hse(50.0, 25, 216, 2));
  ExecContext ctx = ctx_for(be);
  ctx.mcu = &mcu;
  ctx.mode = mode;
  ctx.dvfs = &policy;
  DepthwiseArgs a;
  a.input = ref_of(in, sim::kSramBase, sim::MemRegion::kSram);
  a.weights = ref_of(wt, sim::kFlashBase, sim::MemRegion::kFlash);
  a.bias = bv.data();
  a.bias_mem = {sim::kFlashBase + 0x40000, sim::MemRegion::kFlash};
  a.output = ref_of(out, sim::kSramBase + 0x8000, sim::MemRegion::kSram);
  a.params = basic_params(1, 1);
  a.granularity = 4;
  depthwise_conv(a, ctx);
  EventTotals e;
  e.t_us = mcu.time_us();
  e.energy_uj = mcu.energy_uj();
  e.misses = mcu.snapshot().cache.misses;
  e.switches = mcu.snapshot().rcc.switches;
  e.domains = ledger.domains;
  return e;
}

/// The simulated cost stream — and the WorkLedger totals the DSE's replay
/// and the profile cache rest on — must be bit-equal across backends AND
/// across Full/Timing modes.
TEST(BackendSweep, EventStreamAndLedgerIdenticalAcrossBackends) {
  const EventTotals ref = run_depthwise_on_mcu(&scalar_backend(),
                                               ExecMode::kTiming);
  ASSERT_FALSE(ref.domains.empty());
  for (const Backend* be : available_backends()) {
    for (ExecMode mode : {ExecMode::kFull, ExecMode::kTiming}) {
      SCOPED_TRACE(std::string(be->name) +
                   (mode == ExecMode::kFull ? "/full" : "/timing"));
      const EventTotals got = run_depthwise_on_mcu(be, mode);
      EXPECT_EQ(ref.t_us, got.t_us);
      EXPECT_EQ(ref.energy_uj, got.energy_uj);
      EXPECT_EQ(ref.misses, got.misses);
      EXPECT_EQ(ref.switches, got.switches);
      ASSERT_EQ(ref.domains.size(), got.domains.size());
      for (std::size_t i = 0; i < ref.domains.size(); ++i) {
        const auto& x = ref.domains[i];
        const auto& y = got.domains[i];
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

// ---- Zoo models ------------------------------------------------------------

std::vector<int8_t> random_input(const graph::Model& m, uint32_t seed) {
  std::vector<int8_t> in(static_cast<std::size_t>(m.input_shape().elems()));
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> dist(-100, 100);
  for (auto& v : in) v = static_cast<int8_t>(dist(rng));
  return in;
}

/// Full-mode inference over every zoo model under a DAE+DVFS schedule:
/// outputs byte-identical and simulated totals bit-equal across backends.
TEST(BackendSweep, ZooModelsBitExactWithBackendIndependentCosts) {
  for (const graph::Model& m : graph::zoo::make_evaluation_suite()) {
    SCOPED_TRACE(m.name());
    runtime::InferenceEngine engine(m);
    runtime::Schedule sched = runtime::make_uniform_schedule(
        m, clock::ClockConfig::pll_hse(50.0, 25, 216, 2));
    // Exercise the DAE paths + DVFS hooks, not just the baselines.
    for (std::size_t i = 0; i < sched.plans.size(); ++i) {
      auto& plan = sched.plans[i];
      plan.granularity = 1 + static_cast<int>(i % 8);
      plan.dvfs_enabled = (i % 2) == 0;
    }
    const auto input = random_input(m, 42);

    std::vector<int8_t> ref_output;
    double ref_t = 0.0, ref_e = 0.0;
    uint64_t ref_misses = 0;
    bool first = true;
    for (const Backend* be : available_backends()) {
      SCOPED_TRACE(be->name);
      engine.set_backend(be);
      sim::Mcu mcu;
      const runtime::InferenceResult r =
          engine.run(mcu, sched, ExecMode::kFull, input);
      if (first) {
        ref_output = r.output;
        ref_t = r.total_us;
        ref_e = r.total_energy_uj;
        ref_misses = mcu.snapshot().cache.misses;
        first = false;
        EXPECT_FALSE(ref_output.empty());
        continue;
      }
      EXPECT_EQ(ref_output, r.output);
      EXPECT_EQ(ref_t, r.total_us);
      EXPECT_EQ(ref_e, r.total_energy_uj);
      EXPECT_EQ(ref_misses, mcu.snapshot().cache.misses);
    }
    engine.set_backend(nullptr);
  }
}

}  // namespace
}  // namespace daedvfs::kernels
