// Tests for the iso-latency evaluation scenario and the TinyEngine baselines.
#include <gtest/gtest.h>

#include <string>

#include "graph/builder.hpp"
#include "runtime/baseline.hpp"

namespace daedvfs::runtime {
namespace {

graph::Model tiny_model() {
  graph::ModelBuilder b("tiny", 16, 16, 3, 99);
  const int c1 = b.conv2d(graph::ModelBuilder::input(), 8, 3, 2, true);
  const int d1 = b.depthwise(c1, 3, 1, true);
  b.pointwise(d1, 8, false);
  return b.take();
}

sim::Mcu fresh_mcu() {
  sim::SimParams p;
  p.boot = tinyengine_clock();
  return sim::Mcu(p);
}

TEST(TinyEngineBaseline, ScheduleIsUniform216NoDae) {
  const graph::Model m = tiny_model();
  const Schedule s = make_tinyengine_schedule(m);
  ASSERT_EQ(s.plans.size(), 3u);
  for (const auto& plan : s.plans) {
    EXPECT_DOUBLE_EQ(plan.hfo.sysclk_mhz(), 216.0);
    EXPECT_EQ(plan.granularity, 0);
    EXPECT_FALSE(plan.dvfs_enabled);
  }
}

TEST(IsoLatency, IdleFillsTheWindow) {
  const graph::Model m = tiny_model();
  InferenceEngine engine(m);
  sim::Mcu mcu = fresh_mcu();
  const double qos = 50'000.0;
  const auto r = run_iso_latency(engine, mcu, make_tinyengine_schedule(m),
                                 qos, /*gated=*/false,
                                 kernels::ExecMode::kTiming);
  EXPECT_TRUE(r.met_qos);
  EXPECT_NEAR(r.inference_us + r.idle_us, qos, 1e-6);
  EXPECT_NEAR(mcu.time_us(), qos, 1e-6);
  EXPECT_GT(r.idle_uj, 0.0);
}

TEST(IsoLatency, GatedIdleIsMuchCheaper) {
  const graph::Model m = tiny_model();
  InferenceEngine e1(m), e2(m);
  sim::Mcu m1 = fresh_mcu(), m2 = fresh_mcu();
  const double qos = 50'000.0;
  const auto plain = run_iso_latency(e1, m1, make_tinyengine_schedule(m), qos,
                                     false, kernels::ExecMode::kTiming);
  const auto gated = run_iso_latency(e2, m2, make_tinyengine_schedule(m), qos,
                                     true, kernels::ExecMode::kTiming);
  EXPECT_DOUBLE_EQ(plain.inference_uj, gated.inference_uj);
  EXPECT_LT(gated.idle_uj, plain.idle_uj / 3.0);
  EXPECT_LT(gated.total_uj(), plain.total_uj());
}

TEST(IsoLatency, OverrunIsReported) {
  const graph::Model m = tiny_model();
  InferenceEngine engine(m);
  sim::Mcu mcu = fresh_mcu();
  const auto r = run_iso_latency(engine, mcu, make_tinyengine_schedule(m),
                                 /*qos_us=*/1.0, false,
                                 kernels::ExecMode::kTiming);
  EXPECT_FALSE(r.met_qos);
  EXPECT_NEAR(r.idle_us, 0.0, 1e-9);
}

TEST(IsoLatency, EnergySplitsAddUp) {
  const graph::Model m = tiny_model();
  InferenceEngine engine(m);
  sim::Mcu mcu = fresh_mcu();
  const auto r = run_iso_latency(engine, mcu, make_tinyengine_schedule(m),
                                 20'000.0, true, kernels::ExecMode::kTiming);
  EXPECT_NEAR(r.total_uj(), mcu.energy_uj(), 1e-6);
}

void expect_same_window(const IsoLatencyResult& a, const IsoLatencyResult& b,
                        const std::string& what) {
  EXPECT_EQ(a.inference_us, b.inference_us) << what;
  EXPECT_EQ(a.inference_uj, b.inference_uj) << what;
  EXPECT_EQ(a.idle_us, b.idle_us) << what;
  EXPECT_EQ(a.idle_uj, b.idle_uj) << what;
  EXPECT_EQ(a.met_qos, b.met_qos) << what;
}

// The iso window is a pure function of the post-inference state: idling
// copies of ONE simulated inference gives, bit for bit, what a fresh
// run_iso_latency per idle policy gives — for TinyEngine and for a DVFS
// schedule booting at another clock, inside and past the window.
TEST(IsoLatency, OneInferenceServesBothIdlePolicies) {
  const graph::Model m = tiny_model();
  const sim::SimParams params;
  Schedule dvfs = make_tinyengine_schedule(m);
  dvfs.name = "dvfs";
  dvfs.plans[0].hfo = clock::ClockConfig::hse_direct(50.0);
  dvfs.plans[1].granularity = 4;
  dvfs.plans[1].dvfs_enabled = true;

  for (const Schedule& s : {make_tinyengine_schedule(m), dvfs}) {
    const sim::Mcu end = simulate_schedule(InferenceEngine(m), s, params);
    for (double qos : {50'000.0, 1.0}) {
      for (bool gated : {false, true}) {
        InferenceEngine engine(m);
        sim::Mcu mcu = schedule_mcu(s, params);
        const IsoLatencyResult fresh = run_iso_latency(
            engine, mcu, s, qos, gated, kernels::ExecMode::kTiming);
        expect_same_window(iso_window(end, qos, gated), fresh,
                           s.name + " qos " + std::to_string(qos) +
                               (gated ? " gated" : " plain"));
      }
    }
  }
}

}  // namespace
}  // namespace daedvfs::runtime
