// Integration tests for the inference engine: full-model execution,
// profiling attribution, and the end-to-end "DAE entails no accuracy drop"
// guarantee at model scale.
#include <gtest/gtest.h>

#include <optional>
#include <random>

#include "graph/builder.hpp"
#include "graph/zoo.hpp"
#include "runtime/baseline.hpp"
#include "runtime/engine.hpp"

namespace daedvfs::runtime {
namespace {

const clock::ClockConfig kHfo216 = clock::ClockConfig::pll_hse(50.0, 25, 216, 2);
const clock::ClockConfig kHfo150 = clock::ClockConfig::pll_hse(50.0, 25, 150, 2);

graph::Model tiny_model() {
  graph::ModelBuilder b("tiny", 16, 16, 3, 99);
  const int c1 = b.conv2d(graph::ModelBuilder::input(), 8, 3, 2, true);
  const int d1 = b.depthwise(c1, 3, 1, true);
  const int p1 = b.pointwise(d1, 8, false);
  const int a1 = b.add(p1, c1);
  const int p2 = b.pointwise(a1, 16, true);
  const int g1 = b.global_avg_pool(p2);
  b.fully_connected(g1, 4);
  return b.take();
}

std::vector<int8_t> random_input(const graph::Model& m, uint32_t seed) {
  std::vector<int8_t> in(static_cast<std::size_t>(m.input_shape().elems()));
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> dist(-100, 100);
  for (auto& v : in) v = static_cast<int8_t>(dist(rng));
  return in;
}

sim::Mcu fresh_mcu(const clock::ClockConfig& boot = kHfo216) {
  sim::SimParams p;
  p.boot = boot;
  return sim::Mcu(p);
}

TEST(Engine, FullRunProducesOutputAndProfiles) {
  const graph::Model m = tiny_model();
  InferenceEngine engine(m);
  sim::Mcu mcu = fresh_mcu();
  const Schedule s = make_uniform_schedule(m, kHfo216);
  const auto in = random_input(m, 1);
  const InferenceResult r =
      engine.run(mcu, s, kernels::ExecMode::kFull, in);
  EXPECT_EQ(r.output.size(), 4u);
  EXPECT_EQ(r.layers.size(), 7u);
  EXPECT_GT(r.total_us, 0.0);
  EXPECT_GT(r.total_energy_uj, 0.0);
  double sum_t = 0.0;
  for (const auto& lp : r.layers) sum_t += lp.t_us;
  EXPECT_NEAR(sum_t, r.total_us, 1e-6);
}

TEST(Engine, DeterministicAcrossRuns) {
  const graph::Model m = tiny_model();
  auto once = [&] {
    InferenceEngine engine(m);
    sim::Mcu mcu = fresh_mcu();
    const Schedule s = make_uniform_schedule(m, kHfo216);
    return engine.run(mcu, s, kernels::ExecMode::kFull, random_input(m, 1));
  };
  const auto a = once(), b = once();
  EXPECT_EQ(a.output, b.output);
  EXPECT_DOUBLE_EQ(a.total_us, b.total_us);
  EXPECT_DOUBLE_EQ(a.total_energy_uj, b.total_energy_uj);
}

/// End-to-end "no accuracy drop": a DAE+DVFS schedule must produce the
/// bit-identical classification output of the TinyEngine schedule.
class DaeScheduleBitExact : public ::testing::TestWithParam<int> {};

TEST_P(DaeScheduleBitExact, OutputMatchesBaseline) {
  const graph::Model m = tiny_model();
  const auto in = random_input(m, 2);

  InferenceEngine engine_base(m);
  sim::Mcu mcu_base = fresh_mcu();
  const auto base = engine_base.run(mcu_base, make_uniform_schedule(m, kHfo216),
                                    kernels::ExecMode::kFull, in);

  Schedule dae = make_uniform_schedule(m, kHfo150, "dae");
  for (auto& plan : dae.plans) {
    plan.granularity = GetParam();
    plan.dvfs_enabled = true;
  }
  InferenceEngine engine_dae(m);
  sim::Mcu mcu_dae = fresh_mcu(kHfo150);
  const auto got =
      engine_dae.run(mcu_dae, dae, kernels::ExecMode::kFull, in);

  EXPECT_EQ(base.output, got.output)
      << "DAE+DVFS must not change inference results";
}

INSTANTIATE_TEST_SUITE_P(Granularities, DaeScheduleBitExact,
                         ::testing::Values(2, 4, 8, 16));

TEST(Engine, FullAndTimingModesAgreeOnCost) {
  const graph::Model m = tiny_model();
  Schedule s = make_uniform_schedule(m, kHfo216);
  for (auto& plan : s.plans) {
    plan.granularity = 4;
    plan.dvfs_enabled = true;
  }
  InferenceEngine e1(m), e2(m);
  sim::Mcu m1 = fresh_mcu(), m2 = fresh_mcu();
  const auto full = e1.run(m1, s, kernels::ExecMode::kFull, random_input(m, 3));
  const auto timing = e2.run(m2, s, kernels::ExecMode::kTiming);
  EXPECT_EQ(full.total_us, timing.total_us);
  EXPECT_EQ(full.total_energy_uj, timing.total_energy_uj);

  // Every zoo model under a mixed DAE+DVFS schedule (granularities 1..8,
  // DVFS on every other layer): the simulated totals must not depend on
  // whether the int8 math ran.
  for (const graph::Model& zm : graph::zoo::make_evaluation_suite()) {
    SCOPED_TRACE(zm.name());
    Schedule zs = make_uniform_schedule(zm, kHfo216);
    for (std::size_t i = 0; i < zs.plans.size(); ++i) {
      zs.plans[i].granularity = 1 + static_cast<int>(i % 8);
      zs.plans[i].dvfs_enabled = (i % 2) == 0;
    }
    InferenceEngine ef(zm), et(zm);
    sim::Mcu mf = fresh_mcu(), mt = fresh_mcu();
    const auto zf =
        ef.run(mf, zs, kernels::ExecMode::kFull, random_input(zm, 42));
    const auto zt = et.run(mt, zs, kernels::ExecMode::kTiming);
    EXPECT_FALSE(zf.output.empty());
    EXPECT_EQ(zf.total_us, zt.total_us);
    EXPECT_EQ(zf.total_energy_uj, zt.total_energy_uj);
    EXPECT_EQ(mf.snapshot().cache.misses, mt.snapshot().cache.misses);
    EXPECT_EQ(mf.snapshot().rcc.switches, mt.snapshot().rcc.switches);
  }
}

TEST(Engine, DvfsScheduleTogglesClocks) {
  const graph::Model m = tiny_model();
  Schedule s = make_uniform_schedule(m, kHfo216);
  for (auto& plan : s.plans) {
    plan.granularity = 4;
    plan.dvfs_enabled = true;
  }
  InferenceEngine engine(m);
  sim::Mcu mcu = fresh_mcu();
  const auto r = engine.run(mcu, s, kernels::ExecMode::kTiming);
  const auto& dw = r.layers[1];  // depthwise layer
  EXPECT_EQ(dw.kind, graph::LayerKind::kDepthwise);
  EXPECT_GT(dw.clock_switches, 0u);
  // Non-eligible layers must not toggle even when the plan asks for DAE.
  const auto& add = r.layers[3];
  EXPECT_EQ(add.kind, graph::LayerKind::kAdd);
  EXPECT_EQ(add.clock_switches, 0u);
  EXPECT_EQ(add.granularity, 0);
}

TEST(Engine, PerLayerFrequenciesCauseRelocks) {
  const graph::Model m = tiny_model();
  Schedule s = make_uniform_schedule(m, kHfo216);
  s.plans[2].hfo = kHfo150;  // one layer at a different PLL setting
  InferenceEngine engine(m);
  sim::Mcu mcu = fresh_mcu();
  const auto r = engine.run(mcu, s, kernels::ExecMode::kTiming);
  // Relock into layer 2 and back into layer 3.
  EXPECT_EQ(r.layers[2].pll_relocks, 1u);
  EXPECT_EQ(r.layers[3].pll_relocks, 1u);
}

TEST(Engine, LowerUniformFrequencyIsSlower) {
  const graph::Model m = tiny_model();
  InferenceEngine e1(m), e2(m);
  sim::Mcu m1 = fresh_mcu(), m2 = fresh_mcu(kHfo150);
  const auto fast =
      e1.run(m1, make_uniform_schedule(m, kHfo216), kernels::ExecMode::kTiming);
  const auto slow =
      e2.run(m2, make_uniform_schedule(m, kHfo150), kernels::ExecMode::kTiming);
  EXPECT_GT(slow.total_us, fast.total_us);
}

TEST(Engine, RejectsWrongScheduleOrInputSize) {
  const graph::Model m = tiny_model();
  InferenceEngine engine(m);
  sim::Mcu mcu = fresh_mcu();
  Schedule bad;
  bad.plans.resize(2);
  EXPECT_THROW(engine.run(mcu, bad, kernels::ExecMode::kTiming),
               std::invalid_argument);
  const Schedule good = make_uniform_schedule(m, kHfo216);
  std::vector<int8_t> wrong(7);
  EXPECT_THROW(
      engine.run(mcu, good, kernels::ExecMode::kFull,
                 std::span<const int8_t>(wrong.data(), wrong.size())),
      std::invalid_argument);
}

TEST(Engine, ActivationBytesAccountAllTensors) {
  const graph::Model m = tiny_model();
  InferenceEngine engine(m);
  int64_t expect = m.input_shape().elems();
  for (const auto& l : m.layers()) expect += l.out_shape.elems();
  EXPECT_GE(static_cast<int64_t>(engine.activation_bytes()), expect);
}

TEST(Engine, FullVwwInferenceRuns) {
  // Smoke: a real zoo model end to end in Full mode.
  const graph::Model m = graph::zoo::make_vww();
  InferenceEngine engine(m);
  sim::Mcu mcu = fresh_mcu();
  const auto r = engine.run(mcu, make_uniform_schedule(m, kHfo216),
                            kernels::ExecMode::kFull, random_input(m, 4));
  EXPECT_EQ(r.output.size(), 2u);
  EXPECT_GT(r.total_us, 1000.0);
}

// ---- Scratch placement: the tiled layers' scratch buffer in DTCM ---------

/// Three tileable layers (conv -> depthwise -> pointwise): every layer runs
/// at granularity 4, so each one allocates scratch.
graph::Model scratch_model() {
  graph::ModelBuilder b("tiny", 16, 16, 3, 99);
  const int c1 = b.conv2d(graph::ModelBuilder::input(), 8, 3, 2, true);
  const int d1 = b.depthwise(c1, 3, 1, true);
  b.pointwise(d1, 8, false);
  return b.take();
}

TEST(ScratchPlacement, DtcmRemovesBufferCacheTraffic) {
  const graph::Model m = scratch_model();
  Schedule s = make_tinyengine_schedule(m);
  for (auto& plan : s.plans) {
    plan.granularity = 4;
    plan.dvfs_enabled = true;
  }
  auto run_with = [&](std::optional<sim::MemRegion> region) {
    InferenceEngine engine(m);
    if (region) engine.place_scratch(*region);
    sim::Mcu mcu = fresh_mcu(tinyengine_clock());
    const auto r = engine.run(mcu, s, kernels::ExecMode::kTiming);
    return std::pair{r.total_us, mcu.cache().stats().misses};
  };
  const auto sram = run_with(std::nullopt);
  const auto dtcm = run_with(sim::MemRegion::kDtcm);
  EXPECT_LT(dtcm.second, sram.second)
      << "DTCM scratch must not consume cache lines";
  EXPECT_LT(dtcm.first, sram.first)
      << "uncached single-cycle scratch must be faster";
}

TEST(ScratchPlacement, NumericsUnchanged) {
  const graph::Model m = scratch_model();
  Schedule s = make_tinyengine_schedule(m);
  for (auto& plan : s.plans) plan.granularity = 4;
  std::vector<int8_t> in(static_cast<std::size_t>(m.input_shape().elems()),
                         7);
  auto out_with = [&](sim::MemRegion region) {
    InferenceEngine engine(m);
    engine.place_scratch(region);
    sim::Mcu mcu = fresh_mcu(tinyengine_clock());
    return engine
        .run(mcu, s, kernels::ExecMode::kFull,
             std::span<const int8_t>(in.data(), in.size()))
        .output;
  };
  EXPECT_EQ(out_with(sim::MemRegion::kSram),
            out_with(sim::MemRegion::kDtcm));
}

}  // namespace
}  // namespace daedvfs::runtime
