// End-to-end pipeline tests (core/pipeline): schedule emission, QoS
// satisfaction, baseline comparisons, QoS sweep behaviour, reporting.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "dse/profile_cache.hpp"
#include "graph/builder.hpp"
#include "graph/zoo.hpp"

namespace daedvfs::core {
namespace {

graph::Model small_model() {
  graph::ModelBuilder b("small", 64, 64, 3, 42);
  int x = b.conv2d(graph::ModelBuilder::input(), 8, 3, 2, true);
  x = b.depthwise(x, 3, 1, true);
  x = b.pointwise(x, 16, false);
  x = b.depthwise(x, 3, 2, true);
  x = b.pointwise(x, 24, false);
  const int y = b.pointwise(x, 24, false);
  x = b.add(x, y);
  x = b.global_avg_pool(x);
  b.fully_connected(x, 2);
  return b.take();
}

PipelineConfig make_config(double slack) {
  PipelineConfig cfg;
  cfg.qos_slack = slack;
  cfg.space =
      dse::make_reduced_design_space(power::PowerModel{cfg.explore.sim.power});
  cfg.mckp_ticks = 5000;
  cfg.reserved_relocks = 4;
  return cfg;
}

TEST(Pipeline, ProducesCompleteFeasibleResult) {
  const graph::Model m = small_model();
  const PipelineResult r = Pipeline(make_config(0.3)).run(m);
  EXPECT_EQ(r.model_name, "small");
  EXPECT_GT(r.t_base_us, 0.0);
  EXPECT_NEAR(r.qos_us, r.t_base_us * 1.3, 1e-6);
  ASSERT_TRUE(r.mckp_feasible);
  EXPECT_EQ(r.schedule.plans.size(), 9u);
  EXPECT_EQ(r.choices.size(), 9u);
  EXPECT_EQ(r.dse.size(), 9u);
}

TEST(Pipeline, MeasuredScheduleMeetsQos) {
  for (double slack : {0.1, 0.3, 0.5}) {
    const PipelineResult r = Pipeline(make_config(slack)).run(small_model());
    EXPECT_TRUE(r.comparison.dae_dvfs.met_qos) << "slack " << slack;
    EXPECT_LE(r.comparison.dae_dvfs.inference_us, r.qos_us + 1e-6);
  }
}

TEST(Pipeline, BeatsOrMatchesBothBaselines) {
  const PipelineResult r = Pipeline(make_config(0.3)).run(small_model());
  const auto& c = r.comparison;
  EXPECT_LE(c.dae_dvfs.total_uj(), c.tinyengine_gated.total_uj() + 1e-6)
      << "never-worse-than-baseline guard";
  EXPECT_LT(c.tinyengine_gated.total_uj(), c.tinyengine.total_uj());
  EXPECT_GE(c.gain_vs_tinyengine_pct(), 0.0);
  EXPECT_GE(c.gain_vs_gated_pct(), -1e-9);
}

TEST(Pipeline, RelaxedQosNeverCostsMoreInferenceEnergy) {
  // Note: *total* window energy can grow slightly with the window (a longer
  // window adds clock-gated idle time even for an identical schedule); the
  // methodology's invariant is on the inference itself.
  const graph::Model m = small_model();
  PipelineConfig cfg = make_config(0.1);
  const PipelineResult tight = Pipeline(cfg).run(m);
  cfg.qos_slack = 0.5;
  const PipelineResult relaxed = Pipeline(cfg).run(m, &tight.dse);
  EXPECT_LE(relaxed.comparison.dae_dvfs.inference_uj,
            tight.comparison.dae_dvfs.inference_uj * 1.02)
      << "relaxing QoS must not materially increase inference energy";
  // And the gain over the plain TinyEngine baseline must grow with slack.
  EXPECT_GE(relaxed.comparison.gain_vs_tinyengine_pct(),
            tight.comparison.gain_vs_tinyengine_pct());
}

TEST(Pipeline, DseReuseIsEquivalent) {
  const graph::Model m = small_model();
  PipelineConfig cfg = make_config(0.3);
  const PipelineResult a = Pipeline(cfg).run(m);
  const PipelineResult b = Pipeline(cfg).run(m, &a.dse);
  EXPECT_DOUBLE_EQ(a.comparison.dae_dvfs.total_uj(),
                   b.comparison.dae_dvfs.total_uj());
  EXPECT_DOUBLE_EQ(a.planned_e_uj, b.planned_e_uj);
}

TEST(Pipeline, Deterministic) {
  const graph::Model m = small_model();
  const PipelineResult a = Pipeline(make_config(0.3)).run(m);
  const PipelineResult b = Pipeline(make_config(0.3)).run(m);
  EXPECT_EQ(csv_row(a), csv_row(b));
}

TEST(Pipeline, ChoicesOnlyAssignGranularityToEligibleLayers) {
  const PipelineResult r = Pipeline(make_config(0.5)).run(small_model());
  for (const auto& ch : r.choices) {
    const auto kind = r.dse[static_cast<std::size_t>(ch.layer_idx)].kind;
    if (!graph::dae_eligible(kind)) {
      EXPECT_EQ(ch.solution.granularity, 0) << "layer " << ch.layer_idx;
    }
  }
}

TEST(Pipeline, InfeasibleBudgetFallsBackToBaseline) {
  PipelineConfig cfg = make_config(0.0);
  cfg.qos_slack = -0.9;  // window far below the achievable minimum
  const PipelineResult r = Pipeline(cfg).run(small_model());
  EXPECT_FALSE(r.mckp_feasible);
  EXPECT_TRUE(r.choices.empty());
  // Schedule degraded to TinyEngine; comparison still well-formed.
  EXPECT_EQ(r.schedule.plans.size(), 9u);
  for (const auto& plan : r.schedule.plans) {
    EXPECT_DOUBLE_EQ(plan.hfo.sysclk_mhz(), 216.0);
  }
}

TEST(Pipeline, FastDefaultsEmitIdenticalSchedulesAcrossTheZoo) {
  // The flipped defaults (freq_replay + whole-schedule-replay repair) must
  // produce exactly the schedule the exact_simulation escape hatch
  // produces, for every evaluation model at the paper design space, from
  // the same exhaustive candidate sets.
  for (const graph::Model& m : graph::zoo::make_evaluation_suite()) {
    PipelineConfig cfg;
    cfg.qos_slack = 0.3;
    cfg.space = dse::make_paper_design_space(
        power::PowerModel{cfg.explore.sim.power});
    const PipelineResult fast = Pipeline(cfg).run(m);
    cfg.exact_simulation = true;
    const PipelineResult exact = Pipeline(cfg).run(m);

    EXPECT_EQ(fast.mckp_feasible, exact.mckp_feasible) << m.name();
    EXPECT_EQ(fast.fell_back_to_baseline, exact.fell_back_to_baseline)
        << m.name();
    EXPECT_TRUE(runtime::plans_identical(fast.schedule, exact.schedule))
        << m.name() << ": fast defaults changed the emitted schedule";
    EXPECT_LT(fast.explore_stats.profiled, exact.explore_stats.profiled)
        << m.name() << ": fast path did not actually avoid simulations";
    // Both paths evaluate every candidate of every layer, each exactly one
    // way (simulated, replayed or served from the memo).
    ASSERT_EQ(fast.dse.size(), exact.dse.size()) << m.name();
    for (std::size_t k = 0; k < fast.dse.size(); ++k) {
      EXPECT_EQ(fast.dse[k].all.size(), exact.dse[k].all.size())
          << m.name() << " layer " << k;
    }
    for (const dse::ExploreStats& st :
         {fast.explore_stats, exact.explore_stats}) {
      EXPECT_EQ(st.profiled + st.replayed + st.cache_hits,
                st.total_candidates)
          << m.name();
    }
    // Replay-backed repair must not spend more simulations than swaps + 1;
    // the exact path spends one per measurement.
    EXPECT_LE(fast.repair_simulations, fast.repair_iterations + 1)
        << m.name();
    EXPECT_EQ(exact.repair_simulations, exact.repair_iterations + 1)
        << m.name();
  }
}

TEST(Pipeline, SharedProfileCacheServesRepeatRunsEntirely) {
  const graph::Model m = small_model();
  dse::ProfileCache cache;
  PipelineConfig cfg = make_config(0.3);
  cfg.explore.cache = &cache;
  const PipelineResult first = Pipeline(cfg).run(m);
  EXPECT_GT(first.explore_stats.profiled, 0);

  // Same model, different slack: the second run's exploration must be
  // answered from the shared cache without a single new simulation.
  cfg.qos_slack = 0.5;
  const PipelineResult second = Pipeline(cfg).run(m);
  EXPECT_EQ(second.explore_stats.profiled, 0)
      << "shared cache did not carry profiles across pipeline runs";
  EXPECT_GT(second.explore_stats.cache_hits, 0);

  // And the cached run is equivalent to a cold one.
  PipelineConfig cold_cfg = make_config(0.5);
  const PipelineResult cold = Pipeline(cold_cfg).run(m);
  EXPECT_TRUE(runtime::plans_identical(second.schedule, cold.schedule));
}

void expect_same_window(const runtime::IsoLatencyResult& a,
                        const runtime::IsoLatencyResult& b,
                        const std::string& what) {
  EXPECT_EQ(a.inference_us, b.inference_us) << what;
  EXPECT_EQ(a.inference_uj, b.inference_uj) << what;
  EXPECT_EQ(a.idle_us, b.idle_us) << what;
  EXPECT_EQ(a.idle_uj, b.idle_uj) << what;
  EXPECT_EQ(a.met_qos, b.met_qos) << what;
}

// A QoS sweep sharing one cache simulates each distinct schedule once: the
// TinyEngine run serves t_base and both TinyEngine windows at every slack,
// the repair recording is the DAE evaluation when the repair made no swaps,
// and MBV2 emits the same schedule at 0.30 and 0.50 (its repair then
// records nothing). Memo hits are the simulations they replace, so every
// point equals a cache-less run bit for bit.
TEST(Pipeline, SweepSimulatesEachDistinctScheduleOnce) {
  const std::map<std::string, int> expected_sims = {
      {"VWW", 4}, {"PD", 4}, {"MBV2", 3}};
  for (const graph::Model& m : graph::zoo::make_evaluation_suite()) {
    PipelineConfig cfg;
    cfg.space = dse::make_paper_design_space(
        power::PowerModel{cfg.explore.sim.power});
    dse::ProfileCache cache;
    PipelineConfig shared = cfg;
    shared.explore.cache = &cache;

    std::vector<dse::LayerSolutionSet> sets;
    int sims = 0;
    for (double slack : {0.10, 0.30, 0.50}) {
      shared.qos_slack = slack;
      cfg.qos_slack = slack;
      const PipelineResult r =
          Pipeline(shared).run(m, sets.empty() ? nullptr : &sets);
      if (sets.empty()) sets = r.dse;
      const PipelineResult ref = Pipeline(cfg).run(m, &sets);
      sims += r.full_sims;

      const std::string at = m.name() + " slack " + std::to_string(slack);
      EXPECT_TRUE(runtime::plans_identical(r.schedule, ref.schedule)) << at;
      EXPECT_EQ(r.mckp_feasible, ref.mckp_feasible) << at;
      EXPECT_EQ(r.fell_back_to_baseline, ref.fell_back_to_baseline) << at;
      EXPECT_EQ(r.t_base_us, ref.t_base_us) << at;
      EXPECT_EQ(r.qos_us, ref.qos_us) << at;
      expect_same_window(r.comparison.tinyengine, ref.comparison.tinyengine,
                         at + " tinyengine");
      expect_same_window(r.comparison.tinyengine_gated,
                         ref.comparison.tinyengine_gated, at + " gated");
      expect_same_window(r.comparison.dae_dvfs, ref.comparison.dae_dvfs,
                         at + " dae");
      // Alone, a run simulates TinyEngine, records its schedule and
      // evaluates it — the evaluation is free when the repair made no swaps.
      EXPECT_EQ(ref.full_sims, ref.repair_iterations > 0 ? 3 : 2) << at;
    }
    EXPECT_EQ(sims, expected_sims.at(m.name())) << m.name();
    EXPECT_EQ(cache.runs(), static_cast<std::size_t>(sims)) << m.name();
  }
}

TEST(Report, SummaryAndCsvContainKeyFields) {
  const PipelineResult r = Pipeline(make_config(0.3)).run(small_model());
  std::ostringstream os;
  print_summary(os, r);
  const std::string s = os.str();
  EXPECT_NE(s.find("TinyEngine"), std::string::npos);
  EXPECT_NE(s.find("DAE+DVFS"), std::string::npos);
  EXPECT_NE(s.find("model=small"), std::string::npos);

  const std::string row = csv_row(r);
  const std::string header = csv_header();
  EXPECT_EQ(std::count(row.begin(), row.end(), ','),
            std::count(header.begin(), header.end(), ','));

  std::ostringstream os2;
  print_layer_map(os2, r);
  EXPECT_NE(os2.str().find("depthwise"), std::string::npos);
}

TEST(Report, FrequencyStatsAreWellFormed) {
  const PipelineResult r = Pipeline(make_config(0.3)).run(small_model());
  const FrequencyStats st = compute_frequency_stats(r);
  for (double pct :
       {st.pct_pointwise_at_max, st.pct_depthwise_at_max,
        st.pct_pointwise_low_freq, st.pct_depthwise_low_freq,
        st.pct_layers_at_max, st.pct_dae_layers_g16}) {
    EXPECT_GE(pct, 0.0);
    EXPECT_LE(pct, 100.0);
  }
}

}  // namespace
}  // namespace daedvfs::core
