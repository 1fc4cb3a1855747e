// Deployment scenario engine (scenario/): deterministic mission simulation,
// burst/QoS-event handling, battery depletion, and the governor-vs-static
// comparison the subsystem exists for.
#include <gtest/gtest.h>

#include "governor/governor.hpp"
#include "scenario_test_support.hpp"
#include "graph/builder.hpp"
#include "scenario/engine.hpp"

namespace daedvfs::scenario {
namespace {

graph::Model small_model() {
  graph::ModelBuilder b("scn-small", 64, 64, 3, 42);
  int x = b.conv2d(graph::ModelBuilder::input(), 8, 3, 2, true);
  x = b.depthwise(x, 3, 1, true);
  x = b.pointwise(x, 16, false);
  x = b.depthwise(x, 3, 2, true);
  x = b.pointwise(x, 24, false);
  x = b.depthwise(x, 3, 1, true);
  x = b.pointwise(x, 32, false);
  x = b.global_avg_pool(x);
  b.fully_connected(x, 2);
  return b.take();
}

governor::GovernorConfig governor_config() {
  governor::GovernorConfig cfg;
  cfg.qos_slacks = {0.10, 0.15, 0.20, 0.30, 0.50, 0.75};
  cfg.pipeline.space = dse::make_paper_design_space(
      power::PowerModel{cfg.pipeline.explore.sim.power});
  cfg.pipeline.mckp_ticks = 5000;
  cfg.pipeline.reserved_relocks = 4;
  return cfg;
}

/// One day, base 10 s period at a relaxed +60% slack; two "tracking" phases
/// tighten the deadline to +16% (within reach of the ladder's +15% rung but
/// out of reach of its relaxed rungs) and raise the frame rate.
MissionSpec sentry_mission() {
  MissionSpec spec;
  spec.name = "sentry-day";
  spec.horizon_s = 86400.0;
  spec.duty.period_s = 10.0;
  spec.duty.sleep_mw = 0.8;
  spec.base_qos_slack = 0.60;
  spec.qos_events = {{20000.0, 0.16},
                     {24000.0, 0.60},
                     {60000.0, 0.16},
                     {66000.0, 0.60}};
  spec.bursts = {{20000.0, 4000.0, 1.0}, {60000.0, 6000.0, 1.0}};
  return spec;
}

class ScenarioTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    model_ = new graph::Model(small_model());
    gov_ = new governor::ScheduleGovernor(*model_, governor_config());
  }
  static void TearDownTestSuite() {
    delete gov_;
    delete model_;
    gov_ = nullptr;
    model_ = nullptr;
  }

  static graph::Model* model_;
  static governor::ScheduleGovernor* gov_;
};

graph::Model* ScenarioTest::model_ = nullptr;
governor::ScheduleGovernor* ScenarioTest::gov_ = nullptr;

TEST_F(ScenarioTest, DeterministicIncludingJitter) {
  MissionSpec spec = sentry_mission();
  spec.period_jitter = 0.2;
  spec.seed = 99;
  const sim::SimParams& sim = gov_->config().pipeline.explore.sim;
  const MissionReport a = simulate_mission(spec, *gov_, gov_->t_base_us(), sim);
  const MissionReport b = simulate_mission(spec, *gov_, gov_->t_base_us(), sim);
  EXPECT_EQ(a.frames, b.frames);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  EXPECT_EQ(a.rung_switches, b.rung_switches);
  EXPECT_DOUBLE_EQ(a.total_uj(), b.total_uj());
  EXPECT_DOUBLE_EQ(a.battery_remaining_mwh, b.battery_remaining_mwh);

  spec.seed = 100;  // a different seed must actually change the timeline
  const MissionReport c = simulate_mission(spec, *gov_, gov_->t_base_us(), sim);
  EXPECT_NE(a.total_uj(), c.total_uj());
}

TEST_F(ScenarioTest, FrameAndEnergyAccountingIsConsistent) {
  const MissionSpec spec = sentry_mission();
  const sim::SimParams& sim = gov_->config().pipeline.explore.sim;
  const MissionReport r = simulate_mission(spec, *gov_, gov_->t_base_us(), sim);

  EXPECT_FALSE(r.truncated);
  EXPECT_GE(r.simulated_s, spec.horizon_s);
  // Base cadence alone gives horizon/period frames; bursts add more.
  EXPECT_GT(r.frames, static_cast<std::uint64_t>(spec.horizon_s /
                                                 spec.duty.period_s));
  std::uint64_t per_rung = 0;
  for (std::uint64_t n : r.frames_per_rung) per_rung += n;
  EXPECT_EQ(per_rung, r.frames);
  EXPECT_GT(r.inference_uj, 0.0);
  EXPECT_GT(r.sleep_uj, 0.0);
  EXPECT_NEAR(r.total_uj(),
              r.inference_uj + r.transition_uj + r.sleep_uj, 1e-9);
  EXPECT_GT(r.lifetime_days(spec.battery), 0.0);
}

TEST_F(ScenarioTest, GovernorAdaptsAndMeetsEveryDeadline) {
  const MissionSpec spec = sentry_mission();
  const sim::SimParams& sim = gov_->config().pipeline.explore.sim;
  const MissionReport r = simulate_mission(spec, *gov_, gov_->t_base_us(), sim);

  EXPECT_EQ(r.deadline_misses, 0u)
      << "ladder reaches +5% slack; the mission never tightens below +15%";
  EXPECT_GT(r.rung_switches, 0u) << "events must drive rung changes";
  int rungs_used = 0;
  for (std::uint64_t n : r.frames_per_rung) rungs_used += n > 0 ? 1 : 0;
  EXPECT_GE(rungs_used, 2) << "governor never adapted";
}

TEST_F(ScenarioTest, GovernorBeatsEveryZeroMissStaticSchedule) {
  const MissionSpec spec = sentry_mission();
  const sim::SimParams& sim = gov_->config().pipeline.explore.sim;
  const MissionReport gov_report =
      simulate_mission(spec, *gov_, gov_->t_base_us(), sim);
  ASSERT_EQ(gov_report.deadline_misses, 0u);

  bool some_static_missed = false;
  double best_static_uj = 0.0;
  bool have_static = false;
  for (const RungInfo& rung : gov_->rungs()) {
    const StaticPolicy fixed(rung);
    const MissionReport r =
        simulate_mission(spec, fixed, gov_->t_base_us(), sim);
    if (r.deadline_misses > 0) {
      some_static_missed = true;
      continue;
    }
    if (!have_static || r.total_uj() < best_static_uj) {
      best_static_uj = r.total_uj();
      have_static = true;
    }
  }
  ASSERT_TRUE(have_static) << "no static schedule met every deadline";
  EXPECT_TRUE(some_static_missed)
      << "mission too easy: every static rung met every deadline";
  EXPECT_LT(gov_report.total_uj(), best_static_uj)
      << "governor must beat the best zero-miss static schedule";
}

TEST_F(ScenarioTest, TinyBatteryDepletesBeforeHorizon) {
  MissionSpec spec = sentry_mission();
  spec.battery.capacity_mwh = 0.05;
  const sim::SimParams& sim = gov_->config().pipeline.explore.sim;
  const MissionReport r = simulate_mission(spec, *gov_, gov_->t_base_us(), sim);
  EXPECT_TRUE(r.battery_depleted);
  EXPECT_LT(r.simulated_s, spec.horizon_s);
  EXPECT_DOUBLE_EQ(r.battery_remaining_mwh, 0.0);
  EXPECT_NEAR(r.lifetime_days(spec.battery), r.simulated_s / 86400.0, 1e-12);
}

TEST_F(ScenarioTest, LowBatteryThresholdStretchesLifetime) {
  // A battery sized to die mid-mission under a permanently tight deadline;
  // the low-battery override relaxes the bound so the governor can downshift.
  MissionSpec tight = sentry_mission();
  tight.base_qos_slack = 0.05;
  tight.qos_events.clear();
  tight.bursts.clear();
  tight.duty.period_s = 1.0;
  tight.battery.capacity_mwh = 2.0;
  tight.horizon_s = 7.0 * 86400.0;

  MissionSpec relaxed = tight;
  relaxed.low_battery_soc = 0.8;
  relaxed.low_battery_qos_slack = 0.50;

  const sim::SimParams& sim = gov_->config().pipeline.explore.sim;
  const MissionReport r_tight =
      simulate_mission(tight, *gov_, gov_->t_base_us(), sim);
  const MissionReport r_relaxed =
      simulate_mission(relaxed, *gov_, gov_->t_base_us(), sim);
  ASSERT_TRUE(r_tight.battery_depleted);
  ASSERT_TRUE(r_relaxed.battery_depleted);
  EXPECT_GT(r_relaxed.simulated_s, r_tight.simulated_s)
      << "relaxing the deadline at low charge must extend the mission";
}

TEST_F(ScenarioTest, StaticPolicyUsesItsOnlyRung) {
  const MissionSpec spec = sentry_mission();
  const sim::SimParams& sim = gov_->config().pipeline.explore.sim;
  const StaticPolicy fixed(gov_->rungs().front());
  const MissionReport r = simulate_mission(spec, fixed, gov_->t_base_us(), sim);
  ASSERT_EQ(r.frames_per_rung.size(), 1u);
  EXPECT_EQ(r.frames_per_rung[0], r.frames);
  EXPECT_EQ(r.rung_switches, 0u);
}

TEST_F(ScenarioTest, ThermalDeratingCapsTheRealLadder) {
  // A hot phase caps the clock below the fast rungs' 216 MHz: the governor
  // must downshift (zero violations) while a pinned fast rung racks them up.
  MissionSpec spec = sentry_mission();
  spec.qos_events.clear();  // relaxed bound: the cap is the only pressure
  spec.derate.start_c = 45.0;
  spec.derate.mhz_per_c = 4.0;
  spec.temp_events = {{20000.0, 75.0},   // cap = 216 - 30*4 = 96?  see below
                      {40000.0, 25.0}};
  // Cap between the ladder's families: above 168, below 216.
  spec.temp_events[0].ambient_c = 45.0 + (216.0 - 190.0) / 4.0;  // cap 190

  const auto& rungs = gov_->rungs();
  double peak_max = 0.0, peak_min = 1e9;
  for (const RungInfo& r : rungs) {
    peak_max = std::max(peak_max, r.peak_mhz());
    peak_min = std::min(peak_min, r.peak_mhz());
  }
  ASSERT_GT(peak_max, 190.0) << "ladder has no rung above the cap";
  ASSERT_LT(peak_min, 190.0) << "ladder has no rung under the cap";

  const sim::SimParams& sim = gov_->config().pipeline.explore.sim;
  const MissionReport r = simulate_mission(spec, *gov_, gov_->t_base_us(), sim);
  EXPECT_EQ(r.thermal_violations, 0u) << "governor ran a capped rung";
  EXPECT_GT(r.derated_frames, 0u) << "the hot phase never engaged";

  int fastest = 0;
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    if (rungs[i].peak_mhz() > rungs[static_cast<std::size_t>(fastest)]
                                  .peak_mhz()) {
      fastest = static_cast<int>(i);
    }
  }
  const StaticPolicy pinned(rungs[static_cast<std::size_t>(fastest)]);
  const MissionReport rs = simulate_mission(spec, pinned, gov_->t_base_us(),
                                            sim);
  EXPECT_GT(rs.thermal_violations, 0u)
      << "thermal-blind static rung must be caught by the accounting";
}

TEST_F(ScenarioTest, HotAmbientScalesBatteryLeakage) {
  MissionSpec cool = sentry_mission();
  cool.qos_events.clear();
  cool.bursts.clear();
  cool.battery.self_discharge_mw = 2.0;  // make leakage visible
  MissionSpec hot = cool;
  hot.base_ambient_c = 55.0;  // 3 doublings over the 25 C reference

  const sim::SimParams& sim = gov_->config().pipeline.explore.sim;
  const MissionReport rc = simulate_mission(cool, *gov_, gov_->t_base_us(), sim);
  const MissionReport rh = simulate_mission(hot, *gov_, gov_->t_base_us(), sim);
  ASSERT_FALSE(rc.battery_depleted);
  EXPECT_LT(rh.battery_remaining_mwh, rc.battery_remaining_mwh)
      << "hot ambient must drain the battery faster via leakage";
  EXPECT_DOUBLE_EQ(rh.total_uj(), rc.total_uj())
      << "leakage is battery-internal: the external energy split is equal";
}

// ---- v2 edge cases on a synthetic ladder -------------------------------
//
// make_synthetic_ladder (scenario_test_support.hpp) mirrors the structure
// the PD governor ladder exhibits, including a mixed entry/exit rung.
// Driving the shared LadderPolicy decision rule directly keeps these tests
// DSE-free and lets them pin exact switching behavior.

constexpr double kTBase = kSyntheticTBase;

LadderPolicy synthetic_ladder(bool predictive) {
  return make_synthetic_ladder(predictive);
}

void check_accounting(const MissionSpec& spec, const MissionReport& r) {
  check_mission_invariants(spec, r);
}

TEST(ScenarioEdge, PredictionMissMidBurstFallsBackReactively) {
  // Steady state sits on the mixed rung (one pre-lock per frame). Mid-burst
  // the backend relaxes the bound: the pre-lock made under the tight
  // deadline predicts the mixed rung, but the wake choice is the slow rung
  // — a prediction miss that must degrade to the reactive transition
  // without ever violating the declared deadline.
  const LadderPolicy gov = synthetic_ladder(true);
  MissionSpec spec;
  spec.name = "miss-mid-burst";
  spec.horizon_s = 4000.0;
  spec.duty.period_s = 10.0;
  spec.base_qos_slack = mixed_rung_slack();
  spec.bursts = {{1000.0, 2000.0, 2.0}};
  spec.qos_events = {{2000.0, 0.60},   // relaxes mid-burst...
                     {2400.0, spec.base_qos_slack}};  // ...and re-tightens

  const sim::SimParams sim;
  const MissionReport r = simulate_mission(spec, gov, kTBase, sim);
  check_accounting(spec, r);
  EXPECT_EQ(r.deadline_misses, 0u)
      << "every phase has a rung fitting its declared deadline";
  EXPECT_GT(r.prelocks, 0u);
  EXPECT_GT(r.prelock_hits, 0u) << "steady-state predictions must land";
  EXPECT_GE(r.prelock_misses, 1u) << "the mid-burst relax must mispredict";
  EXPECT_GT(r.frames_per_rung[1], 0u) << "mixed rung never ran";
  EXPECT_GT(r.frames_per_rung[2], 0u) << "relaxed phase never downshifted";
}

TEST(ScenarioEdge, PrelockMakesTheMixedRungReachable) {
  // Same mission, reactive vs predictive: without the pre-lock the mixed
  // rung's wrap-around relock overruns the tight deadline, so the reactive
  // policy must run the expensive fast rung — strictly more energy.
  MissionSpec spec;
  spec.name = "prelock-win";
  spec.horizon_s = 4000.0;
  spec.duty.period_s = 10.0;
  spec.base_qos_slack = mixed_rung_slack();

  const sim::SimParams sim;
  const MissionReport pred =
      simulate_mission(spec, synthetic_ladder(true), kTBase, sim);
  const MissionReport reac =
      simulate_mission(spec, synthetic_ladder(false), kTBase, sim);
  check_accounting(spec, pred);
  check_accounting(spec, reac);
  EXPECT_EQ(pred.deadline_misses, 0u);
  EXPECT_EQ(reac.deadline_misses, 0u);
  EXPECT_GT(pred.frames_per_rung[1], pred.frames / 2)
      << "predictive must hold 'mixed' in steady state";
  EXPECT_LE(reac.frames_per_rung[1], 1u)
      << "reactive cannot hold 'mixed' past the (transition-free) cold "
         "start: the wrap-around relock overruns the deadline";
  EXPECT_LT(pred.total_uj(), reac.total_uj())
      << "moving the relock off the wake path must save energy";
  EXPECT_EQ(reac.prelocks, 0u);
}

TEST(ScenarioEdge, LowBatteryCrossingDuringPreLockedSleep) {
  // The battery crosses the low-SoC threshold *during* a pre-locked sleep:
  // the wake deadline relaxes, the choice drops to the slow rung instead of
  // the predicted mixed rung — a miss that must neither violate the (now
  // relaxed) declared deadline nor corrupt the accounting.
  const LadderPolicy gov = synthetic_ladder(true);
  MissionSpec spec;
  spec.name = "low-batt-prelock";
  spec.horizon_s = 40000.0;
  spec.duty.period_s = 10.0;
  spec.base_qos_slack = mixed_rung_slack();
  spec.low_battery_qos_slack = 0.60;
  spec.low_battery_soc = 0.5;
  // Sized so the threshold crossing happens mid-mission (~1.5 mW average
  // draw -> 50% of 18 mWh after ~6 of the mission's ~11 hours).
  spec.battery.capacity_mwh = 18.0;
  spec.battery.self_discharge_mw = 0.0;

  const sim::SimParams sim;
  const MissionReport r = simulate_mission(spec, gov, kTBase, sim);
  check_accounting(spec, r);
  EXPECT_EQ(r.deadline_misses, 0u);
  EXPECT_GE(r.prelock_misses, 1u)
      << "the threshold crossing must invalidate one prediction";
  EXPECT_GT(r.frames_per_rung[1], 0u) << "tight phase on the mixed rung";
  EXPECT_GT(r.frames_per_rung[2], 0u) << "low-battery phase on the slow rung";
  // Sanity: the threshold did engage before the horizon.
  EXPECT_LT(r.battery_remaining_mwh, 0.5 * spec.battery.capacity_mwh);
}

TEST(ScenarioEdge, WindowShorterThanOneInference) {
  // Connectivity windows shorter than one inference: service is gated on
  // the window being up at serve *start*, so each aligned window serves
  // exactly one frame and the backlog keeps building — bounded by the
  // queue, with drops accounted and the declared QoS never violated by
  // backlog pressure.
  const LadderPolicy gov = synthetic_ladder(true);
  MissionSpec spec;
  spec.name = "short-window";
  spec.horizon_s = 2000.0;
  spec.duty.period_s = 10.0;
  spec.base_qos_slack = 0.60;
  spec.uplink_queue_frames = 8;
  // A 20 ms window at every 5th capture (the fastest rung runs ~41 ms).
  for (double t = 0.0; t < 2000.0; t += 50.0) {
    spec.connectivity.push_back({t, 0.020});
  }

  const sim::SimParams sim;
  const MissionReport r = simulate_mission(spec, gov, kTBase, sim);
  check_accounting(spec, r);
  EXPECT_EQ(r.frames_captured, 200u);
  EXPECT_EQ(r.frames, 40u) << "one serve per aligned window";
  EXPECT_GT(r.frames_dropped, 0u) << "the 8-deep queue must overflow";
  EXPECT_EQ(r.max_backlog, 8u);
  EXPECT_GT(r.backlog_latency_s, 0.0);
  EXPECT_EQ(r.deadline_misses, 0u)
      << "catch-up pressure must never force a declared-QoS miss";
}

TEST(ScenarioEdge, BacklogDrainsWhenTheLinkReturns) {
  // A nightly blackout queues frames; the morning window must drain them
  // back-to-back (latency debt paid down, nothing left pending).
  const LadderPolicy gov = synthetic_ladder(true);
  MissionSpec spec;
  spec.name = "blackout-drain";
  spec.horizon_s = 3000.0;
  spec.duty.period_s = 10.0;
  spec.base_qos_slack = 0.60;
  spec.uplink_queue_frames = 200;
  spec.connectivity = {{0.0, 1000.0}, {2000.0, 1000.0}};

  const sim::SimParams sim;
  const MissionReport r = simulate_mission(spec, gov, kTBase, sim);
  check_accounting(spec, r);
  EXPECT_EQ(r.frames_dropped, 0u) << "queue sized for the whole blackout";
  EXPECT_EQ(r.frames_pending, 0u) << "morning window must clear the debt";
  EXPECT_EQ(r.frames, r.frames_captured);
  EXPECT_EQ(r.max_backlog, 101u)
      << "100 blackout slots plus the live capture at the window opening";
  EXPECT_GT(r.backlog_latency_s, 0.0);
  EXPECT_EQ(r.deadline_misses, 0u);
}

// ---- Energy model v2: solar harvesting + radio uplink ------------------

TEST(ScenarioEnergyV2, HarvestExtendsTheMission) {
  // A battery sized to die mid-mission without the panel; daytime intake
  // must stretch the mission (and be visible in the report).
  const LadderPolicy gov = synthetic_ladder(true);
  MissionSpec dark;
  dark.name = "no-sun";
  dark.horizon_s = 6.0 * 86400.0;
  dark.duty.period_s = 10.0;
  dark.base_qos_slack = 0.60;
  dark.battery.capacity_mwh = 40.0;
  dark.battery.self_discharge_mw = 0.0;

  MissionSpec sunny = dark;
  sunny.name = "sun";
  for (int day = 0; day < 6; ++day) {
    sunny.harvest_events.push_back({day * 86400.0 + 28800.0, 2.0});
    sunny.harvest_events.push_back({day * 86400.0 + 64800.0, 0.0});
  }

  const sim::SimParams sim;
  const MissionReport rd = simulate_mission(dark, gov, kTBase, sim);
  const MissionReport rs = simulate_mission(sunny, gov, kTBase, sim);
  check_accounting(dark, rd);
  check_accounting(sunny, rs);
  ASSERT_TRUE(rd.battery_depleted);
  EXPECT_EQ(rd.harvested_mwh, 0.0);
  EXPECT_GT(rs.harvested_mwh, 0.0);
  EXPECT_GT(rs.simulated_s, rd.simulated_s)
      << "daytime charging must stretch the mission";
}

TEST(ScenarioEnergyV2, ChargeClampsAtCapacityAndRespectsTheRateCap) {
  // A panel far larger than the load: the battery must pin at capacity
  // (never above), and a charge-rate cap must cut the stored total.
  const LadderPolicy gov = synthetic_ladder(false);
  MissionSpec spec;
  spec.name = "overpaneled";
  spec.horizon_s = 86400.0;
  spec.duty.period_s = 30.0;
  spec.base_qos_slack = 0.60;
  spec.battery.capacity_mwh = 20.0;
  spec.base_harvest_mw = 50.0;

  const sim::SimParams sim;
  const MissionReport r = simulate_mission(spec, gov, kTBase, sim);
  check_accounting(spec, r);
  EXPECT_FALSE(r.battery_depleted);
  EXPECT_LE(r.battery_remaining_mwh, spec.battery.capacity_mwh);
  EXPECT_NEAR(r.battery_remaining_mwh, spec.battery.capacity_mwh, 1e-6)
      << "a 50 mW panel against a ~mW load must hold the battery full";
  EXPECT_GT(r.harvested_mwh, 0.0);

  MissionSpec capped = spec;
  capped.battery.charge_rate_cap_mw = 0.5;
  const MissionReport rc = simulate_mission(capped, gov, kTBase, sim);
  check_accounting(capped, rc);
  EXPECT_LT(rc.harvested_mwh, r.harvested_mwh)
      << "the rate cap must cut what the cell accepts";
}

TEST(ScenarioEnergyV2, DepletionIsTerminalDespiteLaterHarvest) {
  // The battery browns out before the sun comes up: the mission must end at
  // depletion — harvest never revives a dead node.
  const LadderPolicy gov = synthetic_ladder(false);
  MissionSpec spec;
  spec.name = "dead-before-dawn";
  spec.horizon_s = 86400.0;
  spec.duty.period_s = 5.0;
  spec.base_qos_slack = 0.60;
  spec.battery.capacity_mwh = 0.5;  // dies within the first hours
  spec.harvest_events = {{50000.0, 100.0}};

  const sim::SimParams sim;
  const MissionReport r = simulate_mission(spec, gov, kTBase, sim);
  check_accounting(spec, r);
  ASSERT_TRUE(r.battery_depleted);
  EXPECT_LT(r.simulated_s, 50000.0) << "death precedes the harvest event";
  EXPECT_EQ(r.harvested_mwh, 0.0);
  EXPECT_DOUBLE_EQ(r.battery_remaining_mwh, 0.0);
}

TEST(ScenarioEnergyV2, PanelThermalDeratingScalesIntake) {
  // Same panel, hot vs cool ambient: the temperature coefficient must cut
  // the stored charge (leakage scaling disabled to isolate the panel term).
  // The intake sits below the ~1 mW load so the battery declines overall —
  // a full battery would clip both runs to "stored == drained" and hide
  // the scaling.
  const LadderPolicy gov = synthetic_ladder(false);
  MissionSpec cool;
  cool.name = "cool-panel";
  cool.horizon_s = 86400.0;
  cool.duty.period_s = 30.0;
  cool.base_qos_slack = 0.60;
  cool.battery.capacity_mwh = 2000.0;
  cool.battery.leakage_doubling_c = 0.0;
  cool.base_harvest_mw = 0.3;
  cool.harvest_temp_coeff = 0.004;

  MissionSpec hot = cool;
  hot.base_ambient_c = 65.0;  // 40 C over reference: -16% panel output

  const sim::SimParams sim;
  const MissionReport rc = simulate_mission(cool, gov, kTBase, sim);
  const MissionReport rh = simulate_mission(hot, gov, kTBase, sim);
  check_accounting(cool, rc);
  check_accounting(hot, rh);
  ASSERT_GT(rc.harvested_mwh, 0.0);
  EXPECT_NEAR(rh.harvested_mwh, rc.harvested_mwh * (1.0 - 0.004 * 40.0),
              rc.harvested_mwh * 1e-9);
}

TEST(ScenarioEnergyV2, RadioPricesEveryUplinkedFrame) {
  // Always-connected mission, radio on vs off: every served frame pays
  // exactly one tx burst, and nothing else about the mission changes.
  const LadderPolicy gov = synthetic_ladder(false);
  MissionSpec off;
  off.name = "radio-off";
  off.horizon_s = 40000.0;
  off.duty.period_s = 10.0;
  off.base_qos_slack = 0.60;

  MissionSpec on = off;
  on.radio = {250.0, 512.0, 80.0, 1500.0};
  const power::RadioModel radio(on.radio);

  const sim::SimParams sim;
  const MissionReport r_off = simulate_mission(off, gov, kTBase, sim);
  const MissionReport r_on = simulate_mission(on, gov, kTBase, sim);
  check_accounting(off, r_off);
  check_accounting(on, r_on);
  EXPECT_EQ(r_off.radio_uj, 0.0);
  ASSERT_EQ(r_on.frames, r_off.frames);
  EXPECT_EQ(r_on.deadline_misses, r_off.deadline_misses)
      << "the QoS deadline bounds the compute path, not the uplink burst";
  EXPECT_NEAR(r_on.radio_uj,
              static_cast<double>(r_on.frames) * radio.tx_uj(), 1e-6);
  // The burst occupies the slot, displacing its own duration of sleep draw
  // — the total grows by the radio energy net of that displaced sleep.
  const double displaced_sleep_uj = static_cast<double>(r_on.frames) *
                                    radio.tx_us() * 1e-6 *
                                    on.duty.sleep_mw * 1e3;
  EXPECT_NEAR(r_off.sleep_uj - r_on.sleep_uj, displaced_sleep_uj, 0.5);
  EXPECT_NEAR(r_on.total_uj() - r_off.total_uj(),
              r_on.radio_uj - displaced_sleep_uj, 0.5);
}

TEST(ScenarioEnergyV2, RadioTimeThrottlesBacklogDrain) {
  // The blackout-drain mission again, now with a radio whose burst eats
  // into each slot: draining the queue takes longer, so the latency debt
  // grows — while backlog pressure still never causes a declared-QoS miss.
  const LadderPolicy gov = synthetic_ladder(true);
  MissionSpec spec;
  spec.name = "blackout-radio";
  spec.horizon_s = 3000.0;
  spec.duty.period_s = 10.0;
  spec.base_qos_slack = 0.60;
  spec.uplink_queue_frames = 200;
  spec.connectivity = {{0.0, 1000.0}, {2000.0, 1000.0}};

  MissionSpec heavy = spec;
  heavy.radio = {50.0, 4096.0, 80.0, 1500.0};  // ~656 ms per burst

  const sim::SimParams sim;
  const MissionReport r = simulate_mission(spec, gov, kTBase, sim);
  const MissionReport rr = simulate_mission(heavy, gov, kTBase, sim);
  check_accounting(spec, r);
  check_accounting(heavy, rr);
  EXPECT_EQ(rr.frames_dropped, 0u);
  EXPECT_GT(rr.radio_uj, 0.0);
  EXPECT_GT(rr.backlog_latency_s, r.backlog_latency_s)
      << "tx time must slow the back-to-back drain";
  EXPECT_EQ(rr.deadline_misses, 0u);
}

TEST(ScenarioEnergyV2, CatchUpBudgetAccountsForRadioTime) {
  // Direct LadderPolicy probe: with a backlog and a closing window the
  // budget is window/(backlog+1) minus the tx burst — a burst big enough
  // must push the choice from the slow rung to the (faster) mixed rung.
  const LadderPolicy gov = synthetic_ladder(false);
  FrameContext ctx;
  ctx.deadline_us = 100000.0;
  ctx.period_s = 10.0;
  ctx.backlog = 9;
  ctx.window_remaining_s = 0.6;  // budget share: 60 ms per frame
  const int current = 2;         // waking out of the slow rung

  ctx.radio_us = 0.0;
  EXPECT_EQ(gov.choose(ctx, current), 2)
      << "without radio time the slow rung fits the 60 ms share";
  ctx.radio_us = 10000.0;  // 10 ms burst: share drops to 50 ms
  EXPECT_EQ(gov.choose(ctx, current), 1)
      << "the burst must push the choice to the faster mixed rung";
}

/// Gated link with periodic windows plus radio batching: the backlog
/// queued in each dark gap drains at the next window opening, well inside
/// the slot budget.
MissionSpec edge_spec() {
  MissionSpec spec;
  spec.name = "batching-edge";
  spec.horizon_s = 40000.0;
  spec.duty.period_s = 10.0;
  spec.duty.sleep_mw = 0.5;
  spec.battery = {300.0, 0.01, 0.0, 0.0};
  spec.base_qos_slack = 0.4;
  spec.connectivity = {{0.0, 8000.0}, {16000.0, 8000.0}, {32000.0, 8000.0}};
  spec.uplink_queue_frames = 128;
  spec.radio = {250.0, 256.0, 80.0, 1500.0};
  spec.radio_batch_frames = 8;
  return spec;
}

TEST(ScenarioEnergyV2, BatchedUplinksDifferential) {
  const sim::SimParams sim;
  const LadderPolicy gov = make_synthetic_ladder(true, true);
  const int seeds = std::max(25, fuzz_seed_count() / 4);
  int identical_flows = 0;
  for (int seed = 0; seed < seeds; ++seed) {
    MissionSpec spec = random_mission_spec(static_cast<std::uint64_t>(seed));
    if (!power::RadioModel(spec.radio).enabled()) {
      spec.radio = {250.0, 256.0, 80.0, 1500.0};
    }
    MissionSpec per_frame = spec;
    per_frame.radio_batch_frames = 1;
    MissionSpec batched = spec;
    batched.radio_batch_frames = 8;
    const MissionReport p = simulate_mission(per_frame, gov, kTBase, sim);
    const MissionReport b = simulate_mission(batched, gov, kTBase, sim);
    check_mission_invariants(per_frame, p);
    check_mission_invariants(batched, b);
    const bool same_flow =
        p.frames_offered == b.frames_offered &&
        p.frames_captured == b.frames_captured && p.frames == b.frames &&
        p.frames_shed == b.frames_shed &&
        p.frames_dropped == b.frames_dropped &&
        p.frames_pending == b.frames_pending;
    if (same_flow) {
      // The common case: batching changes WHAT a frame's uplink costs,
      // not WHICH frames flow through the mission. Amortized ramps can
      // only remove radio energy, and a shorter drain can only relax the
      // catch-up budget — the declared-QoS ledger never gets worse.
      ++identical_flows;
      EXPECT_LE(b.radio_uj, p.radio_uj * (1.0 + 1e-9) + 1e-6)
          << "seed " << seed << ": batching made the radio MORE expensive";
      EXPECT_LE(b.deadline_misses, p.deadline_misses)
          << "seed " << seed << ": batching increased declared-QoS misses";
    } else {
      // The slot-fit boundary moved: shorter batched frames squeezed
      // extra serves into the same windows, and from there the timelines
      // legitimately diverge. Delivery may only have improved, and the
      // per-frame radio price may only have dropped.
      EXPECT_GE(b.frames, p.frames)
          << "seed " << seed
          << ": a diverged batched drain must deliver at least as much";
      ASSERT_GT(p.frames, 0u) << "seed " << seed;
      EXPECT_LE(b.radio_uj / static_cast<double>(b.frames),
                p.radio_uj / static_cast<double>(p.frames) * (1.0 + 1e-9) +
                    1e-6)
          << "seed " << seed << ": per-frame radio price went up";
    }
    if (::testing::Test::HasFailure()) FAIL() << "differential at seed "
                                              << seed;
  }
  // The strict branch must dominate the corpus, or the differential is
  // testing nothing.
  EXPECT_GT(identical_flows, seeds / 2)
      << "slot-fit divergence should be the exception, not the rule";

  // And one hand-built mission where the flows MUST coincide — a backlog
  // that drains well inside each window, so the slot-fit boundary never
  // moves — pinning the full strict differential including a real saving.
  MissionSpec pinned = edge_spec();
  pinned.faults = {};
  pinned.period_jitter = 0.0;
  MissionSpec pinned_per = pinned;
  pinned_per.radio_batch_frames = 1;
  const MissionReport pp = simulate_mission(pinned_per, gov, kTBase, sim);
  const MissionReport pb = simulate_mission(pinned, gov, kTBase, sim);
  EXPECT_EQ(pp.frames_offered, pb.frames_offered);
  EXPECT_EQ(pp.frames_captured, pb.frames_captured);
  EXPECT_EQ(pp.frames, pb.frames);
  EXPECT_EQ(pp.frames_shed, pb.frames_shed);
  EXPECT_EQ(pp.frames_dropped, pb.frames_dropped);
  EXPECT_EQ(pp.frames_pending, pb.frames_pending);
  EXPECT_EQ(pp.deadline_misses, pb.deadline_misses);
  EXPECT_LT(pb.radio_uj, pp.radio_uj)
      << "the pinned drain amortizes ramps: the saving must be real";
  EXPECT_LT(pb.total_uj(), pp.total_uj());
}

}  // namespace
}  // namespace daedvfs::scenario
