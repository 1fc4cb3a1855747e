// Scenario-fuzz harness: the determinism contract of the mission state
// machine (docs/scenarios.md). Seeded random MissionSpecs — bursts x QoS
// events x temperature derating x connectivity windows x low-battery
// thresholds x period jitter x the fault model (resets/checkpoints, lossy
// radio retry/backoff, graceful degradation) — run against the shared
// LadderPolicy decision rule (reactive and predictive), asserting for every
// seed that
//
//   (a) the same seed reproduces a byte-identical MissionReport JSON across
//       two runs (and, in GoldenMissionReport / FullAndTimingLaddersAgree
//       below, across schema revisions and kernel execution modes), and
//   (b) the report's physical invariants hold: the battery only ever
//       discharges and the external energy split never exceeds the charge
//       drawn, frame accounting closes (captured = served + shed + dropped
//       + pending <= offered, per-rung counts sum to served), every QoS
//       miss is accounted (misses <= served), the backlog respects its
//       bound, pre-lock bookkeeping balances, downtime never exceeds the
//       mission span, availability stays a fraction, and undeclared faults
//       leave every fault counter at zero.
//
// Seed count: 200 by default; the ASan+UBSan CI job reduces it via the
// DAEDVFS_FUZZ_SEEDS environment variable.
//
// Golden file: tests/data/mission_report_golden.json pins the MissionReport
// JSON schema + engine arithmetic for one canonical mission using every v2
// event kind. Schema changes are an explicit diff — regenerate with
//   DAEDVFS_REGEN_GOLDEN=1 ./build/daedvfs_tests --gtest_filter='*Golden*'
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "graph/builder.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"
#include "runtime/engine.hpp"
#include "scenario/engine.hpp"
#include "scenario_test_support.hpp"
#include "sim/mcu.hpp"

namespace daedvfs::scenario {
namespace {

constexpr double kTBase = kSyntheticTBase;

/// The shared synthetic ladder plus its deep-eco rung: both PLL families, a
/// mixed entry/exit rung (wrap-around relocks — the predictive pre-lock's
/// home turf) and a 96 MHz clock for thermal-derating diversity.
LadderPolicy fuzz_ladder(bool predictive) {
  return make_synthetic_ladder(predictive, /*with_eco=*/true);
}

/// The shared seeded builder (tests/scenario_test_support.hpp) with the
/// fault dimensions switched on — each fault family is itself coin-gated
/// per seed, so the corpus spans fault-free through fully faulted specs.
MissionSpec random_spec(std::uint64_t seed) {
  SpecFeatures features;
  features.faults = true;
  return random_mission_spec(seed, features);
}

std::string report_json(const MissionReport& r) {
  std::ostringstream os;
  write_json(os, r, 0);
  return os.str();
}

std::string trace_json(const obs::TraceRecorder& tr) {
  std::ostringstream os;
  tr.write_chrome_json(os);
  return os.str();
}

std::string metrics_json(const obs::MetricsRegistry& mx) {
  std::ostringstream os;
  mx.write_json(os);
  return os.str();
}

TEST(ScenarioFuzz, SameSeedSameBytesAndInvariantsHold) {
  const sim::SimParams sim;
  const LadderPolicy predictive = fuzz_ladder(true);
  const LadderPolicy reactive = fuzz_ladder(false);
  const int seeds = fuzz_seed_count();
  for (int seed = 0; seed < seeds; ++seed) {
    const MissionSpec spec = random_spec(static_cast<std::uint64_t>(seed));
    const LadderPolicy& policy = seed % 2 == 0 ? predictive : reactive;
    const MissionReport a = simulate_mission(spec, policy, kTBase, sim);
    const MissionReport b = simulate_mission(spec, policy, kTBase, sim);
    ASSERT_EQ(report_json(a), report_json(b))
        << "seed " << seed << " is not run-to-run deterministic";
    check_mission_invariants(spec, a);
    if (::testing::Test::HasFailure()) FAIL() << "invariants at seed " << seed;
  }
}

// Radio duty-cycling on top of the fault corpus: random uplink batch sizes
// on the predictive ladder must keep every report deterministic and every
// invariant (the radio-energy brackets included) intact.
TEST(ScenarioFuzz, BatchedUplinkInvariantsHold) {
  const sim::SimParams sim;
  const LadderPolicy gov = fuzz_ladder(true);
  SpecFeatures features;
  features.faults = true;
  features.batching = true;
  const int seeds = fuzz_seed_count();
  for (int seed = 0; seed < seeds; ++seed) {
    const MissionSpec spec =
        random_mission_spec(static_cast<std::uint64_t>(seed), features);
    const MissionReport a = simulate_mission(spec, gov, kTBase, sim);
    const MissionReport b = simulate_mission(spec, gov, kTBase, sim);
    ASSERT_EQ(report_json(a), report_json(b))
        << "seed " << seed << ": batched uplinks broke determinism";
    check_mission_invariants(spec, a);
    if (::testing::Test::HasFailure()) FAIL() << "invariants at seed " << seed;
  }
}

// Charging invariant, sampled along the timeline: harvest confined to one
// known midday interval; the battery must decrease monotonically at every
// horizon outside that interval and never exceed capacity anywhere.
// Horizon truncation is exact — slot arithmetic has no horizon dependence
// (events are absolute times, jitter off), so each longer run extends the
// shorter one and sampling via horizons is sampling one timeline.
TEST(ScenarioFuzz, ChargingMonotoneBetweenHarvestIntervals) {
  const sim::SimParams sim;
  const LadderPolicy gov = fuzz_ladder(true);
  for (int seed = 0; seed < 12; ++seed) {
    SpecRng rng(static_cast<std::uint64_t>(seed) * 77 + 3);
    MissionSpec spec;
    spec.name = "charge-monotone-" + std::to_string(seed);
    spec.duty.period_s = 10.0;
    spec.base_qos_slack = rng.range(0.1, 0.8);
    spec.battery.capacity_mwh = rng.range(5.0, 60.0);
    spec.battery.self_discharge_mw = rng.range(0.0, 0.05);
    if (rng.coin()) spec.battery.charge_rate_cap_mw = rng.range(0.5, 4.0);
    spec.harvest_events = {{20000.0, rng.range(1.0, 20.0)}, {40000.0, 0.0}};

    // Discharge-only before the sun comes up...
    double prev = spec.battery.capacity_mwh;
    for (double h : {5000.0, 10000.0, 15000.0, 20000.0}) {
      spec.horizon_s = h;
      const MissionReport r = simulate_mission(spec, gov, kTBase, sim);
      EXPECT_LE(r.battery_remaining_mwh, prev + 1e-12)
          << "seed " << seed << ": charged before the first harvest event";
      EXPECT_LE(r.battery_remaining_mwh, spec.battery.capacity_mwh);
      prev = r.battery_remaining_mwh;
    }
    // ...capacity-bounded while it shines...
    spec.horizon_s = 40000.0;
    const MissionReport mid = simulate_mission(spec, gov, kTBase, sim);
    EXPECT_LE(mid.battery_remaining_mwh, spec.battery.capacity_mwh)
        << "seed " << seed << ": charging overfilled the battery";
    // ...and discharge-only again after sunset.
    prev = mid.battery_remaining_mwh;
    for (double h : {50000.0, 65000.0, 86400.0}) {
      spec.horizon_s = h;
      const MissionReport r = simulate_mission(spec, gov, kTBase, sim);
      EXPECT_LE(r.battery_remaining_mwh, prev + 1e-12)
          << "seed " << seed << ": charged after the harvest interval";
      prev = r.battery_remaining_mwh;
    }
  }
}

// ---- Observability determinism contract (docs/observability.md) --------
//
// Attaching an obs::Sink must not change a single byte of the report
// (tracing is purely observational), and an enabled trace must itself be
// byte-identical run to run — the two halves of the contract the trace
// layer ships under. 25+ seeds across the full fault-model corpus, both
// policy variants.
TEST(ScenarioFuzz, TracedRunsAreObservationallyPure) {
  const sim::SimParams sim;
  const LadderPolicy predictive = fuzz_ladder(true);
  const LadderPolicy reactive = fuzz_ladder(false);
  const int seeds = std::max(25, fuzz_seed_count() / 8);
  for (int seed = 0; seed < seeds; ++seed) {
    const MissionSpec spec = random_spec(static_cast<std::uint64_t>(seed));
    const LadderPolicy& policy = seed % 2 == 0 ? predictive : reactive;

    const MissionReport plain = simulate_mission(spec, policy, kTBase, sim);
    obs::TraceRecorder tr1;
    obs::MetricsRegistry mx1;
    obs::Sink s1{&tr1, &mx1};
    const MissionReport traced =
        simulate_mission(spec, policy, kTBase, sim, &s1);
    ASSERT_EQ(report_json(plain), report_json(traced))
        << "seed " << seed << ": attaching a sink changed the report";

    obs::TraceRecorder tr2;
    obs::MetricsRegistry mx2;
    obs::Sink s2{&tr2, &mx2};
    (void)simulate_mission(spec, policy, kTBase, sim, &s2);
    ASSERT_EQ(trace_json(tr1), trace_json(tr2))
        << "seed " << seed << ": trace is not run-to-run byte-identical";
    ASSERT_EQ(metrics_json(mx1), metrics_json(mx2))
        << "seed " << seed << ": metrics dump is not byte-identical";

    // The registry must tell the same story as the report.
    EXPECT_EQ(mx1.counter("scenario.frames_served").value(),
              static_cast<std::uint64_t>(traced.frames));
    EXPECT_EQ(mx1.counter("scenario.deadline_misses").value(),
              static_cast<std::uint64_t>(traced.deadline_misses));
    EXPECT_EQ(mx1.counter("scenario.resets").value(),
              static_cast<std::uint64_t>(traced.resets));
    EXPECT_EQ(mx1.counter("scenario.retries").value(),
              static_cast<std::uint64_t>(traced.retries));
    if (::testing::Test::HasFailure()) {
      FAIL() << "metrics/report divergence at seed " << seed;
    }
  }
}

// Different seeds must actually explore different timelines (a generator
// collapse would quietly gut the harness).
TEST(ScenarioFuzz, SeedsDiversify) {
  const sim::SimParams sim;
  const LadderPolicy gov = fuzz_ladder(true);
  std::set<std::string> bodies;
  for (int seed = 0; seed < 16; ++seed) {
    bodies.insert(report_json(
        simulate_mission(random_spec(static_cast<std::uint64_t>(seed)),
                         gov, kTBase, sim)));
  }
  EXPECT_EQ(bodies.size(), 16u);
}

// ---- Full/Timing determinism -----------------------------------------
//
// Rung measurements come from full-model simulation; missions must not
// depend on whether the kernels performed the int8 math. Kernels report the
// same work events in both modes by design (docs/kernels.md § "The two
// invariants") — this pins it end-to-end at the mission level: the two-rung
// ladder measured in Full mode and in Timing mode must produce
// byte-identical MissionReports and traces.
TEST(ScenarioFuzz, FullAndTimingLaddersAgreeOnMissionReports) {
  graph::ModelBuilder b("fuzz-modes", 32, 32, 3, 7);
  int x = b.conv2d(graph::ModelBuilder::input(), 8, 3, 2, true);
  x = b.depthwise(x, 3, 1, true);
  x = b.pointwise(x, 16, false);
  x = b.global_avg_pool(x);
  b.fully_connected(x, 4);
  const graph::Model model = b.take();
  const sim::SimParams sim;

  // One schedule per rung family, measured once per execution mode.
  const clock::ClockConfig fast = clock::ClockConfig::pll_hse(50.0, 25, 216, 2);
  const clock::ClockConfig mid = clock::ClockConfig::pll_hse(50.0, 25, 168, 2);

  std::vector<std::string> reports;
  std::vector<std::string> traces;
  for (kernels::ExecMode mode :
       {kernels::ExecMode::kFull, kernels::ExecMode::kTiming}) {
    runtime::InferenceEngine engine(model);
    std::vector<RungInfo> rungs;
    int idx = 0;
    for (const clock::ClockConfig& cfg : {fast, mid}) {
      const runtime::Schedule sched =
          runtime::make_uniform_schedule(model, cfg);
      sim::SimParams params = sim;
      params.boot = cfg;
      sim::Mcu mcu(params);
      const runtime::InferenceResult res = engine.run(mcu, sched, mode);
      RungInfo rung;
      rung.name = "r" + std::to_string(idx++);
      rung.qos_slack = 0.1 * idx;
      rung.t_us = res.total_us;
      rung.e_uj = res.total_energy_uj;
      rung.entry_hfo = cfg;
      rung.exit_hfo = cfg;
      rung.max_sysclk_mhz = cfg.sysclk_mhz();
      rungs.push_back(rung);
    }
    LadderPolicy gov(rungs, sim.switching, sim.power, "xmode", true);

    MissionSpec spec = random_spec(424242);
    spec.name = "xmode";
    obs::TraceRecorder tr;
    obs::Sink sink{&tr, nullptr};
    const MissionReport r =
        simulate_mission(spec, gov, rungs.front().t_us, sim, &sink);
    reports.push_back(report_json(r));
    traces.push_back(trace_json(tr));
  }
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0], reports[1])
      << "Timing-mode ladder diverged from the Full-mode ladder";
  EXPECT_EQ(traces[0], traces[1])
      << "Timing-mode ladder emitted a different mission trace";
}

// ---- Golden report ----------------------------------------------------

/// One canonical mission exercising every v2 event kind — plus the energy
/// model v2 additions (solar harvest steps with a charge-rate cap, radio
/// uplink costs) — on the synthetic ladder. Deliberately modest in size so
/// the golden JSON stays readable.
MissionSpec golden_spec() {
  MissionSpec spec;
  spec.name = "golden-v2";
  spec.seed = 2026;
  spec.horizon_s = 2.0 * 86400.0;
  spec.duty = {10.0, 0.8};
  spec.battery = {600.0, 0.02, 10.0, 2.5};
  spec.base_qos_slack = 0.60;
  const double tight = 42890.0 / kTBase - 1.0;  // mixed rung + half a relock
  spec.qos_events = {{20000.0, tight},  {26000.0, 0.60},
                     {60000.0, tight},  {70000.0, 0.60},
                     {110000.0, tight}, {118000.0, 0.60}};
  spec.bursts = {{20000.0, 6000.0, 2.0}, {60000.0, 10000.0, 1.0}};
  spec.base_ambient_c = 25.0;
  spec.temp_events = {{40000.0, 68.0}, {52000.0, 25.0},
                      {126400.0, 68.0}, {138400.0, 25.0}};
  spec.derate = {50.0, 3.0, 216.0};  // 68 C -> cap at 162 MHz
  spec.connectivity = {{0.0, 30000.0}, {36000.0, 93600.0},
                       {132000.0, 40800.0}};
  spec.uplink_queue_frames = 32;
  // Daytime solar (the second plateau overlaps the 68 C soak: panel
  // thermal derating engages) and a 256 B result uplink per served frame.
  spec.harvest_events = {{28800.0, 3.0}, {64800.0, 0.0},
                         {115200.0, 3.0}, {151200.0, 0.0}};
  spec.radio = {250.0, 256.0, 80.0, 1000.0};
  spec.low_battery_soc = 0.25;
  spec.low_battery_qos_slack = 0.80;
  spec.period_jitter = 0.10;
  return spec;
}

TEST(ScenarioFuzz, GoldenMissionReport) {
  const sim::SimParams sim;
  const LadderPolicy gov = fuzz_ladder(true);
  const MissionReport r = simulate_mission(golden_spec(), gov, kTBase, sim);
  check_mission_invariants(golden_spec(), r);
  const std::string got = report_json(r) + "\n";

  // The schema version is pinned here on top of the byte comparison below:
  // a PR that grows the report schema must bump kMissionReportSchemaVersion
  // and regenerate — this makes forgetting either half a loud failure
  // instead of a silent golden churn.
  const std::string version_field =
      "\"schema_version\": " + std::to_string(kMissionReportSchemaVersion);
  EXPECT_NE(got.find(version_field), std::string::npos)
      << "report JSON must carry the current schema version";

  const std::string path =
      std::string(DAEDVFS_TEST_DATA_DIR) + "/mission_report_golden.json";
  if (std::getenv("DAEDVFS_REGEN_GOLDEN") != nullptr) {
    std::ofstream os(path, std::ios::binary);
    os << got;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream is(path, std::ios::binary);
  ASSERT_TRUE(is.good()) << "missing golden file " << path;
  std::ostringstream want;
  want << is.rdbuf();
  EXPECT_NE(want.str().find(version_field), std::string::npos)
      << "golden file pins schema version " << kMissionReportSchemaVersion
      << " — bump the constant and regenerate together";
  EXPECT_EQ(want.str(), got)
      << "MissionReport JSON drifted from the golden schema. If the change "
         "is intentional, regenerate with DAEDVFS_REGEN_GOLDEN=1 (see file "
         "header).";
}

}  // namespace
}  // namespace daedvfs::scenario
