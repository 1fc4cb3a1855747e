// Fleet-layer determinism contract (scenario/fleet.hpp): the FleetReport
// JSON is byte-identical across thread counts and runs, per-node reports
// are bit-identical to standalone simulate_mission on the same derived
// spec, a shared per-class WakeTable prices fuzzed missions bit for bit like
// the mission's own table, malformed fleet input is rejected explicitly,
// and the shared ProfileCache counters stay coherent under concurrent
// readers (run this under TSan to pin the data-race fix).
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dse/profile_cache.hpp"
#include "scenario/fleet.hpp"
#include "scenario_test_support.hpp"
#include "util/thread_pool.hpp"

namespace daedvfs::scenario {
namespace {

std::string report_json(const MissionReport& r) {
  std::ostringstream os;
  write_json(os, r);
  return os.str();
}

std::string fleet_json(const FleetReport& r) {
  std::ostringstream os;
  write_fleet_json(os, r);
  return os.str();
}

/// A small two-class fleet exercising every variation knob: aged batteries,
/// spread panels, noisy links, microclimates — over a base mission that
/// touches connectivity, harvest, radio, and faults.
FleetSpec fleet_for_test(const SchedulePolicy& sensing,
                         const SchedulePolicy& relay) {
  MissionSpec base;
  base.name = "field";
  base.horizon_s = 1800.0;
  base.duty.period_s = 5.0;
  base.duty.sleep_mw = 0.6;
  base.battery.capacity_mwh = 18.0;
  base.base_qos_slack = 0.4;
  base.connectivity = {{0.0, 400.0}, {700.0, 500.0}, {1500.0, 200.0}};
  base.uplink_queue_frames = 32;
  base.base_harvest_mw = 1.2;
  base.harvest_events = {{600.0, 3.0}, {1200.0, 0.5}};
  base.radio.link_kbps = 250.0;
  base.radio.payload_bytes = 512.0;
  base.faults.radio.loss_prob = 0.05;
  base.faults.radio.max_retries = 2;
  base.faults.resets = {{900.0}};
  base.faults.reboot.boot_s = 3.0;
  base.faults.reboot.boot_uj = 900.0;
  base.period_jitter = 0.05;

  NodeVariation vary;
  vary.battery_age = 0.4;
  vary.harvest_scale = 0.5;
  vary.link_quality = 0.3;
  vary.ambient_offset_c = 8.0;

  FleetSpec fleet;
  fleet.name = "test-fleet";
  fleet.seed = 0xf1ee7feedULL;
  DeviceClass sensing_class;
  sensing_class.name = "sensing";
  sensing_class.nodes = 17;
  sensing_class.base = base;
  sensing_class.variation = vary;
  sensing_class.policy = &sensing;
  sensing_class.t_base_us = kSyntheticTBase;
  fleet.classes.push_back(sensing_class);

  DeviceClass relay_class = sensing_class;
  relay_class.name = "relay";
  relay_class.nodes = 13;
  relay_class.base.name = "relay";
  relay_class.base.duty.period_s = 3.0;
  relay_class.base.battery.capacity_mwh = 40.0;
  relay_class.policy = &relay;
  fleet.classes.push_back(relay_class);
  return fleet;
}

TEST(Fleet, ReportByteIdenticalAcrossThreadCountsAndRuns) {
  const LadderPolicy sensing = make_synthetic_ladder(false, true);
  const LadderPolicy relay = make_synthetic_ladder(true, true);
  const FleetSpec fleet = fleet_for_test(sensing, relay);

  std::string baseline;
  for (const int threads : {1, 2, 8}) {
    FleetOptions opts;
    opts.threads = threads;
    opts.chunk = 4;
    const std::string json = fleet_json(simulate_fleet(fleet, opts));
    if (baseline.empty()) {
      baseline = json;
    } else {
      EXPECT_EQ(json, baseline) << "thread count " << threads
                                << " changed the FleetReport";
    }
  }
  // Across runs at the same thread count.
  FleetOptions opts;
  opts.threads = 2;
  EXPECT_EQ(fleet_json(simulate_fleet(fleet, opts)), baseline);
  // And across chunk sizes — chunking is scheduling, never semantics.
  opts.chunk = 7;
  EXPECT_EQ(fleet_json(simulate_fleet(fleet, opts)), baseline);
}

TEST(Fleet, PerNodeReportsEqualStandaloneSimulateMission) {
  const LadderPolicy sensing = make_synthetic_ladder(false, true);
  const LadderPolicy relay = make_synthetic_ladder(true, true);
  const FleetSpec fleet = fleet_for_test(sensing, relay);

  std::vector<MissionReport> per_node;
  FleetOptions opts;
  opts.threads = 4;
  opts.chunk = 5;
  opts.per_node = &per_node;
  const FleetReport report = simulate_fleet(fleet, opts);
  ASSERT_EQ(per_node.size(), fleet.total_nodes());
  ASSERT_EQ(report.nodes, per_node.size());

  std::uint64_t node_id = 0;
  for (std::size_t c = 0; c < fleet.classes.size(); ++c) {
    const DeviceClass& dc = fleet.classes[c];
    for (std::uint32_t k = 0; k < dc.nodes; ++k, ++node_id) {
      const MissionSpec spec = derive_node_spec(fleet, c, node_id);
      const MissionReport standalone =
          simulate_mission(spec, *dc.policy, dc.t_base_us, dc.sim);
      EXPECT_EQ(report_json(per_node[node_id]), report_json(standalone))
          << "node " << node_id << " diverged from standalone engine";
      check_mission_invariants(spec, per_node[node_id]);
    }
  }
}

TEST(Fleet, SharedWakeTableMatchesOwnTableOnFuzzedSpecs) {
  const LadderPolicy ladder = make_synthetic_ladder(true, true);
  const sim::SimParams sim;
  const WakeTable shared(ladder.rungs(), sim.switching,
                         power::PowerModel(sim.power), sim.boot);
  SpecFeatures features;
  features.faults = true;
  int rebooted = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    MissionSpec spec = random_mission_spec(seed, features);
    spec.horizon_s = std::min(spec.horizon_s, 3600.0);
    // The corpus draws its resets over the uncut horizon, so few fire
    // before 3,600 s. Resets drawn inside the cut (from their own stream,
    // leaving the corpus as it is) make the boot rows of both tables read.
    Xorshift64 resets(spec.seed ^ 0x7e5e7ULL);
    for (int i = 0; i < 2; ++i) {
      spec.faults.resets.push_back({resets.next_unit() * spec.horizon_s});
    }
    const MissionReport with_shared =
        simulate_mission(spec, ladder, kSyntheticTBase, shared);
    const MissionReport with_own =
        simulate_mission(spec, ladder, kSyntheticTBase, sim);
    EXPECT_EQ(report_json(with_shared), report_json(with_own))
        << "spec seed " << seed;
    if (with_own.resets > 0) ++rebooted;
  }
  EXPECT_GT(rebooted, 0) << "no spec rebooted: the boot rows went unread";
}

TEST(Fleet, RejectsWakeTablePricedForAnotherLadder) {
  const LadderPolicy ladder = make_synthetic_ladder(true, true);
  const sim::SimParams sim;
  const std::vector<RungInfo> fewer(ladder.rungs().begin(),
                                    ladder.rungs().end() - 1);
  const WakeTable other(fewer, sim.switching, power::PowerModel(sim.power),
                        sim.boot);
  ASSERT_EQ(other.rung_count() + 1, ladder.rungs().size());
  MissionSpec spec;
  spec.horizon_s = 60.0;
  EXPECT_THROW((void)simulate_mission(spec, ladder, kSyntheticTBase, other),
               std::invalid_argument);
}

TEST(Fleet, RejectsWakeTableBuiltForAnotherLadderOfTheSameSize) {
  // The policy decides from the table's copy of the ladder, so a table of
  // the right size built for other rungs must be rejected too.
  const LadderPolicy ladder = make_synthetic_ladder(true, true);
  const sim::SimParams sim;
  std::vector<RungInfo> slower = ladder.rungs();
  slower.back().t_us += 1.0;
  const WakeTable other(slower, sim.switching, power::PowerModel(sim.power),
                        sim.boot);
  ASSERT_EQ(other.rung_count(), ladder.rungs().size());
  EXPECT_FALSE(other.built_for(ladder.rungs()));
  EXPECT_TRUE(other.built_for(slower));
  MissionSpec spec;
  spec.horizon_s = 60.0;
  EXPECT_THROW((void)simulate_mission(spec, ladder, kSyntheticTBase, other),
               std::invalid_argument);
  // Names and slacks do not enter the table.
  std::vector<RungInfo> renamed = ladder.rungs();
  renamed.front().name = "renamed";
  renamed.front().qos_slack = 0.9;
  EXPECT_TRUE(WakeTable(renamed, sim.switching, power::PowerModel(sim.power),
                        sim.boot)
                  .built_for(ladder.rungs()));
}

TEST(Fleet, RejectsPopulatedClassWithoutPolicy) {
  const LadderPolicy ladder = make_synthetic_ladder(false);
  FleetSpec fleet = fleet_for_test(ladder, ladder);
  fleet.classes[1].policy = nullptr;
  try {
    (void)simulate_fleet(fleet, {});
    FAIL() << "a populated class without a policy must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'relay'"), std::string::npos)
        << e.what();
  }
  // An empty class may leave its policy unset.
  fleet.classes[1].nodes = 0;
  EXPECT_EQ(simulate_fleet(fleet, {}).nodes, fleet.classes[0].nodes);
}

TEST(Fleet, DeriveNodeSpecIsPureAndSeeded) {
  const LadderPolicy ladder = make_synthetic_ladder(false);
  const FleetSpec fleet = fleet_for_test(ladder, ladder);
  const MissionSpec a = derive_node_spec(fleet, 0, 3);
  const MissionSpec b = derive_node_spec(fleet, 0, 3);
  EXPECT_EQ(a.name, "field#3");
  EXPECT_EQ(a.seed, fleet.seed ^ 3ULL);
  EXPECT_EQ(a.battery.capacity_mwh, b.battery.capacity_mwh);
  EXPECT_EQ(a.base_harvest_mw, b.base_harvest_mw);
  EXPECT_EQ(a.radio.link_kbps, b.radio.link_kbps);
  EXPECT_EQ(a.base_ambient_c, b.base_ambient_c);
  const MissionSpec other = derive_node_spec(fleet, 0, 4);
  EXPECT_NE(a.battery.capacity_mwh, other.battery.capacity_mwh);
  // Variation stays inside its declared envelope.
  const DeviceClass& dc = fleet.classes[0];
  EXPECT_LE(a.battery.capacity_mwh, dc.base.battery.capacity_mwh);
  EXPECT_GE(a.battery.capacity_mwh,
            dc.base.battery.capacity_mwh * (1.0 - dc.variation.battery_age));
  EXPECT_LE(std::abs(a.base_ambient_c - dc.base.base_ambient_c),
            dc.variation.ambient_offset_c);

  // An all-zero envelope clones the base (only seed + name differ).
  FleetSpec clones = fleet;
  clones.classes[0].variation = NodeVariation{};
  const MissionSpec clone = derive_node_spec(clones, 0, 5);
  EXPECT_EQ(clone.battery.capacity_mwh, dc.base.battery.capacity_mwh);
  EXPECT_EQ(clone.base_harvest_mw, dc.base.base_harvest_mw);
  EXPECT_EQ(clone.radio.link_kbps, dc.base.radio.link_kbps);
  EXPECT_EQ(clone.base_ambient_c, dc.base.base_ambient_c);
}

TEST(Fleet, SurvivalCurveIsMonotoneAndEndsAtDepletedCount) {
  const LadderPolicy ladder = make_synthetic_ladder(false, true);
  const FleetSpec fleet = fleet_for_test(ladder, ladder);
  const FleetReport r = simulate_fleet(fleet, {});
  ASSERT_FALSE(r.survival.empty());
  std::uint64_t prev = r.nodes;
  for (const FleetSurvivalPoint& p : r.survival) {
    EXPECT_LE(p.alive, prev) << "survival must be monotone non-increasing";
    EXPECT_NEAR(p.fraction,
                static_cast<double>(p.alive) / static_cast<double>(r.nodes),
                1e-12);
    prev = p.alive;
  }
  // Depletion is terminal, so the curve ends at nodes - depleted.
  EXPECT_EQ(r.survival.back().alive, r.nodes - r.depleted);
  // Per-class bookkeeping adds up.
  std::uint64_t class_nodes = 0, class_depleted = 0;
  for (const FleetClassReport& c : r.classes) {
    class_nodes += c.nodes;
    class_depleted += c.depleted;
  }
  EXPECT_EQ(class_nodes, r.nodes);
  EXPECT_EQ(class_depleted, r.depleted);
}

TEST(Fleet, DistributionUsesExactNearestRankPercentiles) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(static_cast<double>(i));
  const Distribution d = make_distribution(values);
  EXPECT_EQ(d.count, 100u);
  EXPECT_EQ(d.min, 1.0);
  EXPECT_EQ(d.max, 100.0);
  EXPECT_EQ(d.p10, 10.0);
  EXPECT_EQ(d.p50, 50.0);
  EXPECT_EQ(d.p90, 90.0);
  EXPECT_EQ(d.p99, 99.0);
  EXPECT_NEAR(d.mean, 50.5, 1e-12);
  // Percentiles of a singleton are the sample itself; empty is all-zero.
  const Distribution one = make_distribution({42.0});
  EXPECT_EQ(one.p10, 42.0);
  EXPECT_EQ(one.p99, 42.0);
  const Distribution empty = make_distribution({});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.p50, 0.0);
}

TEST(Fleet, ParetoFrontOverPostures) {
  FleetReport cheap_low, costly_high, dominated;
  cheap_low.policy = "governor";
  cheap_low.nodes = 10;
  cheap_low.total_energy_uj = 1000.0;
  cheap_low.availability.mean = 0.80;
  costly_high.policy = "governor+prelock";
  costly_high.nodes = 10;
  costly_high.total_energy_uj = 2000.0;
  costly_high.availability.mean = 0.95;
  dominated.policy = "static";
  dominated.nodes = 10;
  dominated.total_energy_uj = 3000.0;
  dominated.availability.mean = 0.70;
  const auto points = fleet_pareto({cheap_low, costly_high, dominated});
  ASSERT_EQ(points.size(), 3u);
  EXPECT_TRUE(points[0].on_front);
  EXPECT_TRUE(points[1].on_front);
  EXPECT_FALSE(points[2].on_front);
  EXPECT_EQ(points[0].mean_energy_uj, 100.0);
}

// The shared-cache half of the fleet story: a warm ProfileCache is read by
// many threads at once. The map is quiescent (no store() concurrent with
// lookup()); the hit/miss counters are the shared mutable state — atomics
// since PR 8, so this test is clean under ThreadSanitizer and the final
// counts are exact.
TEST(Fleet, ProfileCacheCountersCoherentUnderConcurrentReaders) {
  dse::ProfileCache cache;
  constexpr int kEntries = 64;
  for (int i = 0; i < kEntries; ++i) {
    cache.store(static_cast<std::uint64_t>(i), 1, 2, {1.0 * i, 2.0 * i});
  }
  const dse::ProfileCache::Stats warm = cache.stats();
  EXPECT_EQ(warm.hits, 0u);

  constexpr std::int64_t kReaders = 512;
  util::ThreadPool pool(7);
  std::atomic<std::uint64_t> found{0};
  pool.parallel_for(kReaders, [&](std::int64_t i) {
    const auto hit = cache.lookup(
        static_cast<std::uint64_t>(i % (2 * kEntries)), 1, 2);
    if (hit) found.fetch_add(1, std::memory_order_relaxed);
  });
  const dse::ProfileCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, found.load());
  EXPECT_EQ(s.hits + s.misses, static_cast<std::uint64_t>(kReaders));
  EXPECT_EQ(s.hits, kReaders / 2);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.5);
}

}  // namespace
}  // namespace daedvfs::scenario
