// Adaptive schedule governor (governor/governor.hpp): ladder construction
// from one DSE + one MCKP DP sweep, rung properties, the online
// minimum-energy-under-deadline choice, the wake-transition table the
// choice reads against its source of truth (wake_transition), and the
// indexed decision rule against the one-pass loop it replaced.
#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "clock/rcc.hpp"
#include "core/schedule_builder.hpp"
#include "governor/governor.hpp"
#include "graph/builder.hpp"
#include "graph/zoo.hpp"
#include "scenario/engine.hpp"
#include "scenario/fleet.hpp"
#include "scenario_test_support.hpp"

namespace daedvfs::governor {
namespace {

graph::Model small_model() {
  graph::ModelBuilder b("gov-small", 64, 64, 3, 42);
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

GovernorConfig make_config() {
  GovernorConfig cfg;
  // The full paper space gives the ladder enough frequency diversity for
  // distinct rungs even on a small model (the reduced test space collapses
  // every slack to nearly the same schedule after smoothing).
  cfg.qos_slacks = {0.10, 0.15, 0.20, 0.30, 0.50, 0.75};
  cfg.pipeline.space = dse::make_paper_design_space(
      power::PowerModel{cfg.pipeline.explore.sim.power});
  cfg.pipeline.mckp_ticks = 5000;
  cfg.pipeline.reserved_relocks = 4;
  return cfg;
}

TEST(Governor, LadderIsSortedDedupedAndDominanceFree) {
  const graph::Model m = small_model();
  const ScheduleGovernor gov(m, make_config());
  const auto& rungs = gov.rungs();
  ASSERT_GE(rungs.size(), 2u) << "ladder collapsed to a single rung";
  EXPECT_GT(gov.t_base_us(), 0.0);
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    // Every rung meets the QoS window it was built for.
    EXPECT_LE(rungs[i].t_us,
              gov.t_base_us() * (1.0 + rungs[i].qos_slack) + 1e-6)
        << rungs[i].name;
    EXPECT_EQ(gov.schedule(static_cast<int>(i)).plans.size(),
              static_cast<std::size_t>(m.num_layers()));
    if (i == 0) continue;
    EXPECT_GE(rungs[i].t_us, rungs[i - 1].t_us) << "not ascending latency";
    EXPECT_LT(rungs[i].e_uj, rungs[i - 1].e_uj)
        << "slower rung must be strictly cheaper (dominance prune)";
  }
}

TEST(Governor, OneExplorationServesTheWholeLadder) {
  const graph::Model m = small_model();
  const ScheduleGovernor gov(m, make_config());
  EXPECT_GT(gov.explore_stats().total_candidates, 0);
}

TEST(Governor, ChoosesMinimumEnergyRungMeetingDeadline) {
  const graph::Model m = small_model();
  const ScheduleGovernor gov(m, make_config());
  const auto& rungs = gov.rungs();
  ASSERT_GE(rungs.size(), 2u);

  // A wide-open deadline selects the cheapest (slowest) rung.
  scenario::FrameContext relaxed;
  relaxed.deadline_us = rungs.back().t_us * 10.0;
  EXPECT_EQ(gov.choose(relaxed, -1),
            static_cast<int>(rungs.size()) - 1);

  // A deadline just above the fastest rung forces it.
  scenario::FrameContext tight;
  tight.deadline_us = rungs.front().t_us * 1.0001;
  EXPECT_EQ(gov.choose(tight, -1), 0);

  // A deadline no rung can meet still returns the fastest option.
  scenario::FrameContext impossible;
  impossible.deadline_us = rungs.front().t_us * 0.5;
  EXPECT_EQ(gov.choose(impossible, -1), 0);
}

TEST(Governor, AccountsForRelockOverheadWhenSwitching) {
  const graph::Model m = small_model();
  GovernorConfig cfg = make_config();
  const ScheduleGovernor gov(m, cfg);
  const auto& rungs = gov.rungs();
  ASSERT_GE(rungs.size(), 2u);
  const power::PowerModel pm(cfg.pipeline.explore.sim.power);

  // From the cheapest rung, a deadline inside the transition margin of the
  // fastest rung must pick a rung whose latency *plus* transition fits.
  const int from = static_cast<int>(rungs.size()) - 1;
  const clock::RccState from_exit = clock::RccState::at(
      rungs[static_cast<std::size_t>(from)].exit_hfo);
  const scenario::TransitionCost trans = scenario::wake_transition(
      from_exit, rungs[0], cfg.pipeline.explore.sim.switching, pm);
  scenario::FrameContext ctx;
  ctx.deadline_us = rungs[0].t_us + trans.us * 0.5;  // t fits, t+trans not
  const int chosen = gov.choose(ctx, from);
  const scenario::TransitionCost chosen_trans = scenario::wake_transition(
      from_exit, rungs[static_cast<std::size_t>(chosen)],
      cfg.pipeline.explore.sim.switching, pm);
  // Either some rung genuinely fits net of its transition, or the governor
  // fell back to the fastest reachable one.
  if (rungs[static_cast<std::size_t>(chosen)].t_us + chosen_trans.us >
      ctx.deadline_us + 1e-9) {
    double best_t = rungs[static_cast<std::size_t>(chosen)].t_us +
                    chosen_trans.us;
    for (std::size_t i = 0; i < rungs.size(); ++i) {
      const scenario::TransitionCost tr = scenario::wake_transition(
          from_exit, rungs[i], cfg.pipeline.explore.sim.switching, pm);
      EXPECT_GE(rungs[i].t_us + tr.us, best_t - 1e-9)
          << "a faster reachable rung existed";
    }
  }
}

TEST(Governor, RepairDisabledStillMeasuresEveryRung) {
  const graph::Model m = small_model();
  GovernorConfig cfg = make_config();
  cfg.pipeline.max_repair_iterations = 0;
  const ScheduleGovernor gov(m, cfg);
  ASSERT_GE(gov.rungs().size(), 2u);
  for (const scenario::RungInfo& r : gov.rungs()) {
    EXPECT_GT(r.t_us, 0.0) << r.name;
    EXPECT_GT(r.e_uj, 0.0) << r.name;
  }
}

TEST(Governor, ExactSimulationLadderMatchesFastLadder) {
  const graph::Model m = small_model();
  GovernorConfig fast = make_config();
  GovernorConfig exact = make_config();
  exact.pipeline.exact_simulation = true;
  const ScheduleGovernor gf(m, fast);
  const ScheduleGovernor ge(m, exact);
  ASSERT_EQ(gf.rungs().size(), ge.rungs().size());
  for (std::size_t i = 0; i < gf.rungs().size(); ++i) {
    EXPECT_TRUE(runtime::plans_identical(
        gf.schedule(static_cast<int>(i)), ge.schedule(static_cast<int>(i))))
        << "rung " << i;
  }
}

// ---- Wake-transition table vs its source of truth -------------------------

/// The decision rule as one pass over the ladder with four running minima,
/// as scenario::select_rung computed it before the decision index: the
/// source of truth the index is checked against.
scenario::RungPick select_rung_reference(
    const std::vector<scenario::RungInfo>& rungs, double deadline_us,
    double budget_us, double cap_mhz, const scenario::TransitionCost* wake) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  int best_budget = -1, best_deadline = -1, fastest = -1, coolest = -1;
  double be_budget = kInf, be_deadline = kInf, fastest_t = kInf;
  double coolest_mhz = kInf;
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    const scenario::RungInfo& r = rungs[i];
    if (r.peak_mhz() < coolest_mhz) {
      coolest_mhz = r.peak_mhz();
      coolest = static_cast<int>(i);
    }
    if (cap_mhz > 0.0 && r.peak_mhz() > cap_mhz + 1e-9) continue;
    const scenario::TransitionCost trans =
        wake != nullptr ? wake[i] : scenario::TransitionCost{};
    const double t = r.t_us + trans.us;
    const double e = r.e_uj + trans.uj;
    if (t < fastest_t) {
      fastest_t = t;
      fastest = static_cast<int>(i);
    }
    if (t <= deadline_us + 1e-9 && e < be_deadline) {
      be_deadline = e;
      best_deadline = static_cast<int>(i);
    }
    if (t <= std::min(deadline_us, budget_us) + 1e-9 && e < be_budget) {
      be_budget = e;
      best_budget = static_cast<int>(i);
    }
  }
  if (best_budget >= 0) return {best_budget, scenario::kTierBudget};
  if (best_deadline >= 0) return {best_deadline, scenario::kTierDeclared};
  if (fastest >= 0) return {fastest, scenario::kTierFastest};
  return {coolest, scenario::kTierCoolest};
}

::testing::AssertionResult same_pick(const scenario::RungPick& got,
                                     const scenario::RungPick& want) {
  if (got.rung == want.rung && got.tier == want.tier) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "picked rung " << got.rung << " tier " << got.tier
         << ", reference rung " << want.rung << " tier " << want.tier;
}

/// The selection rule as it read before transitions were tabulated: every
/// transition re-priced through wake_transition (nullopt = no transition),
/// or the bare mux toggle at the entry's memory-stall power for a
/// pre-locked (`free_wake`) wake, then the reference loop.
int reference_pick(const std::vector<scenario::RungInfo>& rungs,
                   const sim::SimParams& sim, const scenario::FrameContext& ctx,
                   const std::optional<clock::RccState>& wake,
                   bool free_wake) {
  const power::PowerModel pm(sim.power);
  std::vector<scenario::TransitionCost> costs;
  for (const scenario::RungInfo& r : rungs) {
    scenario::TransitionCost trans;
    if (free_wake) {
      trans.us = sim.switching.mux_switch_us;
      trans.uj = trans.us *
                 pm.config_power_mw(r.entry_hfo,
                                    power::Activity::kMemoryStall) *
                 1e-3;
    } else if (wake) {
      trans = scenario::wake_transition(*wake, r, sim.switching, pm);
    }
    costs.push_back(trans);
  }
  double budget_us = std::numeric_limits<double>::infinity();
  if (ctx.backlog > 0 && ctx.window_remaining_s >= 0.0) {
    budget_us = ctx.window_remaining_s * 1e6 /
                    (static_cast<double>(ctx.backlog) + 1.0) -
                ctx.radio_us;
  }
  return select_rung_reference(rungs, ctx.deadline_us, budget_us,
                               ctx.max_sysclk_mhz, costs.data())
      .rung;
}

/// A frame context near the ladder's decision boundaries: the deadline
/// lands within a relock of some rung's latency, and the thermal cap,
/// backlog catch-up budget and radio time are each on or off.
scenario::FrameContext random_context(
    const std::vector<scenario::RungInfo>& rungs, scenario::SpecRng& rng) {
  double peak_lo = std::numeric_limits<double>::infinity(), peak_hi = 0.0;
  for (const scenario::RungInfo& r : rungs) {
    peak_lo = std::min(peak_lo, r.peak_mhz());
    peak_hi = std::max(peak_hi, r.peak_mhz());
  }
  const scenario::RungInfo& anchor =
      rungs[static_cast<std::size_t>(rng.upto(static_cast<int>(rungs.size())))];
  scenario::FrameContext ctx;
  ctx.deadline_us = anchor.t_us + rng.range(-50.0, 300.0);
  if (rng.coin()) ctx.max_sysclk_mhz = rng.range(peak_lo - 20.0, peak_hi + 5.0);
  ctx.backlog = static_cast<std::uint32_t>(rng.upto(6));
  if (rng.coin()) {
    ctx.window_remaining_s = rng.range(0.0, 2.0) * anchor.t_us * 1e-6 *
                             (static_cast<double>(ctx.backlog) + 1.0);
  }
  if (rng.coin()) ctx.radio_us = rng.range(0.0, 0.2 * anchor.t_us);
  return ctx;
}

/// The pins of a WakeTable built for `policy`'s ladder under `sim`: (1) at
/// most N + 1 + N² interned states, (2) every entry bit-equal to
/// wake_transition / background_reposition_cost, (3) table-driven picks —
/// choose() from every interned state, choose() from a bare previous rung,
/// predict_next() — equal to the pre-table rule on random contexts, and
/// (4) every decision-index row (each state, free wake, no transition)
/// picking what the reference loop picks over that row's costs.
/// `policy_sim` is what the ladder prices with; a table built under other
/// parameters must still be read at the ladder's own prices.
void expect_table_matches_source(const scenario::LadderPolicy& policy,
                                 const sim::SimParams& policy_sim,
                                 const sim::SimParams& sim) {
  const std::vector<scenario::RungInfo>& rungs = policy.rungs();
  ASSERT_FALSE(rungs.empty());
  const std::size_t n = rungs.size();
  const power::PowerModel pm(sim.power);
  const scenario::WakeTable table(rungs, sim.switching, pm, sim.boot);

  EXPECT_LE(table.state_count(), n + 1 + n * n);
  EXPECT_TRUE(table.state(table.boot_id()) == clock::RccState::at(sim.boot));
  for (std::size_t to = 0; to < n; ++to) {
    const scenario::RungInfo& r = rungs[to];
    const int rung = static_cast<int>(to);
    EXPECT_TRUE(table.state(table.exit_id(rung)) ==
                clock::RccState::at(r.exit_hfo));
    EXPECT_EQ(table.free_wake()[to].us, sim.switching.mux_switch_us);
    EXPECT_EQ(table.free_wake()[to].uj,
              sim.switching.mux_switch_us *
                  pm.config_power_mw(r.entry_hfo,
                                     power::Activity::kMemoryStall) *
                  1e-3);
    for (std::size_t id = 0; id < table.state_count(); ++id) {
      const scenario::TransitionCost want = scenario::wake_transition(
          table.state(static_cast<int>(id)), r, sim.switching, pm);
      const scenario::TransitionCost got = table.row(static_cast<int>(id))[to];
      EXPECT_EQ(got.us, want.us) << "state " << id << " -> rung " << to;
      EXPECT_EQ(got.uj, want.uj) << "state " << id << " -> rung " << to;
    }
    for (std::size_t from = 0; from < n; ++from) {
      clock::RccState w = clock::RccState::at(rungs[from].exit_hfo);
      const clock::SwitchCost cost =
          clock::background_reposition_cost(sim.switching, r.entry_hfo, w);
      const scenario::WakeTable::Reposition& rp =
          table.reposition(static_cast<int>(from), rung);
      EXPECT_EQ(rp.us, cost.total_us);
      EXPECT_EQ(rp.uj, cost.total_us *
                           pm.power_mw(power::PowerState::of(w),
                                       power::Activity::kMemoryStall) *
                           1e-3);
      EXPECT_TRUE(table.state(rp.to) == w);
    }
  }

  scenario::SpecRng rng(0x5eedULL + n);
  for (int trial = 0; trial < 400; ++trial) {
    scenario::FrameContext ctx = random_context(rungs, rng);
    const int prev = rng.upto(static_cast<int>(n) + 1) - 1;
    for (std::size_t id = 0; id < table.state_count(); ++id) {
      ctx.wake_table = &table;
      ctx.wake_id = static_cast<int>(id);
      ASSERT_EQ(policy.choose(ctx, prev),
                reference_pick(rungs, policy_sim, ctx,
                               table.state(static_cast<int>(id)), false))
          << "trial " << trial << ", state " << id;
    }
    ctx.wake_table = nullptr;
    ctx.wake_id = -1;
    std::optional<clock::RccState> exit;
    if (prev >= 0) {
      exit =
          clock::RccState::at(rungs[static_cast<std::size_t>(prev)].exit_hfo);
    }
    ASSERT_EQ(policy.choose(ctx, prev),
              reference_pick(rungs, policy_sim, ctx, exit, false))
        << "trial " << trial << ", previous rung " << prev;
    ASSERT_EQ(policy.predict_next(ctx, prev),
              policy.predictive()
                  ? reference_pick(rungs, policy_sim, ctx, std::nullopt, true)
                  : -1)
        << "trial " << trial;

    const double budget_us = scenario::catch_up_budget_us(
        ctx.backlog, ctx.window_remaining_s, ctx.radio_us);
    const auto expect_row = [&](std::size_t row,
                                const scenario::TransitionCost* costs) {
      EXPECT_TRUE(same_pick(
          table.pick(row, ctx.deadline_us, budget_us, ctx.max_sysclk_mhz),
          select_rung_reference(rungs, ctx.deadline_us, budget_us,
                                ctx.max_sysclk_mhz, costs)))
          << "trial " << trial << ", row " << row;
    };
    for (std::size_t id = 0; id < table.state_count(); ++id) {
      expect_row(id, table.row(static_cast<int>(id)));
    }
    expect_row(table.free_row(), table.free_wake());
    expect_row(table.no_transition_row(), nullptr);
  }
}

TEST(WakeTable, MatchesWakeTransitionOnPdAndSyntheticLadders) {
  const graph::Model pd = graph::zoo::make_person_detection();
  governor::GovernorConfig reactive_cfg;
  reactive_cfg.pipeline.space = dse::make_paper_design_space(
      power::PowerModel{reactive_cfg.pipeline.explore.sim.power});
  governor::GovernorConfig predictive_cfg = reactive_cfg;
  predictive_cfg.predictive = true;
  dse::ProfileCache cache;
  const scenario::FleetLadders ladders = scenario::build_fleet_ladders(
      {{"reactive", &pd, reactive_cfg}, {"predictive", &pd, predictive_cfg}},
      cache);

  // The engine prices with a (re)boot clock outside the ladder and, in the
  // last case, with switch costs the ladder does not share.
  sim::SimParams hsi_boot;
  hsi_boot.boot = clock::ClockConfig::hsi_direct();
  sim::SimParams slow_relock = hsi_boot;
  slow_relock.switching.pll_relock_us = 320.0;
  slow_relock.switching.vos_change_us = 25.0;

  for (const auto& gov : ladders.governors) {
    SCOPED_TRACE(gov->predictive() ? "PD predictive" : "PD reactive");
    const sim::SimParams& sim = gov->config().pipeline.explore.sim;
    sim::SimParams rebooted = sim;
    rebooted.boot = hsi_boot.boot;
    expect_table_matches_source(*gov, sim, sim);
    expect_table_matches_source(*gov, sim, rebooted);
  }
  const sim::SimParams defaults;
  for (const bool with_eco : {false, true}) {
    for (const bool predictive : {false, true}) {
      SCOPED_TRACE(std::string("synthetic") + (with_eco ? "+eco" : "") +
                   (predictive ? " predictive" : " reactive"));
      const scenario::LadderPolicy ladder =
          scenario::make_synthetic_ladder(predictive, with_eco);
      expect_table_matches_source(ladder, defaults, defaults);
      expect_table_matches_source(ladder, defaults, hsi_boot);
      expect_table_matches_source(ladder, defaults, slow_relock);
    }
  }
}

/// A latency or energy from a small grid (ties), now and then +inf or NaN.
double random_cost(double base, double step, scenario::SpecRng& rng) {
  const double u = rng.unit();
  if (u < 0.03) return std::numeric_limits<double>::infinity();
  if (u < 0.05) return std::numeric_limits<double>::quiet_NaN();
  return base + step * rng.upto(6);
}

/// A ladder of `n` rungs drawn to stress the decision rule's tie and edge
/// cases: latencies and energies from random_cost, and legacy rungs
/// (max_sysclk_mhz = 0, peak from the boundary clocks) mixed with explicit
/// peaks.
std::vector<scenario::RungInfo> random_ladder(int n, scenario::SpecRng& rng) {
  const clock::ClockConfig clocks[] = {
      clock::ClockConfig::hsi_direct(), clock::ClockConfig::hse_direct(50.0),
      clock::ClockConfig::pll_hse(50.0, 25, 96, 2),
      clock::ClockConfig::pll_hse(50.0, 25, 168, 2),
      clock::ClockConfig::pll_hse(50.0, 25, 216, 2)};
  const double peaks[] = {16.0, 50.0, 96.0, 168.0, 216.0};
  std::vector<scenario::RungInfo> rungs;
  for (int i = 0; i < n; ++i) {
    scenario::RungInfo r;
    r.name = "r" + std::to_string(i);
    r.t_us = random_cost(1000.0, 100.0, rng);
    r.e_uj = random_cost(500.0, 25.0, rng);
    r.entry_hfo = clocks[rng.upto(5)];
    r.exit_hfo = clocks[rng.upto(5)];
    if (rng.coin()) r.max_sysclk_mhz = peaks[rng.upto(5)];
    rungs.push_back(r);
  }
  return rungs;
}

/// A wake-cost row over `n` rungs: all zero, or costs from small grids so
/// transitions create and break latency and energy ties.
std::vector<scenario::TransitionCost> random_costs(int n, bool zero,
                                                   scenario::SpecRng& rng) {
  std::vector<scenario::TransitionCost> costs(static_cast<std::size_t>(n));
  if (zero) return costs;
  for (scenario::TransitionCost& c : costs) {
    c.us = 50.0 * rng.upto(5);
    c.uj = 12.5 * rng.upto(5);
  }
  return costs;
}

/// A bound near the ladder's latencies, or one of the non-finite values a
/// caller can pass (NaN, +inf, -inf).
double random_bound(scenario::SpecRng& rng) {
  const int kind = rng.upto(10);
  if (kind == 0) return std::numeric_limits<double>::quiet_NaN();
  if (kind == 1) return std::numeric_limits<double>::infinity();
  if (kind == 2) return -std::numeric_limits<double>::infinity();
  if (kind == 3) return 1000.0 + 50.0 * rng.upto(40);  // on a latency grid
  return rng.range(800.0, 3000.0);
}

/// A thermal cap that bars none, some or all rungs of the ladder, sits on a
/// rung's peak, or is off (0, negative, NaN).
double random_cap(const std::vector<scenario::RungInfo>& rungs,
                  scenario::SpecRng& rng) {
  switch (rng.upto(8)) {
    case 0: return 0.0;
    case 1: return -50.0;
    case 2: return std::numeric_limits<double>::quiet_NaN();
    case 3: return 1000.0;  // bars none
    case 4: return 1.0;     // bars all
    case 5: return std::numeric_limits<double>::infinity();
    case 6:
      return rungs[static_cast<std::size_t>(
                       rng.upto(static_cast<int>(rungs.size())))]
          .peak_mhz();
    default: return rng.range(10.0, 230.0);
  }
}

TEST(SelectRung, MatchesReferenceLoopOnSeededLadders) {
  scenario::SpecRng rng(0x5e1ec7ULL);
  int tiers[4] = {0, 0, 0, 0};
  for (int trial = 0; trial < 3000; ++trial) {
    const int n = 1 + trial % 12;
    const std::vector<scenario::RungInfo> rungs = random_ladder(n, rng);
    const std::vector<scenario::TransitionCost> zero =
        random_costs(n, true, rng);
    const std::vector<scenario::TransitionCost> costs =
        random_costs(n, false, rng);
    for (int q = 0; q < 8; ++q) {
      const double deadline = random_bound(rng);
      const double budget = rng.coin() ? std::numeric_limits<double>::infinity()
                                       : random_bound(rng);
      const double cap = random_cap(rungs, rng);
      for (const scenario::TransitionCost* wake :
           {static_cast<const scenario::TransitionCost*>(nullptr),
            zero.data(), costs.data()}) {
        const scenario::RungPick want =
            select_rung_reference(rungs, deadline, budget, cap, wake);
        ASSERT_TRUE(same_pick(
            scenario::select_rung(rungs, deadline, budget, cap, wake), want))
            << "trial " << trial << " (" << n << " rungs), deadline "
            << deadline << ", budget " << budget << ", cap " << cap;
        ++tiers[want.tier];
      }
    }
  }
  // Every fallback tier was exercised.
  for (int tier = 0; tier < 4; ++tier) EXPECT_GT(tiers[tier], 0) << tier;
}

}  // namespace
}  // namespace daedvfs::governor
