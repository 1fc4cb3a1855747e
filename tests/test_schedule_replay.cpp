// Whole-schedule replay (dse/freq_replay: ScheduleLedger): the recording
// must be bitwise equal to the engine's own full-schedule measurement, and
// closed-form replay must match a direct simulation to <= 1e-9 relative
// error across zoo models x random schedules — including the inter-layer
// switch terms (PLL relocks, regulator settles) the per-layer DSE never
// sees.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <random>
#include <vector>

#include "core/schedule_builder.hpp"
#include "dse/design_space.hpp"
#include "dse/freq_replay.hpp"
#include "graph/builder.hpp"
#include "graph/zoo.hpp"
#include "runtime/baseline.hpp"

namespace daedvfs::dse {
namespace {

graph::Model small_model() {
  graph::ModelBuilder b("replay-small", 32, 32, 3, 21);
  int x = b.conv2d(graph::ModelBuilder::input(), 8, 3, 2, true);
  x = b.depthwise(x, 3, 1, true);
  x = b.pointwise(x, 16, false);
  x = b.depthwise(x, 3, 2, true);
  x = b.pointwise(x, 16, true);
  x = b.global_avg_pool(x);
  b.fully_connected(x, 4);
  return b.take();
}

/// Random schedule over the design space: per-layer HFO uniformly from the
/// HFO set; granularity for DAE-eligible layers from the space's set.
runtime::Schedule random_schedule(const graph::Model& model,
                                  const DesignSpace& ds, std::mt19937& rng,
                                  bool randomize_granularity) {
  runtime::Schedule s;
  s.name = "random";
  std::uniform_int_distribution<std::size_t> pick_hfo(
      0, ds.hfo_configs.size() - 1);
  std::uniform_int_distribution<std::size_t> pick_g(
      0, ds.granularities.size() - 1);
  for (const graph::LayerSpec& layer : model.layers()) {
    runtime::LayerPlan plan;
    plan.hfo = ds.hfo_configs[pick_hfo(rng)];
    plan.lfo = ds.lfo;
    plan.granularity = layer.is_dae_eligible() && randomize_granularity
                           ? ds.granularities[pick_g(rng)]
                           : 0;
    plan.dvfs_enabled = plan.granularity > 0;
    s.plans.push_back(plan);
  }
  return s;
}

/// Re-assigns every layer's HFO at random, keeping granularity/DVFS/LFO —
/// the replay-compatible mutation class.
runtime::Schedule reassign_hfos(const runtime::Schedule& base,
                                const DesignSpace& ds, std::mt19937& rng) {
  runtime::Schedule s = base;
  std::uniform_int_distribution<std::size_t> pick_hfo(
      0, ds.hfo_configs.size() - 1);
  for (runtime::LayerPlan& plan : s.plans) {
    plan.hfo = ds.hfo_configs[pick_hfo(rng)];
  }
  return s;
}

TEST(ScheduleReplay, RecordingIsBitwiseEqualToEngineRun) {
  const graph::Model m = small_model();
  runtime::InferenceEngine engine(m);
  const power::PowerModel pm;
  const DesignSpace ds = make_reduced_design_space(pm);
  std::mt19937 rng(7);
  const sim::SimParams sim;

  for (int rep = 0; rep < 3; ++rep) {
    const runtime::Schedule sched = random_schedule(m, ds, rng, true);
    const ScheduleLedger led = record_schedule(engine, sched, sim);

    sim::SimParams params = sim;
    params.boot = sched.plans.front().hfo;
    sim::Mcu mcu(params);
    const runtime::InferenceResult direct =
        engine.run(mcu, sched, kernels::ExecMode::kTiming);
    EXPECT_EQ(led.end.time_us(), direct.total_us) << "rep " << rep;
    EXPECT_EQ(led.end.energy_uj(), direct.total_energy_uj) << "rep " << rep;

    // The whole end state matches, so a recording can seed the run memo
    // and close an iso-latency window in place of a fresh simulation.
    const sim::Mcu end = runtime::simulate_schedule(engine, sched, sim);
    EXPECT_EQ(led.end.time_us(), end.time_us()) << "rep " << rep;
    EXPECT_EQ(led.end.energy_uj(), end.energy_uj()) << "rep " << rep;
    EXPECT_TRUE(led.end.rcc().current() == end.rcc().current());
    EXPECT_EQ(led.end.cache().state_fingerprint(),
              end.cache().state_fingerprint());
    for (bool gated : {false, true}) {
      const runtime::IsoLatencyResult a =
          runtime::iso_window(led.end, 2.0 * end.time_us(), gated);
      const runtime::IsoLatencyResult b =
          runtime::iso_window(end, 2.0 * end.time_us(), gated);
      EXPECT_EQ(a.total_uj(), b.total_uj()) << "rep " << rep;
      EXPECT_EQ(a.idle_us, b.idle_us) << "rep " << rep;
    }
  }
}

// The run-memo key is structural: equally built engines share it whatever
// their weights, while anything that moves a simulated cost — the DAE
// scratch placement, the model, any SimParams field — separates it. The
// boot clock is not part of SimParams' share of the key, because every
// whole-schedule run boots at its first plan's HFO.
TEST(RunMemo, KeyIsStructural) {
  const sim::SimParams sim;
  const graph::Model vww_a = graph::zoo::make_vww(1);
  const graph::Model vww_b = graph::zoo::make_vww(2);
  const tensor::QTensor& wa = vww_a.layers()[0].weights;
  const tensor::QTensor& wb = vww_b.layers()[0].weights;
  ASSERT_FALSE(std::equal(wa.data(), wa.data() + wa.shape().elems(),
                          wb.data()))
      << "the two seeds must draw different weights";
  const runtime::InferenceEngine a(vww_a);
  const runtime::InferenceEngine b(vww_b);

  // Every DAE-eligible layer decoupled, so the gather buffer is on the
  // simulated path.
  runtime::Schedule dae = runtime::make_tinyengine_schedule(vww_a);
  for (runtime::LayerPlan& p : dae.plans) p.granularity = 4;

  // Two weight seeds: one key, and a memo hit with no new simulation.
  EXPECT_EQ(run_key(a, dae, sim), run_key(b, dae, sim));
  ProfileCache memo;
  int sims = 0;
  const sim::Mcu first = core::measure_schedule(&memo, a, dae, sim, sims);
  const sim::Mcu again = core::measure_schedule(&memo, b, dae, sim, sims);
  EXPECT_EQ(sims, 1);
  EXPECT_EQ(memo.runs(), 1u);
  EXPECT_EQ(first.time_us(), again.time_us());
  EXPECT_EQ(first.energy_uj(), again.energy_uj());

  // Scratch in DTCM: another key, and a different measured run.
  runtime::InferenceEngine dtcm(vww_a);
  dtcm.place_scratch(sim::MemRegion::kDtcm);
  EXPECT_NE(run_key(dtcm, dae, sim), run_key(a, dae, sim));
  EXPECT_NE(core::measure_schedule(&memo, dtcm, dae, sim, sims).time_us(),
            first.time_us());
  EXPECT_EQ(sims, 2);

  // A different model.
  const graph::Model pd = graph::zoo::make_person_detection();
  const runtime::InferenceEngine pd_engine(pd);
  EXPECT_NE(run_key(pd_engine, runtime::make_tinyengine_schedule(pd), sim),
            run_key(a, runtime::make_tinyengine_schedule(vww_a), sim));

  // A different plan.
  runtime::Schedule faster = dae;
  faster.plans.back().granularity = 8;
  EXPECT_NE(run_key(a, faster, sim), run_key(a, dae, sim));

  // Every SimParams field but the boot clock.
  using Mutation = std::function<void(sim::SimParams&)>;
  const std::vector<Mutation> mutations = {
      [](sim::SimParams& p) { p.cache.size_bytes *= 2; },
      [](sim::SimParams& p) { p.cache.line_bytes *= 2; },
      [](sim::SimParams& p) { p.cache.ways *= 2; },
      [](sim::SimParams& p) { p.memory.sram_miss_ns += 1.0; },
      [](sim::SimParams& p) { p.memory.flash_miss_ns += 1.0; },
      [](sim::SimParams& p) { p.memory.writeback_ns += 1.0; },
      [](sim::SimParams& p) { p.memory.dtcm_extra_cycles += 1.0; },
      [](sim::SimParams& p) { p.memory.ws_mhz_per_state += 1.0; },
      [](sim::SimParams& p) { p.cost.cycles_per_mac += 0.25; },
      [](sim::SimParams& p) { p.cost.cycles_per_load_word += 1.0; },
      [](sim::SimParams& p) { p.cost.cycles_per_store_word += 1.0; },
      [](sim::SimParams& p) { p.cost.cycles_per_requant += 1.0; },
      [](sim::SimParams& p) { p.cost.loop_overhead_cycles += 1.0; },
      [](sim::SimParams& p) { p.cost.call_overhead_cycles += 1.0; },
      [](sim::SimParams& p) { p.cost.strided_mac_factor += 0.1; },
      [](sim::SimParams& p) { p.power.static_mw += 1.0; },
      [](sim::SimParams& p) { p.power.dynamic_mw_per_mhz_v += 0.1; },
      [](sim::SimParams& p) { p.power.voltage_exponent += 1.0; },
      [](sim::SimParams& p) { p.power.pll_mw_per_vco_mhz += 0.01; },
      [](sim::SimParams& p) { p.power.hse_mw_per_mhz += 0.01; },
      [](sim::SimParams& p) { p.power.hsi_mw += 0.1; },
      [](sim::SimParams& p) { p.power.compute_activity -= 0.1; },
      [](sim::SimParams& p) { p.power.mem_stall_activity += 0.1; },
      [](sim::SimParams& p) { p.power.idle_activity += 0.1; },
      [](sim::SimParams& p) { p.power.gated_idle_mw += 1.0; },
      [](sim::SimParams& p) { p.switching.mux_switch_us += 0.1; },
      [](sim::SimParams& p) { p.switching.pll_relock_us += 1.0; },
      [](sim::SimParams& p) { p.switching.hse_startup_us += 1.0; },
      [](sim::SimParams& p) { p.switching.vos_change_us += 1.0; },
  };
  const std::uint64_t base = run_key(a, dae, sim);
  for (std::size_t i = 0; i < mutations.size(); ++i) {
    sim::SimParams changed = sim;
    mutations[i](changed);
    EXPECT_NE(run_key(a, dae, changed), base) << "SimParams mutation " << i;
  }
  sim::SimParams other_boot = sim;
  other_boot.boot = clock::ClockConfig::hse_direct(50.0);
  EXPECT_EQ(run_key(a, dae, other_boot), base);
}

TEST(ScheduleReplay, ReplayReproducesTheRecordedSchedule) {
  const graph::Model m = small_model();
  runtime::InferenceEngine engine(m);
  const power::PowerModel pm;
  const DesignSpace ds = make_reduced_design_space(pm);
  std::mt19937 rng(11);
  const sim::SimParams sim;

  const runtime::Schedule sched = random_schedule(m, ds, rng, true);
  const ScheduleLedger led = record_schedule(engine, sched, sim);
  const ProfileEntry replayed = replay_schedule(led, sched, sim);
  EXPECT_NEAR(replayed.t_us, led.end.time_us(),
              std::abs(led.end.time_us()) * 1e-9);
  EXPECT_NEAR(replayed.energy_uj, led.end.energy_uj(),
              std::abs(led.end.energy_uj()) * 1e-9);
}

TEST(ScheduleReplay, MatchesExactSimulationAcrossZooModels) {
  // Random schedules over the reduced space: random granularities fix the
  // recording; random per-layer HFO reassignments (which shuffle the
  // inter-layer relock/regulator pattern) are replayed in closed form and
  // checked against a direct simulation.
  const power::PowerModel pm;
  const DesignSpace ds = make_reduced_design_space(pm);
  const sim::SimParams sim;
  std::mt19937 rng(2024);

  for (const graph::Model& m : graph::zoo::make_evaluation_suite()) {
    runtime::InferenceEngine engine(m);
    for (int assignment = 0; assignment < 2; ++assignment) {
      const runtime::Schedule base = random_schedule(m, ds, rng, true);
      const ScheduleLedger led = record_schedule(engine, base, sim);
      for (int variant = 0; variant < 3; ++variant) {
        const runtime::Schedule mutated = reassign_hfos(base, ds, rng);
        ASSERT_TRUE(replay_compatible(led, mutated));
        const ProfileEntry replayed = replay_schedule(led, mutated, sim);
        const ScheduleLedger direct = record_schedule(engine, mutated, sim);
        EXPECT_NEAR(replayed.t_us, direct.end.time_us(),
                    std::abs(direct.end.time_us()) * 1e-9)
            << m.name() << " assignment " << assignment << " variant "
            << variant;
        EXPECT_NEAR(replayed.energy_uj, direct.end.energy_uj(),
                    std::abs(direct.end.energy_uj()) * 1e-9)
            << m.name() << " assignment " << assignment << " variant "
            << variant;
      }
    }
  }
}

TEST(ScheduleReplay, GranularityChangeIsIncompatible) {
  const graph::Model m = small_model();
  runtime::InferenceEngine engine(m);
  const power::PowerModel pm;
  const DesignSpace ds = make_reduced_design_space(pm);
  std::mt19937 rng(3);
  const sim::SimParams sim;

  const runtime::Schedule base = random_schedule(m, ds, rng, true);
  const ScheduleLedger led = record_schedule(engine, base, sim);

  runtime::Schedule changed = base;
  // Layer 1 is depthwise (DAE-eligible): move it to a different granularity.
  ASSERT_TRUE(m.layers()[1].is_dae_eligible());
  changed.plans[1].granularity = changed.plans[1].granularity == 4 ? 16 : 4;
  changed.plans[1].dvfs_enabled = true;
  EXPECT_FALSE(replay_compatible(led, changed));
  EXPECT_THROW((void)replay_schedule(led, changed, sim),
               std::invalid_argument);

  // A pure HFO move stays compatible.
  runtime::Schedule moved = base;
  moved.plans[2].hfo = ds.hfo_configs.front() == moved.plans[2].hfo
                           ? ds.hfo_configs.back()
                           : ds.hfo_configs.front();
  EXPECT_TRUE(replay_compatible(led, moved));
}

// Granularity patch (patch_recorded_granularity): random schedule pairs
// differing in one layer's granularity must replay to within 1e-9 of a
// direct simulation after the patch — with only single-layer re-records,
// never a full re-simulation. The patched suffix is typically a couple of
// layers (the cache-state fingerprint converges fast under streaming
// kernels).
TEST(ScheduleReplay, GranularityPatchMatchesDirectSimulation) {
  const power::PowerModel pm;
  const DesignSpace ds = make_reduced_design_space(pm);
  const sim::SimParams sim;
  std::mt19937 rng(555);

  for (const graph::Model& m : graph::zoo::make_evaluation_suite()) {
    runtime::InferenceEngine engine(m);
    std::vector<std::size_t> dae_layers;
    for (std::size_t i = 0; i < m.layers().size(); ++i) {
      if (m.layers()[i].is_dae_eligible()) dae_layers.push_back(i);
    }
    ASSERT_FALSE(dae_layers.empty()) << m.name();
    std::uniform_int_distribution<std::size_t> pick_layer(
        0, dae_layers.size() - 1);
    std::uniform_int_distribution<std::size_t> pick_g(
        0, ds.granularities.size() - 1);

    for (int pair = 0; pair < 4; ++pair) {
      const runtime::Schedule base = random_schedule(m, ds, rng, true);
      ScheduleLedger led = record_schedule(engine, base, sim);

      runtime::Schedule swapped = base;
      const std::size_t k = dae_layers[pick_layer(rng)];
      int g = ds.granularities[pick_g(rng)];
      if (g == base.plans[k].granularity) {
        g = base.plans[k].granularity == ds.granularities.front()
                ? ds.granularities.back()
                : ds.granularities.front();
      }
      swapped.plans[k].granularity = g;
      swapped.plans[k].dvfs_enabled = g > 0;

      const int rerecorded =
          patch_recorded_granularity(led, engine, swapped, sim);
      EXPECT_GE(rerecorded, 1) << m.name() << " pair " << pair;
      EXPECT_LE(rerecorded, static_cast<int>(m.layers().size()));
      ASSERT_TRUE(replay_compatible(led, swapped));

      const ProfileEntry replayed = replay_schedule(led, swapped, sim);
      const ScheduleLedger direct = record_schedule(engine, swapped, sim);
      EXPECT_NEAR(replayed.t_us, direct.end.time_us(),
                  std::abs(direct.end.time_us()) * 1e-9)
          << m.name() << " pair " << pair << " layer " << k;
      EXPECT_NEAR(replayed.energy_uj, direct.end.energy_uj(),
                  std::abs(direct.end.energy_uj()) * 1e-9)
          << m.name() << " pair " << pair << " layer " << k;
    }
  }
}

// The patched ledger must keep serving *subsequent* mutations: granularity
// swaps at several layers, interleaved with HFO reassignments — the repair
// loop's actual access pattern.
TEST(ScheduleReplay, GranularityPatchComposes) {
  const graph::Model m = small_model();
  runtime::InferenceEngine engine(m);
  const power::PowerModel pm;
  const DesignSpace ds = make_reduced_design_space(pm);
  std::mt19937 rng(77);
  const sim::SimParams sim;

  runtime::Schedule sched = random_schedule(m, ds, rng, true);
  ScheduleLedger led = record_schedule(engine, sched, sim);
  std::uniform_int_distribution<std::size_t> pick_g(
      0, ds.granularities.size() - 1);

  for (int step = 0; step < 6; ++step) {
    if (step % 2 == 0) {
      // Granularity swap at an eligible layer (cycle through them).
      std::size_t k = 0;
      int seen = 0;
      for (std::size_t i = 0; i < m.layers().size(); ++i) {
        if (!m.layers()[i].is_dae_eligible()) continue;
        if (seen++ == step / 2 % 3) k = i;
      }
      int g = ds.granularities[pick_g(rng)];
      if (g == sched.plans[k].granularity) {
        g = g == ds.granularities.front() ? ds.granularities.back()
                                          : ds.granularities.front();
      }
      sched.plans[k].granularity = g;
      sched.plans[k].dvfs_enabled = g > 0;
      (void)patch_recorded_granularity(led, engine, sched, sim);
    } else {
      sched = reassign_hfos(sched, ds, rng);
      EXPECT_EQ(patch_recorded_granularity(led, engine, sched, sim), 0)
          << "HFO-only moves need no patching";
    }
    ASSERT_TRUE(replay_compatible(led, sched)) << "step " << step;
    const ProfileEntry replayed = replay_schedule(led, sched, sim);
    const ScheduleLedger direct = record_schedule(engine, sched, sim);
    EXPECT_NEAR(replayed.t_us, direct.end.time_us(),
                std::abs(direct.end.time_us()) * 1e-9)
        << "step " << step;
    EXPECT_NEAR(replayed.energy_uj, direct.end.energy_uj(),
                std::abs(direct.end.energy_uj()) * 1e-9)
        << "step " << step;
  }
}

// The repair loop itself must never re-simulate: the replay path reports
// exactly one full simulation (the initial recording) even when swaps
// change granularities, and still emits the same schedule as
// exact_simulation. The zoo x reduced-space sweep covers HFO-only repair;
// the paper-space VWW budgets are the ones PR 2's bench showed to take
// granularity-changing swaps, so they pin the patch path end to end.
TEST(ScheduleReplay, RepairNeverResimulates) {
  const power::PowerModel pm;
  const sim::SimParams sim;

  bool some_granularity_swap = false;
  const auto check_model = [&](const graph::Model& m,
                               const core::PipelineConfig& cfg) {
    runtime::InferenceEngine engine(m);
    const auto sets = explore_model(m, cfg.space, cfg.effective_explore());
    const core::ScheduleBuilder builder(m, engine, cfg);
    const double t_base = core::tinyengine_baseline_us(engine, sim);
    for (double slack : {0.05, 0.10, 0.20}) {
      mckp::DpWorkspace ws;
      const core::BuiltSchedule replay =
          builder.build(sets, t_base * (1.0 + slack), ws);
      if (!replay.feasible) continue;
      EXPECT_EQ(replay.repair_simulations, 1)
          << m.name() << " slack " << slack
          << ": replay-path repair must record exactly once";
      if (replay.repair_layer_recordings > 0) some_granularity_swap = true;

      core::PipelineConfig exact_cfg = cfg;
      exact_cfg.exact_simulation = true;
      const core::ScheduleBuilder exact_builder(m, engine, exact_cfg);
      mckp::DpWorkspace ws2;
      const core::BuiltSchedule exact =
          exact_builder.build(sets, t_base * (1.0 + slack), ws2);
      EXPECT_TRUE(runtime::plans_identical(replay.schedule, exact.schedule))
          << m.name() << " slack " << slack;
      EXPECT_EQ(replay.repair_iterations, exact.repair_iterations);
    }
  };

  core::PipelineConfig reduced;
  reduced.space = make_reduced_design_space(pm);
  reduced.mckp_ticks = 5000;
  reduced.reserve_switch_overhead = false;  // force the repair loop on
  for (const graph::Model& m : graph::zoo::make_evaluation_suite()) {
    check_model(m, reduced);
  }

  core::PipelineConfig paper = reduced;
  paper.space = make_paper_design_space(pm);
  check_model(graph::zoo::make_vww(), paper);

  EXPECT_TRUE(some_granularity_swap)
      << "no budget exercised a granularity-changing swap; the patch path "
         "went untested";
}

}  // namespace
}  // namespace daedvfs::dse
