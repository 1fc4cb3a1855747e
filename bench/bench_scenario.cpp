// Deployment scenario benchmark — the acceptance artifacts of the
// scenario/governor subsystem, emitted as BENCH_scenario.json:
//
//  1. Mission comparison: a day/night "sentry" mission (relaxed QoS most of
//     the time, tight-QoS + frame-rate-burst tracking phases) is simulated
//     for the adaptive governor and for every static ladder rung. The
//     governor must finish with zero deadline misses AND less total energy
//     than the best static schedule that also never misses.
//
//  2. QoS-repair speedup: schedule construction with the repair loop driven
//     by whole-schedule replay (one recording simulation + closed-form
//     re-evaluation per swap, granularity swaps patched by single-layer
//     re-records) vs exact_simulation (one full simulation per swap). Final
//     schedules must be identical, the replay path must report exactly ONE
//     full simulation (zero re-simulations); full mode also gates the
//     speedup at >= 5x.
//
//  3. v2 mission (thermal derating + connectivity windows) on the Person
//     Detection ladder: the predictive (PLL pre-lock) governor must beat
//     BOTH the PR 2 reactive governor AND every zero-miss static rung on
//     total energy, with zero deadline misses and zero thermal violations.
//     The lever: the ladder's cheapest tight-capable rung enters at a
//     different clock than it exits, so holding it reactively pays a
//     wrap-around PLL relock on the wake path every frame — pre-locking
//     during sleep makes it mux-reachable inside the tight bound.
//
//  4. Harvest + radio mission & the mission Pareto front: the v2 mission
//     plus a daytime solar profile (charge-rate-capped, panel thermal
//     derating) and a radio model pricing every uplinked frame. Every
//     policy (predictive, reactive, all statics) lands in the mission-level
//     (total energy, mean lateness) plane; the emitted Pareto analysis must
//     place >= 3 static schedules in that plane and the predictive governor
//     must sit on the front.
//
//  5. Fault mission & the availability front: the harvest+radio mission
//     plus the fault layer — a lossy uplink with bounded retries, per-day
//     link micro-blackouts with a watchdog reset striking mid-gap, and a
//     hard radio outage. Each governor runs cold-boot and checkpointed; the
//     checkpointed predictive governor must sit on the (total energy,
//     availability) front AND strictly dominate the cold-boot reactive
//     governor (more delivered frames for less energy).
//
//  6. Duty-cycled uplinks: the harvest+radio and checkpointed fault
//     missions again with 8-frame radio batches. The batched predictive
//     governor must dominate-or-tie its own per-frame uplinks on both the
//     (total energy, mean lateness) and the (total energy, availability)
//     fronts.
//
//   $ ./build/bench_scenario                 # VWW + PD v2, full checks
//   $ ./build/bench_scenario mbv2 out.json
//   $ ./build/bench_scenario smoke           # small model, CI-fast
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/schedule_builder.hpp"
#include "dse/profile_cache.hpp"
#include "governor/governor.hpp"
#include "graph/zoo.hpp"
#include "scenario/engine.hpp"
#include "util/json_writer.hpp"

using namespace daedvfs;

namespace {

double wall_ms(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string which = argc > 1 ? argv[1] : "vww";
  const std::string out_path = argc > 2 ? argv[2] : "BENCH_scenario.json";
  const bool smoke = which == "smoke";

  // Smoke mode runs the smallest zoo model over a one-day mission with
  // fewer timing repetitions — CI-fast, same checks minus the timing gate.
  const graph::Model model = which == "pd" ? graph::zoo::make_person_detection()
                             : which == "mbv2" ? graph::zoo::make_mbv2()
                             : smoke ? graph::zoo::make_person_detection()
                                     : graph::zoo::make_vww();

  // One ProfileCache serves the governor ladder AND the repair-speedup
  // section below — the second exploration is answered entirely from cache.
  dse::ProfileCache cache;
  governor::GovernorConfig gcfg;
  gcfg.qos_slacks = {0.10, 0.15, 0.20, 0.30, 0.50, 0.75};
  gcfg.pipeline.space = dse::make_paper_design_space(
      power::PowerModel{gcfg.pipeline.explore.sim.power});
  gcfg.pipeline.explore.cache = &cache;
  if (smoke) gcfg.pipeline.mckp_ticks = 5000;

  std::cout << "building governor ladder for " << model.name() << "...\n";
  const auto t_ladder = std::chrono::steady_clock::now();
  const governor::ScheduleGovernor gov(model, gcfg);
  const double ladder_ms = wall_ms(t_ladder);
  const auto& rungs = gov.rungs();
  std::cout << "  " << rungs.size() << " rungs in " << ladder_ms << " ms\n";
  if (rungs.size() < 2) {
    std::cerr << "ladder collapsed to " << rungs.size() << " rung(s)\n";
    return 1;
  }

  // ---- Mission: relaxed sentry duty with two tracking phases per day.
  // Deadlines are anchored on the ladder so the comparison is meaningful on
  // every model: tight phases sit just above the tightest rung (reachable
  // only by it), the base sits above the loosest rung.
  const sim::SimParams& sim = gcfg.pipeline.explore.sim;
  scenario::MissionSpec spec;
  spec.name = "sentry";
  spec.horizon_s = (smoke ? 1.0 : 14.0) * 86400.0;
  spec.duty.period_s = 10.0;
  spec.duty.sleep_mw = 0.8;
  spec.base_qos_slack = rungs.back().qos_slack + 0.10;
  const double tight_slack = rungs.front().qos_slack + 0.01;
  for (int day = 0; spec.horizon_s - day * 86400.0 > 0; ++day) {
    const double base_s = day * 86400.0;
    spec.qos_events.push_back({base_s + 20000.0, tight_slack});
    spec.qos_events.push_back({base_s + 24000.0, spec.base_qos_slack});
    spec.qos_events.push_back({base_s + 60000.0, tight_slack});
    spec.qos_events.push_back({base_s + 66000.0, spec.base_qos_slack});
    spec.bursts.push_back({base_s + 20000.0, 4000.0, 1.0});
    spec.bursts.push_back({base_s + 60000.0, 6000.0, 1.0});
  }

  const scenario::MissionReport gov_report =
      simulate_mission(spec, gov, gov.t_base_us(), sim);
  std::vector<scenario::MissionReport> static_reports;
  bool have_static = false;
  double best_static_uj = 0.0;
  std::string best_static;
  for (const scenario::RungInfo& rung : rungs) {
    const scenario::StaticPolicy fixed(rung);
    static_reports.push_back(
        simulate_mission(spec, fixed, gov.t_base_us(), sim));
    const scenario::MissionReport& r = static_reports.back();
    if (r.deadline_misses == 0 &&
        (!have_static || r.total_uj() < best_static_uj)) {
      best_static_uj = r.total_uj();
      best_static = r.policy;
      have_static = true;
    }
  }
  const bool governor_zero_miss = gov_report.deadline_misses == 0;
  const bool governor_wins =
      governor_zero_miss && have_static && gov_report.total_uj() < best_static_uj;
  std::cout << "  governor: " << gov_report.total_uj() / 1e6 << " J, "
            << gov_report.deadline_misses << " misses, "
            << gov_report.rung_switches << " rung switches\n"
            << "  best zero-miss static: "
            << (have_static ? best_static_uj / 1e6 : 0.0) << " J ("
            << (have_static ? best_static : "none") << ")\n";

  // ---- QoS-repair speedup: replay-backed vs exact-simulation repair.
  // Without the MCKP switch-overhead reserve the measured schedule overruns
  // the window and the repair loop has real work to do on every model.
  core::PipelineConfig rcfg = gcfg.pipeline;
  rcfg.reserve_switch_overhead = false;

  runtime::InferenceEngine engine(model);
  dse::ExploreOptions eopts = rcfg.explore;  // shared cache: all hits
  const auto sets = dse::explore_model(model, rcfg.space, eopts);

  // Pick a slack where the repair loop actually has work (the un-reserved
  // switch overhead must overrun the window) — model-dependent.
  double repair_slack = 0.10;
  double qos_us = gov.t_base_us() * (1.0 + repair_slack);
  for (double probe : {0.10, 0.05, 0.15, 0.20, 0.30}) {
    const double probe_qos = gov.t_base_us() * (1.0 + probe);
    const core::ScheduleBuilder builder(model, engine, rcfg);
    mckp::DpWorkspace ws;
    const core::BuiltSchedule probed = builder.build(sets, probe_qos, ws);
    if (probed.feasible && probed.repair_iterations > 0) {
      repair_slack = probe;
      qos_us = probe_qos;
      break;
    }
  }

  const int reps = smoke ? 3 : 10;
  struct RepairRun {
    double ms = 0.0;
    core::BuiltSchedule built;
  };
  auto timed_build = [&](bool exact, int max_repair) {
    core::PipelineConfig cfg = rcfg;
    cfg.exact_simulation = exact;
    cfg.max_repair_iterations = max_repair;
    const core::ScheduleBuilder builder(model, engine, cfg);
    RepairRun rr;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i) {
      mckp::DpWorkspace ws;
      rr.built = builder.build(sets, qos_us, ws);
    }
    rr.ms = wall_ms(t0) / reps;
    return rr;
  };
  std::cout << "repair loop (exact simulation)...\n";
  const RepairRun exact = timed_build(true, rcfg.max_repair_iterations);
  std::cout << "repair loop (whole-schedule replay)...\n";
  const RepairRun replay = timed_build(false, rcfg.max_repair_iterations);
  // Fixed build cost (MCKP + smoothing, no measurement) for the subtraction.
  const RepairRun norepair = timed_build(false, 0);

  const bool schedules_identical =
      exact.built.feasible == replay.built.feasible &&
      runtime::plans_identical(exact.built.schedule, replay.built.schedule);
  const double build_speedup = replay.ms > 0.0 ? exact.ms / replay.ms : 0.0;
  // Repair phase alone: build time minus the repair-free fixed cost. Both
  // flavors keep their initial recording/measurement inside this figure.
  const double exact_repair_ms = exact.ms - norepair.ms;
  const double replay_repair_ms = replay.ms - norepair.ms;
  const double repair_speedup =
      replay_repair_ms > 0.0 ? exact_repair_ms / replay_repair_ms : 0.0;
  std::cout << "  exact:  " << exact.ms << " ms/build ("
            << exact.built.repair_iterations << " swaps, "
            << exact.built.repair_simulations << " sims)\n"
            << "  replay: " << replay.ms << " ms/build ("
            << replay.built.repair_iterations << " swaps, "
            << replay.built.repair_simulations << " sims, "
            << replay.built.repair_layer_recordings
            << " granularity layer re-records)\n"
            << "  fixed (repair off): " << norepair.ms << " ms/build\n"
            << "  repair-phase speedup " << repair_speedup
            << "x (whole build " << build_speedup << "x), schedules "
            << (schedules_identical ? "identical" : "MISMATCH") << "\n";

  // PipelineResult counters: granularity swaps must not re-simulate — the
  // replay path records exactly once no matter what the repair loop swaps.
  core::PipelineConfig pipe_cfg = rcfg;
  pipe_cfg.qos_slack = repair_slack;
  const core::PipelineResult pipe_res =
      core::Pipeline(pipe_cfg).run(model, &sets);
  const bool zero_resimulations =
      replay.built.repair_simulations == 1 &&
      (!pipe_res.mckp_feasible || pipe_res.repair_simulations == 1);
  std::cout << "  pipeline repair counters: " << pipe_res.repair_iterations
            << " swaps, " << pipe_res.repair_simulations << " simulations, "
            << pipe_res.repair_layer_recordings << " layer re-records\n";

  // ---- v2 mission: thermal derating + connectivity windows + predictive
  // pre-lock, on the Person Detection ladder (its cheapest tight-capable
  // rung is "mixed": entry clock != exit clock).
  const bool v2_reuses_ladder = smoke || which == "pd";
  const graph::Model v2_model =
      v2_reuses_ladder ? model : graph::zoo::make_person_detection();
  std::optional<governor::ScheduleGovernor> v2_built;
  if (!v2_reuses_ladder) {
    std::cout << "building v2 governor ladder for " << v2_model.name()
              << "...\n";
    v2_built.emplace(v2_model, gcfg);
  }
  const governor::ScheduleGovernor& v2_gov =
      v2_reuses_ladder ? gov : *v2_built;
  const auto& v2_rungs = v2_gov.rungs();
  const double v2_tbase = v2_gov.t_base_us();
  const power::PowerModel pm(sim.power);

  // The pre-lock lever: a mixed rung (wrap-around relock) with a faster,
  // pricier wrap-free alternative the reactive governor gets pinned on
  // during tight phases, and a deadline anchored inside the relock window.
  const std::optional<scenario::PrelockAnchor> anchor =
      scenario::find_prelock_anchor(v2_rungs, v2_tbase, sim.switching, pm);
  const bool prelock_structure = anchor.has_value();
  const double v2_tight = prelock_structure
                              ? anchor->tight_slack
                              : v2_rungs.front().qos_slack + 0.01;
  const std::optional<scenario::ThermalAnchor> thermal =
      scenario::find_thermal_anchor(v2_rungs);

  scenario::MissionSpec v2;
  v2.name = "sentry-v2";
  v2.horizon_s = (smoke ? 1.0 : 2.0) * 86400.0;
  v2.duty.period_s = 10.0;
  v2.duty.sleep_mw = 0.8;
  v2.base_qos_slack = v2_rungs.back().qos_slack + 0.10;
  v2.uplink_queue_frames = 256;
  if (thermal) v2.derate = thermal->derate;
  for (int day = 0; v2.horizon_s - day * 86400.0 > 0; ++day) {
    const double base_s = day * 86400.0;
    // Two tracking phases (tight bound + frame-rate burst)...
    v2.qos_events.push_back({base_s + 20000.0, v2_tight});
    v2.qos_events.push_back({base_s + 26000.0, v2.base_qos_slack});
    v2.qos_events.push_back({base_s + 60000.0, v2_tight});
    v2.qos_events.push_back({base_s + 70000.0, v2.base_qos_slack});
    v2.bursts.push_back({base_s + 20000.0, 6000.0, 2.0});
    v2.bursts.push_back({base_s + 60000.0, 10000.0, 1.0});
    // ...a midday heat soak capping the clock between the PLL families...
    if (thermal) {
      v2.temp_events.push_back({base_s + 80000.0, thermal->hot_ambient_c});
      v2.temp_events.push_back({base_s + 84000.0, 25.0});
    }
    // ...and an uplink blackout whose backlog the governor drains after.
    v2.connectivity.push_back({base_s, 40000.0});
    v2.connectivity.push_back({base_s + 50000.0, 36400.0});
  }

  const scenario::LadderPolicy v2_pred(v2_rungs, sim.switching, sim.power,
                                       "governor+prelock", true);
  const scenario::LadderPolicy v2_reac(v2_rungs, sim.switching, sim.power,
                                       "governor", false);
  const scenario::MissionReport rp =
      simulate_mission(v2, v2_pred, v2_tbase, sim);
  const scenario::MissionReport rr =
      simulate_mission(v2, v2_reac, v2_tbase, sim);
  std::vector<scenario::MissionReport> v2_static_reports;
  bool v2_have_static = false;
  double v2_best_static_uj = 0.0;
  std::string v2_best_static;
  for (const scenario::RungInfo& rung : v2_rungs) {
    const scenario::StaticPolicy fixed(rung);
    v2_static_reports.push_back(simulate_mission(v2, fixed, v2_tbase, sim));
    const scenario::MissionReport& rs = v2_static_reports.back();
    if (rs.deadline_misses == 0 &&
        (!v2_have_static || rs.total_uj() < v2_best_static_uj)) {
      v2_best_static_uj = rs.total_uj();
      v2_best_static = rs.policy;
      v2_have_static = true;
    }
  }
  const bool v2_pred_clean = rp.deadline_misses == 0 &&
                             rp.thermal_violations == 0;
  const bool v2_beats_reactive = rp.total_uj() < rr.total_uj();
  const bool v2_beats_static =
      v2_have_static && rp.total_uj() < v2_best_static_uj;
  std::cout << "v2 mission (" << v2_model.name() << ", derate + windows):\n"
            << "  predictive: " << rp.total_uj() / 1e6 << " J, "
            << rp.deadline_misses << " misses, " << rp.prelocks
            << " prelocks (" << rp.prelock_hits << " hits), backlog debt "
            << rp.backlog_latency_s << " s\n"
            << "  reactive:   " << rr.total_uj() / 1e6 << " J, "
            << rr.deadline_misses << " misses\n"
            << "  best zero-miss static: "
            << (v2_have_static ? v2_best_static_uj / 1e6 : 0.0) << " J ("
            << (v2_have_static ? v2_best_static : "none") << ")\n";

  // ---- Harvest + radio mission: the v2 field conditions plus a daytime
  // solar profile charging the battery between frames and a radio pricing
  // every uplinked frame. The mission-level Pareto front over (total
  // energy, mean lateness) is the acceptance artifact: the predictive
  // governor must sit on it.
  scenario::MissionSpec v3 = v2;
  v3.name = "sentry-v3-harvest-radio";
  v3.battery.charge_rate_cap_mw = 5.0;
  v3.radio.link_kbps = 250.0;   // ~512 B at 250 kbit/s + 1.5 ms PA ramp
  v3.radio.payload_bytes = 512.0;
  v3.radio.tx_mw = 80.0;
  v3.radio.ramp_us = 1500.0;
  for (int day = 0; v3.horizon_s - day * 86400.0 > 0; ++day) {
    const double base_s = day * 86400.0;
    // Sunrise ramp, a midday plateau that overlaps the heat soak (panel
    // thermal derating engages), and sunset back to zero.
    v3.harvest_events.push_back({base_s + 21600.0, 2.5});
    v3.harvest_events.push_back({base_s + 28800.0, 6.0});
    v3.harvest_events.push_back({base_s + 72000.0, 2.5});
    v3.harvest_events.push_back({base_s + 82800.0, 0.0});
  }

  std::vector<scenario::MissionReport> v3_reports;
  v3_reports.push_back(simulate_mission(v3, v2_pred, v2_tbase, sim));
  v3_reports.push_back(simulate_mission(v3, v2_reac, v2_tbase, sim));
  for (const scenario::RungInfo& rung : v2_rungs) {
    v3_reports.push_back(
        simulate_mission(v3, scenario::StaticPolicy(rung), v2_tbase, sim));
  }
  const scenario::MissionReport& v3_pred = v3_reports.front();
  double v3_peak_harvest_mw = v3.base_harvest_mw;
  for (const scenario::HarvestEvent& h : v3.harvest_events) {
    v3_peak_harvest_mw = std::max(v3_peak_harvest_mw, h.intake_mw);
  }
  const std::vector<scenario::MissionParetoPoint> pareto =
      scenario::mission_pareto(v3_reports);
  const bool predictive_on_front = pareto.front().on_front;
  const std::size_t v3_statics = v3_reports.size() - 2;
  const bool v3_exercised =
      v3_pred.harvested_mwh > 0.0 && v3_pred.radio_uj > 0.0;
  std::cout << "harvest+radio mission (" << v2_model.name()
            << "), Pareto front over (energy, mean lateness):\n";
  for (const scenario::MissionParetoPoint& p : pareto) {
    std::cout << "  " << (p.on_front ? "* " : "  ") << p.policy << ": "
              << p.total_uj / 1e6 << " J, mean lateness "
              << p.mean_lateness_s << " s, max debt " << p.max_latency_debt_s
              << " s, " << p.deadline_misses << " misses\n";
  }
  std::cout << "  predictive harvested " << v3_pred.harvested_mwh
            << " mWh, radio " << v3_pred.radio_uj / 1e6 << " J\n";

  // ---- Fault mission & the availability front: the harvest+radio field
  // conditions plus the fault layer (scenario/faults.hpp) — a lossy uplink
  // (3% per-attempt loss, bounded retries with jittered backoff), three
  // 200 s link micro-blackouts per day with a watchdog reset striking 100 s
  // into each gap (while the backlog it threatens is still queued), and a
  // hard radio outage every evening. Each governor runs in two recovery
  // postures: cold boot (queue lost, governor state reset) vs periodic
  // GovernorCheckpoints (60 s interval) restoring rung preference, miss
  // EWMA and the backlog captured up to the checkpoint. The acceptance
  // artifact is the (total energy, availability) front: the checkpointed
  // predictive governor must sit on it AND strictly dominate the cold-boot
  // reactive governor — more delivered frames for less energy.
  scenario::MissionSpec v4 = v3;
  v4.name = "sentry-v4-faults";
  v4.connectivity.clear();
  for (int day = 0; v4.horizon_s - day * 86400.0 > 0; ++day) {
    const double base_s = day * 86400.0;
    // The v3 daytime window with three 200 s micro-blackouts punched in;
    // short enough that the bounded queue holds every gap's frames, so the
    // only way to lose them is a cold boot.
    v4.connectivity.push_back({base_s, 8000.0});
    v4.connectivity.push_back({base_s + 8200.0, 7800.0});
    v4.connectivity.push_back({base_s + 16200.0, 13800.0});
    v4.connectivity.push_back({base_s + 30200.0, 9800.0});
    v4.connectivity.push_back({base_s + 50000.0, 36400.0});
    v4.faults.resets.push_back({base_s + 8100.0});
    v4.faults.resets.push_back({base_s + 16100.0});
    v4.faults.resets.push_back({base_s + 30100.0});
    v4.faults.radio.outages.push_back({base_s + 55000.0, 300.0});
  }
  v4.faults.radio.loss_prob = 0.03;
  v4.faults.radio.max_retries = 3;
  v4.faults.radio.backoff_base_s = 0.05;
  v4.faults.radio.backoff_jitter = 0.2;
  v4.faults.reboot.boot_s = 5.0;
  v4.faults.reboot.boot_uj = 20000.0;
  scenario::MissionSpec v4_ckpt = v4;
  v4_ckpt.faults.reboot.checkpoint_interval_s = 60.0;
  v4_ckpt.faults.reboot.checkpoint_uj = 50.0;

  std::vector<scenario::MissionReport> v4_reports;
  v4_reports.push_back(simulate_mission(v4_ckpt, v2_pred, v2_tbase, sim));
  v4_reports.back().policy += "+ckpt";
  v4_reports.push_back(simulate_mission(v4, v2_pred, v2_tbase, sim));
  v4_reports.push_back(simulate_mission(v4_ckpt, v2_reac, v2_tbase, sim));
  v4_reports.back().policy += "+ckpt";
  v4_reports.push_back(simulate_mission(v4, v2_reac, v2_tbase, sim));
  for (const scenario::RungInfo& rung : v2_rungs) {
    v4_reports.push_back(
        simulate_mission(v4, scenario::StaticPolicy(rung), v2_tbase, sim));
  }
  const scenario::MissionReport& v4_warm = v4_reports.front();
  const scenario::MissionReport& v4_cold_reac = v4_reports[3];
  const std::vector<scenario::AvailabilityParetoPoint> v4_front =
      scenario::availability_pareto(v4_reports);
  const bool v4_warm_on_front = v4_front.front().on_front;
  const bool v4_warm_dominates =
      v4_warm.total_uj() < v4_cold_reac.total_uj() &&
      v4_warm.availability() > v4_cold_reac.availability();
  const bool v4_exercised = v4_warm.resets > 0 && v4_warm.checkpoints > 0 &&
                            v4_warm.retries > 0 && v4_warm.tx_failures > 0;
  std::cout << "fault mission (" << v2_model.name()
            << "), availability front over (energy, availability):\n";
  for (const scenario::AvailabilityParetoPoint& p : v4_front) {
    std::cout << "  " << (p.on_front ? "* " : "  ") << p.policy << ": "
              << p.total_uj / 1e6 << " J, availability " << p.availability
              << ", " << p.resets << " resets, " << p.retries << " retries, "
              << p.tx_failures << " tx failures, fault energy "
              << p.fault_uj / 1e6 << " J\n";
  }
  std::cout << "  warm-vs-cold: ckpt predictive " << v4_warm.frames
            << " frames / " << v4_warm.total_uj() / 1e6
            << " J vs cold reactive " << v4_cold_reac.frames << " frames / "
            << v4_cold_reac.total_uj() / 1e6 << " J — dominates="
            << (v4_warm_dominates ? "yes" : "NO") << "\n";

  // ---- Duty-cycled uplinks & the batching gates. The same predictive
  // governor with 8-frame radio batches (PA ramps amortized through the
  // same RadioModel and netted into the catch-up budget) against its own
  // per-frame uplinks, on both mission fronts: the harvest+radio mission's
  // (energy, mean lateness) plane and the fault mission's (energy,
  // availability) plane — at most the per-frame cost on one axis and at
  // least its quality on the other, never worse on either. The batched
  // points get their own report sets; the v3 and v4 sections above stay
  // the per-frame comparisons.
  const std::uint32_t v5_batch = 8;
  const std::string batch_tag = "+batch" + std::to_string(v5_batch);
  scenario::MissionSpec v5 = v3;
  v5.name = "sentry-v5-batched";
  v5.radio_batch_frames = v5_batch;
  std::vector<scenario::MissionReport> v5_reports;
  v5_reports.push_back(simulate_mission(v5, v2_pred, v2_tbase, sim));
  v5_reports.back().policy += batch_tag;
  v5_reports.push_back(v3_reports[0]);  // predictive governor, per-frame tx
  v5_reports.push_back(v3_reports[1]);  // reactive governor, per-frame tx
  const scenario::MissionReport& v5_batched = v5_reports.front();
  const std::vector<scenario::MissionParetoPoint> v5_front =
      scenario::mission_pareto(v5_reports);
  const bool v5_dominates_lateness =
      v5_batched.total_uj() <= v3_pred.total_uj() &&
      v5_batched.mean_lateness_s() <= v3_pred.mean_lateness_s();

  scenario::MissionSpec v5f = v4_ckpt;
  v5f.name = "sentry-v5-faults-batched";
  v5f.radio_batch_frames = v5_batch;
  std::vector<scenario::MissionReport> v5f_reports;
  v5f_reports.push_back(simulate_mission(v5f, v2_pred, v2_tbase, sim));
  v5f_reports.back().policy += "+ckpt" + batch_tag;
  v5f_reports.push_back(v4_warm);       // ckpt predictive, per-frame tx
  v5f_reports.push_back(v4_cold_reac);  // cold reactive, per-frame tx
  const scenario::MissionReport& v5f_batched = v5f_reports.front();
  const std::vector<scenario::AvailabilityParetoPoint> v5f_front =
      scenario::availability_pareto(v5f_reports);
  const bool v5_dominates_availability =
      v5f_batched.total_uj() <= v4_warm.total_uj() &&
      v5f_batched.availability() >= v4_warm.availability();
  std::cout << "duty-cycled uplinks (" << v2_model.name() << "), " << v5_batch
            << "-frame tx batches vs per-frame:\n"
            << "  lateness front:     batched " << v5_batched.total_uj() / 1e6
            << " J / " << v5_batched.mean_lateness_s() << " s vs predictive "
            << v3_pred.total_uj() / 1e6 << " J / "
            << v3_pred.mean_lateness_s() << " s — dominates="
            << (v5_dominates_lateness ? "yes" : "NO") << "\n"
            << "  availability front: batched " << v5f_batched.total_uj() / 1e6
            << " J / " << v5f_batched.availability() << " vs ckpt predictive "
            << v4_warm.total_uj() / 1e6 << " J / " << v4_warm.availability()
            << " — dominates=" << (v5_dominates_availability ? "yes" : "NO")
            << "\n";

  // ---- Emit BENCH_scenario.json.
  std::ofstream os(out_path);
  os.precision(6);
  os << "{\n  \"model\": " << util::json_quoted(model.name()) << ",\n"
     << "  \"t_base_us\": " << gov.t_base_us() << ",\n"
     << "  \"ladder_build_ms\": " << ladder_ms << ",\n"
     << "  \"ladder\": [\n";
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    os << "    {\"name\": " << util::json_quoted(rungs[i].name) << ", \"qos_slack\": "
       << rungs[i].qos_slack << ", \"t_us\": " << rungs[i].t_us
       << ", \"e_uj\": " << rungs[i].e_uj << "}"
       << (i + 1 < rungs.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"mission\": {\"horizon_s\": " << spec.horizon_s
     << ", \"base_qos_slack\": " << spec.base_qos_slack
     << ", \"tight_qos_slack\": " << tight_slack
     << ", \"bursts_per_day\": 2},\n"
     << "  \"policies\": [\n";
  write_json(os, gov_report, 4);
  for (const scenario::MissionReport& r : static_reports) {
    os << ",\n";
    write_json(os, r, 4);
  }
  os << "\n  ],\n"
     << "  \"governor_zero_misses\": "
     << util::json_bool(governor_zero_miss) << ",\n"
     << "  \"best_zero_miss_static\": \""
     << (have_static ? best_static : "none") << "\",\n"
     << "  \"best_zero_miss_static_uj\": " << best_static_uj << ",\n"
     << "  \"governor_total_uj\": " << gov_report.total_uj() << ",\n"
     << "  \"governor_beats_best_static\": "
     << util::json_bool(governor_wins) << ",\n"
     << "  \"repair\": {\n"
     << "    \"qos_slack\": " << repair_slack << ",\n"
     << "    \"swaps\": " << replay.built.repair_iterations << ",\n"
     << "    \"fixed_build_ms\": " << norepair.ms << ",\n"
     << "    \"exact\": {\"build_ms\": " << exact.ms
     << ", \"repair_ms\": " << exact_repair_ms
     << ", \"simulations\": " << exact.built.repair_simulations << "},\n"
     << "    \"replay\": {\"build_ms\": " << replay.ms
     << ", \"repair_ms\": " << replay_repair_ms
     << ", \"simulations\": " << replay.built.repair_simulations
     << ", \"layer_rerecords\": " << replay.built.repair_layer_recordings
     << "},\n"
     << "    \"pipeline_counters\": {\"iterations\": "
     << pipe_res.repair_iterations
     << ", \"simulations\": " << pipe_res.repair_simulations
     << ", \"layer_rerecords\": " << pipe_res.repair_layer_recordings
     << "},\n"
     << "    \"zero_resimulations\": "
     << util::json_bool(zero_resimulations) << ",\n"
     << "    \"repair_speedup\": " << repair_speedup << ",\n"
     << "    \"build_speedup\": " << build_speedup << ",\n"
     << "    \"schedules_identical\": "
     << util::json_bool(schedules_identical) << "\n"
     << "  },\n"
     << "  \"mission_v2\": {\n"
     << "    \"model\": " << util::json_quoted(v2_model.name()) << ",\n"
     << "    \"horizon_s\": " << v2.horizon_s << ",\n"
     << "    \"tight_qos_slack\": " << v2_tight << ",\n"
     << "    \"prelock_structure\": "
     << util::json_bool(prelock_structure) << ",\n"
     << "    \"mixed_rung\": \""
     << (prelock_structure
             ? v2_rungs[static_cast<std::size_t>(anchor->mixed)].name
             : "none")
     << "\",\n"
     << "    \"pinned_rung\": \""
     << (prelock_structure
             ? v2_rungs[static_cast<std::size_t>(anchor->pure)].name
             : "none")
     << "\",\n"
     << "    \"thermal_cap_mhz\": " << (thermal ? thermal->cap_mhz : 0.0)
     << ",\n"
     << "    \"policies\": [\n";
  write_json(os, rp, 6);
  os << ",\n";
  write_json(os, rr, 6);
  for (const scenario::MissionReport& rs : v2_static_reports) {
    os << ",\n";
    write_json(os, rs, 6);
  }
  os << "\n    ],\n"
     << "    \"best_zero_miss_static\": \""
     << (v2_have_static ? v2_best_static : "none") << "\",\n"
     << "    \"best_zero_miss_static_uj\": " << v2_best_static_uj << ",\n"
     << "    \"predictive_total_uj\": " << rp.total_uj() << ",\n"
     << "    \"reactive_total_uj\": " << rr.total_uj() << ",\n"
     << "    \"predictive_clean\": " << util::json_bool(v2_pred_clean)
     << ",\n"
     << "    \"predictive_beats_reactive\": "
     << util::json_bool(v2_beats_reactive) << ",\n"
     << "    \"predictive_beats_best_static\": "
     << util::json_bool(v2_beats_static) << "\n"
     << "  },\n"
     << "  \"mission_v3\": {\n"
     << "    \"model\": " << util::json_quoted(v2_model.name()) << ",\n"
     << "    \"horizon_s\": " << v3.horizon_s << ",\n"
     << "    \"radio\": {\"link_kbps\": " << v3.radio.link_kbps
     << ", \"payload_bytes\": " << v3.radio.payload_bytes
     << ", \"tx_mw\": " << v3.radio.tx_mw
     << ", \"ramp_us\": " << v3.radio.ramp_us << "},\n"
     << "    \"harvest_peak_mw\": " << v3_peak_harvest_mw << ",\n"
     << "    \"charge_rate_cap_mw\": " << v3.battery.charge_rate_cap_mw
     << ",\n"
     << "    \"policies\": [\n";
  for (std::size_t i = 0; i < v3_reports.size(); ++i) {
    if (i) os << ",\n";
    write_json(os, v3_reports[i], 6);
  }
  os << "\n    ],\n"
     << "    \"pareto\": \n";
  write_pareto_json(os, pareto, 4);
  os << ",\n"
     << "    \"front\": [";
  {
    bool first_front = true;
    for (const scenario::MissionParetoPoint& p : pareto) {
      if (!p.on_front) continue;
      os << (first_front ? "" : ", ") << util::json_quoted(p.policy);
      first_front = false;
    }
  }
  os << "],\n"
     << "    \"static_policies\": " << v3_statics << ",\n"
     << "    \"predictive_harvested_mwh\": " << v3_pred.harvested_mwh
     << ",\n"
     << "    \"predictive_radio_uj\": " << v3_pred.radio_uj << ",\n"
     << "    \"predictive_on_front\": "
     << util::json_bool(predictive_on_front) << "\n"
     << "  },\n"
     << "  \"mission_v4\": {\n"
     << "    \"model\": " << util::json_quoted(v2_model.name()) << ",\n"
     << "    \"horizon_s\": " << v4.horizon_s << ",\n"
     << "    \"faults\": {\"loss_prob\": " << v4.faults.radio.loss_prob
     << ", \"max_retries\": " << v4.faults.radio.max_retries
     << ", \"backoff_base_s\": " << v4.faults.radio.backoff_base_s
     << ", \"backoff_jitter\": " << v4.faults.radio.backoff_jitter
     << ", \"outages\": " << v4.faults.radio.outages.size()
     << ", \"resets\": " << v4.faults.resets.size()
     << ", \"boot_s\": " << v4.faults.reboot.boot_s
     << ", \"boot_uj\": " << v4.faults.reboot.boot_uj
     << ", \"checkpoint_interval_s\": "
     << v4_ckpt.faults.reboot.checkpoint_interval_s
     << ", \"checkpoint_uj\": " << v4_ckpt.faults.reboot.checkpoint_uj
     << "},\n"
     << "    \"policies\": [\n";
  for (std::size_t i = 0; i < v4_reports.size(); ++i) {
    if (i) os << ",\n";
    write_json(os, v4_reports[i], 6);
  }
  os << "\n    ],\n"
     << "    \"availability_pareto\": \n";
  write_availability_pareto_json(os, v4_front, 4);
  os << ",\n"
     << "    \"ckpt_predictive_total_uj\": " << v4_warm.total_uj() << ",\n"
     << "    \"ckpt_predictive_availability\": " << v4_warm.availability()
     << ",\n"
     << "    \"cold_reactive_total_uj\": " << v4_cold_reac.total_uj()
     << ",\n"
     << "    \"cold_reactive_availability\": " << v4_cold_reac.availability()
     << ",\n"
     << "    \"faults_exercised\": " << util::json_bool(v4_exercised)
     << ",\n"
     << "    \"ckpt_predictive_on_front\": "
     << util::json_bool(v4_warm_on_front) << ",\n"
     << "    \"ckpt_predictive_dominates_cold_reactive\": "
     << util::json_bool(v4_warm_dominates) << "\n"
     << "  },\n"
     << "  \"mission_v5\": {\n"
     << "    \"model\": " << util::json_quoted(v2_model.name()) << ",\n"
     << "    \"radio_batch_frames\": " << v5_batch << ",\n"
     << "    \"policies\": [\n";
  for (std::size_t i = 0; i < v5_reports.size(); ++i) {
    if (i) os << ",\n";
    write_json(os, v5_reports[i], 6);
  }
  os << "\n    ],\n"
     << "    \"pareto\": \n";
  write_pareto_json(os, v5_front, 4);
  os << ",\n"
     << "    \"fault_policies\": [\n";
  for (std::size_t i = 0; i < v5f_reports.size(); ++i) {
    if (i) os << ",\n";
    write_json(os, v5f_reports[i], 6);
  }
  os << "\n    ],\n"
     << "    \"availability_pareto\": \n";
  write_availability_pareto_json(os, v5f_front, 4);
  os << ",\n"
     << "    \"batched_total_uj\": " << v5_batched.total_uj() << ",\n"
     << "    \"batched_mean_lateness_s\": " << v5_batched.mean_lateness_s()
     << ",\n"
     << "    \"predictive_total_uj\": " << v3_pred.total_uj() << ",\n"
     << "    \"predictive_mean_lateness_s\": " << v3_pred.mean_lateness_s()
     << ",\n"
     << "    \"batched_fault_total_uj\": " << v5f_batched.total_uj()
     << ",\n"
     << "    \"batched_availability\": " << v5f_batched.availability()
     << ",\n"
     << "    \"ckpt_predictive_total_uj\": " << v4_warm.total_uj() << ",\n"
     << "    \"ckpt_predictive_availability\": " << v4_warm.availability()
     << ",\n"
     << "    \"batching_dominates_lateness\": "
     << util::json_bool(v5_dominates_lateness) << ",\n"
     << "    \"batching_dominates_availability\": "
     << util::json_bool(v5_dominates_availability) << "\n"
     << "  }\n}\n";
  os.close();
  std::cout << "-> " << out_path << "\n";

  bool ok = governor_wins && schedules_identical;
  if (!zero_resimulations) {
    std::cerr << "granularity swaps re-simulated: repair must record "
                 "exactly once on the replay path\n";
    ok = false;
  }
  if (!prelock_structure) {
    std::cerr << "v2 ladder lost its mixed rung; the pre-lock lever went "
                 "unexercised\n";
    ok = false;
  }
  if (!(v2_pred_clean && v2_beats_reactive && v2_beats_static)) {
    std::cerr << "v2 gate failed: predictive clean=" << v2_pred_clean
              << " beats_reactive=" << v2_beats_reactive
              << " beats_static=" << v2_beats_static << "\n";
    ok = false;
  }
  if (!predictive_on_front) {
    std::cerr << "harvest+radio gate failed: the predictive governor fell "
                 "off the mission Pareto front\n";
    ok = false;
  }
  if (v3_statics < 3) {
    std::cerr << "harvest+radio gate failed: only " << v3_statics
              << " static schedules landed in the Pareto plane (need >= 3 "
                 "for a meaningful front; ladder collapsed?)\n";
    ok = false;
  }
  if (!v3_exercised) {
    std::cerr << "harvest+radio gate failed: harvest or radio never engaged "
                 "(harvested " << v3_pred.harvested_mwh << " mWh, radio "
              << v3_pred.radio_uj << " uJ)\n";
    ok = false;
  }
  if (!v4_exercised) {
    std::cerr << "fault gate failed: the fault layer never engaged (resets "
              << v4_warm.resets << ", checkpoints " << v4_warm.checkpoints
              << ", retries " << v4_warm.retries << ", tx failures "
              << v4_warm.tx_failures << ")\n";
    ok = false;
  }
  if (!v4_warm_on_front) {
    std::cerr << "fault gate failed: the checkpointed predictive governor "
                 "fell off the (energy, availability) front\n";
    ok = false;
  }
  if (!v4_warm_dominates) {
    std::cerr << "fault gate failed: checkpointed predictive ("
              << v4_warm.total_uj() / 1e6 << " J, availability "
              << v4_warm.availability()
              << ") does not strictly dominate cold-boot reactive ("
              << v4_cold_reac.total_uj() / 1e6 << " J, availability "
              << v4_cold_reac.availability() << ")\n";
    ok = false;
  }
  if (!v5_dominates_lateness) {
    std::cerr << "batching gate failed: batched uplinks ("
              << v5_batched.total_uj() / 1e6 << " J, mean lateness "
              << v5_batched.mean_lateness_s()
              << " s) do not dominate-or-tie per-frame uplinks ("
              << v3_pred.total_uj() / 1e6 << " J, mean lateness "
              << v3_pred.mean_lateness_s() << " s)\n";
    ok = false;
  }
  if (!v5_dominates_availability) {
    std::cerr << "batching gate failed: batched uplinks under faults ("
              << v5f_batched.total_uj() / 1e6 << " J, availability "
              << v5f_batched.availability()
              << ") do not dominate-or-tie per-frame uplinks ("
              << v4_warm.total_uj() / 1e6
              << " J, availability " << v4_warm.availability() << ")\n";
    ok = false;
  }
  if (!smoke && replay.built.repair_iterations == 0) {
    std::cerr << "repair loop never engaged; speedup claim not exercised\n";
    ok = false;
  }
  if (!smoke && repair_speedup < 5.0) {
    std::cerr << "repair speedup " << repair_speedup << "x below the 5x gate\n";
    ok = false;
  }
  return ok ? 0 : 1;
}
