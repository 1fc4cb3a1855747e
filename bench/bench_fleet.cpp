// Fleet-simulation throughput benchmark: thousands of per-node mission
// variants through simulate_fleet's thread-pool fan-out (scenario/fleet.hpp)
// vs the pre-fleet serial loop-over-simulate_mission,
// on ladders built once per device class over one shared ProfileCache.
// Emits BENCH_fleet.json with the gates the PR's acceptance criteria pin:
//
//   * speedup_ok        — fleet fan-out at 8 threads vs the serial loop.
//                         The required factor is hardware-scaled (4x when
//                         >= 8 cores are available, a no-regression floor
//                         when fewer — CI re-derives the formula from the
//                         recorded core count, scripts/check_bench_gates.py);
//   * batch_no_regression — one fleet thread vs the serial loop: the fleet
//                         path may not cost more than 25% overhead per
//                         mission (it runs the same simulate_mission, with
//                         one wake table per class instead of per mission);
//   * thread_invariant  — FleetReport JSON byte-equal for 1 vs 8 threads;
//   * ladder_cache_reused — the second class's ladder build hits the shared
//                         profile cache (build once, read everywhere);
//   * survival_monotone / availability_bounds_ok — aggregate sanity;
//   * metrics_match_stats — fleet.* counters agree with the FleetReport.
//
//   $ ./build/bench_fleet                      # full, BENCH_fleet.json
//   $ ./build/bench_fleet smoke out.json       # CI-sized
//   $ ./build/bench_fleet dump 8 fleet8.json   # FleetReport only (CI cmp)
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dse/design_space.hpp"
#include "dse/profile_cache.hpp"
#include "power/power_model.hpp"
#include "graph/zoo.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "scenario/fleet.hpp"
#include "util/json_writer.hpp"

using namespace daedvfs;

namespace {

/// Two-class "survive the winter" fleet: a sensing class on a small aged
/// battery and a relay class on a bigger one with a busier duty cycle, both
/// with spread panels, noisy links and occasional brownouts — every
/// variation knob and fault path exercised.
scenario::FleetSpec make_fleet(const scenario::SchedulePolicy& policy,
                               double t_base_us, std::uint32_t nodes,
                               double horizon_s) {
  scenario::MissionSpec base;
  base.name = "winter";
  base.horizon_s = horizon_s;
  base.duty.period_s = 5.0;
  base.duty.sleep_mw = 0.9;
  base.battery.capacity_mwh = 16.0;
  base.base_qos_slack = 0.35;
  base.qos_events = {{horizon_s * 0.2, 0.05},
                     {horizon_s * 0.5, 0.6},
                     {horizon_s * 0.75, 0.15}};
  base.period_jitter = 0.05;
  base.connectivity = {{0.0, horizon_s * 0.25},
                       {horizon_s * 0.4, horizon_s * 0.3},
                       {horizon_s * 0.85, horizon_s * 0.15}};
  base.uplink_queue_frames = 48;
  base.base_harvest_mw = 0.8;
  base.harvest_events = {{horizon_s * 0.3, 3.5}, {horizon_s * 0.7, 0.3}};
  base.radio.link_kbps = 250.0;
  base.radio.payload_bytes = 512.0;
  base.faults.radio.loss_prob = 0.04;
  base.faults.radio.max_retries = 2;
  base.faults.resets = {{horizon_s * 0.55}};
  base.faults.reboot.boot_s = 4.0;
  base.faults.reboot.boot_uj = 1200.0;

  scenario::NodeVariation vary;
  vary.battery_age = 0.5;
  vary.harvest_scale = 0.6;
  vary.link_quality = 0.3;
  vary.ambient_offset_c = 10.0;

  scenario::FleetSpec fleet;
  fleet.name = "winter-fleet";
  fleet.seed = 0xf1ee70001ULL;
  scenario::DeviceClass sensing;
  sensing.name = "sensing";
  sensing.nodes = nodes - nodes / 3;
  sensing.base = base;
  sensing.variation = vary;
  sensing.policy = &policy;
  sensing.t_base_us = t_base_us;
  fleet.classes.push_back(sensing);

  scenario::DeviceClass relay = sensing;
  relay.name = "relay";
  relay.nodes = nodes / 3;
  relay.base.name = "relay";
  relay.base.duty.period_s = 3.0;
  relay.base.battery.capacity_mwh = 30.0;
  fleet.classes.push_back(relay);
  return fleet;
}

std::string fleet_json(const scenario::FleetReport& r) {
  std::ostringstream os;
  os.precision(17);  // shortest-round-trip is not needed; byte-stable is
  scenario::write_fleet_json(os, r);
  return os.str();
}

double wall_ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Hardware-scaled speedup requirement (mirrored by
/// scripts/check_bench_gates.py): the full 4x gate applies when the machine
/// actually has >= 8 cores to scale onto; below that the bench still runs
/// everywhere and gates an honest per-core expectation with a
/// no-regression floor (8 threads on 1 core must not collapse).
double required_speedup(int effective_threads) {
  if (effective_threads >= 8) return 4.0;
  return std::max(0.85, 0.45 * static_cast<double>(effective_threads));
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "full";
  const bool smoke = mode == "smoke";
  const bool dump = mode == "dump";
  const int dump_threads = dump && argc > 2 ? std::atoi(argv[2]) : 1;
  const std::string out_path =
      dump ? (argc > 3 ? argv[3] : "FLEET_dump.json")
           : (argc > 2 ? argv[2] : "BENCH_fleet.json");

  // ---- Per-class ladders, built once over one shared profile cache. Both
  // postures explore the same model at the same slacks, so the second build
  // should be served almost entirely from the first's profiles.
  const graph::Model model = graph::zoo::make_person_detection();
  governor::GovernorConfig reactive_cfg;
  reactive_cfg.pipeline.space = dse::make_paper_design_space(
      power::PowerModel{reactive_cfg.pipeline.explore.sim.power});
  governor::GovernorConfig predictive_cfg = reactive_cfg;
  predictive_cfg.predictive = true;
  dse::ProfileCache cache;
  obs::MetricsRegistry metrics;
  obs::Sink sink;
  sink.metrics = &metrics;
  const auto t_ladders = std::chrono::steady_clock::now();
  const scenario::FleetLadders ladders = scenario::build_fleet_ladders(
      {{"reactive", &model, reactive_cfg}, {"predictive", &model, predictive_cfg}},
      cache, &sink);
  const double ladders_ms = wall_ms_since(t_ladders);
  const governor::ScheduleGovernor& reactive = *ladders.governors[0];
  const governor::ScheduleGovernor& predictive = *ladders.governors[1];
  const bool ladder_cache_reused = ladders.cache_hit_rate[1] >= 0.9;

  const std::uint32_t nodes = smoke || dump ? 192 : 1536;
  const double horizon_s = smoke || dump ? 7200.0 : 43200.0;
  const scenario::FleetSpec fleet =
      make_fleet(reactive, reactive.t_base_us(), nodes, horizon_s);

  if (dump) {
    scenario::FleetOptions opts;
    opts.threads = std::max(dump_threads, 1);
    std::ofstream os(out_path);
    scenario::write_fleet_json(os, simulate_fleet(fleet, opts));
    os << "\n";
    std::cout << "fleet dump (" << opts.threads << " threads) -> " << out_path
              << "\n";
    return 0;
  }

  // ---- Serial baseline: the pre-fleet caller's loop — derive each node's
  // spec, simulate_mission it, done. Same missions, no batching, no pool.
  std::cout << "fleet " << fleet.total_nodes() << " nodes, serial baseline...\n";
  const auto t_serial = std::chrono::steady_clock::now();
  std::vector<scenario::MissionReport> serial_reports;
  serial_reports.reserve(fleet.total_nodes());
  {
    std::uint64_t node_id = 0;
    for (std::size_t c = 0; c < fleet.classes.size(); ++c) {
      const scenario::DeviceClass& dc = fleet.classes[c];
      for (std::uint32_t k = 0; k < dc.nodes; ++k, ++node_id) {
        const scenario::MissionSpec spec =
            scenario::derive_node_spec(fleet, c, node_id);
        serial_reports.push_back(
            scenario::simulate_mission(spec, *dc.policy, dc.t_base_us, dc.sim));
      }
    }
  }
  const double serial_ms = wall_ms_since(t_serial);

  // ---- Fleet fan-out at 1 and 8 threads. The 8-thread run carries the
  // obs sink (fleet.* counters gated against the report below).
  std::cout << "fleet fan-out, 1 thread...\n";
  scenario::FleetOptions opts1;
  opts1.threads = 1;
  const auto t_fleet1 = std::chrono::steady_clock::now();
  const scenario::FleetReport report1 = simulate_fleet(fleet, opts1);
  const double fleet1_ms = wall_ms_since(t_fleet1);

  std::cout << "fleet fan-out, 8 threads...\n";
  scenario::FleetOptions opts8;
  opts8.threads = 8;
  opts8.sink = &sink;
  const auto t_fleet8 = std::chrono::steady_clock::now();
  const scenario::FleetReport report8 = simulate_fleet(fleet, opts8);
  const double fleet8_ms = wall_ms_since(t_fleet8);

  // ---- Gates.
  const std::string json1 = fleet_json(report1);
  const bool thread_invariant = json1 == fleet_json(report8);

  const unsigned hw = std::thread::hardware_concurrency();
  const int hardware = hw > 0 ? static_cast<int>(hw) : 1;
  const int effective_threads = std::min(8, hardware);
  const double speedup = fleet8_ms > 0.0 ? serial_ms / fleet8_ms : 0.0;
  const double required = required_speedup(effective_threads);
  const bool speedup_ok = speedup >= required;

  // No-regression: the 1-thread fleet runs the same missions through the
  // same engine; per-mission cost may not regress past 25% (it is usually
  // a little faster: one wake table per class, not one per mission).
  const double batch_ratio = serial_ms > 0.0 ? fleet1_ms / serial_ms : 0.0;
  const bool batch_no_regression = batch_ratio <= 1.25;

  bool survival_monotone = !report8.survival.empty();
  std::uint64_t prev_alive = report8.nodes;
  for (const scenario::FleetSurvivalPoint& p : report8.survival) {
    if (p.alive > prev_alive) survival_monotone = false;
    prev_alive = p.alive;
  }
  const bool availability_bounds_ok =
      report8.availability.min >= 0.0 && report8.availability.max <= 1.0 &&
      report8.fleet_availability() >= 0.0 &&
      report8.fleet_availability() <= 1.0;

  // Per-node reports from the serial loop and the fleet agree — aggregate
  // cross-check without re-serializing every node: totals must match.
  double serial_energy = 0.0;
  std::uint64_t serial_frames = 0, serial_depleted = 0;
  for (const scenario::MissionReport& r : serial_reports) {
    serial_energy += r.total_uj();
    serial_frames += r.frames;
    serial_depleted += r.battery_depleted ? 1 : 0;
  }
  const bool serial_fleet_agree =
      serial_frames == report8.frames && serial_depleted == report8.depleted &&
      serial_energy == report8.total_energy_uj;

  // ---- Posture front: same fleet, predictive ladder.
  const scenario::FleetSpec fleet_pred =
      make_fleet(predictive, predictive.t_base_us(), nodes, horizon_s);
  scenario::FleetOptions opts_pred;
  opts_pred.threads = 8;
  const scenario::FleetReport report_pred = simulate_fleet(fleet_pred, opts_pred);
  const std::vector<scenario::FleetParetoPoint> front =
      scenario::fleet_pareto({report8, report_pred});
  bool front_nonempty = false;
  for (const scenario::FleetParetoPoint& p : front) {
    front_nonempty = front_nonempty || p.on_front;
  }

  const auto counter_is = [&](const char* name, std::uint64_t want) {
    return metrics.counter(name).value() == want;
  };
  const bool metrics_ok =
      counter_is("fleet.nodes", report8.nodes) &&
      counter_is("fleet.depleted", report8.depleted) &&
      counter_is("fleet.frames", report8.frames) &&
      counter_is("fleet.frames_offered", report8.frames_offered) &&
      counter_is("fleet.deadline_misses", report8.deadline_misses);

  const auto missions_per_sec = [&](double ms) {
    return ms > 0.0 ? static_cast<double>(fleet.total_nodes()) / (ms * 1e-3)
                    : 0.0;
  };

  std::ofstream os(out_path);
  os.precision(6);
  os << "{\n"
     << "  \"smoke\": " << util::json_bool(smoke) << ",\n"
     << "  \"model\": " << util::json_quoted(model.name()) << ",\n"
     << "  \"nodes\": " << fleet.total_nodes() << ",\n"
     << "  \"classes\": " << fleet.classes.size() << ",\n"
     << "  \"horizon_s\": " << horizon_s << ",\n"
     << "  \"hardware_concurrency\": " << hardware << ",\n"
     << "  \"threads_requested\": 8,\n"
     << "  \"effective_threads\": " << effective_threads << ",\n"
     << "  \"ladders_ms\": " << ladders_ms << ",\n"
     << "  \"ladder_cache_hit_rate\": [" << ladders.cache_hit_rate[0] << ", "
     << ladders.cache_hit_rate[1] << "],\n"
     << "  \"serial\": {\n"
     << "    \"wall_ms\": " << serial_ms << ",\n"
     << "    \"missions_per_sec\": " << missions_per_sec(serial_ms) << "\n"
     << "  },\n"
     << "  \"fleet1\": {\n"
     << "    \"wall_ms\": " << fleet1_ms << ",\n"
     << "    \"missions_per_sec\": " << missions_per_sec(fleet1_ms) << "\n"
     << "  },\n"
     << "  \"fleet8\": {\n"
     << "    \"wall_ms\": " << fleet8_ms << ",\n"
     << "    \"missions_per_sec\": " << missions_per_sec(fleet8_ms) << "\n"
     << "  },\n"
     << "  \"speedup\": " << speedup << ",\n"
     << "  \"required_speedup\": " << required << ",\n"
     << "  \"batch_per_mission_ratio\": " << batch_ratio << ",\n"
     << "  \"depleted\": " << report8.depleted << ",\n"
     << "  \"fleet_availability\": " << report8.fleet_availability() << ",\n"
     << "  \"fleet_pareto\":\n";
  write_fleet_pareto_json(os, front, 2);
  os << ",\n  \"metrics\":\n";
  metrics.write_json(os, 2);
  os << ",\n"
     << "  \"speedup_ok\": " << util::json_bool(speedup_ok) << ",\n"
     << "  \"batch_no_regression\": " << util::json_bool(batch_no_regression)
     << ",\n"
     << "  \"thread_invariant\": " << util::json_bool(thread_invariant)
     << ",\n"
     << "  \"serial_fleet_agree\": " << util::json_bool(serial_fleet_agree)
     << ",\n"
     << "  \"ladder_cache_reused\": " << util::json_bool(ladder_cache_reused)
     << ",\n"
     << "  \"survival_monotone\": " << util::json_bool(survival_monotone)
     << ",\n"
     << "  \"availability_bounds_ok\": "
     << util::json_bool(availability_bounds_ok) << ",\n"
     << "  \"front_nonempty\": " << util::json_bool(front_nonempty) << ",\n"
     << "  \"metrics_match_stats\": " << util::json_bool(metrics_ok)
     << "\n}\n";
  os.close();

  const bool ok = speedup_ok && batch_no_regression && thread_invariant &&
                  serial_fleet_agree && ladder_cache_reused &&
                  survival_monotone && availability_bounds_ok &&
                  front_nonempty && metrics_ok;
  std::cout << "serial: " << serial_ms << " ms, fleet1: " << fleet1_ms
            << " ms, fleet8: " << fleet8_ms << " ms (" << effective_threads
            << " effective threads)\n"
            << "speedup: " << speedup << "x (required " << required
            << "), batch ratio " << batch_ratio << ", thread-invariant "
            << (thread_invariant ? "yes" : "NO") << ", depleted "
            << report8.depleted << "/" << report8.nodes << " -> " << out_path
            << "\n";
  return ok ? 0 : 1;
}
