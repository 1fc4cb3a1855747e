// Mission simulator: two weeks of a battery-powered VWW sentry node under
// the adaptive schedule governor, against every static schedule of its
// ladder. The node idles at a relaxed latency bound most of the day; twice a
// day the backend tightens the bound and raises the frame rate ("tracking"),
// and below 20% charge the node trades latency for lifetime. Five stacked
// walkthroughs: v1 duty cycle, v2 field conditions (heat soaks, uplink
// blackouts, predictive pre-lock), v3 energy model (solar harvest + radio
// costs), v4 faults (lossy uplink, brownout resets, checkpointed recovery),
// v6 duty-cycled uplink batches — plus the optional --fleet v5
// walkthrough.
//
//   $ ./build/mission_sim            # VWW
//   $ ./build/mission_sim pd 0.2     # Person Detection, low-battery SoC 0.2
//   $ ./build/mission_sim --days 2 --trace out.json --metrics metrics.json
//   $ ./build/mission_sim pd --days 2 --fleet 500   # v5 fleet walkthrough
//
// --fleet N adds a fifth walkthrough: the v4 checkpointed mission expanded
// into an N-node fleet (seeded per-node battery aging, panel spread, link
// quality, microclimate — scenario/fleet.hpp), fanned out across the thread
// pool on the SoA batch engine, reported as percentile distributions, a
// survival curve and fleet availability.
//
// --trace records the v4 checkpointed-predictive mission as Chrome
// trace-event JSON (open in Perfetto / chrome://tracing; schema in
// docs/observability.md). Only sim-time-stamped events are recorded, so the
// file is byte-identical across runs and kernel modes. --metrics dumps
// the run's counter registry (engine totals + governor decision mix) as
// JSON to the given path, or to stdout when no path follows.
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "governor/governor.hpp"
#include "graph/zoo.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"
#include "scenario/engine.hpp"
#include "scenario/fleet.hpp"

int main(int argc, char** argv) {
  using namespace daedvfs;

  std::string trace_path;
  std::string metrics_path;
  bool want_metrics = false;
  int days = 14;
  int fleet_nodes = 0;
  std::vector<std::string> pos;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--metrics") {
      want_metrics = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') metrics_path = argv[++i];
    } else if (arg == "--days" && i + 1 < argc) {
      days = std::atoi(argv[++i]);
      if (days < 1) days = 1;
    } else if (arg == "--fleet" && i + 1 < argc) {
      fleet_nodes = std::atoi(argv[++i]);
      if (fleet_nodes < 0) fleet_nodes = 0;
    } else {
      pos.push_back(arg);
    }
  }
  std::string which = !pos.empty() ? pos[0] : "vww";
  const double low_soc = pos.size() > 1 ? std::atof(pos[1].c_str()) : 0.20;
  graph::Model model = [&] {
    if (which == "pd") return graph::zoo::make_person_detection();
    if (which == "mbv2") return graph::zoo::make_mbv2();
    which = "vww";
    return graph::zoo::make_vww();
  }();

  std::cout << "=== " << model.name() << " mission simulation ===\n";
  governor::GovernorConfig gcfg;
  gcfg.pipeline.space = dse::make_paper_design_space(
      power::PowerModel{gcfg.pipeline.explore.sim.power});
  const governor::ScheduleGovernor gov(model, gcfg);
  if (gov.rungs().empty()) {
    std::cerr << "no feasible schedule at any ladder slack for "
              << model.name() << "\n";
    return 1;
  }
  std::cout << "schedule ladder (" << gov.rungs().size()
            << " rungs, t_base " << std::fixed << std::setprecision(0)
            << gov.t_base_us() << " us):\n";
  for (const scenario::RungInfo& r : gov.rungs()) {
    std::cout << "  " << std::left << std::setw(9) << r.name << std::right
              << std::setprecision(0) << std::setw(8) << r.t_us << " us"
              << std::setprecision(1) << std::setw(9) << r.e_uj << " uJ"
              << "   " << std::setprecision(0)
              << r.entry_hfo.sysclk_mhz() << " MHz entry\n";
  }

  scenario::MissionSpec spec;
  spec.name = "sentry-2w";
  spec.horizon_s = days * 86400.0;
  spec.battery.capacity_mwh = 2400.0;
  spec.duty.period_s = 10.0;
  spec.duty.sleep_mw = 0.8;
  spec.base_qos_slack = gov.rungs().back().qos_slack + 0.10;
  const double tight = gov.rungs().front().qos_slack + 0.01;
  for (int day = 0; day < days; ++day) {
    const double base_s = day * 86400.0;
    spec.qos_events.push_back({base_s + 20000.0, tight});
    spec.qos_events.push_back({base_s + 24000.0, spec.base_qos_slack});
    spec.qos_events.push_back({base_s + 60000.0, tight});
    spec.qos_events.push_back({base_s + 66000.0, spec.base_qos_slack});
    spec.bursts.push_back({base_s + 20000.0, 4000.0, 1.0});
    spec.bursts.push_back({base_s + 60000.0, 6000.0, 1.0});
  }
  spec.low_battery_soc = low_soc;
  spec.low_battery_qos_slack = spec.base_qos_slack;

  const sim::SimParams& sim = gcfg.pipeline.explore.sim;
  std::cout << "\nmission: " << spec.horizon_s / 86400.0
            << " days, 1 frame/" << spec.duty.period_s
            << " s, 2 tracking phases/day (QoS +"
            << std::setprecision(0) << tight * 100.0 << "%, 1 frame/s)\n\n";

  std::cout << "policy              frames   misses  switches  energy(J)  "
               "battery life\n";
  auto print_row = [&](const scenario::MissionReport& r) {
    std::cout << std::left << std::setw(19) << r.policy << std::right
              << std::setw(7) << r.frames << std::setw(9)
              << r.deadline_misses << std::setw(10) << r.rung_switches
              << std::setprecision(1) << std::setw(11) << r.total_uj() / 1e6
              << std::setw(10) << r.lifetime_days(spec.battery)
              << " days\n";
  };
  print_row(simulate_mission(spec, gov, gov.t_base_us(), sim));
  for (const scenario::RungInfo& rung : gov.rungs()) {
    const scenario::StaticPolicy fixed(rung);
    print_row(simulate_mission(spec, fixed, gov.t_base_us(), sim));
  }

  std::cout << "\nReading: the governor matches the tightest static "
               "schedule's deadline record\nwhile spending close to the "
               "cheapest schedule's energy — static rungs either\nmiss "
               "tracking deadlines or waste energy on the relaxed phase.\n";

  // ---- v2: the same mission under field conditions — midday heat soaks
  // derate the clock (and scale battery leakage), a nightly uplink blackout
  // queues frames the governor drains back-to-back at dawn, and the
  // predictive variant pre-locks the next rung's PLL during sleep.
  scenario::MissionSpec v2 = spec;
  v2.name = "sentry-2w-v2";
  // Anchor the tracking bound inside the relock window above the ladder's
  // mixed rung when it has one: such a rung is mux-reachable only with a
  // pre-locked PLL — the predictive governor's lever (docs/scenarios.md).
  const power::PowerModel pm(sim.power);
  if (const auto anchor = scenario::find_prelock_anchor(
          gov.rungs(), gov.t_base_us(), sim.switching, pm)) {
    v2.qos_events.clear();
    for (int day = 0; day < days; ++day) {
      const double base_s = day * 86400.0;
      v2.qos_events.push_back({base_s + 20000.0, anchor->tight_slack});
      v2.qos_events.push_back({base_s + 24000.0, v2.base_qos_slack});
      v2.qos_events.push_back({base_s + 60000.0, anchor->tight_slack});
      v2.qos_events.push_back({base_s + 66000.0, v2.base_qos_slack});
    }
  }
  if (const auto thermal = scenario::find_thermal_anchor(gov.rungs())) {
    v2.derate = thermal->derate;
    for (int day = 0; day < days; ++day) {
      v2.temp_events.push_back({day * 86400.0 + 80000.0,
                                thermal->hot_ambient_c});
      v2.temp_events.push_back({day * 86400.0 + 84000.0, 25.0});
    }
  }
  v2.uplink_queue_frames = 256;
  for (int day = 0; day < days; ++day) {
    v2.connectivity.push_back({day * 86400.0, 40000.0});
    v2.connectivity.push_back({day * 86400.0 + 50000.0, 36400.0});
  }

  scenario::LadderPolicy pred(gov.rungs(), sim.switching, sim.power,
                              "governor+prelock", true);
  std::cout << "\n=== v2: heat soaks + nightly uplink blackout ===\n"
            << "policy              frames   misses  switches  energy(J)  "
               "battery life\n";
  const scenario::MissionReport rp =
      simulate_mission(v2, pred, gov.t_base_us(), sim);
  const scenario::MissionReport rr =
      simulate_mission(v2, gov, gov.t_base_us(), sim);
  print_row(rp);
  print_row(rr);
  std::cout << "\npredictive pre-lock: " << rp.prelocks << " sleeps relocked ("
            << rp.prelock_hits << " hits, " << rp.prelock_misses
            << " misses), " << std::setprecision(1) << rp.prelock_uj * 1e-6
            << " J spent off the wake path\nbacklog: max " << rp.max_backlog
            << " frames queued, " << std::setprecision(0)
            << rp.backlog_latency_s << " s of latency debt drained, "
            << rp.frames_dropped << " dropped\nthermal: "
            << rp.derated_frames << " derated frames, "
            << rp.thermal_violations << " violations\n";

  // ---- v3: energy model v2 — a solar panel charges the battery through
  // the day (rate-capped, thermally derated alongside the heat soaks) and
  // the radio prices every uplinked frame (PA ramp + 512 B at 250 kbit/s).
  // The mission-level Pareto front over (total energy, mean lateness) shows
  // where each policy sits in the energy/latency-debt trade
  // (docs/scenarios.md).
  scenario::MissionSpec v3 = v2;
  v3.name = "sentry-2w-v3";
  v3.battery.charge_rate_cap_mw = 5.0;
  v3.radio = {250.0, 512.0, 80.0, 1500.0};
  for (int day = 0; day < days; ++day) {
    const double base_s = day * 86400.0;
    v3.harvest_events.push_back({base_s + 21600.0, 2.5});
    v3.harvest_events.push_back({base_s + 28800.0, 6.0});
    v3.harvest_events.push_back({base_s + 72000.0, 2.5});
    v3.harvest_events.push_back({base_s + 82800.0, 0.0});
  }

  std::vector<scenario::MissionReport> v3_reports;
  v3_reports.push_back(simulate_mission(v3, pred, gov.t_base_us(), sim));
  v3_reports.push_back(simulate_mission(v3, gov, gov.t_base_us(), sim));
  for (const scenario::RungInfo& rung : gov.rungs()) {
    const scenario::StaticPolicy fixed(rung);
    v3_reports.push_back(simulate_mission(v3, fixed, gov.t_base_us(), sim));
  }
  const scenario::MissionReport& r3 = v3_reports.front();
  const scenario::MissionReport* cheapest_zero_miss = nullptr;
  for (const scenario::MissionReport& rep : v3_reports) {
    if (rep.deadline_misses == 0 &&
        (!cheapest_zero_miss ||
         rep.total_uj() < cheapest_zero_miss->total_uj())) {
      cheapest_zero_miss = &rep;
    }
  }
  std::cout << "\n=== v3: + solar harvesting and radio uplink costs ===\n"
            << "harvest: " << std::setprecision(1) << r3.harvested_mwh
            << " mWh stored over the mission (cap "
            << v3.battery.charge_rate_cap_mw << " mW), radio: "
            << r3.radio_uj * 1e-6 << " J for " << r3.frames
            << " uplinked frames\n\n"
            << "mission Pareto front, total energy (J) vs mean lateness "
               "(s):\n";
  for (const scenario::MissionParetoPoint& p :
       scenario::mission_pareto(v3_reports)) {
    std::cout << "  " << (p.on_front ? "* " : "  ") << std::left
              << std::setw(19) << p.policy << std::right
              << std::setprecision(1) << std::setw(8) << p.total_uj / 1e6
              << std::setprecision(3) << std::setw(10) << p.mean_lateness_s
              << (p.deadline_misses
                      ? "   (" + std::to_string(p.deadline_misses) +
                            " misses)"
                      : "")
              << "\n";
  }
  std::cout << "\nReading: '*' marks the front. Statics buy low lateness "
               "with energy (fast rungs)\nor low energy with overrun debt "
               "(slow rungs). Cheapest zero-miss policy: "
            << (cheapest_zero_miss ? cheapest_zero_miss->policy : "none")
            << ".\n";

  // ---- v4: the fault layer (scenario/faults.hpp) — a lossy uplink (3%
  // per-attempt loss, <=3 retries with jittered exponential backoff), three
  // 200 s link micro-blackouts per day with a watchdog reset striking 100 s
  // into each gap, and a hard radio outage every evening. The same node
  // runs twice: cold boot (a reset loses the backlog and the governor's
  // learned state) vs periodic GovernorCheckpoints every 60 s (a reset
  // restores the rung preference, miss EWMA and every queued frame captured
  // up to the checkpoint). Availability = delivered / offered frames.
  scenario::MissionSpec v4 = v3;
  v4.name = "sentry-2w-v4";
  v4.connectivity.clear();
  for (int day = 0; day < days; ++day) {
    const double base_s = day * 86400.0;
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

  // The observed mission: the richest walkthrough (faults + checkpoints +
  // harvest + radio) under the predictive governor. The sink is attached to
  // this one simulate_mission only, so a --trace file carries nothing but
  // sim-time-stamped events and is byte-identical across runs.
  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  obs::Sink sink;
  if (!trace_path.empty()) sink.trace = &trace;
  if (want_metrics) sink.metrics = &metrics;
  obs::Sink* const mission_sink =
      sink.trace != nullptr || sink.metrics != nullptr ? &sink : nullptr;
  pred.set_sink(mission_sink);
  scenario::MissionReport warm =
      simulate_mission(v4_ckpt, pred, gov.t_base_us(), sim, mission_sink);
  pred.set_sink(nullptr);
  warm.policy += "+ckpt";
  const scenario::MissionReport cold =
      simulate_mission(v4, pred, gov.t_base_us(), sim);
  std::cout << "\n=== v4: + faults — lossy uplink, brownout resets, "
               "checkpoints ===\n"
            << "policy              avail   dropped  retries  txfail  "
               "resets  energy(J)\n";
  auto fault_row = [&](const scenario::MissionReport& r) {
    std::cout << std::left << std::setw(19) << r.policy << std::right
              << std::setprecision(4) << std::setw(7) << r.availability()
              << std::setw(9) << r.frames_dropped << std::setw(9)
              << r.retries << std::setw(8) << r.tx_failures << std::setw(8)
              << r.resets << std::setprecision(1) << std::setw(11)
              << r.total_uj() / 1e6 << "\n";
  };
  fault_row(warm);
  fault_row(cold);
  std::cout << "\nReading: every reset strikes while a micro-blackout's "
               "backlog is queued. The\ncold boot drops it ("
            << cold.frames_dropped - warm.frames_dropped
            << " more frames lost); the checkpointed node restores it\nand "
               "delivers "
            << warm.frames - cold.frames << " more frames for "
            << std::setprecision(2)
            << (warm.total_uj() - cold.total_uj()) / 1e6 << " J of "
            << warm.checkpoints << " checkpoints ("
            << std::setprecision(1) << warm.downtime_s
            << " s down either way).\n";

  // ---- v5 (--fleet N): the checkpointed v4 node, N of them. Every node
  // draws its own battery age, panel orientation, link quality and
  // microclimate from a stream seeded with (fleet seed ^ node id)
  // (scenario/fleet.hpp), all reading the one predictive ladder, fanned out
  // across the thread pool on the SoA batch engine. The aggregate is
  // byte-identical for any thread count (docs/scenarios.md).
  if (fleet_nodes > 0) {
    scenario::FleetSpec fl;
    fl.name = model.name() + "-fleet";
    fl.seed = 0x5e17f1ee7ULL;
    scenario::DeviceClass cls;
    cls.name = "sentry";
    cls.nodes = static_cast<std::uint32_t>(fleet_nodes);
    cls.base = v4_ckpt;
    cls.variation = {0.4, 0.5, 0.3, 8.0};
    cls.policy = &pred;
    cls.t_base_us = gov.t_base_us();
    cls.sim = sim;
    fl.classes.push_back(cls);

    const scenario::FleetReport fr = scenario::simulate_fleet(fl);
    std::cout << "\n=== v5: fleet of " << fr.nodes
              << " — seeded node spread, shared ladder, SoA fan-out ===\n"
              << "fleet availability " << std::setprecision(4)
              << fr.fleet_availability() << ", " << fr.depleted << "/"
              << fr.nodes << " nodes depleted, " << std::setprecision(1)
              << fr.total_energy_uj / 1e6 << " J total ("
              << fr.total_harvested_mwh << " mWh harvested)\n\n"
              << "per-node spread       p10       p50       p90       p99\n";
    const auto dist_row = [](const char* label,
                             const scenario::Distribution& d, double scale,
                             int prec) {
      std::cout << std::left << std::setw(17) << label << std::right
                << std::setprecision(prec) << std::setw(10) << d.p10 * scale
                << std::setw(10) << d.p50 * scale << std::setw(10)
                << d.p90 * scale << std::setw(10) << d.p99 * scale << "\n";
    };
    dist_row("energy (J)", fr.energy_uj, 1e-6, 1);
    dist_row("lateness (s)", fr.lateness_s, 1.0, 3);
    dist_row("availability", fr.availability, 1.0, 4);
    std::cout << "\nsurvival (fraction of nodes not battery-depleted):\n";
    const std::size_t stride =
        fr.survival.size() > 6 ? fr.survival.size() / 6 : 1;
    for (std::size_t i = stride - 1; i < fr.survival.size(); i += stride) {
      const scenario::FleetSurvivalPoint& p = fr.survival[i];
      std::cout << "  t=" << std::setprecision(1) << std::setw(9)
                << p.t_s / 3600.0 << " h   " << std::setprecision(3)
                << p.fraction << "\n";
    }
    std::cout << "\nReading: one ladder serves every node; the weak tail "
                 "(aged cells, shaded\npanels) sets the p99 energy and the "
                 "survival knee. The same aggregate is\nbyte-identical at "
                 "any thread count (DAEDVFS_THREADS).\n";
  }

  // ---- v6: duty-cycled uplinks on the same faulted, checkpointed mission
  // and the same predictive governor: radio_batch_frames = 8 pays one PA
  // ramp per eight payloads, and the engine nets the amortized burst into
  // the governor's catch-up budget.
  {
    scenario::MissionSpec v6 = v4_ckpt;
    v6.name = "sentry-2w-v6";
    v6.radio_batch_frames = 8;
    scenario::MissionReport batched =
        simulate_mission(v6, pred, gov.t_base_us(), sim);
    batched.policy += "+ckpt+batch8";
    std::cout << "\n=== v6: + duty-cycled uplinks — 8-frame tx batches ===\n"
              << "policy              avail   dropped  retries  txfail  "
                 "resets  energy(J)\n";
    fault_row(batched);
    fault_row(warm);
    std::cout << "\nReading: batching pays the PA ramp once per eight "
                 "frames ("
              << std::setprecision(1)
              << (warm.radio_uj - batched.radio_uj) / 1e6
              << " J of radio\nenergy back) at the same declared QoS — "
              << std::setprecision(4) << batched.availability()
              << " availability vs " << warm.availability()
              << "\nfor per-frame uplinks.\n";
  }

  if (!trace_path.empty()) {
    std::ofstream tf(trace_path, std::ios::binary);
    if (!tf) {
      std::cerr << "cannot open " << trace_path << " for writing\n";
      return 1;
    }
    trace.write_chrome_json(tf);
    std::cout << "\ntrace: " << trace.size() << " events ("
              << trace.dropped() << " dropped) -> " << trace_path << "\n";
  }
  if (want_metrics) {
    if (metrics_path.empty()) {
      std::cout << "\n";
      metrics.write_json(std::cout);
      std::cout << "\n";
    } else {
      std::ofstream mf(metrics_path, std::ios::binary);
      if (!mf) {
        std::cerr << "cannot open " << metrics_path << " for writing\n";
        return 1;
      }
      metrics.write_json(mf);
      mf << "\n";
      std::cout << "metrics -> " << metrics_path << "\n";
    }
  }
  return 0;
}
