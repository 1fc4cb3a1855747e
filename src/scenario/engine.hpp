// The deployment scenario engine: composes per-inference energy/latency
// results (policy rungs), clock::switch_model transition costs and
// power::Battery drain into a long-horizon mission simulation. Frames are
// O(1) each — the heavy lifting (full-model simulation of every rung) was
// done once when the policy's ladder was built — so simulating weeks of
// deployment and millions of inferences takes milliseconds.
//
// v2 mission events (docs/scenarios.md):
//   * temperature steps scale battery leakage and, with a ThermalDerate
//     curve, cap the allowed clock (thermal-aware policies downshift; the
//     report counts violations of thermal-blind ones);
//   * connectivity windows gate frame service behind a bounded backlog
//     queue — missed windows become latency debt the policy burns down by
//     draining queued frames back-to-back once the link returns;
//   * policies that implement predict_next get their predicted rung's PLL
//     pre-locked (and regulator pre-settled) during sleep, moving the
//     relock off the wake critical path; mispredictions fall back to the
//     reactive wake transition;
//   * harvest intake steps (solar profile) charge the battery over each
//     slot — piecewise-constant intake, panel thermal derating, the cell's
//     charge-rate cap and a full-battery clamp. Depletion stays terminal:
//     a node that browns out is dead, later sun does not revive it;
//   * a radio model prices every uplinked frame (PA ramp + payload at the
//     link rate): the tx energy drains the battery and the tx time occupies
//     the slot, throttling how fast a backlog drains through a window.
//
// Fault model (scenario/faults.hpp, docs/scenarios.md):
//   * lossy uplink — per-attempt loss probability plus hard outage
//     intervals; failed attempts retry with bounded exponential backoff
//     (jitter from a dedicated seeded stream), each retry pricing a full
//     radio burst and extending the frame's slot occupancy;
//   * brownout/watchdog resets — boot energy/time is paid, the node misses
//     offered captures while down, the clock tree falls back to the boot
//     configuration (pre-locks invalidated), and the governor cold-boots or
//     restores the last periodic GovernorCheckpoint (rung preference, miss
//     EWMA, and queued frames captured at or before it);
//   * graceful degradation — the policy's DegradedMode ladder sheds a
//     bounded number of captures per served frame under miss pressure or
//     critical SoC; every shed frame is accounted.
// Specs that use none of these reproduce the v1 engine bit for bit.
#pragma once

#include "obs/sink.hpp"
#include "scenario/mission.hpp"
#include "scenario/policy.hpp"
#include "sim/mcu.hpp"

namespace daedvfs::scenario {

/// Runs `spec` against `policy`. `t_base_us` is the TinyEngine-at-216 MHz
/// reference latency that converts QoS slacks into absolute deadlines
/// (deadline = t_base * (1 + slack)); `sim` supplies the switch-cost and
/// power parameters pricing rung transitions. Deterministic: equal inputs
/// produce bitwise-equal reports.
///
/// `sink` (optional) receives the mission timeline — sim-time-stamped spans
/// and counter tracks (obs::TraceRecorder) plus end-of-run counters
/// (obs::MetricsRegistry). Recording is purely observational: the report is
/// bit-identical with and without a sink, and an enabled trace is itself
/// byte-identical across runs and kernel modes (fuzz-harness pinned).
[[nodiscard]] MissionReport simulate_mission(const MissionSpec& spec,
                                             const SchedulePolicy& policy,
                                             double t_base_us,
                                             const sim::SimParams& sim,
                                             obs::Sink* sink = nullptr);

/// The same simulation with its wake transitions read from `wakes`, which
/// must price `policy.rungs()` under the mission's switch and power
/// parameters (the SimParams form above builds exactly that table and
/// calls this). Lets many missions on one ladder share one table — the
/// fleet builds one per device class. `wakes` and `policy` are only read,
/// so concurrent missions may share them (attach no obs sink to a shared
/// LadderPolicy meanwhile — its counters are not atomic). Throws
/// std::invalid_argument unless `wakes` was built for `policy.rungs()`
/// (WakeTable::built_for): a LadderPolicy decides from the table's own
/// copy of the ladder.
[[nodiscard]] MissionReport simulate_mission(const MissionSpec& spec,
                                             const SchedulePolicy& policy,
                                             double t_base_us,
                                             const WakeTable& wakes,
                                             obs::Sink* sink = nullptr);

}  // namespace daedvfs::scenario
