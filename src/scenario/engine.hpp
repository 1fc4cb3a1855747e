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

#include <cstddef>
#include <memory>

#include "obs/sink.hpp"
#include "scenario/mission.hpp"
#include "scenario/policy.hpp"
#include "sim/mcu.hpp"

namespace daedvfs::scenario {

/// Mission batch: one shared policy/ladder (read-only) and one sim
/// parameterization serve all its nodes. Each node's slot-loop state
/// (battery, backlog ring, pre-lock, jitter/fault RNG streams, event
/// cursors) is one NodeState; event timelines and backlog rings live in
/// shared arenas. The batch prices the ladder's wake transitions once
/// (WakeTable, scenario/policy.hpp) and every frame of every node reads
/// them from there. The fleet layer (scenario/fleet.hpp) builds one batch
/// per worker chunk; the scalar `simulate_mission` below is exactly the N=1
/// case, so batched and standalone reports are bit-identical by
/// construction (pinned by the golden report, the 200-seed fuzz digests,
/// and test_fleet.cpp).
///
/// Usage: add() every node, then run() each node exactly once. Threading:
/// distinct nodes touch disjoint state, so different nodes may run
/// concurrently from different threads once all add() calls are done; the
/// policy is only read (attach no obs sink to a shared LadderPolicy while
/// batches run in parallel — its counters are not atomic).
class MissionBatch {
 public:
  /// `policy` is borrowed for the batch's lifetime; `sim` is read here
  /// only (its wake-transition prices are tabulated).
  MissionBatch(const SchedulePolicy& policy, double t_base_us,
               const sim::SimParams& sim);
  ~MissionBatch();
  MissionBatch(const MissionBatch&) = delete;
  MissionBatch& operator=(const MissionBatch&) = delete;

  /// Registers one node and initializes its state slot. `spec` is borrowed
  /// and must outlive the batch. Returns the node index.
  std::size_t add(const MissionSpec& spec);
  [[nodiscard]] std::size_t size() const;

  /// Simulates node `node` to completion and returns its report —
  /// bit-identical to simulate_mission on the same spec. Consumes the
  /// node's state: each node runs exactly once.
  [[nodiscard]] MissionReport run(std::size_t node, obs::Sink* sink = nullptr);

 private:
  struct Block;  ///< Node states, arenas and wake table (engine.cpp).
  std::unique_ptr<Block> b_;
};

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

}  // namespace daedvfs::scenario
