// The paper's comparison points (§IV) and the iso-latency evaluation
// scenario: energy is measured over a fixed QoS window; an engine that
// finishes early idles (plain or clock-gated) until the window closes.
//
//  * TinyEngine          — fixed 216 MHz, no DAE, idle at 216 MHz after the
//                          inference until the QoS deadline.
//  * TinyEngine + gating — same execution, but idles with clocks gated and
//                          the regulator trimmed.
//
// The window is a pure function of the post-inference MCU state
// (iso_window), so one simulated inference serves both idle policies: idle
// two copies of the same end state.
#pragma once

#include "runtime/engine.hpp"
#include "runtime/schedule.hpp"
#include "sim/mcu.hpp"

namespace daedvfs::runtime {

/// The 216 MHz configuration TinyEngine runs at (min-power tuple for
/// 216 MHz in the paper's space: HSE=50, M=25, N=216, P=2).
[[nodiscard]] clock::ClockConfig tinyengine_clock();

/// TinyEngine execution schedule for `model`.
[[nodiscard]] Schedule make_tinyengine_schedule(const graph::Model& model);

/// Result of one iso-latency window.
struct IsoLatencyResult {
  double inference_us = 0.0;
  double inference_uj = 0.0;
  double idle_us = 0.0;
  double idle_uj = 0.0;
  bool met_qos = true;  ///< False if the inference overran the window.

  [[nodiscard]] double total_uj() const { return inference_uj + idle_uj; }
};

/// The fresh Mcu every whole-schedule measurement starts from: `sim` booted
/// at the schedule's first-layer HFO (at `sim.boot` for an empty schedule).
[[nodiscard]] sim::Mcu schedule_mcu(const Schedule& schedule,
                                    const sim::SimParams& sim);

/// Runs one Timing-mode inference of `schedule` on schedule_mcu and returns
/// the post-inference state: time_us()/energy_uj() are the schedule's
/// measured latency/energy, and iso_window closes a QoS window over it.
[[nodiscard]] sim::Mcu simulate_schedule(const InferenceEngine& engine,
                                         const Schedule& schedule,
                                         const sim::SimParams& sim);

/// Closes the iso-latency window over `end`, the state after one inference
/// that started at t = 0 on a fresh timeline (e.g. simulate_schedule's
/// result): idles `end` (clock-gated when `gated_idle`) until `qos_us`.
/// `end` is taken by value, so copies of one end state yield both idle
/// policies from one simulation.
[[nodiscard]] IsoLatencyResult iso_window(sim::Mcu end, double qos_us,
                                          bool gated_idle);

/// Runs one inference under `schedule` on `mcu`, then idles (`gated_idle`
/// selects clock-gated idle) until `qos_us` has elapsed since the start of
/// the inference — engine.run followed by the iso_window arithmetic.
IsoLatencyResult run_iso_latency(InferenceEngine& engine, sim::Mcu& mcu,
                                 const Schedule& schedule, double qos_us,
                                 bool gated_idle,
                                 kernels::ExecMode mode);

}  // namespace daedvfs::runtime
