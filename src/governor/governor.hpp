// Adaptive schedule governor: precomputes a *ladder* of DAE+DVFS schedules —
// the MCKP solved at several QoS slacks over ONE design-space exploration,
// one shared mckp::DpWorkspace (single DP pass via solve_dp_sweep) and one
// dse::ProfileCache — and switches rungs online as deployment conditions
// change (QoS events, frame-rate bursts, low battery, thermal derating,
// connectivity backlog, radio uplink costs). Per frame it picks the
// minimum-energy rung whose measured latency, net of the clock-tree
// transition cost out of the wake state, still meets the active deadline —
// tightened by the backlog catch-up budget net of the per-frame radio
// burst, so the governor trades compute energy against backlog latency
// debt AND radio cost — the shared scenario::LadderPolicy decision rule.
//
// With `GovernorConfig::predictive` set, the governor additionally predicts
// the rung it would run next frame if waking were free, and the scenario
// engine pre-locks that rung's entry PLL during sleep: the relock moves off
// the wake critical path, so rungs that a reactive wake could not reach
// inside the deadline (wrap-around relocks, cross-family switches) become
// eligible. A missed prediction degrades gracefully to the PR 2 reactive
// transition.
//
// Under the fault model (scenario/faults.hpp) the governor inherits
// LadderPolicy's DegradedMode ladder: under sustained miss pressure or
// critical charge, degraded_skip() sheds a bounded number of captures per
// served frame instead of letting the node brown out. Its online state
// (rung preference, miss EWMA) is what a periodic GovernorCheckpoint
// snapshots — a brownout reset either cold-boots that state or restores
// it, the warm-vs-cold trade bench_scenario's fault mission measures.
//
// The ladder build is the expensive part and happens once in the
// constructor; choose() is a handful of comparisons — cheap enough to run
// per inference on-device.
#pragma once

#include <vector>

#include "core/pipeline.hpp"
#include "mckp/mckp.hpp"
#include "runtime/schedule.hpp"
#include "scenario/policy.hpp"

namespace daedvfs::governor {

struct GovernorConfig {
  /// Candidate QoS slacks of the ladder. Rungs that come out infeasible,
  /// identical to another rung, or dominated (no faster AND cheaper than
  /// some other rung) are dropped.
  std::vector<double> qos_slacks = {0.05, 0.10, 0.20, 0.30, 0.50};
  /// Shared pipeline parameterization (design space, simulator, MCKP ticks,
  /// repair budget, exact_simulation escape hatch). `qos_slack` is ignored —
  /// the ladder supplies its own. Set `explore.cache` to share one
  /// dse::ProfileCache — profiles and simulated schedule runs — across
  /// governors/pipelines of an evaluation suite.
  core::PipelineConfig pipeline;
  /// Predictive PLL pre-lock during sleep (see file comment). Off by
  /// default: the reactive governor is the PR 2 baseline the benches
  /// compare the predictive one against.
  bool predictive = false;
};

class ScheduleGovernor final : public scenario::LadderPolicy {
 public:
  /// Builds the ladder (DSE + MCKP sweep + per-rung smoothing/QoS repair).
  /// `model` is only borrowed during construction.
  ScheduleGovernor(const graph::Model& model, GovernorConfig cfg);

  [[nodiscard]] std::string name() const override {
    return predictive_ ? "governor+prelock" : "governor";
  }

  [[nodiscard]] double t_base_us() const { return t_base_us_; }
  /// Executable schedule behind rung `i` (aligned with rungs()).
  [[nodiscard]] const runtime::Schedule& schedule(int i) const {
    return schedules_.at(static_cast<std::size_t>(i));
  }
  [[nodiscard]] const dse::ExploreStats& explore_stats() const {
    return explore_stats_;
  }
  [[nodiscard]] const GovernorConfig& config() const { return cfg_; }

  /// Per-layer MCKP instance the ladder was solved from (classes = layers,
  /// items = each layer's Pareto-optimal operating points; `capacity`
  /// unset). Retained for the serving layer (serve::ScheduleServer), which
  /// re-sweeps it at quantized deadlines the precomputed rungs do not cover.
  [[nodiscard]] const mckp::Instance& mckp_instance() const {
    return mckp_instance_;
  }
  /// Constant overhead subtracted from a QoS window to obtain the MCKP
  /// latency budget (ScheduleBuilder::mckp_capacity): capacity =
  /// max(0, deadline_us - mckp_reserve_us()).
  [[nodiscard]] double mckp_reserve_us() const { return mckp_reserve_us_; }

 private:
  GovernorConfig cfg_;
  double t_base_us_ = 0.0;
  dse::ExploreStats explore_stats_;
  std::vector<runtime::Schedule> schedules_;    ///< Aligned with rungs_.
  mckp::Instance mckp_instance_;
  double mckp_reserve_us_ = 0.0;
};

}  // namespace daedvfs::governor
