// Deployment policy interface of the scenario engine: something that owns a
// ladder of executable schedules ("rungs") and picks one per frame. The
// adaptive governor (governor/governor.hpp) is the interesting
// implementation; StaticPolicy pins one rung forever and is the baseline the
// benches compare against. LadderPolicy holds the shared online decision
// rule (minimum energy under the active deadline, thermal-cap filtering,
// backlog catch-up, optional predictive PLL pre-lock) so the governor and
// synthetic test ladders run the exact same code.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "clock/clock_config.hpp"
#include "clock/rcc.hpp"
#include "obs/sink.hpp"
#include "power/power_model.hpp"
#include "scenario/mission.hpp"

namespace daedvfs::obs {
class Counter;
}

namespace daedvfs::scenario {

/// One deployable schedule, reduced to what the long-horizon simulation
/// needs: measured per-inference latency/energy (full-model simulation,
/// inter-layer switch costs included) and the clock configurations at its
/// boundaries (they price the transition into the next frame).
struct RungInfo {
  std::string name;
  double qos_slack = 0.0;   ///< Slack the schedule was built for.
  double t_us = 0.0;        ///< Measured inference latency.
  double e_uj = 0.0;        ///< Measured inference energy.
  clock::ClockConfig entry_hfo;  ///< First layer's clock.
  clock::ClockConfig exit_hfo;   ///< Last layer's clock.
  /// Peak SYSCLK any layer of the schedule runs at — what a thermal cap
  /// (FrameContext::max_sysclk_mhz) is compared against. 0 = unknown
  /// (legacy rungs): treated as max(entry, exit).
  double max_sysclk_mhz = 0.0;

  [[nodiscard]] double peak_mhz() const {
    if (max_sysclk_mhz > 0.0) return max_sysclk_mhz;
    const double e = entry_hfo.sysclk_mhz();
    const double x = exit_hfo.sysclk_mhz();
    return e > x ? e : x;
  }
};

class WakeTable;

/// What a policy sees when asked to schedule one frame.
struct FrameContext {
  double time_s = 0.0;       ///< Mission time of the frame.
  double deadline_us = 0.0;  ///< Active QoS deadline for this inference.
  double period_s = 0.0;     ///< Active inference period.
  double battery_soc = 1.0;  ///< Battery state of charge in [0, 1].

  /// Thermal clock cap; rungs whose peak clock exceeds it should not run.
  /// 0 = uncapped.
  double max_sysclk_mhz = 0.0;
  /// Frames queued behind this one (connectivity backlog). Policies burn
  /// the debt down by picking rungs fast enough to drain the queue.
  std::uint32_t backlog = 0;
  /// Time left in the active connectivity window; < 0 = unbounded (always
  /// connected, or no window accounting).
  double window_remaining_s = -1.0;
  /// Per-frame uplink transmit time (power::RadioModel), 0 when the radio
  /// model is disabled. Serving a frame occupies the slot for compute PLUS
  /// this burst, so the backlog catch-up budget subtracts it from each
  /// frame's share of the closing window. Under radio duty-cycling
  /// (MissionSpec::radio_batch_frames) this is the amortized cost of *this*
  /// frame — payload-only for a follow frame riding an already-ramped PA —
  /// which is how batching is netted into the catch-up budget.
  double radio_us = 0.0;
  /// Clock-tree state at wake, when the engine tracks it (pre-lock aware):
  /// state `wake_id` of `wake_table`, the engine's interned wake states of
  /// this policy's ladder (a table built for rungs(); simulate_mission
  /// checks that once per mission, and the policy reads its decision index
  /// without re-checking it per frame). Unset (nullptr / -1) on a cold
  /// start or when calling choose() outside the engine — policies then fall
  /// back to the previous rung's exit state.
  const WakeTable* wake_table = nullptr;
  int wake_id = -1;
};

class SchedulePolicy {
 public:
  virtual ~SchedulePolicy() = default;
  [[nodiscard]] virtual const std::vector<RungInfo>& rungs() const = 0;
  /// Picks the rung for the next frame. `current_rung` is the previously
  /// executed rung (-1 on the first frame).
  [[nodiscard]] virtual int choose(const FrameContext& ctx,
                                   int current_rung) const = 0;
  /// Rung the policy expects to run next frame, given the frame just
  /// executed. A non-negative answer lets the engine pre-lock that rung's
  /// entry PLL (and pre-settle the regulator) during the following sleep,
  /// moving the relock off the wake critical path; a wrong prediction falls
  /// back to the reactive wake transition. -1 (default) disables
  /// prediction.
  [[nodiscard]] virtual int predict_next(const FrameContext& ctx,
                                         int chosen) const {
    (void)ctx;
    (void)chosen;
    return -1;
  }
  /// Graceful-degradation decision (DegradedMode ladder): after a served
  /// frame, how many upcoming captures to shed given the battery state and
  /// the engine-maintained deadline-miss EWMA. The engine clamps the answer
  /// to `spec.max_skip` and accounts every shed frame
  /// (MissionReport::frames_shed). Default: never shed — a degradation-
  /// blind policy (StaticPolicy) rides its declared QoS into brownout,
  /// which is exactly the baseline the fault benches compare against.
  [[nodiscard]] virtual std::uint32_t degraded_skip(
      double battery_soc, double miss_ewma,
      const DegradedModeSpec& spec) const {
    (void)battery_soc;
    (void)miss_ewma;
    (void)spec;
    return 0;
  }
  [[nodiscard]] virtual std::string name() const = 0;
};

using TransitionCost = power::TransitionCost;

/// Cost of waking into `to` from the clock-tree state sleep retained
/// (`wake`: the previous rung's exit, clock::RccState::at(exit_hfo), unless
/// a pre-lock repositioned it): SYSCLK mux + PLL relock when the parameters
/// are not already locked + regulator settle when the scale differs,
/// stalled at the target's memory-stall power — power::price_switch, the
/// same priced transition whole-schedule replay runs.
[[nodiscard]] TransitionCost wake_transition(clock::RccState wake,
                                             const RungInfo& to,
                                             const clock::SwitchCostParams& sw,
                                             const power::PowerModel& pm);

/// Which tier of the tiered-fallback ladder resolved a pick — the decision
/// mix the governor metrics expose (governor.tier_* counters).
enum Tier : int {
  kTierBudget = 0,    ///< Met the backlog catch-up budget.
  kTierDeclared = 1,  ///< Budget dropped; met the declared deadline.
  kTierFastest = 2,   ///< Nothing met the deadline; fastest reachable rung.
  kTierCoolest = 3,   ///< Thermal cap excluded everything; coolest rung.
};

struct RungPick {
  int rung = -1;  ///< -1 iff the ladder is empty.
  Tier tier = kTierBudget;
};

/// Backlog catch-up budget of LadderPolicy (see there): each queued frame's
/// share of the closing window net of its uplink burst, `window_remaining_s
/// / (backlog + 1) - radio_us`; +infinity without a backlog or a window.
[[nodiscard]] double catch_up_budget_us(std::uint32_t backlog,
                                        double window_remaining_s,
                                        double radio_us);

/// The shared decision rule: with rungs above `cap_mhz` barred (0 =
/// uncapped), the minimum-energy rung meeting min(deadline, budget), else
/// the one meeting the deadline, else the fastest eligible rung, else the
/// coolest rung. A rung's latency and energy include the wake-transition
/// cost `wake` holds for it (nullptr: no transition); energy ties go to the
/// lower rung, and so do latency ties for the fastest rung. Builds a
/// one-row RungIndex and asks it, the index LadderPolicy reads per frame
/// from its WakeTable; the schedule server calls this to tabulate picks.
[[nodiscard]] RungPick select_rung(const std::vector<RungInfo>& rungs,
                                   double deadline_us, double budget_us,
                                   double cap_mhz,
                                   const TransitionCost* wake);

/// select_rung's rule precomputed for rows of wake costs over one ladder.
/// A row lists the rungs by ascending (t, rung), NaN latencies last, where
/// t = t_us + the row's transition us and e = e_uj + its uj are the rule's
/// own expressions, evaluated once. Each slot also carries the rung's peak
/// clock and the best rung (lowest e, lowest rung on ties, e below +inf)
/// among the slots up to it. Rungs with t <= a bound then form a prefix of
/// the row, so an uncapped pick walks the row to the deadline and reads the
/// prefix's best; a cap that bars some rung walks the same prefix and skips
/// the barred slots. Either way the answer is select_rung's by
/// construction: the same sums, the same comparisons, the same tie rule.
class RungIndex {
 public:
  RungIndex() = default;
  /// An index with no rows over `rungs` and room for `rows`: records the
  /// coolest rung and the highest peak clock (which tells a cap that bars
  /// nothing).
  RungIndex(const std::vector<RungInfo>& rungs, std::size_t rows);

  /// Appends the row for the wake costs `wake` into each of `rungs` (the
  /// constructor's ladder; nullptr = no transition). Rows number from 0.
  void add_row(const std::vector<RungInfo>& rungs,
               const TransitionCost* wake);

  /// select_rung over row `row`.
  [[nodiscard]] RungPick pick(std::size_t row, double deadline_us,
                              double budget_us, double cap_mhz) const;

 private:
  struct Slot {
    double t = 0.0;     ///< t_us + transition us.
    double e = 0.0;     ///< e_uj + transition uj.
    double peak = 0.0;  ///< RungInfo::peak_mhz().
    int rung = -1;
    int best = -1;  ///< Best rung of the row's slots up to here; -1: none.
  };

  std::size_t rungs_ = 0;
  int coolest_ = -1;  ///< Lowest peak clock, lowest rung on ties.
  double max_peak_ = -std::numeric_limits<double>::infinity();
  std::vector<Slot> slots_;  ///< Row-major, rungs_ slots per row.
};

/// Every wake transition a ladder can pay, priced once. The wake states a
/// mission can reach form a small finite set — the boot state, each rung's
/// exit state, and the pre-lock repositions out of those exits — so they
/// are interned into integer ids (at most N + 1 + N² for N rungs) and the
/// hot loop reads rows instead of re-running clock and power physics per
/// frame. Each entry is the value wake_transition /
/// clock::background_reposition_cost return for that state, evaluated once
/// at construction, so table reads are bit-identical to pricing on the fly.
/// Each row, the free-wake row and a no-transition row also carry a
/// RungIndex row, so a frame's decision is a short walk (pick()).
class WakeTable {
 public:
  /// A background pre-lock (clock::background_reposition_cost) toward a
  /// rung's entry clock: the state it leaves behind, its duration and its
  /// energy at the repositioned tree's memory-stall power. `us == 0` means
  /// the tree is already positioned (`to` is then the origin state).
  struct Reposition {
    int to = -1;
    double us = 0.0;
    double uj = 0.0;
  };

  WakeTable() = default;
  /// Interns the ladder's exit states, the pre-lock repositions out of
  /// them and, when `boot` is given, the state a (re)booted node wakes
  /// into; then prices every (state, rung) transition and indexes every
  /// row for select_rung.
  WakeTable(const std::vector<RungInfo>& rungs,
            const clock::SwitchCostParams& switching,
            const power::PowerModel& pm,
            const std::optional<clock::ClockConfig>& boot = std::nullopt);

  [[nodiscard]] std::size_t state_count() const { return states_.size(); }
  /// Ladder size the table was priced for (entries per row).
  [[nodiscard]] std::size_t rung_count() const { return rungs_; }
  /// Whether the table was built for `rungs`: the same latencies, energies,
  /// peak clocks and boundary clocks, bit for bit (names and slacks aside).
  [[nodiscard]] bool built_for(const std::vector<RungInfo>& rungs) const;
  [[nodiscard]] const clock::RccState& state(int id) const {
    return states_[static_cast<std::size_t>(id)];
  }
  /// -1 when built without a boot configuration.
  [[nodiscard]] int boot_id() const { return boot_; }
  /// State left behind by a frame executed on `rung`.
  [[nodiscard]] int exit_id(int rung) const {
    return exit_[static_cast<std::size_t>(rung)];
  }
  /// Cost of waking from state `id` into each rung (one entry per rung).
  [[nodiscard]] const TransitionCost* row(int id) const {
    return cost_.data() + static_cast<std::size_t>(id) * rungs_;
  }
  /// Wake into each rung through a pre-locked PLL: the bare mux toggle at
  /// the rung's entry memory-stall power (one entry per rung).
  [[nodiscard]] const TransitionCost* free_wake() const {
    return free_.data();
  }
  /// Pre-lock toward rung `to`'s entry clock out of rung `from`'s exit
  /// state — the only state a pre-lock starts from (it follows a served
  /// frame).
  [[nodiscard]] const Reposition& reposition(int from, int to) const {
    return reposition_[static_cast<std::size_t>(from) * rungs_ +
                       static_cast<std::size_t>(to)];
  }
  /// Decision-index row of the pre-locked wake (free_wake()).
  [[nodiscard]] std::size_t free_row() const { return states_.size(); }
  /// Decision-index row of a frame that pays no transition.
  [[nodiscard]] std::size_t no_transition_row() const {
    return states_.size() + 1;
  }
  /// select_rung over decision-index row `row`: a state id, free_row() or
  /// no_transition_row().
  [[nodiscard]] RungPick pick(std::size_t row, double deadline_us,
                              double budget_us, double cap_mhz) const {
    return index_.pick(row, deadline_us, budget_us, cap_mhz);
  }
  /// Same ladder size and same switch/power parameters: rows of either
  /// table price a given state identically (and, for two tables built for
  /// one ladder, decide it identically).
  [[nodiscard]] bool prices_like(const WakeTable& other) const {
    return rungs_ == other.rungs_ && switching_ == other.switching_ &&
           power_ == other.power_;
  }

 private:
  int intern(const clock::RccState& w);

  std::vector<RungInfo> ladder_;  ///< What built_for() compares against.
  /// ladder_.size(), kept as a field: dropping it moved perfbench's serve
  /// query pool onto a slow page offset (docs/perf.md, "Indexed rung
  /// decisions").
  std::size_t rungs_ = 0;
  clock::SwitchCostParams switching_;
  power::PowerModelParams power_;
  std::vector<clock::RccState> states_;
  int boot_ = -1;
  std::vector<int> exit_;
  std::vector<TransitionCost> cost_;  ///< state-major, rungs_ per row.
  std::vector<TransitionCost> free_;
  std::vector<Reposition> reposition_;  ///< from-rung-major.
  /// One row per state, then the free-wake and no-transition rows.
  RungIndex index_;
};

/// DegradedMode ladder: shed severity is the worse of the SoC deficit below
/// `critical_soc` and the miss-EWMA excess above `miss_pressure`, each
/// normalized to [0, 1]; the skip factor is the severity-scaled share of
/// `max_skip` (rounded up, so any pressure sheds at least one frame). Zero
/// while both triggers are clear.
[[nodiscard]] std::uint32_t degraded_skip(double battery_soc, double miss_ewma,
                                          const DegradedModeSpec& spec);

/// Shared ladder decision rule. Owns a rung ladder plus the switch/power
/// parameterization that prices wake transitions, and implements:
///
///   choose  — minimum-energy rung whose latency plus the wake-transition
///             cost meets the effective deadline, where the effective
///             deadline is the declared QoS bound tightened (never loosened)
///             by the backlog catch-up budget `window_remaining / (backlog
///             + 1) - radio_tx` (each queued frame's share of the closing
///             window must also fit its uplink burst). Rungs above the
///             thermal cap are filtered out first.
///             Tiered fallbacks keep the declared QoS primary: if nothing
///             meets the catch-up budget the budget is dropped; if nothing
///             meets the declared deadline the fastest reachable rung runs
///             (the miss is the engine's to count); if the cap excludes
///             every rung, the coolest rung runs (the engine counts the
///             thermal violation).
///   predict — with `predictive` set: the rung choose() would pick for an
///             unchanged context if waking were free (transitions reduced
///             to the mux toggle) — exactly what a pre-lock establishes.
///             Without `predictive`: -1 (the PR 2 reactive behavior).
///
/// The governor derives from this class; tests drive it with synthetic
/// ladders so the fuzz harness exercises the very same decision code.
class LadderPolicy : public SchedulePolicy {
 public:
  LadderPolicy(std::vector<RungInfo> rungs, clock::SwitchCostParams switching,
               power::PowerModelParams power, std::string name = "ladder",
               bool predictive = false);

  [[nodiscard]] const std::vector<RungInfo>& rungs() const override {
    return rungs_;
  }
  [[nodiscard]] int choose(const FrameContext& ctx,
                           int current_rung) const override;
  [[nodiscard]] int predict_next(const FrameContext& ctx,
                                 int chosen) const override;
  /// scenario::degraded_skip.
  [[nodiscard]] std::uint32_t degraded_skip(
      double battery_soc, double miss_ewma,
      const DegradedModeSpec& spec) const override;
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] bool predictive() const { return predictive_; }

  /// Attaches a metrics sink: choose()/predict_next() then count their
  /// calls and which fallback tier of the decision rule resolved each frame
  /// (governor.tier_* counters, docs/observability.md). Purely
  /// observational — decisions are unchanged; nullptr detaches. Counter
  /// references are hoisted here once so the per-frame cost is one pointer
  /// test + increment.
  void set_sink(obs::Sink* sink);

 protected:
  /// For subclasses (the governor) that build the ladder after base-class
  /// construction; they install it through set_rungs().
  LadderPolicy(clock::SwitchCostParams switching,
               power::PowerModelParams power, bool predictive);
  /// Replaces the ladder and re-prices table_ for it.
  void set_rungs(std::vector<RungInfo> rungs);

  std::vector<RungInfo> rungs_;      ///< Ascending latency.
  clock::SwitchCostParams switching_;
  power::PowerModel pm_;
  /// rungs_ priced with switching_/pm_ (no boot state): the exit rows that
  /// serve callers passing no engine wake state, and the free-wake row.
  WakeTable table_;
  std::string name_ = "ladder";
  bool predictive_ = false;

 private:
  /// choose()'s pick, from the index row of the state `ctx`'s frame wakes
  /// into: the engine's interned state when ctx carries one, else
  /// `current_rung`'s exit state, else no transition. An engine table
  /// priced with other switch/power parameters than this ladder's has the
  /// state re-priced with the ladder's own and passed to select_rung (a
  /// cold path: the governor and the engine share one SimParams everywhere
  /// in this repository).
  [[nodiscard]] RungPick pick(const FrameContext& ctx, int current_rung) const;

  /// Hoisted metrics instruments (owned by the attached registry). The
  /// pointees are bumped from the const decision methods — observational
  /// state, not decision state.
  obs::Counter* choose_calls_ = nullptr;
  obs::Counter* predict_calls_ = nullptr;
  obs::Counter* tier_counters_[4] = {nullptr, nullptr, nullptr, nullptr};
};

/// The ladder structure the predictive pre-lock exploits, found by
/// find_prelock_anchor: rung `mixed` enters at a different clock than it
/// exits (holding it reactively pays a wrap-around relock every frame)
/// while the faster, pricier rung `pure` wraps for free. `tight_slack`
/// places the deadline halfway into the relock window above the mixed rung
/// — mux-reachable with a pre-locked PLL, relock-unreachable without — the
/// spot where the predictive governor's rung-selection win materializes.
struct PrelockAnchor {
  int mixed = -1;
  int pure = -1;
  double tight_slack = 0.0;
};

/// Scans a ladder (ascending latency) for the pre-lock lever described
/// above. nullopt when the ladder has no mixed rung with a faster wrap-free
/// alternative. Shared by bench_scenario's gated v2 mission and the
/// mission_sim walkthrough so the anchoring formula cannot drift.
[[nodiscard]] std::optional<PrelockAnchor> find_prelock_anchor(
    const std::vector<RungInfo>& rungs, double t_base_us,
    const clock::SwitchCostParams& switching, const power::PowerModel& pm);

/// Thermal-derating anchor for benches/examples: a derate curve plus the
/// ambient temperature that cap the clock halfway between the ladder's
/// coolest and hottest rung peaks — hot phases then bar the fast PLL family
/// while keeping the cool one eligible. nullopt when every rung peaks at
/// the same clock (no cap can separate them). Shared by bench_scenario's
/// gated v2 mission and the mission_sim walkthrough so the derate
/// parameters cannot drift.
struct ThermalAnchor {
  ThermalDerate derate;     ///< start 45 C, 4 MHz per degree, ladder peak.
  double hot_ambient_c = 0.0;  ///< Ambient realizing the mid-family cap.
  double cap_mhz = 0.0;
};

[[nodiscard]] std::optional<ThermalAnchor> find_thermal_anchor(
    const std::vector<RungInfo>& rungs);

/// Pins one rung forever — the "best single static schedule" baseline.
class StaticPolicy final : public SchedulePolicy {
 public:
  explicit StaticPolicy(RungInfo rung) : rungs_{std::move(rung)} {}
  [[nodiscard]] const std::vector<RungInfo>& rungs() const override {
    return rungs_;
  }
  [[nodiscard]] int choose(const FrameContext&, int) const override {
    return 0;
  }
  [[nodiscard]] std::string name() const override {
    return "static(" + rungs_.front().name + ")";
  }

 private:
  std::vector<RungInfo> rungs_;
};

}  // namespace daedvfs::scenario
