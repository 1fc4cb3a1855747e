// Declarative mission specs for the deployment scenario engine: a battery, a
// base duty cycle, and a timeline of events — frame-rate bursts, QoS-slack
// changes, a low-battery threshold that relaxes the latency bound, ambient
// temperature steps that derate the allowed clock and scale battery leakage,
// connectivity windows that gate frame delivery behind a bounded backlog
// queue, solar-harvest intake steps that charge the battery between frames,
// a radio model pricing every uplinked frame, and a declarative fault model
// (scenario/faults.hpp) injecting lossy uplinks, brownout/watchdog resets,
// and graceful QoS degradation. The engine (scenario/engine.hpp) simulates
// weeks of deployment against a SchedulePolicy and emits a deterministic
// MissionReport. No wall-clock randomness anywhere: the optional period
// jitter and the fault decisions are driven by independent seeded xorshift
// streams, so a (spec, policy) pair always reproduces the same report bit
// for bit (pinned by tests/test_scenario_fuzz.cpp).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "power/battery.hpp"
#include "power/radio_model.hpp"
#include "scenario/faults.hpp"

namespace daedvfs::scenario {

/// Step change of the QoS slack at a mission time (e.g. the backend tightens
/// the latency bound while an object is being tracked).
struct QosEvent {
  double at_s = 0.0;
  double qos_slack = 0.3;
};

/// Frame-rate burst: while active, inferences run every `period_s` instead
/// of the base duty-cycle period (motion detected, object tracked, ...).
struct Burst {
  double start_s = 0.0;
  double duration_s = 0.0;
  double period_s = 1.0;
};

/// Step change of the ambient temperature at a mission time (sun exposure,
/// day/night cycles). Applied in `at_s` order, later events win.
struct TempEvent {
  double at_s = 0.0;
  double ambient_c = 25.0;
};

/// Thermal derating curve: above `start_c` the sustainable SYSCLK drops
/// linearly from `nominal_max_mhz` by `mhz_per_c` per degree. The engine
/// turns the active ambient temperature into a per-frame clock cap
/// (FrameContext::max_sysclk_mhz) that thermal-aware policies respect;
/// frames executed on a rung whose peak clock exceeds the cap are counted
/// as thermal violations. `mhz_per_c == 0` disables derating.
struct ThermalDerate {
  double start_c = 60.0;
  double mhz_per_c = 0.0;
  double nominal_max_mhz = 216.0;

  /// Clock cap at `ambient_c`; 0 = uncapped (derating disabled or below
  /// the derating knee). Never derates below 1 MHz.
  [[nodiscard]] double max_sysclk_mhz(double ambient_c) const {
    if (mhz_per_c <= 0.0 || ambient_c <= start_c) return 0.0;
    const double capped = nominal_max_mhz - (ambient_c - start_c) * mhz_per_c;
    return capped < 1.0 ? 1.0 : capped;
  }
};

/// Uplink-available interval. While no window is active, captured frames
/// cannot be served and queue up (bounded) as latency debt.
struct ConnectivityWindow {
  double start_s = 0.0;
  double duration_s = 0.0;
};

/// Step change of the harvest intake at a mission time (sunrise, a cloud
/// bank, sunset back to 0). The intake is piecewise-constant between events
/// — later events win — and is scaled by the ambient temperature through
/// `MissionSpec::harvest_temp_coeff` before charging the battery, capped by
/// `power::BatteryParams::charge_rate_cap_mw` and clamped at capacity.
struct HarvestEvent {
  double at_s = 0.0;
  double intake_mw = 0.0;
};

struct MissionSpec {
  std::string name = "mission";
  power::BatteryParams battery;
  power::DutyCycle duty;             ///< Base period + sleep draw.
  double horizon_s = 14.0 * 86400.0; ///< Simulation horizon (or battery death).
  double base_qos_slack = 0.30;
  /// Slack step changes, applied in `at_s` order (later events win).
  std::vector<QosEvent> qos_events;
  /// Frame-rate bursts; overlapping bursts take the smallest period.
  std::vector<Burst> bursts;
  /// Below this state of charge the deadline is relaxed to
  /// `low_battery_qos_slack` (if that is looser than the active slack),
  /// letting the governor drop to cheaper rungs to stretch the battery.
  /// 0 disables the threshold.
  double low_battery_soc = 0.0;
  double low_battery_qos_slack = 0.50;
  /// Deterministic period jitter: each frame's period is scaled by a factor
  /// in [1 - jitter, 1 + jitter] drawn from a xorshift64 stream seeded with
  /// `seed`. 0 disables.
  double period_jitter = 0.0;
  std::uint64_t seed = 0x5eedULL;

  // ---- v2 events -----------------------------------------------------

  /// Ambient temperature before the first TempEvent. Scales the battery's
  /// self-discharge (power::Battery::set_ambient_c) and, with `derate`
  /// active, caps the allowed clock.
  double base_ambient_c = 25.0;
  std::vector<TempEvent> temp_events;
  ThermalDerate derate;

  /// Uplink-available intervals. Empty — or containing no positive-duration
  /// window — = always connected (v1 behavior: every captured frame is
  /// served immediately). While disconnected,
  /// captures queue up to `uplink_queue_frames`; overflow drops the oldest
  /// frame. While connected, the engine serves the live frame and then
  /// drains queued frames back-to-back in the remainder of each capture
  /// period — the backlog the governor burns down by picking faster rungs.
  std::vector<ConnectivityWindow> connectivity;
  std::uint32_t uplink_queue_frames = 64;

  // ---- Energy model v2: solar harvesting + radio uplink ---------------

  /// Harvest intake before the first HarvestEvent (usually 0: launch at
  /// night or indoors).
  double base_harvest_mw = 0.0;
  /// Intake step changes, applied in `at_s` order (later events win). Empty
  /// and `base_harvest_mw == 0` = no harvesting (pre-v2 behavior, bit for
  /// bit: the battery only ever discharges).
  std::vector<HarvestEvent> harvest_events;
  /// Panel thermal derating: the effective intake is scaled by
  /// `1 - harvest_temp_coeff * (ambient_c - 25)`, clamped at 0 — a typical
  /// c-Si panel loses ~0.4%/C above the 25 C reference (and gains a little
  /// below it). 0 disables the scaling.
  double harvest_temp_coeff = 0.004;
  /// Uplink radio pricing every served frame (ramp + payload at the link
  /// rate, scenario engine drains `tx_uj` and occupies the slot for
  /// `tx_us`). Default-disabled: missions without radio params serve frames
  /// for free (pre-v2 behavior, bit for bit).
  power::RadioParams radio;
  /// Radio duty-cycling (PR 10): frames drained back-to-back inside one
  /// slot share a single PA ramp per batch of up to this many frames — the
  /// first frame of each batch pays the full `tx_us`/`tx_uj`, follow frames
  /// pay payload-only time/energy, and the governor's catch-up budget sees
  /// the amortized per-frame radio time (FrameContext::radio_us). Retries
  /// of a lost frame always re-ramp (a backoff powers the PA down). 1 =
  /// per-frame bursts (pre-PR 10 behavior, bit for bit).
  std::uint32_t radio_batch_frames = 1;

  // ---- Fault model (PR 6) ---------------------------------------------

  /// Declarative faults: lossy radio with retry/backoff, brownout/watchdog
  /// resets with optional governor checkpointing, and a graceful QoS
  /// degradation ladder. Default-constructed = fault-free: the engine takes
  /// none of the fault paths and reproduces the pre-fault simulation bit
  /// for bit.
  FaultSpec faults;
};

/// Version of the MissionReport JSON schema written by write_json. Bumped
/// whenever fields are added or change meaning, and asserted by the golden
/// test — so a schema-growing PR fails loudly instead of silently
/// regenerating goldens.
///   1: v1/v2 mission report (through PR 4)
///   2: energy model v2 — radio_uj, harvested_mwh (PR 5)
///   3: fault accounting — offered/shed/retries/resets/downtime/availability
///      and the fault energy split (PR 6)
inline constexpr int kMissionReportSchemaVersion = 3;

struct MissionReport {
  std::string mission;
  std::string policy;
  bool battery_depleted = false;
  bool truncated = false;        ///< Hit the frame-count safety cap.
  double simulated_s = 0.0;      ///< Horizon reached, or depletion time.
  std::uint64_t frames = 0;      ///< Frames *served* (inference executed).
  std::uint64_t deadline_misses = 0;
  std::uint64_t rung_switches = 0;
  double inference_uj = 0.0;
  double transition_uj = 0.0;
  double sleep_uj = 0.0;         ///< Sleep draw (excl. battery self-discharge).
  double battery_remaining_mwh = 0.0;
  std::vector<std::uint64_t> frames_per_rung;

  // ---- Connectivity accounting (zero for always-connected missions).
  std::uint64_t frames_captured = 0;  ///< All capture events.
  std::uint64_t frames_dropped = 0;   ///< Backlog-queue overflow evictions.
  std::uint64_t frames_pending = 0;   ///< Still queued at mission end.
  std::uint64_t max_backlog = 0;
  /// Latency debt: total queueing delay (serve time - capture time) of
  /// frames served out of the backlog.
  double backlog_latency_s = 0.0;
  /// Worst single frame's queueing delay. FIFO service makes this mostly
  /// policy-independent (the oldest queued frame is served first when the
  /// window reopens, at the same mission time for every policy), which is
  /// why the Pareto front below uses mean lateness as its axis instead.
  double max_latency_debt_s = 0.0;
  /// Total compute-path overrun beyond the active deadline across served
  /// frames (the time side of deadline_misses) — the second component of
  /// mission-level lateness.
  double deadline_overrun_s = 0.0;

  // ---- Thermal accounting.
  /// Served frames whose rung's peak clock exceeded the active thermal cap
  /// (thermal-blind policies, or a cap below every rung on the ladder).
  std::uint64_t thermal_violations = 0;
  /// Served frames during which the cap excluded at least one ladder rung.
  std::uint64_t derated_frames = 0;

  // ---- Predictive pre-lock accounting.
  std::uint64_t prelocks = 0;         ///< Background repositions performed.
  std::uint64_t prelock_hits = 0;     ///< Next wake used the pre-locked PLL.
  std::uint64_t prelock_misses = 0;
  double prelock_uj = 0.0;            ///< Energy of background repositions.

  // ---- Energy model v2 accounting (zero without harvest/radio events).
  double radio_uj = 0.0;       ///< Uplink tx energy (ramp + payload bursts).
  double harvested_mwh = 0.0;  ///< Charge actually stored by the battery.

  // ---- Fault & recovery accounting (all zero for fault-free specs).
  /// Capture opportunities the duty cycle offered, including slots the node
  /// was rebooting through (offered but never captured) — the availability
  /// denominator.
  std::uint64_t frames_offered = 0;
  std::uint64_t frames_shed = 0;   ///< Captures shed by graceful degradation.
  std::uint64_t retries = 0;       ///< Radio retransmission bursts paid.
  std::uint64_t tx_failures = 0;   ///< Frames served but never delivered.
  std::uint64_t resets = 0;        ///< Brownout/watchdog reboots taken.
  std::uint64_t checkpoints = 0;   ///< Governor checkpoints persisted.
  double downtime_s = 0.0;         ///< Time the node was off rebooting.
  double retry_uj = 0.0;           ///< Energy of retransmission bursts.
  double boot_uj = 0.0;            ///< Energy of reboots.
  double checkpoint_uj = 0.0;      ///< Energy of checkpoint flash writes.

  /// The energy-overhead-of-faults split: everything the mission paid that
  /// a fault-free run would not have (retries + reboots + checkpoints).
  [[nodiscard]] double fault_uj() const {
    return retry_uj + boot_uj + checkpoint_uj;
  }
  /// Delivered / offered: the fraction of capture opportunities that ended
  /// as a delivered frame. Served-but-lost uplinks (tx_failures), shed,
  /// dropped, pending, and reboot-missed captures all count against it.
  /// 1.0 for an empty mission (nothing offered, nothing missed).
  [[nodiscard]] double availability() const {
    if (frames_offered == 0) return 1.0;
    const std::uint64_t lost = tx_failures < frames ? tx_failures : frames;
    return static_cast<double>(frames - lost) /
           static_cast<double>(frames_offered);
  }

  [[nodiscard]] double total_uj() const {
    return inference_uj + transition_uj + sleep_uj + prelock_uj + radio_uj +
           fault_uj();
  }
  /// Average queueing delay per served frame.
  [[nodiscard]] double mean_latency_debt_s() const {
    return frames > 0 ? backlog_latency_s / static_cast<double>(frames) : 0.0;
  }
  /// Mission-level lateness: delivery delay (queueing) plus deadline
  /// overruns — the latency-debt axis of the mission Pareto front. A policy
  /// that "saves" energy by blowing through deadlines accrues overrun debt
  /// here instead of hiding it.
  [[nodiscard]] double lateness_s() const {
    return backlog_latency_s + deadline_overrun_s;
  }
  [[nodiscard]] double mean_lateness_s() const {
    return frames > 0 ? lateness_s() / static_cast<double>(frames) : 0.0;
  }
  /// Average external draw over the simulated span.
  [[nodiscard]] double avg_mw() const {
    return simulated_s > 0.0 ? total_uj() / simulated_s * 1e-3 : 0.0;
  }
  /// Days until depletion: the observed depletion time, or a projection of
  /// the simulated average draw (+ self discharge implied by the battery
  /// state) past the horizon.
  [[nodiscard]] double lifetime_days(const power::BatteryParams& battery) const;
};

/// Writes the report as a JSON object (used by bench_scenario).
void write_json(std::ostream& os, const MissionReport& report, int indent = 0);

/// One policy's position in the mission-level energy/latency-debt plane.
/// `on_front` marks Pareto optimality over (total_uj, mean_lateness_s),
/// both minimized — the whole-mission analogue of the per-layer
/// (latency, energy) fronts the DSE feeds the MCKP. Mean lateness
/// (queueing delay + deadline overrun per served frame) is the axis
/// because the worst-case queueing delay is policy-independent under FIFO
/// service; the max is still reported alongside.
struct MissionParetoPoint {
  std::string policy;
  double total_uj = 0.0;
  double mean_lateness_s = 0.0;       ///< Front axis.
  double max_latency_debt_s = 0.0;    ///< Worst queueing delay (reported).
  double mean_latency_debt_s = 0.0;   ///< Queueing-only mean (reported).
  std::uint64_t deadline_misses = 0;
  bool on_front = false;
};

/// Sets each point's `on_front`: true iff no other point is at most as
/// large on both minimized axes `x(p)` and `y(p)` with one of the two
/// strict. Pass a maximized axis negated. Exact duplicates all stay on the
/// front and input order is preserved; O(n^2) over the handful of
/// postures it ranks.
template <class Point, class X, class Y>
void mark_pareto_front(std::vector<Point>& points, const X& x, const Y& y) {
  for (Point& p : points) {
    p.on_front = true;
    for (const Point& q : points) {
      const bool no_worse = x(q) <= x(p) && y(q) <= y(p);
      const bool strictly_better = x(q) < x(p) || y(q) < y(p);
      if (no_worse && strictly_better) {
        p.on_front = false;
        break;
      }
    }
  }
}

/// Reduces a set of MissionReports (same mission, different policies) to the
/// mission Pareto front: a point is on the front iff no other point is at
/// most as expensive AND at most as late with one of the two strict.
/// Deterministic: exact duplicates in both objectives are all kept on the
/// front, input order is preserved.
[[nodiscard]] std::vector<MissionParetoPoint> mission_pareto(
    const std::vector<MissionReport>& reports);

/// Writes the Pareto points as a JSON array (used by bench_scenario).
void write_pareto_json(std::ostream& os,
                       const std::vector<MissionParetoPoint>& points,
                       int indent = 0);

/// One policy's position in the mission-level (energy, availability) plane
/// of a fault mission. `on_front` marks Pareto optimality over total_uj
/// (minimized) and availability (maximized) — the robustness analogue of
/// MissionParetoPoint: a policy may only spend more energy if it buys
/// strictly more delivered frames.
struct AvailabilityParetoPoint {
  std::string policy;
  double total_uj = 0.0;
  double availability = 0.0;        ///< Front axis (maximized).
  double fault_uj = 0.0;            ///< Fault-overhead split (reported).
  double downtime_s = 0.0;
  std::uint64_t resets = 0;
  std::uint64_t retries = 0;
  std::uint64_t tx_failures = 0;
  std::uint64_t frames_shed = 0;
  bool on_front = false;
};

/// Reduces fault-mission reports to the (energy, availability) front: a
/// point is on the front iff no other point is at most as expensive AND at
/// least as available with one of the two strict. Deterministic, duplicates
/// kept, input order preserved (same contract as mission_pareto).
[[nodiscard]] std::vector<AvailabilityParetoPoint> availability_pareto(
    const std::vector<MissionReport>& reports);

/// Writes the availability-front points as a JSON array.
void write_availability_pareto_json(
    std::ostream& os, const std::vector<AvailabilityParetoPoint>& points,
    int indent = 0);

}  // namespace daedvfs::scenario
