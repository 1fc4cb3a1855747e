// Declarative fault-injection layer for the deployment scenario engine: the
// things a real far-edge node suffers that a perfect simulation hides —
// uplink frames lost to a noisy channel or a hard outage (retried with
// bounded exponential backoff, every retry pricing a full PA ramp through
// power::RadioModel), brownout/watchdog resets that reboot the node
// mid-mission (boot energy/time, PLL pre-lock state invalidated, the
// governor either cold-booted or restored from a periodic
// GovernorCheckpoint), and a graceful-degradation ladder that sheds declared
// QoS by a bounded skip-frame factor instead of browning out.
//
// Everything is deterministic: fault decisions draw from a dedicated
// xorshift64 stream derived from MissionSpec::seed (distinct from the period
// jitter stream), so a (spec, policy) pair reproduces its MissionReport bit
// for bit — and a spec that declares no faults consumes no fault draws and
// reproduces the fault-free engine bit for bit (the PR 5 golden report is
// the pin).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace daedvfs::scenario {

/// xorshift64: the scenario engine's only randomness source. One instance
/// seeded with MissionSpec::seed drives the period jitter; a second,
/// independently seeded instance drives the fault stream (loss draws,
/// backoff jitter), so enabling faults never perturbs the jitter timeline.
class Xorshift64 {
 public:
  explicit Xorshift64(std::uint64_t seed) : s_(seed ? seed : 1ULL) {}
  /// Uniform double in [0, 1).
  double next_unit() {
    s_ ^= s_ << 13;
    s_ ^= s_ >> 7;
    s_ ^= s_ << 17;
    return static_cast<double>(s_ >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t s_;
};

/// Half-open time intervals normalized to disjoint ascending spans, with
/// monotone-time membership queries. Backs both the engine's connectivity
/// windows and the radio outage intervals below, so the two can never drift
/// in normalization semantics (overlapping/touching spans merge,
/// non-positive durations vanish).
class IntervalSet {
 public:
  IntervalSet() = default;

  /// Builds from raw (start_s, duration_s) pairs.
  [[nodiscard]] static IntervalSet from_spans(
      const std::vector<std::pair<double, double>>& start_duration);

  [[nodiscard]] bool empty() const { return spans_.empty(); }
  /// Is `t` inside a span? Queries must be non-decreasing in time.
  [[nodiscard]] bool contains(double t);
  /// End of the span containing the last contains() hit.
  [[nodiscard]] double active_end() const { return spans_[idx_].second; }

 private:
  std::vector<std::pair<double, double>> spans_;  ///< [start, end), merged.
  std::size_t idx_ = 0;
};

/// Hard radio outage: every transmit attempt inside the interval fails
/// regardless of the loss probability (a jammed channel, a gateway reboot).
struct Outage {
  double start_s = 0.0;
  double duration_s = 0.0;
};

/// Lossy uplink parameterization. Engages only while the radio model itself
/// is enabled (power::RadioParams) — a disabled radio serves frames for
/// free and cannot lose them.
struct RadioFaultSpec {
  /// Per-attempt loss probability in [0, 1), drawn from the seeded fault
  /// stream. 0 = the channel only fails inside hard outages.
  double loss_prob = 0.0;
  /// Hard outage intervals (normalized like connectivity windows).
  std::vector<Outage> outages;
  /// Retry budget after a failed attempt. Each retry waits an exponential
  /// backoff and then pays a full radio burst (PA ramp + payload) again.
  std::uint32_t max_retries = 0;
  /// First-retry backoff; retry k waits `backoff_base_s * 2^k`.
  double backoff_base_s = 0.05;
  /// Backoff jitter fraction: each wait is scaled by a seeded factor in
  /// [1 - jitter, 1 + jitter]. 0 disables (and consumes no fault draws).
  double backoff_jitter = 0.0;

  [[nodiscard]] bool enabled() const {
    return loss_prob > 0.0 || !outages.empty();
  }
};

/// Backoff before retry number `attempt` (0-based): exponential in the
/// attempt index, scaled by the jitter factor derived from `unit` (a fault-
/// stream draw in [0, 1); pass 0.5 for the jitter-free midpoint). Never
/// negative.
[[nodiscard]] double retry_backoff_s(const RadioFaultSpec& spec,
                                     std::uint32_t attempt, double unit);

/// Brownout/watchdog reset at a mission time. The engine reboots the node
/// at the next duty-cycle slot boundary: boot energy/time is paid, the
/// clock tree falls back to the boot configuration (pre-lock state gone),
/// and the governor either cold-boots or restores a GovernorCheckpoint.
struct ResetEvent {
  double at_s = 0.0;
};

/// Reboot cost model plus the periodic-checkpoint policy that decides what
/// a reset destroys. With `checkpoint_interval_s > 0` the node persists a
/// GovernorCheckpoint (and the backlog queue) to flash every interval,
/// paying `checkpoint_uj` each time; a reset then keeps queued frames
/// captured at or before the last checkpoint and restores the governor
/// state. Without checkpointing a reset drops the whole backlog and
/// cold-boots the governor — the warm-vs-cold tradeoff bench_scenario §5
/// measures.
struct RebootSpec {
  double boot_s = 2.0;        ///< Downtime per reset (frames are missed).
  double boot_uj = 10000.0;   ///< Energy per reboot (flash init, radio sync).
  double checkpoint_interval_s = 0.0;  ///< 0 = cold boots only.
  double checkpoint_uj = 50.0;         ///< Flash write per checkpoint.

  [[nodiscard]] bool checkpointed() const {
    return checkpoint_interval_s > 0.0;
  }
};

/// Graceful degradation: under sustained deadline-miss pressure or critical
/// state of charge, the policy sheds declared QoS by a bounded skip-frame
/// factor (serve one capture, shed up to `max_skip`) instead of browning
/// out. The shedding decision is the policy's (LadderPolicy owns the
/// severity-to-skip ladder); the engine owns the stateful inputs (miss-rate
/// EWMA, SoC) and accounts every shed frame.
struct DegradedModeSpec {
  /// Below this state of charge the node starts shedding. 0 disables.
  double critical_soc = 0.0;
  /// Miss-rate EWMA threshold in (0, 1]; above it the node starts
  /// shedding. 0 disables.
  double miss_pressure = 0.0;
  /// EWMA smoothing factor for the per-served-frame miss indicator.
  double miss_alpha = 0.0625;
  /// Upper bound on captures shed per served frame (the QoS floor:
  /// effective rate never drops below 1/(max_skip + 1) of the duty cycle).
  std::uint32_t max_skip = 0;

  [[nodiscard]] bool enabled() const {
    return max_skip > 0 && (critical_soc > 0.0 || miss_pressure > 0.0);
  }
};

/// Governor state persisted by a periodic checkpoint and restored on a
/// warm reboot: when it was taken (queued frames captured after it are
/// lost), the active rung preference, and the degraded-mode miss EWMA.
///
/// Volatile clock state is deliberately NOT here: a PLL pre-lock dies with
/// the reset regardless of checkpointing (the node wakes into the boot
/// clock), and the next choose() picks from the restored (or cold-booted)
/// rung preference.
struct GovernorCheckpoint {
  double at_s = -1.0;
  int rung = -1;
  double miss_ewma = 0.0;

  [[nodiscard]] bool valid() const { return at_s >= 0.0; }
};

/// The full declarative fault model of a mission. Default-constructed =
/// no faults: the engine takes none of the fault paths and reproduces the
/// fault-free simulation bit for bit.
struct FaultSpec {
  RadioFaultSpec radio;
  std::vector<ResetEvent> resets;
  RebootSpec reboot;
  DegradedModeSpec degraded;

  [[nodiscard]] bool any() const {
    return radio.enabled() || !resets.empty() || reboot.checkpointed() ||
           degraded.enabled();
  }
};

}  // namespace daedvfs::scenario
