// Shared support for the scenario tests (test_scenario.cpp's edge cases,
// test_scenario_faults.cpp's fault edges, and the test_scenario_fuzz.cpp
// harness): one synthetic rung ladder, the relock-window deadline anchor,
// the seeded random-MissionSpec builder with feature toggles, and the
// MissionReport invariant checker — so a new report field, invariant, or
// fuzz dimension is added in exactly one place.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "scenario/engine.hpp"
#include "sim/mcu.hpp"

namespace daedvfs::scenario {

/// TinyEngine reference latency the synthetic rungs below are scaled to.
inline constexpr double kSyntheticTBase = 40000.0;

/// Synthetic ladder mirroring the structure the PD governor ladder
/// exhibits: a pure fast rung (entry == exit == 216 MHz), a cheaper *mixed*
/// rung whose entry and exit clocks differ (every wrap-around pays a PLL
/// relock unless it was pre-locked during sleep), and a cheap slow rung.
/// `with_eco` appends a deep 96 MHz rung for thermal-derating diversity.
inline LadderPolicy make_synthetic_ladder(bool predictive,
                                          bool with_eco = false) {
  const clock::ClockConfig fast = clock::ClockConfig::pll_hse(50.0, 25, 216, 2);
  const clock::ClockConfig mid = clock::ClockConfig::pll_hse(50.0, 25, 168, 2);
  std::vector<RungInfo> rungs = {
      RungInfo{"fast", 0.05, 40700.0, 7088.0, fast, fast, 216.0},
      RungInfo{"mixed", 0.10, 42770.0, 7004.0, mid, fast, 216.0},
      RungInfo{"slow", 0.30, 52331.0, 6785.0, mid, mid, 168.0}};
  if (with_eco) {
    const clock::ClockConfig eco = clock::ClockConfig::pll_hse(50.0, 25, 96, 2);
    rungs.push_back(RungInfo{"eco", 0.75, 69400.0, 6390.0, eco, eco, 96.0});
  }
  const sim::SimParams sim;
  return LadderPolicy(std::move(rungs), sim.switching, sim.power,
                      predictive ? "synthetic+prelock" : "synthetic",
                      predictive);
}

/// Deadline inside the relock window above the mixed rung: reachable with a
/// pre-locked entry PLL (mux toggle), unreachable through a wake relock.
inline double mixed_rung_slack() {
  const sim::SimParams sim;
  const double d =
      42770.0 + (sim.switching.pll_relock_us + sim.switching.vos_change_us) / 2;
  return d / kSyntheticTBase - 1.0;
}

/// Seed count of the fuzz corpus: 200 by default, reduced by the sanitizer
/// CI job through the DAEDVFS_FUZZ_SEEDS environment variable.
inline int fuzz_seed_count() {
  if (const char* env = std::getenv("DAEDVFS_FUZZ_SEEDS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 200;
}

/// Deterministic, implementation-independent generator for the fuzz specs
/// (std::uniform_* distributions are not bit-portable across standard
/// libraries; this xorshift64 is).
class SpecRng {
 public:
  explicit SpecRng(std::uint64_t seed) : s_(seed ? seed : 1ULL) {}
  double unit() {  // [0, 1)
    s_ ^= s_ << 13;
    s_ ^= s_ >> 7;
    s_ ^= s_ << 17;
    return static_cast<double>(s_ >> 11) * 0x1.0p-53;
  }
  double range(double lo, double hi) { return lo + (hi - lo) * unit(); }
  int upto(int n) { return static_cast<int>(unit() * n); }  // [0, n)
  bool coin() { return unit() < 0.5; }

 private:
  std::uint64_t s_;
};

/// Feature toggles of random_mission_spec: which spec dimensions a test
/// wants fuzzed. Defaults reproduce the pre-fault fuzz corpus — the fault
/// dimensions draw *after* every legacy dimension, so enabling them never
/// perturbs the legacy part of a seed's spec.
struct SpecFeatures {
  bool faults = false;  ///< Resets/checkpoints, lossy radio, degradation.
  /// Radio duty-cycling: a random MissionSpec::radio_batch_frames, drawn
  /// after the fault dimensions so it perturbs neither the legacy nor the
  /// fault draws of a seed's spec.
  bool batching = false;
};

/// The one seeded random-MissionSpec builder shared by the fuzz harness and
/// the fault tests (no copy-pasted spec literals): bursts x QoS events x
/// temperature derating x connectivity windows x harvest x radio x
/// low-battery thresholds x period jitter, plus — behind
/// SpecFeatures::faults — reset/checkpoint schedules, lossy-radio
/// retry/backoff parameters and the graceful-degradation ladder; behind
/// SpecFeatures::batching, uplink batch sizes.
inline MissionSpec random_mission_spec(std::uint64_t seed,
                                       const SpecFeatures& features = {}) {
  SpecRng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  MissionSpec spec;
  spec.name = "fuzz-" + std::to_string(seed);
  spec.seed = seed;
  spec.horizon_s = rng.range(0.1, 1.5) * 86400.0;
  spec.duty.period_s = rng.range(2.0, 120.0);
  spec.duty.sleep_mw = rng.range(0.0, 2.0);
  spec.battery.capacity_mwh = rng.coin() ? rng.range(1.0, 30.0)   // may die
                                         : rng.range(100.0, 3000.0);
  spec.battery.self_discharge_mw = rng.range(0.0, 0.1);
  spec.battery.leakage_doubling_c = rng.coin() ? 0.0 : rng.range(6.0, 15.0);
  spec.base_qos_slack = rng.range(0.05, 1.0);

  const int n_qos = rng.upto(6);
  for (int i = 0; i < n_qos; ++i) {
    spec.qos_events.push_back(
        {rng.range(0.0, spec.horizon_s), rng.range(0.05, 1.0)});
  }
  const int n_bursts = rng.upto(4);
  for (int i = 0; i < n_bursts; ++i) {
    spec.bursts.push_back({rng.range(0.0, spec.horizon_s),
                           rng.range(100.0, 20000.0), rng.range(0.5, 5.0)});
  }
  spec.base_ambient_c = rng.range(-20.0, 45.0);
  const int n_temp = rng.upto(5);
  for (int i = 0; i < n_temp; ++i) {
    spec.temp_events.push_back(
        {rng.range(0.0, spec.horizon_s), rng.range(-20.0, 90.0)});
  }
  if (rng.coin()) {
    spec.derate.start_c = rng.range(40.0, 70.0);
    spec.derate.mhz_per_c = rng.range(1.0, 8.0);
  }
  if (rng.coin()) {
    const int n_win = 1 + rng.upto(6);
    for (int i = 0; i < n_win; ++i) {
      spec.connectivity.push_back({rng.range(0.0, spec.horizon_s),
                                   rng.range(10.0, spec.horizon_s / 2)});
    }
    spec.uplink_queue_frames = static_cast<std::uint32_t>(1 + rng.upto(128));
  }
  if (rng.coin()) {
    spec.base_harvest_mw = rng.coin() ? 0.0 : rng.range(0.0, 5.0);
    const int n_harvest = rng.upto(5);
    for (int i = 0; i < n_harvest; ++i) {
      spec.harvest_events.push_back(
          {rng.range(0.0, spec.horizon_s), rng.range(0.0, 10.0)});
    }
    spec.harvest_temp_coeff = rng.coin() ? 0.0 : rng.range(0.0, 0.01);
    if (rng.coin()) spec.battery.charge_rate_cap_mw = rng.range(0.1, 3.0);
  }
  if (rng.coin()) {
    spec.radio.link_kbps = rng.range(50.0, 1000.0);
    spec.radio.payload_bytes = rng.range(32.0, 2048.0);
    spec.radio.tx_mw = rng.range(20.0, 200.0);
    spec.radio.ramp_us = rng.range(0.0, 3000.0);
  }
  if (rng.coin()) {
    spec.low_battery_soc = rng.range(0.1, 0.9);
    spec.low_battery_qos_slack = rng.range(0.3, 1.0);
  }
  if (rng.coin()) spec.period_jitter = rng.range(0.0, 0.3);

  // ---- Fault dimensions (appended last: legacy draws are untouched).
  if (features.faults) {
    if (rng.coin()) {
      const int n_resets = 1 + rng.upto(4);
      for (int i = 0; i < n_resets; ++i) {
        spec.faults.resets.push_back({rng.range(0.0, spec.horizon_s)});
      }
      spec.faults.reboot.boot_s = rng.range(0.5, 60.0);
      spec.faults.reboot.boot_uj = rng.range(0.0, 50000.0);
      if (rng.coin()) {
        spec.faults.reboot.checkpoint_interval_s =
            rng.range(60.0, spec.horizon_s / 2);
        spec.faults.reboot.checkpoint_uj = rng.range(0.0, 5000.0);
      }
    }
    if (rng.coin()) {
      spec.faults.radio.loss_prob = rng.range(0.0, 0.5);
      spec.faults.radio.max_retries = static_cast<std::uint32_t>(rng.upto(5));
      spec.faults.radio.backoff_base_s = rng.range(0.01, 5.0);
      spec.faults.radio.backoff_jitter = rng.coin() ? rng.range(0.0, 0.5) : 0.0;
      const int n_outages = rng.upto(3);
      for (int i = 0; i < n_outages; ++i) {
        spec.faults.radio.outages.push_back(
            {rng.range(0.0, spec.horizon_s),
             rng.range(10.0, spec.horizon_s / 4)});
      }
    }
    if (rng.coin()) {
      spec.faults.degraded.critical_soc = rng.coin() ? rng.range(0.05, 0.6)
                                                     : 0.0;
      spec.faults.degraded.miss_pressure = rng.coin() ? rng.range(0.05, 0.5)
                                                      : 0.0;
      spec.faults.degraded.max_skip =
          static_cast<std::uint32_t>(1 + rng.upto(8));
    }
  }

  // ---- Radio duty-cycling (appended after the faults; see SpecFeatures).
  if (features.batching && rng.coin()) {
    spec.radio_batch_frames = static_cast<std::uint32_t>(1 + rng.upto(16));
  }
  return spec;
}

/// The MissionReport invariants every scenario — fuzzed or hand-written —
/// must satisfy: frame accounting closes (served + shed + dropped + pending
/// = captured <= offered), every QoS miss is accounted (in count AND
/// overrun time), the backlog respects its bound, pre-lock bookkeeping
/// balances, radio energy is non-negative and disabled radios serve for
/// free, fault accounting is inert exactly when the matching fault is
/// undeclared (downtime bounded by the mission span, availability a
/// fraction), and the battery never exceeds its capacity while the charge
/// drawn plus the charge harvested covers the reported energy split.
inline void check_mission_invariants(const MissionSpec& spec,
                                     const MissionReport& r) {
  EXPECT_EQ(r.frames_captured,
            r.frames + r.frames_shed + r.frames_dropped + r.frames_pending);
  EXPECT_GE(r.frames_offered, r.frames_captured)
      << "every capture needs an offered slot";
  std::uint64_t per_rung = 0;
  for (std::uint64_t n : r.frames_per_rung) per_rung += n;
  EXPECT_EQ(per_rung, r.frames);
  EXPECT_LE(r.deadline_misses, r.frames);
  EXPECT_LE(r.thermal_violations, r.frames);
  EXPECT_LE(r.derated_frames, r.frames);
  EXPECT_LE(r.max_backlog,
            static_cast<std::uint64_t>(
                std::max<std::uint32_t>(spec.uplink_queue_frames, 1)));
  EXPECT_GE(r.backlog_latency_s, 0.0);
  EXPECT_GE(r.max_latency_debt_s, 0.0);
  EXPECT_LE(r.max_latency_debt_s, r.backlog_latency_s + 1e-9)
      << "the worst frame's debt cannot exceed the total";
  if (spec.connectivity.empty()) {
    EXPECT_EQ(r.frames_dropped, 0u);
    EXPECT_EQ(r.frames_pending, 0u);
    EXPECT_EQ(r.backlog_latency_s, 0.0);
    EXPECT_EQ(r.max_latency_debt_s, 0.0);
  }
  EXPECT_GE(r.deadline_overrun_s, 0.0);
  EXPECT_EQ(r.deadline_misses == 0, r.deadline_overrun_s == 0.0)
      << "overrun time and miss count must agree on whether misses happened";
  EXPECT_LE(r.prelock_hits + r.prelock_misses, r.prelocks);
  EXPECT_LE(r.prelocks, r.prelock_hits + r.prelock_misses + 1)
      << "at most the final pre-lock may still await its wake";
  EXPECT_GE(r.battery_remaining_mwh, 0.0);
  EXPECT_LE(r.battery_remaining_mwh, spec.battery.capacity_mwh)
      << "charging must clamp at capacity";
  EXPECT_GE(r.harvested_mwh, 0.0);
  const bool has_harvest =
      spec.base_harvest_mw > 0.0 || !spec.harvest_events.empty();
  if (!has_harvest) {
    EXPECT_EQ(r.harvested_mwh, 0.0)
        << "missions without harvest events must only ever discharge";
  }
  EXPECT_GE(r.radio_uj, 0.0);
  const power::RadioModel radio(spec.radio);
  if (!radio.enabled()) {
    EXPECT_EQ(r.radio_uj, 0.0) << "a disabled radio serves frames for free";
  } else {
    // Radio duty-cycling brackets: every served frame pays at least its
    // payload energy (a batch amortizes ramps, never payloads) and at most
    // a full per-frame burst (batching can only save). Equality at the top
    // for radio_batch_frames <= 1.
    const double frames_d = static_cast<double>(r.frames);
    EXPECT_LE(r.radio_uj,
              frames_d * radio.tx_uj() * (1.0 + 1e-9) + 1e-6)
        << "batching must never charge more than per-frame bursts";
    EXPECT_GE(r.radio_uj * (1.0 + 1e-9) + 1e-6,
              frames_d * radio.payload_uj())
        << "every uplinked frame pays its payload energy";
    if (spec.radio_batch_frames <= 1) {
      EXPECT_NEAR(r.radio_uj, frames_d * radio.tx_uj(),
                  1e-9 * std::max(1.0, frames_d * radio.tx_uj()))
          << "per-frame bursts price every frame at the full burst";
    }
  }
  // ---- Fault accounting: bounded, and inert exactly when the matching
  // fault is undeclared.
  EXPECT_LE(r.tx_failures, r.frames)
      << "only served frames can fail to deliver";
  EXPECT_LE(r.frames_shed, r.frames_captured);
  EXPECT_GE(r.downtime_s, 0.0);
  EXPECT_LE(r.downtime_s, r.simulated_s + 1e-9)
      << "the node cannot be down longer than the mission ran";
  EXPECT_GE(r.availability(), 0.0);
  EXPECT_LE(r.availability(), 1.0);
  EXPECT_GE(r.retry_uj, 0.0);
  EXPECT_GE(r.boot_uj, 0.0);
  EXPECT_GE(r.checkpoint_uj, 0.0);
  if (spec.faults.resets.empty()) {
    EXPECT_EQ(r.resets, 0u);
    EXPECT_EQ(r.downtime_s, 0.0);
    EXPECT_EQ(r.boot_uj, 0.0);
    EXPECT_EQ(r.frames_offered, r.frames_captured)
        << "only reboot downtime may leave offered slots uncaptured";
  }
  if (!spec.faults.reboot.checkpointed()) {
    EXPECT_EQ(r.checkpoints, 0u);
    EXPECT_EQ(r.checkpoint_uj, 0.0);
  }
  if (!(power::RadioModel(spec.radio).enabled() &&
        spec.faults.radio.enabled())) {
    EXPECT_EQ(r.retries, 0u);
    EXPECT_EQ(r.tx_failures, 0u);
    EXPECT_EQ(r.retry_uj, 0.0);
  }
  if (!spec.faults.degraded.enabled()) {
    EXPECT_EQ(r.frames_shed, 0u);
  }
  if (r.battery_depleted) {
    EXPECT_DOUBLE_EQ(r.battery_remaining_mwh, 0.0);
  } else {
    // Energy coverage: what the battery gave up plus what the harvest put
    // in covers every externally accounted microjoule (self-discharge sits
    // on top, which is why this is >=, not ==).
    const double drained_mwh =
        spec.battery.capacity_mwh - r.battery_remaining_mwh;
    EXPECT_GE(drained_mwh + r.harvested_mwh + 1e-9, r.total_uj() / 3.6e6);
  }
  EXPECT_GE(r.inference_uj, 0.0);
  EXPECT_GE(r.transition_uj, 0.0);
  EXPECT_GE(r.sleep_uj, 0.0);
  EXPECT_GE(r.prelock_uj, 0.0);
  // Relative tolerance: total_uj() sums the same terms in a fixed order, but
  // week-long missions reach ~1e8 uJ where a 1 ULP difference from the
  // re-association here exceeds any absolute epsilon.
  const double component_sum = r.inference_uj + r.transition_uj + r.sleep_uj +
                               r.prelock_uj + r.radio_uj + r.retry_uj +
                               r.boot_uj + r.checkpoint_uj;
  EXPECT_NEAR(r.total_uj(), component_sum,
              1e-12 * std::max(1.0, component_sum));
}

}  // namespace daedvfs::scenario
