// The virtual STM32F767ZI: a cycle-approximate, event-driven model combining
// the RCC clock model, the L1-D cache, the memory timing model, the cost
// model and the power model into one timeline. Kernels report *work events*
// (compute cycles, memory accesses, clock switches, idling); the Mcu advances
// simulated time and integrates energy.
//
// This class is the substitution for the physical board + INA219 rig
// (docs/architecture.md, `sim/`). Everything is deterministic.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "clock/rcc.hpp"
#include "power/energy_meter.hpp"
#include "power/power_model.hpp"
#include "sim/cache.hpp"
#include "sim/cost_model.hpp"
#include "sim/memory_model.hpp"

namespace daedvfs::sim {

/// Full simulator parameterization; defaults model the STM32F767ZI Nucleo.
struct SimParams {
  CacheConfig cache;
  MemoryTimingParams memory;
  CostModelParams cost;
  power::PowerModelParams power;
  clock::SwitchCostParams switching;
  clock::ClockConfig boot = clock::ClockConfig::pll_hse(50.0, 25, 216, 2);
};

/// Cheap copyable snapshot for differential profiling.
struct McuSnapshot {
  double time_us = 0.0;
  double energy_uj = 0.0;
  CacheStats cache;
  clock::RccStats rcc;
};

/// Per-clock-domain work totals of one run, recorded when a ledger is
/// attached via Mcu::set_ledger. The cache hit/miss stream is independent of
/// the operating frequency, so these totals are sufficient to evaluate the
/// same kernel execution under a *different* HFO in closed form — the basis
/// of the DSE's frequency-replay memoization (dse/freq_replay.hpp). A
/// profiling run touches at most two domains (the HFO it boots at and, with
/// DVFS active, the LFO).
struct WorkLedger {
  struct Domain {
    clock::ClockConfig config;      ///< SYSCLK config the work ran under.
    double compute_cycles = 0.0;    ///< Activity::kCompute cycles.
    double issue_cycles = 0.0;      ///< Load/store issue (incl. DTCM extra).
    double sram_misses = 0.0;       ///< Cache-simulated SRAM line refills.
    double flash_misses = 0.0;      ///< Cache-simulated flash line fetches.
    double writebacks = 0.0;        ///< Dirty line evictions.
    double charge_issue_cycles = 0.0;  ///< charge_memory() issue cycles.
    /// charge_memory() stall time. The only producer is the pointwise
    /// weight-restream amortization, whose stalls are flash-line refills at
    /// the domain clock — replay rescales them by the flash-penalty ratio.
    double charge_stall_ns = 0.0;
    uint64_t switches_in = 0;       ///< Clock switches landing in this domain.
    double switch_us = 0.0;         ///< Total switch stall charged here.
  };

  std::vector<Domain> domains;

  [[nodiscard]] Domain& domain(const clock::ClockConfig& cfg) {
    for (Domain& d : domains) {
      if (d.config == cfg) return d;
    }
    domains.push_back({});
    domains.back().config = cfg;
    return domains.back();
  }
};

class Mcu {
 public:
  explicit Mcu(SimParams params = {});

  // ---- Work events (called by kernels / runtime) -----------------------

  /// Pure computation of `cycles` cycles at the current clock.
  void compute(double cycles);

  /// Read of [ref, ref+bytes): drives the cache, charges issue cycles plus
  /// miss stalls. Multi-line accesses are handled in one call.
  ///
  /// `issue_words` overrides the number of load instructions issued; pass it
  /// for strided/byte-wise patterns (e.g. gathering one channel out of an
  /// NHWC row touches the whole row's cache lines but issues one LDRB per
  /// element). Negative = derive from `bytes` as word loads.
  void mem_read(const MemRef& ref, uint64_t bytes, double issue_words = -1.0);

  /// Write of [ref, ref+bytes): write-allocate; dirty evictions charge
  /// writeback latency. `issue_words` as for mem_read.
  void mem_write(const MemRef& ref, uint64_t bytes, double issue_words = -1.0);

  /// Strided access: `count` elements of `elem_bytes` every `stride` bytes
  /// (channel gather patterns). Issues one byte-load/store per element
  /// unless `issue_words` overrides it (e.g. a group gather that pulls four
  /// adjacent channels per word load).
  void mem_read_strided(const MemRef& ref, uint64_t stride, uint32_t count,
                        uint64_t elem_bytes = 1, double issue_words = -1.0);
  void mem_write_strided(const MemRef& ref, uint64_t stride, uint32_t count,
                         uint64_t elem_bytes = 1, double issue_words = -1.0);

  /// Directly charges a memory-time event (`issue_cycles` at the current
  /// clock plus a wall-clock `stall_ns`), bypassing the cache model. Used by
  /// kernels for analytically amortized access patterns (e.g. weight-matrix
  /// re-streaming in pointwise convolutions, see kernels/pointwise.cpp).
  void charge_memory(double issue_cycles, double stall_ns);

  /// Switches SYSCLK; the switch duration is charged as stall time.
  clock::SwitchCost switch_clock(const clock::ClockConfig& target);

  /// Idles for `us` microseconds; `gated` selects clock-gated idle power.
  void idle_for(double us, bool gated);

  /// Idles until absolute time `t_us` (no-op if already past).
  void idle_until(double t_us, bool gated);

  // ---- State & instrumentation -----------------------------------------

  [[nodiscard]] double time_us() const { return time_us_; }
  [[nodiscard]] double energy_uj() const { return meter_.total_uj(); }
  [[nodiscard]] double sysclk_mhz() const { return rcc_.sysclk_mhz(); }
  [[nodiscard]] const clock::Rcc& rcc() const { return rcc_; }
  /// Mutable access may change the clock tree behind switch_clock's back
  /// (e.g. Rcc::stop_pll), so it drops the power memo.
  [[nodiscard]] clock::Rcc& rcc() {
    power_valid_ = 0;
    return rcc_;
  }
  [[nodiscard]] const CacheSim& cache() const { return cache_; }
  [[nodiscard]] CacheSim& cache() { return cache_; }
  [[nodiscard]] const power::PowerModel& power_model() const {
    return power_model_;
  }
  [[nodiscard]] const SimParams& params() const { return params_; }

  /// Attaches a work ledger recording per-clock-domain totals of every
  /// subsequent event (nullptr detaches). Used by the DSE frequency replay.
  void set_ledger(WorkLedger* ledger) { ledger_ = ledger; }

  [[nodiscard]] McuSnapshot snapshot() const;

 private:
  /// Advances time by `dt_us`, charging energy at `act`.
  void advance(double dt_us, power::Activity act);
  [[nodiscard]] double cycles_to_us(double cycles) const {
    return cycles / rcc_.sysclk_mhz();
  }
  void mem_access(const MemRef& ref, uint64_t bytes, double issue_words,
                  bool is_write);
  void mem_access_strided(const MemRef& ref, uint64_t stride, uint32_t count,
                          uint64_t elem_bytes, double issue_words,
                          bool is_write);

  SimParams params_;
  clock::Rcc rcc_;
  CacheSim cache_;
  power::PowerModel power_model_;
  power::EnergyMeter meter_;
  double time_us_ = 0.0;
  WorkLedger* ledger_ = nullptr;
  /// power_mw per Activity at the current clock state (bit a of
  /// power_valid_ marks entry a); power_mw is a pure function of that state,
  /// so an entry is the double advance() would recompute.
  std::array<double,
             static_cast<std::size_t>(power::Activity::kIdleClockGated) + 1>
      power_mw_{};
  uint8_t power_valid_ = 0;
};

}  // namespace daedvfs::sim
