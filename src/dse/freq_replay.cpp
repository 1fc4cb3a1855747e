#include "dse/freq_replay.hpp"

#include <stdexcept>

#include "clock/rcc.hpp"
#include "power/power_model.hpp"
#include "runtime/baseline.hpp"
#include "sim/memory_model.hpp"

namespace daedvfs::dse {
namespace {

/// Shared per-domain arithmetic of both replay flavors: re-times one
/// WorkLedger with the HFO domain mapped to `hfo_new`, powering each domain
/// at `context` with `active` driving SYSCLK. `context` holds the locked PLL
/// and regulator scale around the layer's work — the isolated profiling
/// boot (replay_profile) or the in-situ state the layer-entry switch left
/// (replay_schedule); intra-layer toggles change neither.
ProfileEntry replay_work(const sim::WorkLedger& ledger,
                         const clock::ClockConfig& hfo_ref,
                         const clock::ClockConfig& hfo_new,
                         const sim::SimParams& sim,
                         const power::PowerModel& pm,
                         const clock::RccState& context) {
  ProfileEntry out;
  for (const sim::WorkLedger::Domain& d : ledger.domains) {
    const bool is_hfo = d.config == hfo_ref;
    const clock::ClockConfig& active = is_hfo ? hfo_new : d.config;
    const double f = active.sysclk_mhz();

    // Compute-activity time: pure cycles at the domain clock.
    const double t_cmp_us = d.compute_cycles / f;

    // Memory-activity time, mirroring Mcu::mem_access / charge_memory:
    // issue cycles at the clock, SRAM refills and writebacks wall-clock
    // fixed, flash refills at the (wait-state-dependent) new penalty. The
    // analytically charged stalls (pointwise weight restreaming) are flash
    // refills taken at the domain clock: rescale by the penalty ratio.
    const double flash_pen_ns =
        sim::miss_penalty_ns(sim::MemRegion::kFlash, f, sim.memory);
    double charge_stall_ns = d.charge_stall_ns;
    if (is_hfo && charge_stall_ns > 0.0) {
      const double ref_pen_ns = sim::miss_penalty_ns(
          sim::MemRegion::kFlash, d.config.sysclk_mhz(), sim.memory);
      charge_stall_ns = charge_stall_ns / ref_pen_ns * flash_pen_ns;
    }
    const double t_mem_us =
        (d.issue_cycles + d.charge_issue_cycles) / f +
        (d.sram_misses * sim.memory.sram_miss_ns +
         d.flash_misses * flash_pen_ns +
         d.writebacks * sim.memory.writeback_ns + charge_stall_ns) *
            1e-3;

    // Clock switches that landed in this domain: intra-layer LFO<->HFO
    // toggles only pay the mux cost (the PLL stays locked, the scale stays
    // pinned) — the only kind that lands inside a layer's ledger (layer
    // entry transitions are recorded/recomputed outside it).
    const double t_switch_us =
        static_cast<double>(d.switches_in) * sim.switching.mux_switch_us;

    const power::PowerState st =
        power::PowerState::of({active, context.locked_pll, context.scale});
    out.t_us += t_cmp_us + t_mem_us + t_switch_us;
    out.energy_uj +=
        t_cmp_us * pm.power_mw(st, power::Activity::kCompute) * 1e-3 +
        (t_mem_us + t_switch_us) *
            pm.power_mw(st, power::Activity::kMemoryStall) * 1e-3;
  }
  return out;
}

}  // namespace

ProfileEntry replay_profile(const sim::WorkLedger& ledger,
                            const clock::ClockConfig& hfo_ref,
                            const clock::ClockConfig& hfo_new,
                            const sim::SimParams& sim) {
  const power::PowerModel pm(sim.power);
  return replay_work(ledger, hfo_ref, hfo_new, sim, pm,
                     clock::RccState::at(hfo_new));
}

ScheduleLedger record_schedule(const runtime::InferenceEngine& engine,
                               const runtime::Schedule& schedule,
                               const sim::SimParams& sim) {
  // The fresh timeline every whole-schedule measurement starts from.
  ScheduleLedger led{{}, {}, runtime::schedule_mcu(schedule, sim)};
  sim::Mcu& mcu = led.end;

  led.layers.resize(schedule.plans.size());
  led.entry_caches.reserve(schedule.plans.size());
  for (std::size_t i = 0; i < schedule.plans.size(); ++i) {
    const runtime::LayerPlan& plan = schedule.plans[i];
    led.entry_caches.push_back(mcu.cache());
    // Perform the layer-entry transition outside the ledger: replay
    // recomputes it analytically for whatever HFO the evaluated schedule
    // assigns. The engine's own entry switch then no-ops.
    mcu.switch_clock(plan.hfo);
    ScheduleLedger::LayerRecord& rec = led.layers[i];
    rec.ref_hfo = plan.hfo;
    rec.lfo = plan.lfo;
    rec.granularity = plan.granularity;
    rec.dvfs_enabled = plan.dvfs_enabled;
    mcu.set_ledger(&rec.work);
    (void)engine.run_layer(mcu, static_cast<int>(i), plan,
                           kernels::ExecMode::kTiming);
    mcu.set_ledger(nullptr);
  }
  return led;
}

namespace {

bool layer_matches(const ScheduleLedger::LayerRecord& rec,
                   const runtime::LayerPlan& plan) {
  return plan.granularity == rec.granularity &&
         plan.dvfs_enabled == rec.dvfs_enabled && plan.lfo == rec.lfo;
}

}  // namespace

bool replay_compatible(const ScheduleLedger& ledger,
                       const runtime::Schedule& schedule) {
  if (ledger.layers.size() != schedule.plans.size()) return false;
  for (std::size_t i = 0; i < schedule.plans.size(); ++i) {
    if (!layer_matches(ledger.layers[i], schedule.plans[i])) return false;
  }
  return true;
}

int patch_recorded_granularity(ScheduleLedger& ledger,
                               const runtime::InferenceEngine& engine,
                               const runtime::Schedule& schedule,
                               const sim::SimParams& sim) {
  if (ledger.layers.size() != schedule.plans.size() ||
      ledger.entry_caches.size() != schedule.plans.size()) {
    throw std::invalid_argument(
        "patch_recorded_granularity: layer count mismatch");
  }
  std::size_t k = 0;
  while (k < schedule.plans.size() &&
         layer_matches(ledger.layers[k], schedule.plans[k])) {
    ++k;
  }
  if (k == schedule.plans.size()) return 0;

  // Fresh Mcu seeded with the in-situ cache image at the first mismatch; the
  // power/time side of this run is discarded — only the work streams (which
  // are frequency-independent) matter.
  sim::SimParams params = sim;
  params.boot = schedule.plans[k].hfo;
  sim::Mcu mcu(params);
  mcu.cache() = ledger.entry_caches[k];

  int rerecorded = 0;
  for (std::size_t i = k; i < schedule.plans.size(); ++i) {
    if (i > k &&
        mcu.cache().state_fingerprint() ==
            ledger.entry_caches[i].state_fingerprint()) {
      // Cache state re-converged onto the recording; if no later layer
      // changes its plan, every remaining record is still exact.
      bool suffix_unchanged = true;
      for (std::size_t j = i; j < schedule.plans.size(); ++j) {
        if (!layer_matches(ledger.layers[j], schedule.plans[j])) {
          suffix_unchanged = false;
          break;
        }
      }
      if (suffix_unchanged) break;
    }
    const runtime::LayerPlan& plan = schedule.plans[i];
    ledger.entry_caches[i] = mcu.cache();
    mcu.switch_clock(plan.hfo);
    ScheduleLedger::LayerRecord& rec = ledger.layers[i];
    rec.work = {};
    rec.ref_hfo = plan.hfo;
    rec.lfo = plan.lfo;
    rec.granularity = plan.granularity;
    rec.dvfs_enabled = plan.dvfs_enabled;
    mcu.set_ledger(&rec.work);
    (void)engine.run_layer(mcu, static_cast<int>(i), plan,
                           kernels::ExecMode::kTiming);
    mcu.set_ledger(nullptr);
    ++rerecorded;
  }
  return rerecorded;
}

ProfileEntry replay_schedule(const ScheduleLedger& ledger,
                             const runtime::Schedule& schedule,
                             const sim::SimParams& sim) {
  if (!replay_compatible(ledger, schedule)) {
    throw std::invalid_argument(
        "replay_schedule: schedule changes granularity/DVFS/LFO of a layer; "
        "re-record the ledger");
  }
  ProfileEntry out;
  if (schedule.plans.empty()) return out;

  const power::PowerModel pm(sim.power);
  clock::RccState rcc = clock::RccState::at(schedule.plans.front().hfo);
  for (std::size_t i = 0; i < schedule.plans.size(); ++i) {
    const power::TransitionCost entry =
        power::price_switch(sim.switching, pm, rcc, schedule.plans[i].hfo);
    out.t_us += entry.us;
    out.energy_uj += entry.uj;
    // Domains power up under the *in-situ* clock context: the regulator
    // scale and locked PLL the entry transition left behind (not the
    // isolated-boot assumption of replay_profile — they coincide for
    // all-PLL HFO ladders, but carry-over state differs for mixed ones).
    const ProfileEntry work =
        replay_work(ledger.layers[i].work, ledger.layers[i].ref_hfo,
                    schedule.plans[i].hfo, sim, pm, rcc);
    out.t_us += work.t_us;
    out.energy_uj += work.energy_uj;
  }
  return out;
}

}  // namespace daedvfs::dse
