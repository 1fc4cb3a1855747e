// Frequency replay: evaluate a recorded profiling run under a different HFO
// without re-simulating.
//
// The cache hit/miss stream of a kernel execution does not depend on the
// operating frequency — only shapes, addresses and access order drive it.
// Frequency enters the simulator exclusively through four linear channels:
// cycles / f, flash wait-states (miss_penalty_ns), the voltage scale, and
// the power model's (V, f, VCO) terms. A sim::WorkLedger captures the
// frequency-independent totals of one run per clock domain; this module
// re-evaluates them in closed form for any other HFO, mirroring
// sim::Mcu::advance's time terms. Power comes from the simulator's own
// rules rather than a copy: each domain is powered by
// power::PowerState::of over a clock::RccState (the active config plus the
// locked PLL and regulator scale around it), and inter-layer switches are
// priced by power::price_switch. The result matches a direct simulation to
// floating-point reassociation error (~1e-12 relative) for PLL and non-PLL
// HFOs alike (asserted in tests/test_explore_fast.cpp).
//
// This turns the HFO axis of the DSE from |HFO| simulations per (layer, g)
// into one simulation plus |HFO|-1 constant-time evaluations.
#pragma once

#include "clock/clock_config.hpp"
#include "dse/profile_cache.hpp"
#include "runtime/engine.hpp"
#include "runtime/schedule.hpp"
#include "sim/mcu.hpp"

namespace daedvfs::dse {

/// Evaluates `ledger` (recorded while profiling a candidate booted at
/// `hfo_ref`, toggling against `lfo` when DVFS was active) as if the run had
/// used `hfo_new` instead. The LFO domain is re-timed unchanged; the HFO
/// domain is re-timed at the new configuration. Every domain is powered in
/// the boot state clock::RccState::at(hfo_new) with its own config active:
/// the regulator scale stays pinned at the HFO's requirement, a locked PLL
/// keeps drawing VCO power through LFO segments, and with no PLL locked
/// only the active source's oscillator runs.
[[nodiscard]] ProfileEntry replay_profile(const sim::WorkLedger& ledger,
                                          const clock::ClockConfig& hfo_ref,
                                          const clock::ClockConfig& hfo_new,
                                          const sim::SimParams& sim);

// ---- Whole-schedule replay -------------------------------------------------
//
// The per-candidate replay above evaluates one layer in isolation; schedule
// construction (the pipeline's QoS-repair loop, the governor's rung ladder)
// needs the *measured* latency/energy of a full inference, which additionally
// contains the inter-layer clock transitions (PLL relocks, regulator-scale
// settles) and the cache state each layer inherits from its predecessors.
//
// A ScheduleLedger captures one full-schedule simulation as per-layer
// sim::WorkLedgers with the layer-entry switches factored out. Because the
// cache stream depends only on addresses and access order — fixed by the
// per-layer granularities, not the frequencies — the same recording can be
// re-evaluated in closed form for ANY reassignment of per-layer HFOs:
// per-layer work re-timed like replay_profile, inter-layer transitions via
// power::price_switch over the clock::RccState the previous layer left
// (the Rcc's own relock + voltage-scale rules). Replayed
// totals match a direct simulation of the new schedule to FP-reassociation
// error (~1e-12 relative; pinned at 1e-9 in tests/test_schedule_replay.cpp).
//
// Changing a layer's granularity/DVFS flag or the LFO invalidates that
// layer's work stream (and, through the inherited cache state, possibly a
// few successors'): callers check replay_compatible and, instead of
// re-simulating the whole schedule, call patch_recorded_granularity — it
// re-records the minimal suffix of *single layers* starting from the stored
// per-layer entry cache images, stopping as soon as the cache state
// re-converges onto the recording (CacheSim::state_fingerprint). Patched
// recordings are exactly the in-situ streams a full re-simulation would
// produce, so replay accuracy is unchanged — this closes the last re-record
// path of the schedule-construction repair loop (core::ScheduleBuilder).

struct ScheduleLedger {
  struct LayerRecord {
    sim::WorkLedger work;        ///< Per-domain totals, entry switch excluded.
    clock::ClockConfig ref_hfo;  ///< HFO the recording ran this layer at.
    clock::ClockConfig lfo;
    int granularity = 0;
    bool dvfs_enabled = false;
  };

  std::vector<LayerRecord> layers;
  /// Cache image at each layer's entry (after its predecessors ran) — the
  /// in-situ context patch_recorded_granularity re-records variants from.
  /// The stream a layer emits depends only on this image and its own plan
  /// (addresses and order are frequency-independent), so a variant recorded
  /// from the image is bitwise the stream of a full re-simulation.
  std::vector<sim::CacheSim> entry_caches;
  /// Post-inference state of the recording. Its time, energy, clock and
  /// cache state are bitwise runtime::simulate_schedule's — the layer-entry
  /// switches run outside the ledgers but on the same timeline — so
  /// time_us()/energy_uj() are the schedule's exact simulated totals and the
  /// state can seed a run memo or close an iso-latency window. Describes the
  /// *original* recording; granularity patches do not update it (callers
  /// re-measure via replay_schedule).
  sim::Mcu end;
};

/// Simulates `schedule` once on a fresh Mcu (booted at the first layer's
/// HFO) recording one WorkLedger per layer, with each layer-entry transition
/// performed outside the ledger so replay can recompute it for any HFO
/// assignment.
[[nodiscard]] ScheduleLedger record_schedule(
    const runtime::InferenceEngine& engine, const runtime::Schedule& schedule,
    const sim::SimParams& sim);

/// True when `schedule` differs from the recording only in per-layer HFOs
/// (granularity, DVFS flag and LFO all match) — the precondition of
/// replay_schedule.
[[nodiscard]] bool replay_compatible(const ScheduleLedger& ledger,
                                     const runtime::Schedule& schedule);

/// Makes `ledger` replay-compatible with `schedule` when they differ in some
/// layers' granularity/DVFS/LFO: starting at the first mismatching layer,
/// re-records one layer at a time on a fresh Mcu seeded with the stored
/// entry cache image, and stops as soon as the evolving cache state
/// fingerprints equal to the recording at a layer whose remaining suffix is
/// unchanged (streaming kernels evict inherited lines fast, so this
/// typically converges within a couple of layers). Returns the number of
/// single-layer recordings performed (0 when already compatible). Layer
/// records and entry images are updated in place; `end` keeps describing
/// the original recording. Throws std::invalid_argument on a
/// layer-count mismatch.
int patch_recorded_granularity(ScheduleLedger& ledger,
                               const runtime::InferenceEngine& engine,
                               const runtime::Schedule& schedule,
                               const sim::SimParams& sim);

/// Closed-form (t, E) of `schedule` evaluated from a compatible recording:
/// each layer's work re-timed under the clock state its entry switch left,
/// plus that switch priced by power::price_switch.
/// Throws std::invalid_argument when the schedule is not replay-compatible.
[[nodiscard]] ProfileEntry replay_schedule(const ScheduleLedger& ledger,
                                           const runtime::Schedule& schedule,
                                           const sim::SimParams& sim);

}  // namespace daedvfs::dse
