#include "runtime/baseline.hpp"

namespace daedvfs::runtime {
namespace {

/// The one iso-window definition: `mcu` holds the state after an inference
/// that started at (`t0_us`, `e0_uj`); idles it until the window closes.
IsoLatencyResult close_window(sim::Mcu& mcu, double t0_us, double e0_uj,
                              double qos_us, bool gated_idle) {
  IsoLatencyResult r;
  r.inference_us = mcu.time_us() - t0_us;
  r.inference_uj = mcu.energy_uj() - e0_uj;
  r.met_qos = r.inference_us <= qos_us + 1e-6;

  const double e1 = mcu.energy_uj();
  mcu.idle_until(t0_us + qos_us, gated_idle);
  r.idle_us = mcu.time_us() - (t0_us + r.inference_us);
  r.idle_uj = mcu.energy_uj() - e1;
  return r;
}

}  // namespace

clock::ClockConfig tinyengine_clock() {
  return clock::ClockConfig::pll_hse(50.0, 25, 216, 2);
}

Schedule make_tinyengine_schedule(const graph::Model& model) {
  return make_uniform_schedule(model, tinyengine_clock(), "tinyengine-216");
}

sim::Mcu schedule_mcu(const Schedule& schedule, const sim::SimParams& sim) {
  sim::SimParams params = sim;
  if (!schedule.plans.empty()) params.boot = schedule.plans.front().hfo;
  return sim::Mcu(params);
}

sim::Mcu simulate_schedule(const InferenceEngine& engine,
                           const Schedule& schedule,
                           const sim::SimParams& sim) {
  sim::Mcu mcu = schedule_mcu(schedule, sim);
  (void)engine.run(mcu, schedule, kernels::ExecMode::kTiming);
  return mcu;
}

IsoLatencyResult iso_window(sim::Mcu end, double qos_us, bool gated_idle) {
  return close_window(end, 0.0, 0.0, qos_us, gated_idle);
}

IsoLatencyResult run_iso_latency(InferenceEngine& engine, sim::Mcu& mcu,
                                 const Schedule& schedule, double qos_us,
                                 bool gated_idle, kernels::ExecMode mode) {
  const double t0 = mcu.time_us();
  const double e0 = mcu.energy_uj();
  (void)engine.run(mcu, schedule, mode);
  return close_window(mcu, t0, e0, qos_us, gated_idle);
}

}  // namespace daedvfs::runtime
