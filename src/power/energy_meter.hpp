// Energy accounting over the simulated timeline. The meter integrates
// P(t) dt exactly and event by event: every constant-power interval the
// simulator charges adds power x duration to the running total.
#pragma once

#include <cassert>

namespace daedvfs::power {

/// Exact, event-driven energy integrator.
class EnergyMeter {
 public:
  /// Records that the board drew `power_mw` from `t_begin_us` to `t_end_us`.
  /// The duration is taken as end minus begin, as the simulator's timeline
  /// sees it; folding in the caller's dt rounds differently.
  void record(double t_begin_us, double t_end_us, double power_mw) {
    assert(t_end_us >= t_begin_us);
    total_uj_ += power_mw * (t_end_us - t_begin_us) * 1e-3;  // mW*us -> uJ
  }

  /// Total integrated energy in microjoules.
  [[nodiscard]] double total_uj() const { return total_uj_; }

 private:
  double total_uj_ = 0.0;
};

}  // namespace daedvfs::power
