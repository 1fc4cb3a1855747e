// Energy accounting over the simulated timeline. The meter integrates
// P(t) dt exactly and event by event: every constant-power interval the
// simulator charges adds power x duration to the running total, and to the
// total of the interval's attribution tag.
#pragma once

#include <map>
#include <string>

namespace daedvfs::power {

/// Exact, event-driven energy integrator with per-tag attribution.
class EnergyMeter {
 public:
  /// Records that the board drew `power_mw` from `t_begin_us` to `t_end_us`.
  void record(double t_begin_us, double t_end_us, double power_mw,
              const std::string& tag);

  /// Total integrated energy in microjoules.
  [[nodiscard]] double total_uj() const { return total_uj_; }
  /// Energy attributed to one tag (0 if unknown).
  [[nodiscard]] double tag_uj(const std::string& tag) const;

 private:
  double total_uj_ = 0.0;
  std::map<std::string, double> by_tag_;
};

}  // namespace daedvfs::power
