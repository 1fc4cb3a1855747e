#include "power/energy_meter.hpp"

#include <cassert>

namespace daedvfs::power {

void EnergyMeter::record(double t_begin_us, double t_end_us, double power_mw,
                         const std::string& tag) {
  assert(t_end_us >= t_begin_us);
  const double uj = power_mw * (t_end_us - t_begin_us) * 1e-3;  // mW*us -> uJ
  total_uj_ += uj;
  by_tag_[tag] += uj;
}

double EnergyMeter::tag_uj(const std::string& tag) const {
  auto it = by_tag_.find(tag);
  return it == by_tag_.end() ? 0.0 : it->second;
}

}  // namespace daedvfs::power
