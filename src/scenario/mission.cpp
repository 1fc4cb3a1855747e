#include "scenario/mission.hpp"

#include <algorithm>
#include <ostream>

#include "util/json_writer.hpp"

namespace daedvfs::scenario {

using util::json_bool;

double MissionReport::lifetime_days(
    const power::BatteryParams& battery) const {
  if (battery_depleted) return simulated_s / 86400.0;
  const double self_mw = std::max(battery.self_discharge_mw, 0.0);
  const double draw_mw = avg_mw() + self_mw;
  if (draw_mw <= 0.0) return simulated_s / 86400.0;
  return simulated_s / 86400.0 + battery_remaining_mwh / draw_mw / 24.0;
}

void write_json(std::ostream& os, const MissionReport& r, int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const std::string in(static_cast<std::size_t>(indent) + 2, ' ');
  os << pad << "{\n"
     << in << "\"schema_version\": " << kMissionReportSchemaVersion << ",\n"
     << in << "\"mission\": ";
  util::write_json_string(os, r.mission);
  os << ",\n" << in << "\"policy\": ";
  util::write_json_string(os, r.policy);
  os << ",\n"
     << in << "\"simulated_s\": " << r.simulated_s << ",\n"
     << in << "\"frames\": " << r.frames << ",\n"
     << in << "\"deadline_misses\": " << r.deadline_misses << ",\n"
     << in << "\"rung_switches\": " << r.rung_switches << ",\n"
     << in << "\"inference_uj\": " << r.inference_uj << ",\n"
     << in << "\"transition_uj\": " << r.transition_uj << ",\n"
     << in << "\"sleep_uj\": " << r.sleep_uj << ",\n"
     << in << "\"total_uj\": " << r.total_uj() << ",\n"
     << in << "\"avg_mw\": " << r.avg_mw() << ",\n"
     << in << "\"battery_depleted\": " << json_bool(r.battery_depleted)
     << ",\n"
     << in << "\"truncated\": " << json_bool(r.truncated) << ",\n"
     << in << "\"battery_remaining_mwh\": " << r.battery_remaining_mwh
     << ",\n"
     << in << "\"frames_captured\": " << r.frames_captured << ",\n"
     << in << "\"frames_dropped\": " << r.frames_dropped << ",\n"
     << in << "\"frames_pending\": " << r.frames_pending << ",\n"
     << in << "\"max_backlog\": " << r.max_backlog << ",\n"
     << in << "\"backlog_latency_s\": " << r.backlog_latency_s << ",\n"
     << in << "\"max_latency_debt_s\": " << r.max_latency_debt_s << ",\n"
     << in << "\"deadline_overrun_s\": " << r.deadline_overrun_s << ",\n"
     << in << "\"thermal_violations\": " << r.thermal_violations << ",\n"
     << in << "\"derated_frames\": " << r.derated_frames << ",\n"
     << in << "\"prelocks\": " << r.prelocks << ",\n"
     << in << "\"prelock_hits\": " << r.prelock_hits << ",\n"
     << in << "\"prelock_misses\": " << r.prelock_misses << ",\n"
     << in << "\"prelock_uj\": " << r.prelock_uj << ",\n"
     << in << "\"radio_uj\": " << r.radio_uj << ",\n"
     << in << "\"harvested_mwh\": " << r.harvested_mwh << ",\n"
     << in << "\"frames_offered\": " << r.frames_offered << ",\n"
     << in << "\"frames_shed\": " << r.frames_shed << ",\n"
     << in << "\"retries\": " << r.retries << ",\n"
     << in << "\"tx_failures\": " << r.tx_failures << ",\n"
     << in << "\"resets\": " << r.resets << ",\n"
     << in << "\"checkpoints\": " << r.checkpoints << ",\n"
     << in << "\"downtime_s\": " << r.downtime_s << ",\n"
     << in << "\"retry_uj\": " << r.retry_uj << ",\n"
     << in << "\"boot_uj\": " << r.boot_uj << ",\n"
     << in << "\"checkpoint_uj\": " << r.checkpoint_uj << ",\n"
     << in << "\"fault_uj\": " << r.fault_uj() << ",\n"
     << in << "\"availability\": " << r.availability() << ",\n"
     << in << "\"frames_per_rung\": [";
  for (std::size_t i = 0; i < r.frames_per_rung.size(); ++i) {
    os << (i ? ", " : "") << r.frames_per_rung[i];
  }
  os << "]\n" << pad << "}";
}

std::vector<MissionParetoPoint> mission_pareto(
    const std::vector<MissionReport>& reports) {
  std::vector<MissionParetoPoint> points;
  points.reserve(reports.size());
  for (const MissionReport& r : reports) {
    MissionParetoPoint p;
    p.policy = r.policy;
    p.total_uj = r.total_uj();
    p.mean_lateness_s = r.mean_lateness_s();
    p.max_latency_debt_s = r.max_latency_debt_s;
    p.mean_latency_debt_s = r.mean_latency_debt_s();
    p.deadline_misses = r.deadline_misses;
    points.push_back(std::move(p));
  }
  mark_pareto_front(
      points, [](const MissionParetoPoint& p) { return p.total_uj; },
      [](const MissionParetoPoint& p) { return p.mean_lateness_s; });
  return points;
}

void write_pareto_json(std::ostream& os,
                       const std::vector<MissionParetoPoint>& points,
                       int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const std::string in(static_cast<std::size_t>(indent) + 2, ' ');
  os << pad << "[\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const MissionParetoPoint& p = points[i];
    os << in << "{\"policy\": ";
    util::write_json_string(os, p.policy);
    os << ", \"total_uj\": "
       << p.total_uj << ", \"mean_lateness_s\": " << p.mean_lateness_s
       << ", \"max_latency_debt_s\": " << p.max_latency_debt_s
       << ", \"mean_latency_debt_s\": " << p.mean_latency_debt_s
       << ", \"deadline_misses\": " << p.deadline_misses
       << ", \"on_front\": " << json_bool(p.on_front) << "}"
       << (i + 1 < points.size() ? "," : "") << "\n";
  }
  os << pad << "]";
}

std::vector<AvailabilityParetoPoint> availability_pareto(
    const std::vector<MissionReport>& reports) {
  std::vector<AvailabilityParetoPoint> points;
  points.reserve(reports.size());
  for (const MissionReport& r : reports) {
    AvailabilityParetoPoint p;
    p.policy = r.policy;
    p.total_uj = r.total_uj();
    p.availability = r.availability();
    p.fault_uj = r.fault_uj();
    p.downtime_s = r.downtime_s;
    p.resets = r.resets;
    p.retries = r.retries;
    p.tx_failures = r.tx_failures;
    p.frames_shed = r.frames_shed;
    points.push_back(std::move(p));
  }
  mark_pareto_front(
      points, [](const AvailabilityParetoPoint& p) { return p.total_uj; },
      [](const AvailabilityParetoPoint& p) { return -p.availability; });
  return points;
}

void write_availability_pareto_json(
    std::ostream& os, const std::vector<AvailabilityParetoPoint>& points,
    int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const std::string in(static_cast<std::size_t>(indent) + 2, ' ');
  os << pad << "[\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const AvailabilityParetoPoint& p = points[i];
    os << in << "{\"policy\": ";
    util::write_json_string(os, p.policy);
    os << ", \"total_uj\": "
       << p.total_uj << ", \"availability\": " << p.availability
       << ", \"fault_uj\": " << p.fault_uj
       << ", \"downtime_s\": " << p.downtime_s << ", \"resets\": " << p.resets
       << ", \"retries\": " << p.retries
       << ", \"tx_failures\": " << p.tx_failures
       << ", \"frames_shed\": " << p.frames_shed
       << ", \"on_front\": " << json_bool(p.on_front) << "}"
       << (i + 1 < points.size() ? "," : "") << "\n";
  }
  os << pad << "]";
}

}  // namespace daedvfs::scenario
