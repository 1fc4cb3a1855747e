#include "scenario/fleet.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/faults.hpp"
#include "util/json_writer.hpp"
#include "util/thread_pool.hpp"

namespace daedvfs::scenario {
namespace {

using util::json_bool;

double clamp01(double v, double hi) { return std::clamp(v, 0.0, hi); }

/// Nearest-rank percentile of a sorted sample: the ceil(q * n)-th smallest
/// value — always an actual sample.
double percentile(const std::vector<double>& sorted, double q) {
  const std::size_t n = sorted.size();
  if (n == 0) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));
  return sorted[std::min(n - 1, rank > 0 ? rank - 1 : 0)];
}

/// Distribution over reports[first, first+count), projected by `get`.
template <class Get>
Distribution distribution_of(const std::vector<MissionReport>& reports,
                             std::size_t first, std::size_t count,
                             const Get& get) {
  std::vector<double> values;
  values.reserve(count);
  for (std::size_t i = first; i < first + count; ++i) {
    values.push_back(get(reports[i]));
  }
  return make_distribution(std::move(values));
}

void write_distribution(std::ostream& os, const Distribution& d) {
  os << "{\"count\": " << d.count << ", \"mean\": " << d.mean
     << ", \"min\": " << d.min << ", \"p10\": " << d.p10
     << ", \"p50\": " << d.p50 << ", \"p90\": " << d.p90
     << ", \"p99\": " << d.p99 << ", \"max\": " << d.max << "}";
}

}  // namespace

MissionSpec derive_node_spec(const FleetSpec& fleet, std::size_t class_idx,
                             std::uint64_t node_id) {
  const DeviceClass& dc = fleet.classes.at(class_idx);
  MissionSpec s = dc.base;
  const std::uint64_t node_seed = fleet.seed ^ node_id;
  Xorshift64 rng(node_seed);
  // Fixed draw order — age, harvest, link, ambient — so adding knobs later
  // means appending draws, never reordering (which would reshuffle every
  // existing fleet).
  const double u_age = rng.next_unit();
  const double u_harvest = rng.next_unit();
  const double u_link = rng.next_unit();
  const double u_ambient = rng.next_unit();
  const NodeVariation& v = dc.variation;

  if (v.battery_age > 0.0) {
    s.battery.capacity_mwh *= 1.0 - clamp01(v.battery_age, 0.95) * u_age;
  }
  if (v.harvest_scale > 0.0) {
    const double scale =
        std::max(0.0, 1.0 + v.harvest_scale * (2.0 * u_harvest - 1.0));
    s.base_harvest_mw *= scale;
    for (HarvestEvent& e : s.harvest_events) e.intake_mw *= scale;
  }
  if (v.link_quality > 0.0) {
    const double q =
        std::max(0.05, 1.0 + v.link_quality * (2.0 * u_link - 1.0));
    s.radio.link_kbps *= q;
    if (s.faults.radio.loss_prob > 0.0) {
      s.faults.radio.loss_prob =
          clamp01(s.faults.radio.loss_prob * (2.0 - q), 0.95);
    }
  }
  if (v.ambient_offset_c > 0.0) {
    const double offset = v.ambient_offset_c * (2.0 * u_ambient - 1.0);
    s.base_ambient_c += offset;
    for (TempEvent& e : s.temp_events) e.ambient_c += offset;
  }
  s.seed = node_seed;
  s.name += "#" + std::to_string(node_id);
  return s;
}

Distribution make_distribution(std::vector<double> values) {
  Distribution d;
  d.count = values.size();
  if (values.empty()) return d;
  std::sort(values.begin(), values.end());
  double sum = 0.0;
  for (const double v : values) sum += v;
  d.mean = sum / static_cast<double>(values.size());
  d.min = values.front();
  d.max = values.back();
  d.p10 = percentile(values, 0.10);
  d.p50 = percentile(values, 0.50);
  d.p90 = percentile(values, 0.90);
  d.p99 = percentile(values, 0.99);
  return d;
}

FleetReport simulate_fleet(const FleetSpec& fleet, const FleetOptions& opts) {
  const double wall_start_us = obs::host_now_us();
  FleetReport report;
  report.fleet = fleet.name;

  // Node layout: classes are consecutive; precompute each node's class.
  std::vector<std::size_t> class_of;
  std::vector<std::size_t> class_first(fleet.classes.size(), 0);
  for (std::size_t c = 0; c < fleet.classes.size(); ++c) {
    const DeviceClass& dc = fleet.classes[c];
    if (dc.nodes > 0 && dc.policy == nullptr) {
      throw std::invalid_argument("simulate_fleet: device class '" + dc.name +
                                  "' has nodes but no policy");
    }
    class_first[c] = class_of.size();
    class_of.insert(class_of.end(), dc.nodes, c);
  }
  const std::size_t n = class_of.size();
  report.nodes = n;
  for (const DeviceClass& dc : fleet.classes) {
    if (dc.nodes == 0) continue;
    const std::string name = dc.policy->name();
    if (report.policy.empty()) {
      report.policy = name;
    } else if (report.policy != name) {
      report.policy = "mixed";
    }
  }
  if (n == 0) return report;

  // ---- Fan-out. One WakeTable per populated class, built before the
  // fan-out and only read by it. Chunks are deterministic index ranges;
  // each derives its nodes' specs locally and simulates them one by one.
  // Reports land in preassigned slots — nothing downstream depends on
  // which thread ran which chunk. Per-node runs get no sink: obs
  // registries are not thread-safe, and fleet.* aggregates are published
  // once below, after the barrier.
  std::vector<WakeTable> wakes(fleet.classes.size());
  for (std::size_t c = 0; c < fleet.classes.size(); ++c) {
    const DeviceClass& dc = fleet.classes[c];
    if (dc.nodes == 0) continue;
    wakes[c] = WakeTable(dc.policy->rungs(), dc.sim.switching,
                         power::PowerModel(dc.sim.power), dc.sim.boot);
  }
  std::vector<MissionReport> reports(n);
  const int threads = util::ThreadPool::resolve(opts.threads);
  util::ThreadPool pool(std::max(threads - 1, 0));
  pool.parallel_for(
      static_cast<std::int64_t>(n), std::max<std::int64_t>(opts.chunk, 1),
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) {
          const auto node = static_cast<std::size_t>(i);
          const std::size_t c = class_of[node];
          const DeviceClass& dc = fleet.classes[c];
          reports[node] = simulate_mission(
              derive_node_spec(fleet, c, node), *dc.policy, dc.t_base_us,
              wakes[c]);
        }
      });

  // ---- Aggregate, strictly in node-index order (the order-independent
  // merge: the fan-out already finished, so this is a serial fold over a
  // deterministic sequence — FP summation order never varies).
  for (const MissionReport& r : reports) {
    report.depleted += r.battery_depleted ? 1 : 0;
    report.frames += r.frames;
    report.frames_offered += r.frames_offered;
    report.deadline_misses += r.deadline_misses;
    report.resets += r.resets;
    report.total_energy_uj += r.total_uj();
    report.total_harvested_mwh += r.harvested_mwh;
  }
  const auto energy = [](const MissionReport& r) { return r.total_uj(); };
  const auto lateness = [](const MissionReport& r) {
    return r.mean_lateness_s();
  };
  const auto availability = [](const MissionReport& r) {
    return r.availability();
  };
  report.energy_uj = distribution_of(reports, 0, n, energy);
  report.lateness_s = distribution_of(reports, 0, n, lateness);
  report.availability = distribution_of(reports, 0, n, availability);
  for (std::size_t c = 0; c < fleet.classes.size(); ++c) {
    const DeviceClass& dc = fleet.classes[c];
    FleetClassReport cr;
    cr.name = dc.name;
    cr.nodes = dc.nodes;
    const std::size_t first = class_first[c];
    for (std::size_t i = first; i < first + dc.nodes; ++i) {
      cr.depleted += reports[i].battery_depleted ? 1 : 0;
    }
    cr.energy_uj = distribution_of(reports, first, dc.nodes, energy);
    cr.lateness_s = distribution_of(reports, first, dc.nodes, lateness);
    cr.availability = distribution_of(reports, first, dc.nodes, availability);
    report.classes.push_back(std::move(cr));
  }

  // ---- Survival curve: fraction of nodes not yet battery-depleted at an
  // evenly spaced grid over the longest class horizon. A depleted node is
  // dead from its depletion time (simulated_s) onward — depletion is
  // terminal in the engine, so the curve is monotone non-increasing.
  double horizon_s = 0.0;
  for (const DeviceClass& dc : fleet.classes) {
    horizon_s = std::max(horizon_s, dc.base.horizon_s);
  }
  const int points = std::max(opts.survival_points, 1);
  for (int k = 1; k <= points; ++k) {
    FleetSurvivalPoint p;
    p.t_s = horizon_s * static_cast<double>(k) / static_cast<double>(points);
    for (const MissionReport& r : reports) {
      if (!(r.battery_depleted && r.simulated_s <= p.t_s)) ++p.alive;
    }
    p.fraction = static_cast<double>(p.alive) / static_cast<double>(n);
    report.survival.push_back(p);
  }

  if (opts.per_node != nullptr) *opts.per_node = std::move(reports);

  // ---- Observability: throughput and totals. Wall-clock lives here and
  // only here — the FleetReport stays byte-reproducible.
  if (opts.sink != nullptr) {
    const double wall_us = obs::host_now_us() - wall_start_us;
    if (obs::TraceRecorder* tr = opts.sink->trace) {
      tr->complete(obs::Track::kHost, "simulate_fleet", wall_start_us,
                   wall_us, "nodes", static_cast<double>(n));
    }
    if (obs::MetricsRegistry* mx = opts.sink->metrics) {
      mx->counter("fleet.nodes").add(report.nodes);
      mx->counter("fleet.depleted").add(report.depleted);
      mx->counter("fleet.frames").add(report.frames);
      mx->counter("fleet.frames_offered").add(report.frames_offered);
      mx->counter("fleet.deadline_misses").add(report.deadline_misses);
      mx->gauge("fleet.threads").set(static_cast<double>(threads));
      mx->gauge("fleet.missions_per_sec")
          .set(wall_us > 0.0 ? static_cast<double>(n) / (wall_us * 1e-6)
                             : 0.0);
    }
  }
  return report;
}

void write_fleet_json(std::ostream& os, const FleetReport& r, int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const std::string in(static_cast<std::size_t>(indent) + 2, ' ');
  const std::string in2(static_cast<std::size_t>(indent) + 4, ' ');
  os << pad << "{\n"
     << in << "\"schema_version\": " << kFleetReportSchemaVersion << ",\n"
     << in << "\"fleet\": ";
  util::write_json_string(os, r.fleet);
  os << ",\n" << in << "\"policy\": ";
  util::write_json_string(os, r.policy);
  os << ",\n"
     << in << "\"nodes\": " << r.nodes << ",\n"
     << in << "\"depleted\": " << r.depleted << ",\n"
     << in << "\"frames\": " << r.frames << ",\n"
     << in << "\"frames_offered\": " << r.frames_offered << ",\n"
     << in << "\"deadline_misses\": " << r.deadline_misses << ",\n"
     << in << "\"resets\": " << r.resets << ",\n"
     << in << "\"total_energy_uj\": " << r.total_energy_uj << ",\n"
     << in << "\"total_harvested_mwh\": " << r.total_harvested_mwh << ",\n"
     << in << "\"fleet_availability\": " << r.fleet_availability() << ",\n"
     << in << "\"energy_uj\": ";
  write_distribution(os, r.energy_uj);
  os << ",\n" << in << "\"lateness_s\": ";
  write_distribution(os, r.lateness_s);
  os << ",\n" << in << "\"availability\": ";
  write_distribution(os, r.availability);
  os << ",\n" << in << "\"classes\": [";
  for (std::size_t c = 0; c < r.classes.size(); ++c) {
    const FleetClassReport& cr = r.classes[c];
    os << (c ? ",\n" : "\n") << in2 << "{\"name\": ";
    util::write_json_string(os, cr.name);
    os << ", \"nodes\": " << cr.nodes << ", \"depleted\": " << cr.depleted
       << ",\n"
       << in2 << " \"energy_uj\": ";
    write_distribution(os, cr.energy_uj);
    os << ",\n" << in2 << " \"lateness_s\": ";
    write_distribution(os, cr.lateness_s);
    os << ",\n" << in2 << " \"availability\": ";
    write_distribution(os, cr.availability);
    os << "}";
  }
  os << "\n" << in << "],\n" << in << "\"survival\": [";
  for (std::size_t k = 0; k < r.survival.size(); ++k) {
    const FleetSurvivalPoint& p = r.survival[k];
    os << (k ? ",\n" : "\n") << in2 << "{\"t_s\": " << p.t_s
       << ", \"alive\": " << p.alive << ", \"fraction\": " << p.fraction
       << "}";
  }
  os << "\n" << in << "]\n" << pad << "}";
}

std::vector<FleetParetoPoint> fleet_pareto(
    const std::vector<FleetReport>& reports) {
  std::vector<FleetParetoPoint> points;
  points.reserve(reports.size());
  for (const FleetReport& r : reports) {
    FleetParetoPoint p;
    p.policy = r.policy;
    p.mean_energy_uj =
        r.nodes > 0 ? r.total_energy_uj / static_cast<double>(r.nodes) : 0.0;
    p.mean_availability = r.availability.mean;
    p.depleted_fraction =
        r.nodes > 0 ? static_cast<double>(r.depleted) /
                          static_cast<double>(r.nodes)
                    : 0.0;
    points.push_back(std::move(p));
  }
  mark_pareto_front(
      points, [](const FleetParetoPoint& p) { return p.mean_energy_uj; },
      [](const FleetParetoPoint& p) { return -p.mean_availability; });
  return points;
}

void write_fleet_pareto_json(std::ostream& os,
                             const std::vector<FleetParetoPoint>& points,
                             int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const std::string in(static_cast<std::size_t>(indent) + 2, ' ');
  os << pad << "[\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const FleetParetoPoint& p = points[i];
    os << in << "{\"policy\": ";
    util::write_json_string(os, p.policy);
    os << ", \"mean_energy_uj\": " << p.mean_energy_uj
       << ", \"mean_availability\": " << p.mean_availability
       << ", \"depleted_fraction\": " << p.depleted_fraction
       << ", \"on_front\": " << json_bool(p.on_front) << "}"
       << (i + 1 < points.size() ? "," : "") << "\n";
  }
  os << pad << "]";
}

FleetLadders build_fleet_ladders(const std::vector<ClassLadderSpec>& classes,
                                 dse::ProfileCache& cache, obs::Sink* sink) {
  FleetLadders out;
  out.governors.reserve(classes.size());
  out.cache_hit_rate.reserve(classes.size());
  for (const ClassLadderSpec& cls : classes) {
    assert(cls.model != nullptr && "ClassLadderSpec needs a model");
    const dse::ProfileCache::Stats before = cache.stats();
    governor::GovernorConfig cfg = cls.config;
    cfg.pipeline.explore.cache = &cache;
    out.governors.push_back(
        std::make_unique<governor::ScheduleGovernor>(*cls.model, cfg));
    const dse::ProfileCache::Stats after = cache.stats();
    const std::uint64_t lookups =
        (after.hits - before.hits) + (after.misses - before.misses);
    const double rate =
        lookups > 0 ? static_cast<double>(after.hits - before.hits) /
                          static_cast<double>(lookups)
                    : 0.0;
    out.cache_hit_rate.push_back(rate);
    if (sink != nullptr && sink->metrics != nullptr) {
      sink->metrics->gauge("fleet.ladder_cache_hit_rate." + cls.name)
          .set(rate);
    }
  }
  return out;
}

}  // namespace daedvfs::scenario
