// Fleet-scale mission simulation: expands a handful of device-class base
// missions into thousands of seeded per-node variants, fans them out across
// util::ThreadPool through the mission engine (scenario/engine.hpp), and
// aggregates the per-node MissionReports into a FleetReport —
// energy/lateness/availability distributions with exact (nearest-rank)
// percentiles, per-class breakdowns, a fleet survival curve over mission
// time, and a fleet-level (energy, availability) Pareto front across
// governor postures. This is the layer that answers "what fraction
// of a 100k-node fleet survives winter?" (ROADMAP north star) from the
// single-node machinery of PRs 2–7.
//
// Determinism contract (docs/architecture.md): node `i`'s variant is drawn
// from a dedicated xorshift64 stream seeded with `FleetSpec::seed ^ i` —
// never from a shared RNG — and every per-node report lands in a
// preassigned slot, with aggregation running in node-index order after the
// fan-out completes. The FleetReport (and its JSON) is therefore
// byte-identical across thread counts and across runs; no wall-clock
// quantity is ever part of it (missions/sec and friends go to
// obs::MetricsRegistry instead). Per-node reports are bit-identical to
// standalone simulate_mission on the same derived spec: each node runs
// simulate_mission itself, reading its class's shared WakeTable
// (test_fleet.cpp).
//
// Sharing: all nodes of a class read one precomputed governor ladder
// (SchedulePolicy is const during simulation) and one wake-transition
// table built from it before the fan-out, and build_fleet_ladders
// constructs the per-class ladders sequentially over ONE dse::ProfileCache,
// so structurally identical layers across classes profile exactly once —
// today every caller rebuilds cache and ladder per mission.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "dse/profile_cache.hpp"
#include "governor/governor.hpp"
#include "obs/sink.hpp"
#include "scenario/engine.hpp"
#include "scenario/mission.hpp"

namespace daedvfs::scenario {

/// Per-node variation envelope of one device class. Each knob is a
/// fractional (or absolute, for the ambient offset) spread applied to the
/// class base spec from the node's seeded stream; 0 disables that knob —
/// an all-zero envelope makes every node an exact clone of the base.
struct NodeVariation {
  /// Battery aging: node capacity is scaled by `1 - battery_age * u`,
  /// u uniform in [0, 1) — a fleet of cells between factory-fresh and
  /// `battery_age` fraction worn. Clamped to [0, 0.95].
  double battery_age = 0.0;
  /// Panel orientation/shading: base intake and every harvest event are
  /// scaled by a factor uniform in [1 - s, 1 + s], clamped at 0.
  double harvest_scale = 0.0;
  /// Link quality: the uplink rate is scaled by q uniform in [1 - s, 1 + s]
  /// (floored at 0.05 of nominal), and a declared radio loss probability is
  /// scaled by (2 - q) — a node with a worse link is slower AND lossier —
  /// clamped to [0, 0.95].
  double link_quality = 0.0;
  /// Microclimate: an offset uniform in [-o, +o] degrees added to the base
  /// ambient and every temperature event.
  double ambient_offset_c = 0.0;
};

/// One homogeneous slice of the fleet: `nodes` devices derived from one
/// base mission, all reading one shared precomputed ladder. `policy` is
/// borrowed and only read during simulation — do not attach an obs sink to
/// a shared LadderPolicy while the fleet runs (its counters are not
/// atomic).
struct DeviceClass {
  std::string name = "class";
  std::uint32_t nodes = 0;
  MissionSpec base;
  NodeVariation variation;
  const SchedulePolicy* policy = nullptr;  ///< Shared ladder (read-only).
  double t_base_us = 0.0;  ///< Deadline reference (governor t_base_us()).
  sim::SimParams sim;      ///< Transition-cost/power parameterization.
};

/// A fleet: device classes laid out consecutively — class 0 owns node ids
/// [0, n0), class 1 owns [n0, n0+n1), ... Node ids are the determinism
/// anchor: node i's variant depends only on (spec, seed ^ i).
struct FleetSpec {
  std::string name = "fleet";
  std::uint64_t seed = 0xf1ee7ULL;
  std::vector<DeviceClass> classes;

  [[nodiscard]] std::uint64_t total_nodes() const {
    std::uint64_t n = 0;
    for (const DeviceClass& c : classes) n += c.nodes;
    return n;
  }
};

/// Derives node `node_id`'s concrete MissionSpec from its class base: four
/// variation draws in a fixed order (age, harvest, link, ambient) from
/// xorshift64(fleet.seed ^ node_id), then the node's own engine seed is set
/// to the same value and "#<node_id>" is appended to the mission name.
/// Pure function of (fleet, class_idx, node_id) — the fleet layer and the
/// determinism tests both call it, so a fleet node and a standalone
/// simulate_mission of the derived spec are the same simulation.
[[nodiscard]] MissionSpec derive_node_spec(const FleetSpec& fleet,
                                           std::size_t class_idx,
                                           std::uint64_t node_id);

/// Summary of one per-node scalar across the fleet: exact nearest-rank
/// percentiles (p-th percentile = the ceil(p/100 * n)-th smallest value —
/// an actual sample, never an interpolation), plus count/mean/min/max.
struct Distribution {
  std::uint64_t count = 0;
  double mean = 0.0;
  double min = 0.0;
  double p10 = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

/// Builds a Distribution from raw samples (sorted internally; empty input
/// yields the all-zero Distribution).
[[nodiscard]] Distribution make_distribution(std::vector<double> values);

/// Per-class slice of the fleet aggregates.
struct FleetClassReport {
  std::string name;
  std::uint64_t nodes = 0;
  std::uint64_t depleted = 0;  ///< Nodes whose battery died in-mission.
  Distribution energy_uj;      ///< Per-node total_uj().
  Distribution lateness_s;     ///< Per-node mean_lateness_s().
  Distribution availability;   ///< Per-node availability().
};

/// One point of the fleet survival curve: the fraction of nodes still
/// alive (not battery-depleted) at mission time `t_s`.
struct FleetSurvivalPoint {
  double t_s = 0.0;
  std::uint64_t alive = 0;
  double fraction = 0.0;
};

/// Version of the FleetReport JSON schema written by write_fleet_json.
///   1: initial fleet aggregation (PR 8).
inline constexpr int kFleetReportSchemaVersion = 1;

/// Deterministic fleet aggregate. Contains no wall-clock quantity — its
/// JSON is byte-identical across thread counts and runs (CI cmp's 1 vs 8
/// threads); throughput goes to obs metrics instead.
struct FleetReport {
  std::string fleet;
  std::string policy;  ///< Shared posture name, or "mixed".
  std::uint64_t nodes = 0;
  std::uint64_t depleted = 0;
  std::uint64_t frames = 0;          ///< Served, summed over nodes.
  std::uint64_t frames_offered = 0;  ///< Availability denominator sum.
  std::uint64_t deadline_misses = 0;
  std::uint64_t resets = 0;
  double total_energy_uj = 0.0;
  double total_harvested_mwh = 0.0;
  Distribution energy_uj;      ///< Per-node total_uj().
  Distribution lateness_s;     ///< Per-node mean_lateness_s().
  Distribution availability;   ///< Per-node availability().
  std::vector<FleetClassReport> classes;
  std::vector<FleetSurvivalPoint> survival;

  /// Delivered / offered over the whole fleet (1.0 when nothing offered).
  [[nodiscard]] double fleet_availability() const {
    return frames_offered == 0
               ? 1.0
               : static_cast<double>(frames) /
                     static_cast<double>(frames_offered);
  }
};

struct FleetOptions {
  /// Worker threads for the fan-out; 0 resolves via ThreadPool::resolve
  /// (DAEDVFS_THREADS, then hardware concurrency). The calling thread
  /// participates, so `threads` is the total parallelism.
  int threads = 0;
  /// Nodes per parallel_for chunk: scheduling granularity only — the
  /// report never depends on it.
  std::int64_t chunk = 16;
  /// Sample count of the survival curve (evenly spaced over the longest
  /// class horizon).
  int survival_points = 24;
  /// Optional observability: fleet.* metrics (nodes, depleted, frames,
  /// missions/sec) and a kHost wall-clock span. Never feeds the report.
  obs::Sink* sink = nullptr;
  /// When set, receives every per-node MissionReport in node-id order
  /// (determinism tests compare these against standalone simulate_mission).
  std::vector<MissionReport>* per_node = nullptr;
};

/// Simulates every node of the fleet and aggregates. Parallel fan-out over
/// deterministic chunks; byte-identical FleetReport for any thread count.
/// Throws std::invalid_argument, naming the class, when a populated
/// DeviceClass has no policy.
[[nodiscard]] FleetReport simulate_fleet(const FleetSpec& fleet,
                                         const FleetOptions& opts = {});

/// Writes the report as a JSON object (bench_fleet / mission_sim --fleet).
void write_fleet_json(std::ostream& os, const FleetReport& report,
                      int indent = 0);

/// One governor posture's position in the fleet-level (energy,
/// availability) plane: mean per-node energy (minimized) vs mean per-node
/// availability (maximized) — the fleet analogue of the per-mission
/// availability_pareto.
struct FleetParetoPoint {
  std::string policy;
  double mean_energy_uj = 0.0;     ///< total_energy_uj / nodes (minimized).
  double mean_availability = 0.0;  ///< availability.mean (maximized).
  double depleted_fraction = 0.0;  ///< Reported alongside.
  bool on_front = false;
};

/// Reduces same-fleet FleetReports (one per governor posture) to the
/// (energy, availability) front. Deterministic: duplicates kept, input
/// order preserved (same contract as mission_pareto).
[[nodiscard]] std::vector<FleetParetoPoint> fleet_pareto(
    const std::vector<FleetReport>& reports);

/// Writes the posture front as a JSON array.
void write_fleet_pareto_json(std::ostream& os,
                             const std::vector<FleetParetoPoint>& points,
                             int indent = 0);

/// Model + governor posture of one device class, input to
/// build_fleet_ladders. `config.pipeline.explore.cache` is overridden with
/// the shared cache.
struct ClassLadderSpec {
  std::string name = "class";
  const graph::Model* model = nullptr;
  governor::GovernorConfig config;
};

/// Per-class ladders built over one shared ProfileCache.
struct FleetLadders {
  std::vector<std::unique_ptr<governor::ScheduleGovernor>> governors;
  /// Profile-cache hit rate observed while building each class's ladder —
  /// later classes reuse earlier classes' profiles (published as
  /// fleet.ladder_cache_hit_rate.<class> when a sink is given).
  std::vector<double> cache_hit_rate;
};

/// Builds one ScheduleGovernor per class, sequentially, all sharing
/// `cache`: structurally identical (layer, candidate, sim) triples across
/// classes are profiled once — the "build once, read concurrently" half of
/// the fleet sharing story (the governors are then only read by the
/// parallel fan-out).
[[nodiscard]] FleetLadders build_fleet_ladders(
    const std::vector<ClassLadderSpec>& classes, dse::ProfileCache& cache,
    obs::Sink* sink = nullptr);

}  // namespace daedvfs::scenario
