// Exploration throughput benchmark: serial unmemoized explore_model vs the
// fast path (profile memoization + frequency replay + parallel profiling),
// on a MobileNet-class zoo model. Verifies on every run that the fast path
// produces identical per-layer Pareto fronts and an identical MCKP
// schedule, then emits BENCH_explore.json with wall-clock,
// candidates/sec, cache hit rate and the speedup — the perf-trajectory
// artifact for this pipeline.
//
//   $ ./build/bench_explore                # MBV2, 4 threads
//   $ ./build/bench_explore vww 8 out.json
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "dse/explorer.hpp"
#include "graph/zoo.hpp"
#include "mckp/mckp.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "util/json_writer.hpp"

using namespace daedvfs;

namespace {

struct RunResult {
  double wall_ms = 0.0;
  dse::ExploreStats stats;
  std::vector<dse::LayerSolutionSet> sets;
};

RunResult run_explore(const graph::Model& model, const dse::DesignSpace& ds,
                      const dse::ExploreOptions& opts) {
  RunResult r;
  const auto t0 = std::chrono::steady_clock::now();
  r.sets = dse::explore_model(model, ds, opts, &r.stats);
  const auto t1 = std::chrono::steady_clock::now();
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  return r;
}

/// Candidate-identical fronts with value agreement to replay tolerance.
bool fronts_identical(const std::vector<dse::LayerSolutionSet>& a,
                      const std::vector<dse::LayerSolutionSet>& b,
                      double* max_rel_err) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].pareto.size() != b[i].pareto.size()) return false;
    for (std::size_t j = 0; j < a[i].pareto.size(); ++j) {
      const dse::LayerSolution& x = a[i].pareto[j];
      const dse::LayerSolution& y = b[i].pareto[j];
      if (x.granularity != y.granularity || !(x.hfo == y.hfo)) return false;
      *max_rel_err = std::max(
          {*max_rel_err, std::abs(x.t_us - y.t_us) / x.t_us,
           std::abs(x.energy_uj - y.energy_uj) / x.energy_uj});
      if (*max_rel_err > 1e-9) return false;
    }
  }
  return true;
}

/// MCKP over the fronts at a +30% QoS window above the fastest schedule,
/// sharing one DP workspace across the repeated solves.
std::vector<int> solve_schedule(const std::vector<dse::LayerSolutionSet>& sets,
                                mckp::DpWorkspace& ws) {
  mckp::Instance inst;
  double t_min = 0.0;
  for (const auto& set : sets) {
    std::vector<mckp::Item> cls;
    for (const auto& s : set.pareto) cls.push_back({s.t_us, s.energy_uj});
    t_min += set.pareto.front().t_us;  // ascending latency: front() is fastest
    inst.classes.push_back(std::move(cls));
  }
  inst.capacity = 1.3 * t_min;
  const mckp::Solution sol = mckp::solve_dp(inst, 20000, ws);
  return sol.feasible ? sol.chosen : std::vector<int>{};
}

}  // namespace

int main(int argc, char** argv) {
  const std::string which = argc > 1 ? argv[1] : "mbv2";
  const int threads = argc > 2 ? std::atoi(argv[2]) : 4;
  const std::string out_path = argc > 3 ? argv[3] : "BENCH_explore.json";

  const graph::Model model = which == "vww"
                                 ? graph::zoo::make_vww()
                             : which == "pd"
                                 ? graph::zoo::make_person_detection()
                                 : graph::zoo::make_mbv2();
  const power::PowerModel pm;
  const dse::DesignSpace ds = dse::make_paper_design_space(pm);

  dse::ExploreOptions serial;
  serial.memoize = false;
  serial.freq_replay = false;
  serial.num_threads = 1;

  dse::ExploreOptions fast;
  fast.memoize = true;
  fast.freq_replay = true;
  fast.num_threads = threads;
  obs::MetricsRegistry metrics;
  obs::Sink sink;
  sink.metrics = &metrics;
  fast.sink = &sink;

  std::cout << "exploring " << model.name() << " (" << model.num_layers()
            << " layers), serial baseline...\n";
  const RunResult base = run_explore(model, ds, serial);
  std::cout << "fast path (" << threads << " threads)...\n";
  const RunResult opt = run_explore(model, ds, fast);

  double max_rel_err = 0.0;
  const bool fronts_ok = fronts_identical(base.sets, opt.sets, &max_rel_err);
  mckp::DpWorkspace ws;
  const std::vector<int> sched_base = solve_schedule(base.sets, ws);
  const std::vector<int> sched_fast = solve_schedule(opt.sets, ws);
  const bool sched_ok = !sched_base.empty() && sched_base == sched_fast;

  // The registry's explore.* counters must agree with the ExploreStats the
  // call returned — the observability layer may never tell a different
  // story than the first-class accounting (gate re-derived by
  // scripts/check_bench_gates.py).
  const auto counter_is = [&](const char* name, std::int64_t want) {
    return metrics.counter(name).value() == static_cast<std::uint64_t>(want);
  };
  const bool metrics_ok =
      counter_is("explore.total_candidates", opt.stats.total_candidates) &&
      counter_is("explore.profiled", opt.stats.profiled) &&
      counter_is("explore.cache_hits", opt.stats.cache_hits) &&
      counter_is("explore.replayed", opt.stats.replayed) &&
      // Fresh per-run cache: every candidate probes it once and misses;
      // hits only happen when a cache is shared across calls.
      counter_is("profile_cache.misses", opt.stats.total_candidates) &&
      counter_is("profile_cache.hits", 0);

  const double speedup = base.wall_ms > 0.0 ? base.wall_ms / opt.wall_ms : 0.0;
  const auto cands_per_sec = [](const RunResult& r) {
    return r.wall_ms > 0.0
               ? static_cast<double>(r.stats.total_candidates) /
                     (r.wall_ms * 1e-3)
               : 0.0;
  };

  std::ofstream os(out_path);
  os.precision(6);
  os << "{\n"
     << "  \"model\": " << util::json_quoted(model.name()) << ",\n"
     << "  \"layers\": " << model.num_layers() << ",\n"
     << "  \"total_candidates\": " << base.stats.total_candidates << ",\n"
     << "  \"serial\": {\n"
     << "    \"wall_ms\": " << base.wall_ms << ",\n"
     << "    \"profiled\": " << base.stats.profiled << ",\n"
     << "    \"candidates_per_sec\": " << cands_per_sec(base) << "\n"
     << "  },\n"
     << "  \"fast\": {\n"
     << "    \"threads\": " << threads << ",\n"
     << "    \"wall_ms\": " << opt.wall_ms << ",\n"
     << "    \"profiled\": " << opt.stats.profiled << ",\n"
     << "    \"replayed\": " << opt.stats.replayed << ",\n"
     << "    \"cache_hits\": " << opt.stats.cache_hits << ",\n"
     << "    \"cache_hit_rate\": " << opt.stats.hit_rate() << ",\n"
     << "    \"candidates_per_sec\": " << cands_per_sec(opt) << "\n"
     << "  },\n"
     << "  \"speedup\": " << speedup << ",\n"
     << "  \"max_front_rel_err\": " << max_rel_err << ",\n"
     << "  \"metrics\":\n";
  metrics.write_json(os, 2);
  os << ",\n"
     << "  \"pareto_fronts_identical\": " << util::json_bool(fronts_ok)
     << ",\n"
     << "  \"mckp_schedules_identical\": " << util::json_bool(sched_ok)
     << ",\n"
     << "  \"metrics_match_stats\": " << util::json_bool(metrics_ok)
     << "\n}\n";
  os.close();

  std::cout << "serial: " << base.wall_ms << " ms (" << base.stats.profiled
            << " sims)\n"
            << "fast:   " << opt.wall_ms << " ms (" << opt.stats.profiled
            << " sims, " << opt.stats.replayed << " replayed, "
            << opt.stats.cache_hits << " memo hits)\n"
            << "speedup: " << speedup << "x, fronts "
            << (fronts_ok ? "identical" : "MISMATCH") << ", schedules "
            << (sched_ok ? "identical" : "MISMATCH") << " -> " << out_path
            << "\n";
  return fronts_ok && sched_ok ? 0 : 1;
}
