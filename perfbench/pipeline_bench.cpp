// Whole-pipeline benchmark: one binary that times the three uses of the
// DAE+DVFS toolchain through the library's public functions only, checks
// their outputs, and prints every metric by name with its unit.
//
//   deploy — one op = one model's QoS sweep (Pipeline::run at slacks
//            0.10/0.30/0.50, DSE explored once and reused), fresh
//            ProfileCache per op, models cycled in a seeded order;
//   fleet  — one op = simulate_fleet over a two-class PD fleet for one
//            simulated day (predictive and reactive ladders built in setup);
//   serve  — one op = one point answer() of a fresh ScheduleServer under a
//            seeded state stream spanning the whole quantization grid.
//
// Every run reports every end-to-end metric, so every run measures all
// three uses: the workload named on the command line gets --seconds of
// measurement, the other two short reference slices, interleaved in rounds
// of about four seconds so every use samples the whole run. Timed ops are
// single-threaded and timed in process CPU time, and each throughput is the
// fast decile of many short samples: on a shared host both keep
// neighbours' load out of the figures (perfbench/README.md).
// With --trace 1 rounds alternate between untraced and traced:
// host spans are recorded around each public call (kHost track of an
// obs::TraceRecorder, written as a Perfetto-openable file at the end) and
// the per-layer metrics plus the tracing overhead are printed instead.
//
// The last stdout line is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Usage: pipeline_bench --workload deploy|fleet|serve --seed N --seconds S
//                       --trace 0|1 [--out-dir DIR]
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "core/schedule_builder.hpp"
#include "dse/design_space.hpp"
#include "dse/explorer.hpp"
#include "dse/profile_cache.hpp"
#include "graph/zoo.hpp"
#include "kernels/backend.hpp"
#include "mckp/mckp.hpp"
#include "obs/trace.hpp"
#include "power/power_model.hpp"
#include "runtime/baseline.hpp"
#include "runtime/schedule.hpp"
#include "scenario/engine.hpp"
#include "scenario/fleet.hpp"
#include "scenario/mission.hpp"
#include "serve/schedule_server.hpp"
#include "util/thread_pool.hpp"

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMMIT
#define PERFBENCH_COMMIT "unknown"
#endif
#ifndef PERFBENCH_SOURCE_DIGEST
#define PERFBENCH_SOURCE_DIGEST "unknown"
#endif

using namespace daedvfs;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds consumed by the whole process. Timed ops run single-threaded,
/// so this is the op's host cost; unlike wall time it does not grow while a
/// busy shared host deschedules the benchmark.
double cpu_now_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Host clock probe: CPU seconds of a fixed dependent chain of xorshift
/// steps, best of three. The chain costs a fixed number of cycles per step,
/// so its time follows the core clock the host grants at that moment.
constexpr int kProbeSteps = 200000;
/// Probe time at the reference clock: 2 ns per step.
constexpr double kReferenceProbeS = 2e-9 * kProbeSteps;

double clock_probe_s() {
  static std::uint64_t sink = 0;
  double best = 1e9;
  for (int rep = 0; rep < 3; ++rep) {
    const double c0 = cpu_now_s();
    std::uint64_t x = 0x9e3779b97f4a7c15ull ^ sink;
    for (int i = 0; i < kProbeSteps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink ^= x;
    best = std::min(best, cpu_now_s() - c0);
  }
  return best;
}

/// CPU seconds converted to the reference clock, using the probe taken just
/// before the sample: a cycle count by proxy, since the guest exposes no
/// hardware cycle counter. A shared host moves its clock by up to ~1.5x
/// over minutes; this keeps that drift out of every time metric.
double at_reference_clock(double cpu_s, double probe_s) {
  return cpu_s * kReferenceProbeS / probe_s;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Cost of one now_ns() read. Every interval timed around a call holds one
/// read, so per-call layer times subtract it.
double clock_read_ns() {
  constexpr int kReads = 1 << 20;
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kReads; ++i) (void)now_ns();
  return static_cast<double>(now_ns() - t0) / kReads;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// FNV-1a over raw bytes: the answer-stream, fleet and deploy digests.
class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ b[i]) * 0x100000001b3ull;
  }
  template <class T>
  void add(const T& v) {
    bytes(&v, sizeof v);
  }
  void str(const std::string& s) { bytes(s.data(), s.size()); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (an actual sample).
double nearest_rank(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank > 0 ? rank - 1 : 0)];
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Steady estimators for a shared host: neighbours only ever slow work
/// down, in bursts, so the fast decile of many short samples repeats from
/// run to run where the median follows the neighbours.
double fast_decile_rate(const std::vector<double>& rates) {
  return nearest_rank(rates, 0.9);
}
double fast_decile_time(const std::vector<double>& times) {
  return nearest_rank(times, 0.1);
}

/// Per-query latency histogram with 1 ns buckets; percentiles interpolate
/// linearly inside a bucket so they keep sub-ns resolution.
class NsHistogram {
 public:
  static constexpr std::int64_t kMaxNs = 200000;

  void clear() {
    std::fill(counts_.begin(), counts_.end(), 0);
    n_ = 0;
  }
  void add(std::int64_t ns) {
    counts_[static_cast<std::size_t>(std::clamp<std::int64_t>(ns, 0, kMaxNs))]++;
    ++n_;
  }
  [[nodiscard]] double percentile(double q) const {
    if (n_ == 0) return 0.0;
    const double target = q * static_cast<double>(n_);
    double cum = 0.0;
    for (std::size_t b = 0; b < counts_.size(); ++b) {
      const auto c = static_cast<double>(counts_[b]);
      if (c > 0.0 && cum + c >= target) {
        return static_cast<double>(b) + (target - cum) / c;
      }
      cum += c;
    }
    return static_cast<double>(kMaxNs);
  }

 private:
  std::vector<std::uint64_t> counts_ =
      std::vector<std::uint64_t>(static_cast<std::size_t>(kMaxNs) + 1, 0);
  std::uint64_t n_ = 0;
};

// ---- Host spans ------------------------------------------------------------

/// Spans the benchmark records around its own calls into the library. Kept
/// in memory (TraceRecorder ring + per-name totals) and written at the end.
/// Self time of a span = its duration minus the durations of its children.
class SpanLog {
 public:
  struct Totals {
    std::uint64_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };

  class Scope {
   public:
    Scope(SpanLog* log, const char* name) : log_(log), name_(name) {
      if (log_ == nullptr) return;
      log_->child_us_.push_back(0.0);
      start_us_ = obs::host_now_us();
    }
    ~Scope() {
      if (log_ == nullptr) return;
      const double dur = obs::host_now_us() - start_us_;
      const double children = log_->child_us_.back();
      log_->child_us_.pop_back();
      if (!log_->child_us_.empty()) log_->child_us_.back() += dur;
      Totals& t = log_->totals_[name_];
      ++t.count;
      t.total_us += dur;
      t.self_us += dur - children;
      log_->trace_.complete(obs::Track::kHost, name_, start_us_, dur);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    const char* name_;
    double start_us_ = 0.0;
  };

  /// A span timed by the caller (a mission timed inside replay_node),
  /// recorded as a leaf child of the innermost open scope.
  void leaf(const char* name, double start_us, double dur_us) {
    if (!child_us_.empty()) child_us_.back() += dur_us;
    Totals& t = totals_[name];
    ++t.count;
    t.total_us += dur_us;
    t.self_us += dur_us;
    trace_.complete(obs::Track::kHost, name, start_us, dur_us);
  }

  [[nodiscard]] Totals totals(const std::string& name) const {
    const auto it = totals_.find(name);
    return it == totals_.end() ? Totals{} : it->second;
  }
  [[nodiscard]] const obs::TraceRecorder& trace() const { return trace_; }

 private:
  obs::TraceRecorder trace_;
  std::vector<double> child_us_;  ///< Children's summed duration per open scope.
  std::map<std::string, Totals> totals_;
};

// ---- Results ---------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  std::map<std::string, std::string> digests;
  std::vector<std::string> errors;

  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    errors.push_back(what);
  }
};

/// One use's share of a round.
struct Phase {
  double seconds = 0.0;
  SpanLog* log = nullptr;  ///< Non-null: a traced round.
};

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Host speed as delivered right now: the spin time of one thread, and the
/// parallel capacity threads * t1 / tN of the same spin on `threads` threads
/// at once. Recorded as provenance only — nothing is gated on it.
struct HostProbe {
  double spin_ms = 0.0;
  double parallel_capacity = 0.0;
};

HostProbe probe_host(int threads) {
  const auto spin = [] {
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 20000000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    return x;
  };
  std::atomic<std::uint64_t> sink{0};
  const auto t1 = Clock::now();
  sink += spin();
  const double one = seconds_since(t1);
  const auto tn = Clock::now();
  {
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) pool.emplace_back([&] { sink += spin(); });
    for (std::thread& t : pool) t.join();
  }
  const double all = seconds_since(tn);
  return {one * 1e3, ratio(static_cast<double>(threads) * one, all)};
}

// ---- Setup -----------------------------------------------------------------

constexpr std::array<double, 3> kSlacks = {0.10, 0.30, 0.50};
// Every timed op runs its pools with one thread. The parallelism a shared
// host delivers to `nproc` threads varies from run to run (see the
// parallel_capacity provenance field), which would swamp every time metric;
// thread scaling is reported by the traced run instead
// (fleet.parallel_efficiency) and checked for determinism at nproc threads.
constexpr int kTimedThreads = 1;
constexpr double kFleetHorizonS = 86400.0;
constexpr std::uint32_t kSensingNodes = 32;
constexpr std::uint32_t kRelayNodes = 16;
// derive_node_spec seeds node i with fleet.seed ^ i, so one fleet's nodes
// draw strongly correlated variations and the seed alone moves a fleet's
// work per simulated day by ~±20%. Each fleet op cycles over this many
// independently seeded fleets, which averages that out.
constexpr std::uint64_t kFleetVariants = 4;
constexpr std::size_t kQueryPool = std::size_t{1} << 17;
constexpr std::size_t kLatencyStride = 16;  ///< Every 16th query is timed alone.

governor::GovernorConfig ladder_config(bool predictive) {
  governor::GovernorConfig cfg;
  cfg.pipeline.space = dse::make_paper_design_space(
      power::PowerModel{cfg.pipeline.explore.sim.power});
  cfg.pipeline.explore.num_threads = kTimedThreads;
  cfg.predictive = predictive;
  return cfg;
}

serve::ServerConfig serve_config() {
  serve::ServerConfig cfg;
  cfg.derate = {40.0, 2.0, 216.0};
  cfg.degraded.critical_soc = 0.3;
  cfg.degraded.max_skip = 3;
  return cfg;
}

/// Everything the three uses need before timing starts. Rebuilt from
/// scratch for each set-up repetition.
struct Setup {
  /// VWW, PD, MBV2 with seeded weights; the fleet and serve ladders use PD.
  std::vector<graph::Model> models;
  core::PipelineConfig deploy_cfg;
  dse::ProfileCache ladder_cache;
  scenario::FleetLadders ladders;
  double ladders_s = 0.0;
  std::unique_ptr<serve::ScheduleServer> server;  ///< Set-up cost only.
  /// kFleetVariants fleets from independent seeds (see kFleetVariants).
  std::vector<scenario::FleetSpec> fleets;
  std::vector<serve::DeviceState> queries;

  [[nodiscard]] const governor::ScheduleGovernor& reactive() const {
    return *ladders.governors[0];
  }
  [[nodiscard]] const governor::ScheduleGovernor& predictive() const {
    return *ladders.governors[1];
  }
};

/// Two-class PD fleet over one simulated day with every NodeVariation knob,
/// harvest steps, the radio model, a 4% lossy link with retries and one
/// brownout reset. `sensing` (5 s period) rides the predictive ladder,
/// `relay` (3 s period) the reactive one.
scenario::FleetSpec make_fleet(const Setup& s, std::uint64_t seed) {
  const double h = kFleetHorizonS;
  scenario::MissionSpec base;
  base.name = "sensing";
  base.horizon_s = h;
  base.duty.period_s = 5.0;
  base.duty.sleep_mw = 0.9;
  // Cells large enough that no node browns out over the day: a depleted
  // node stops simulating, which would make the op's work depend on the seed.
  base.battery.capacity_mwh = 80.0;
  base.base_qos_slack = 0.35;
  base.qos_events = {{h * 0.2, 0.05}, {h * 0.5, 0.6}, {h * 0.75, 0.15}};
  base.period_jitter = 0.05;
  base.connectivity = {{0.0, h * 0.25}, {h * 0.4, h * 0.3}, {h * 0.85, h * 0.15}};
  base.uplink_queue_frames = 48;
  base.base_harvest_mw = 0.8;
  base.harvest_events = {{h * 0.3, 3.5}, {h * 0.7, 0.3}};
  base.radio.link_kbps = 250.0;
  base.radio.payload_bytes = 512.0;
  base.faults.radio.loss_prob = 0.04;
  base.faults.radio.max_retries = 2;
  base.faults.resets = {{h * 0.55}};
  base.faults.reboot.boot_s = 4.0;
  base.faults.reboot.boot_uj = 1200.0;

  scenario::NodeVariation vary;
  vary.battery_age = 0.5;
  vary.harvest_scale = 0.6;
  vary.link_quality = 0.3;
  vary.ambient_offset_c = 10.0;

  scenario::FleetSpec fleet;
  fleet.name = "perfbench-fleet";
  fleet.seed = seed;
  scenario::DeviceClass sensing;
  sensing.name = "sensing";
  sensing.nodes = kSensingNodes;
  sensing.base = base;
  sensing.variation = vary;
  sensing.policy = &s.predictive();
  sensing.t_base_us = s.predictive().t_base_us();
  fleet.classes.push_back(sensing);

  scenario::DeviceClass relay = sensing;
  relay.name = "relay";
  relay.nodes = kRelayNodes;
  relay.base.name = "relay";
  relay.base.duty.period_s = 3.0;
  relay.base.battery.capacity_mwh = 120.0;
  relay.policy = &s.reactive();
  relay.t_base_us = s.reactive().t_base_us();
  fleet.classes.push_back(relay);
  return fleet;
}

/// Seeded state stream over the whole grid, including finite out-of-range
/// slack and ambient values that must clamp. NaN is deliberately absent:
/// quantize() has no defined behaviour for it yet.
std::vector<serve::DeviceState> make_queries(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> slack(-0.05, 0.6);
  std::uniform_real_distribution<double> temp(-25.0, 65.0);
  std::uniform_real_distribution<double> soc(0.0, 1.0);
  std::uniform_int_distribution<std::uint32_t> backlog(0, 12);
  // Catch-up budgets up to 0.8 s tighten the deadline across every slack
  // cell, so the stream reaches nearly all ~4.5k grid cells — just above
  // the 4,096-entry cache bound.
  std::uniform_real_distribution<double> window(-0.16, 0.8);
  std::vector<serve::DeviceState> q(kQueryPool);
  for (serve::DeviceState& s : q) {
    s.qos_slack = slack(rng);
    s.ambient_c = temp(rng);
    s.soc = soc(rng);
    s.backlog = backlog(rng);
    s.window_remaining_s = window(rng);
  }
  return q;
}

std::unique_ptr<Setup> build_setup(std::uint64_t seed, SpanLog* log) {
  SpanLog::Scope span(log, "setup");
  auto s = std::make_unique<Setup>();
  const std::uint64_t w = splitmix64(seed ^ 0xd3d3ull);
  s->models.push_back(graph::zoo::make_vww(static_cast<std::uint32_t>(w)));
  s->models.push_back(
      graph::zoo::make_person_detection(static_cast<std::uint32_t>(w >> 16)));
  s->models.push_back(graph::zoo::make_mbv2(static_cast<std::uint32_t>(w >> 32)));
  s->deploy_cfg.space = dse::make_paper_design_space(
      power::PowerModel{s->deploy_cfg.explore.sim.power});
  s->deploy_cfg.explore.num_threads = kTimedThreads;

  {
    SpanLog::Scope ladders(log, "build_fleet_ladders");
    const auto t0 = Clock::now();
    s->ladders = scenario::build_fleet_ladders(
        {{"reactive", &s->models[1], ladder_config(false)},
         {"predictive", &s->models[1], ladder_config(true)}},
        s->ladder_cache);
    s->ladders_s = seconds_since(t0);
  }
  {
    SpanLog::Scope server(log, "make_server");
    s->server = serve::make_server(s->predictive(), serve_config());
  }
  for (std::uint64_t v = 0; v < kFleetVariants; ++v) {
    s->fleets.push_back(make_fleet(*s, splitmix64((seed ^ 0xf1ee7ull) + v)));
  }
  s->queries = make_queries(splitmix64(seed ^ 0x5e5eull));
  return s;
}

// ---- deploy ----------------------------------------------------------------

/// Exact fingerprint of one (model, slack) point: what the traced breakdown
/// must reproduce of Pipeline::run.
struct PointKey {
  runtime::Schedule schedule;
  bool feasible = false;
  bool fell_back = false;
  std::array<double, 3> totals{};  ///< tinyengine, gated, dae_dvfs total_uj.
  double dae_inference_us = 0.0;

  static PointKey of(const core::PipelineResult& r) {
    PointKey k;
    k.schedule = r.schedule;
    k.feasible = r.mckp_feasible;
    k.fell_back = r.fell_back_to_baseline;
    k.totals = {r.comparison.tinyengine.total_uj(),
                r.comparison.tinyengine_gated.total_uj(),
                r.comparison.dae_dvfs.total_uj()};
    k.dae_inference_us = r.comparison.dae_dvfs.inference_us;
    return k;
  }
  [[nodiscard]] bool same(const PointKey& o) const {
    return runtime::plans_identical(schedule, o.schedule) &&
           feasible == o.feasible && fell_back == o.fell_back &&
           same_bits(totals[0], o.totals[0]) &&
           same_bits(totals[1], o.totals[1]) &&
           same_bits(totals[2], o.totals[2]) &&
           same_bits(dae_inference_us, o.dae_inference_us);
  }
};

/// Per-op accounting the traced breakdown adds up.
struct DeployCounts {
  double explore_calls = 0.0;
  dse::ExploreStats explore;
  double full_sims = 0.0;
  double mckp_solves = 0.0;
  double dp_cells = 0.0;
  double repair_iterations = 0.0;
  double repair_simulations = 0.0;
  double repair_layer_recordings = 0.0;
};

/// The untraced op: Pipeline::run at each slack, DSE explored on the first
/// slack and reused, one fresh ProfileCache.
std::vector<core::PipelineResult> deploy_op(const graph::Model& model,
                                            const core::PipelineConfig& base) {
  dse::ProfileCache cache;
  core::PipelineConfig cfg = base;
  cfg.explore.cache = &cache;
  std::vector<core::PipelineResult> out;
  out.reserve(kSlacks.size());
  for (double slack : kSlacks) {
    cfg.qos_slack = slack;
    out.push_back(core::Pipeline(cfg).run(
        model, out.empty() ? nullptr : &out.front().dse));
  }
  return out;
}

/// The same op broken into its public calls, mirroring Pipeline::run step
/// by step so each call can carry a span.
std::vector<core::PipelineResult> deploy_op_traced(
    const graph::Model& model, const core::PipelineConfig& base, SpanLog* log,
    DeployCounts& n) {
  SpanLog::Scope op(log, "deploy_op");
  dse::ProfileCache cache;
  core::PipelineConfig cfg = base;
  cfg.explore.cache = &cache;
  std::vector<core::PipelineResult> out;
  std::vector<dse::LayerSolutionSet> sets;
  for (double slack : kSlacks) {
    cfg.qos_slack = slack;
    core::PipelineResult r;
    r.model_name = model.name();
    r.qos_slack = slack;
    runtime::InferenceEngine engine(model);
    const runtime::Schedule te = runtime::make_tinyengine_schedule(model);
    {
      SpanLog::Scope sp(log, "tinyengine_baseline_us");
      r.t_base_us = core::tinyengine_baseline_us(engine, cfg.explore.sim);
    }
    n.full_sims += 1.0;
    r.qos_us = r.t_base_us * (1.0 + slack);
    if (out.empty()) {
      SpanLog::Scope sp(log, "explore_model");
      sets = dse::explore_model(model, cfg.space, cfg.effective_explore(),
                                &r.explore_stats);
      n.explore_calls += 1.0;
      n.explore.total_candidates += r.explore_stats.total_candidates;
      n.explore.pruned += r.explore_stats.pruned;
      n.explore.profiled += r.explore_stats.profiled;
      n.explore.cache_hits += r.explore_stats.cache_hits;
      n.explore.replayed += r.explore_stats.replayed;
    }
    r.dse = sets;
    const core::ScheduleBuilder builder(model, engine, cfg);
    mckp::Solution sol;
    {
      SpanLog::Scope sp(log, "solve_dp");
      mckp::Instance inst = core::ScheduleBuilder::make_instance(sets);
      inst.capacity = builder.mckp_capacity(r.qos_us);
      mckp::DpWorkspace ws;
      sol = mckp::solve_dp(inst, cfg.mckp_ticks, ws);
      n.mckp_solves += 1.0;
      if (inst.capacity > 0.0) {
        n.dp_cells += static_cast<double>(inst.classes.size()) *
                      static_cast<double>(cfg.mckp_ticks + 1);
      }
    }
    core::BuiltSchedule built;
    {
      SpanLog::Scope sp(log, "build_from_solution");
      built = builder.build_from_solution(sets, r.qos_us, sol);
    }
    n.repair_iterations += built.repair_iterations;
    n.repair_simulations += built.repair_simulations;
    n.repair_layer_recordings += built.repair_layer_recordings;
    n.full_sims += built.repair_simulations;
    r.mckp_feasible = built.feasible;
    r.repair_iterations = built.repair_iterations;
    r.repair_simulations = built.repair_simulations;
    r.repair_layer_recordings = built.repair_layer_recordings;
    r.schedule.name = "dae-dvfs(qos=" + std::to_string(slack) + ")";
    if (built.feasible) {
      r.schedule.plans = built.schedule.plans;
      for (std::size_t k = 0; k < sets.size(); ++k) {
        r.choices.push_back(
            {static_cast<int>(k),
             sets[k].pareto[static_cast<std::size_t>(built.pick[k])]});
      }
      r.planned_t_us = built.planned_t_us;
      r.planned_e_uj = built.planned_e_uj;
    } else {
      r.schedule.plans = te.plans;
    }
    const auto run_case = [&](const runtime::Schedule& s, bool gated) {
      SpanLog::Scope sp(log, "run_iso_latency");
      sim::SimParams params = cfg.explore.sim;
      params.boot = s.plans.empty() ? params.boot : s.plans.front().hfo;
      sim::Mcu mcu(params);
      n.full_sims += 1.0;
      return runtime::run_iso_latency(engine, mcu, s, r.qos_us, gated,
                                      kernels::ExecMode::kTiming);
    };
    r.comparison.tinyengine = run_case(te, false);
    r.comparison.tinyengine_gated = run_case(te, true);
    r.comparison.dae_dvfs = run_case(r.schedule, true);
    if (r.comparison.dae_dvfs.total_uj() >
        r.comparison.tinyengine_gated.total_uj()) {
      r.fell_back_to_baseline = true;
      r.schedule = te;
      r.comparison.dae_dvfs = r.comparison.tinyengine_gated;
    }
    out.push_back(std::move(r));
  }
  return out;
}

/// A failed build: MCKP-infeasible, or measured over its QoS window.
bool build_failed(const core::PipelineResult& r) {
  return !r.mckp_feasible || !r.comparison.dae_dvfs.met_qos;
}

/// Op times per input variant (deploy: per model; fleet: per fleet seed).
using VariantTimes = std::vector<std::vector<double>>;

/// Time of a cycle made of each variant's fastest op: the host's speed when
/// no neighbour interferes. Interference on a shared host only ever slows
/// an op down, so the fastest ops are the steady estimate.
double best_cycle_s(const VariantTimes& t) {
  double sum = 0.0;
  for (const std::vector<double>& v : t) {
    if (!v.empty()) sum += *std::min_element(v.begin(), v.end());
  }
  return sum;
}

double mean_op_s(const VariantTimes& t) {
  double sum = 0.0, n = 0.0;
  for (const std::vector<double>& v : t) {
    for (double x : v) sum += x;
    n += static_cast<double>(v.size());
  }
  return ratio(sum, n);
}

struct DeployState {
  std::vector<std::vector<PointKey>> reference;  ///< Per model, first op.
  VariantTimes untraced_ref_s{3};  ///< Reference-clock times (e2e metric).
  VariantTimes untraced_wall_s{3}, traced_wall_s{3};  ///< The stage budget.
  std::vector<double> gains;  ///< Gain vs TinyEngine of every point.
  DeployCounts counts;
  double traced_ops = 0.0;
};

/// Runs whole cycles (each model once, seeded order) until `phase.seconds`
/// has elapsed, at least one cycle.
void run_deploy(const Setup& s, std::mt19937_64& rng, const Phase& phase,
                DeployState& st, Result& res) {
  const auto start = Clock::now();
  std::array<std::size_t, 3> order = {0, 1, 2};
  do {
    std::shuffle(order.begin(), order.end(), rng);
    for (std::size_t m : order) {
      const double probe = clock_probe_s();
      const auto t0 = Clock::now();
      const double cpu0 = cpu_now_s();
      const std::vector<core::PipelineResult> pts =
          phase.log == nullptr
              ? deploy_op(s.models[m], s.deploy_cfg)
              : deploy_op_traced(s.models[m], s.deploy_cfg, phase.log, st.counts);
      if (phase.log == nullptr) {
        st.untraced_ref_s[m].push_back(at_reference_clock(cpu_now_s() - cpu0, probe));
        st.untraced_wall_s[m].push_back(seconds_since(t0));
      } else {
        st.traced_wall_s[m].push_back(seconds_since(t0));
        st.traced_ops += 1.0;
      }
      std::vector<PointKey> keys;
      for (const core::PipelineResult& r : pts) {
        keys.push_back(PointKey::of(r));
        ++res.attempted;
        if (build_failed(r)) ++res.failed;
        st.gains.push_back(r.comparison.gain_vs_tinyengine_pct());
      }
      if (st.reference[m].empty()) {
        st.reference[m] = keys;
      } else {
        for (std::size_t i = 0; i < keys.size(); ++i) {
          res.check(keys[i].same(st.reference[m][i]),
                    "deploy: " + s.models[m].name() + " point " +
                        std::to_string(i) +
                        (phase.log ? " traced breakdown differs from Pipeline::run"
                                   : " differs between ops"));
        }
      }
    }
  } while (seconds_since(start) < phase.seconds);
}

void finish_deploy(const Setup& s, const DeployState& st, bool traced,
                   const SpanLog* log, Result& res) {
  // The breakdown must reproduce Pipeline::run; an untraced run checks it
  // once per model after the window.
  if (!traced) {
    DeployCounts unused;
    for (std::size_t m = 0; m < s.models.size(); ++m) {
      const std::vector<core::PipelineResult> pts =
          deploy_op_traced(s.models[m], s.deploy_cfg, nullptr, unused);
      for (std::size_t i = 0; i < pts.size(); ++i) {
        res.check(PointKey::of(pts[i]).same(st.reference[m][i]),
                  "deploy: breakdown of " + s.models[m].name() +
                      " differs from Pipeline::run");
      }
    }
  }
  // Every whole cycle covers the same 9 points, so the mean gain must
  // repeat exactly cycle after cycle.
  const std::size_t per_cycle = 3 * kSlacks.size();
  double first = 0.0;
  for (std::size_t c = 0; c * per_cycle < st.gains.size(); ++c) {
    std::vector<double> g(st.gains.begin() + static_cast<long>(c * per_cycle),
                          st.gains.begin() + static_cast<long>((c + 1) * per_cycle));
    std::sort(g.begin(), g.end());
    double sum = 0.0;
    for (double x : g) sum += x;
    if (c == 0) first = sum;
    res.check(same_bits(sum, first), "deploy: energy gain differs between cycles");
  }
  Digest d;
  for (const std::vector<PointKey>& pts : st.reference) {
    for (const PointKey& k : pts) {
      for (const runtime::LayerPlan& p : k.schedule.plans) {
        d.add(p.granularity);
        d.add(p.dvfs_enabled);
        d.add(p.hfo.sysclk_mhz());
        d.add(p.lfo.sysclk_mhz());
      }
      for (double t : k.totals) d.add(t);
    }
  }
  res.digests["deploy"] = hex(d.value());

  res.e2e["deploy_builds_per_s"] = {
      ratio(static_cast<double>(per_cycle), best_cycle_s(st.untraced_ref_s)), "1/s"};
  res.e2e["deploy_energy_gain_pct"] = {ratio(first, static_cast<double>(per_cycle)), "%"};

  if (!traced) return;
  const double ops = std::max(st.traced_ops, 1.0);
  const auto ms = [&](const char* name) { return log->totals(name).total_us * 1e-3; };
  const double op_ms = ms("deploy_op");
  const double explore = ms("explore_model"), mckp = ms("solve_dp"),
               repair = ms("build_from_solution"),
               baseline = ms("tinyengine_baseline_us"), eval = ms("run_iso_latency");
  const double sims = baseline + eval;
  const double other = log->totals("deploy_op").self_us * 1e-3;
  const DeployCounts& n = st.counts;
  const double calls = std::max(n.explore_calls, 1.0);
  auto& L = res.layer;
  L["dse.explore_ms"] = {explore / calls, "ms"};
  L["dse.candidates"] = {static_cast<double>(n.explore.total_candidates) / calls, "count"};
  L["dse.profiled"] = {static_cast<double>(n.explore.profiled) / calls, "count"};
  L["dse.replayed"] = {static_cast<double>(n.explore.replayed) / calls, "count"};
  L["dse.memo_hits"] = {static_cast<double>(n.explore.cache_hits) / calls, "count"};
  L["dse.pruned"] = {static_cast<double>(n.explore.pruned) / calls, "count"};
  L["dse.profiled_frac"] = {
      ratio(static_cast<double>(n.explore.profiled),
            static_cast<double>(n.explore.total_candidates - n.explore.pruned)),
      "ratio"};
  L["runtime.full_sims"] = {n.full_sims / ops, "count"};
  const double direct_sims = log->totals("tinyengine_baseline_us").count +
                             log->totals("run_iso_latency").count;
  L["runtime.sim_ms"] = {ratio(sims, direct_sims), "ms"};
  L["runtime.baseline_ms"] = {baseline / ops, "ms"};
  L["runtime.eval_ms"] = {eval / ops, "ms"};
  L["mckp.solve_ms"] = {mckp / ops, "ms"};
  L["mckp.solves"] = {n.mckp_solves / ops, "count"};
  L["mckp.dp_cells"] = {n.dp_cells / ops, "count"};
  L["core.repair_ms"] = {repair / ops, "ms"};
  L["core.repair_iterations"] = {n.repair_iterations / ops, "count"};
  L["core.repair_simulations"] = {n.repair_simulations / ops, "count"};
  L["core.repair_layer_recordings"] = {n.repair_layer_recordings / ops, "count"};
  // Means over whole cycles of alternating untraced and traced rounds, so
  // the stage times add up to the traced op and the overhead compares like
  // with like.
  const double untraced_ms = mean_op_s(st.untraced_wall_s) * 1e3;
  const double traced_ms = mean_op_s(st.traced_wall_s) * 1e3;
  L["deploy.op_ms"] = {untraced_ms, "ms"};
  L["deploy.traced_op_ms"] = {traced_ms, "ms"};
  L["deploy.stage_sum_ms"] = {(explore + mckp + repair + sims) / ops, "ms"};
  L["deploy.share_explore"] = {ratio(explore, op_ms), "ratio"};
  L["deploy.share_mckp"] = {ratio(mckp, op_ms), "ratio"};
  L["deploy.share_repair"] = {ratio(repair, op_ms), "ratio"};
  L["deploy.share_sims"] = {ratio(sims, op_ms), "ratio"};
  L["deploy.share_other"] = {ratio(other, op_ms), "ratio"};
  L["trace.deploy_overhead_pct"] = {
      100.0 * (ratio(traced_ms, untraced_ms) - 1.0),
      "%"};
}

// ---- fleet -----------------------------------------------------------------

/// Forwarding policy that times choose()/predict_next(). The engine sees
/// only the SchedulePolicy interface, so a report produced through it must
/// be byte-identical to one produced on the wrapped ladder directly.
class TimedPolicy final : public scenario::SchedulePolicy {
 public:
  explicit TimedPolicy(const scenario::SchedulePolicy& inner) : inner_(inner) {}

  [[nodiscard]] const std::vector<scenario::RungInfo>& rungs() const override {
    return inner_.rungs();
  }
  [[nodiscard]] int choose(const scenario::FrameContext& ctx,
                           int current_rung) const override {
    const std::int64_t t0 = now_ns();
    const int r = inner_.choose(ctx, current_rung);
    choose_ns_ += now_ns() - t0;
    ++choose_calls_;
    return r;
  }
  [[nodiscard]] int predict_next(const scenario::FrameContext& ctx,
                                 int chosen) const override {
    const std::int64_t t0 = now_ns();
    const int r = inner_.predict_next(ctx, chosen);
    predict_ns_ += now_ns() - t0;
    ++predict_calls_;
    return r;
  }
  [[nodiscard]] std::uint32_t degraded_skip(
      double battery_soc, double miss_ewma,
      const scenario::DegradedModeSpec& spec) const override {
    return inner_.degraded_skip(battery_soc, miss_ewma, spec);
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  [[nodiscard]] std::uint64_t choose_calls() const { return choose_calls_; }
  [[nodiscard]] std::uint64_t predict_calls() const { return predict_calls_; }
  [[nodiscard]] std::int64_t choose_ns() const { return choose_ns_; }
  [[nodiscard]] std::int64_t predict_ns() const { return predict_ns_; }

 private:
  const scenario::SchedulePolicy& inner_;
  mutable std::uint64_t choose_calls_ = 0;
  mutable std::uint64_t predict_calls_ = 0;
  mutable std::int64_t choose_ns_ = 0;
  mutable std::int64_t predict_ns_ = 0;
};

std::string fleet_json(const scenario::FleetReport& r) {
  std::ostringstream os;
  os.precision(17);
  scenario::write_fleet_json(os, r);
  return os.str();
}

std::string mission_json(const scenario::MissionReport& r) {
  std::ostringstream os;
  os.precision(17);
  scenario::write_json(os, r);
  return os.str();
}

/// One node replayed through derive_node_spec + simulate_mission behind a
/// TimedPolicy.
struct NodeReplay {
  scenario::MissionReport report;
  std::uint64_t choose_calls = 0, predict_calls = 0;
  std::int64_t choose_ns = 0, predict_ns = 0;
  double start_us = 0.0, mission_us = 0.0;
  bool sensing = false;
};

NodeReplay replay_node(const scenario::FleetSpec& fleet, std::size_t c,
                       std::uint64_t node_id) {
  const scenario::DeviceClass& dc = fleet.classes[c];
  NodeReplay out;
  out.sensing = c == 0;
  const scenario::MissionSpec spec = scenario::derive_node_spec(fleet, c, node_id);
  const TimedPolicy policy(*dc.policy);
  out.start_us = obs::host_now_us();
  out.report = scenario::simulate_mission(spec, policy, dc.t_base_us, dc.sim);
  out.mission_us = obs::host_now_us() - out.start_us;
  out.choose_calls = policy.choose_calls();
  out.predict_calls = policy.predict_calls();
  out.choose_ns = policy.choose_ns();
  out.predict_ns = policy.predict_ns();
  return out;
}

/// Replays every node; `workers` extra pool threads (0 = serial).
std::vector<NodeReplay> replay_fleet(const scenario::FleetSpec& fleet,
                                     int workers,
                                     util::ThreadPool::Stats* pool_stats) {
  std::vector<std::pair<std::size_t, std::uint64_t>> nodes;
  for (std::size_t c = 0; c < fleet.classes.size(); ++c) {
    for (std::uint32_t k = 0; k < fleet.classes[c].nodes; ++k) {
      nodes.emplace_back(c, nodes.size());
    }
  }
  std::vector<NodeReplay> out(nodes.size());
  util::ThreadPool pool(workers);
  pool.parallel_for(static_cast<std::int64_t>(nodes.size()), 16,
                    [&](std::int64_t b, std::int64_t e) {
                      for (std::int64_t i = b; i < e; ++i) {
                        const auto& [c, id] = nodes[static_cast<std::size_t>(i)];
                        out[static_cast<std::size_t>(i)] = replay_node(fleet, c, id);
                      }
                    });
  if (pool_stats != nullptr) *pool_stats = pool.stats();
  return out;
}

struct FleetState {
  std::vector<std::string> reference_json{kFleetVariants};  ///< First op each.
  std::uint64_t delivered = 0, offered = 0;  ///< Over the reference reports.
  double node_days = 0.0;                    ///< Simulated, over all variants.
  VariantTimes untraced_ref_s{kFleetVariants};  ///< The end-to-end metric.
  std::vector<double> untraced_cpu_s, traced_cpu_s;
  std::vector<double> mission_ms;
  double choose_calls = 0, predict_calls = 0, choose_ns = 0, predict_ns = 0;
  double mission_ns = 0, frames_offered = 0, retries = 0;
  double prelock_hits = 0, prelock_total = 0, traced_ops = 0;
};

/// Runs whole cycles (every fleet variant once) until `phase.seconds` has
/// elapsed, at least one cycle.
void run_fleet(const Setup& s, const Phase& phase, FleetState& st, Result& res) {
  const auto start = Clock::now();
  do {
    for (std::size_t v = 0; v < s.fleets.size(); ++v) {
      const scenario::FleetSpec& fleet = s.fleets[v];
      ++res.attempted;
      if (phase.log == nullptr) {
        scenario::FleetOptions opts;
        opts.threads = kTimedThreads;
        std::vector<scenario::MissionReport> per_node;
        opts.per_node = &per_node;
        const double probe = clock_probe_s();
        const double cpu0 = cpu_now_s();
        const scenario::FleetReport report = scenario::simulate_fleet(fleet, opts);
        const double cpu_s = cpu_now_s() - cpu0;
        st.untraced_cpu_s.push_back(cpu_s);
        st.untraced_ref_s[v].push_back(at_reference_clock(cpu_s, probe));
        const std::string json = fleet_json(report);
        if (st.reference_json[v].empty()) {
          st.reference_json[v] = json;
          st.delivered += report.frames;
          st.offered += report.frames_offered;
          for (const scenario::MissionReport& r : per_node) {
            st.node_days += r.simulated_s / 86400.0;
          }
        }
        res.check(json == st.reference_json[v], "fleet: report differs between ops");
        continue;
      }
      // Traced op: every node replayed serially with its own span.
      const double cpu0 = cpu_now_s();
      std::vector<NodeReplay> nodes;
      {
        SpanLog::Scope op(phase.log, "fleet_op");
        nodes = replay_fleet(fleet, 0, nullptr);
        for (const NodeReplay& n : nodes) {
          phase.log->leaf("simulate_mission", n.start_us, n.mission_us);
        }
      }
      st.traced_cpu_s.push_back(cpu_now_s() - cpu0);
      st.traced_ops += 1.0;
      for (const NodeReplay& n : nodes) {
        st.mission_ms.push_back(n.mission_us * 1e-3);
        st.mission_ns += n.mission_us * 1e3;
        st.choose_calls += static_cast<double>(n.choose_calls);
        st.predict_calls += static_cast<double>(n.predict_calls);
        st.choose_ns += static_cast<double>(n.choose_ns);
        st.predict_ns += static_cast<double>(n.predict_ns);
        st.frames_offered += static_cast<double>(n.report.frames_offered);
        st.retries += static_cast<double>(n.report.retries);
        if (n.sensing) {
          st.prelock_hits += static_cast<double>(n.report.prelock_hits);
          st.prelock_total += static_cast<double>(n.report.prelock_hits +
                                                  n.report.prelock_misses);
        }
      }
    }
  } while (seconds_since(start) < phase.seconds);
}

void finish_fleet(const Setup& s, int threads, double clock_ns, FleetState& st,
                  bool traced, Result& res) {
  util::ThreadPool::Stats pool{};
  double wide_s = 0.0;
  Digest d;
  for (std::size_t v = 0; v < s.fleets.size(); ++v) {
    // nproc threads vs the timed single-thread ops: the report must not
    // depend on the fan-out.
    scenario::FleetOptions wide;
    wide.threads = threads;
    std::vector<scenario::MissionReport> per_node;
    wide.per_node = &per_node;
    const auto t1 = Clock::now();
    const scenario::FleetReport report = scenario::simulate_fleet(s.fleets[v], wide);
    wide_s += seconds_since(t1);
    res.check(fleet_json(report) == st.reference_json[v],
              "fleet: report at " + std::to_string(threads) + " threads differs");
    d.str(st.reference_json[v]);

    // Per-node replay behind the timing wrapper: byte-identical node
    // reports and the same fleet totals.
    util::ThreadPool::Stats replay_pool{};
    const std::vector<NodeReplay> nodes =
        replay_fleet(s.fleets[v], std::max(threads - 1, 0), &replay_pool);
    pool.tasks += replay_pool.tasks;
    pool.busy_us += replay_pool.busy_us;
    bool nodes_identical = nodes.size() == per_node.size();
    std::uint64_t frames = 0, offered = 0, misses = 0, resets = 0, depleted = 0;
    double energy = 0.0;
    for (std::size_t i = 0; i < nodes.size() && nodes_identical; ++i) {
      const scenario::MissionReport& r = nodes[i].report;
      nodes_identical = mission_json(r) == mission_json(per_node[i]);
      frames += r.frames;
      offered += r.frames_offered;
      misses += r.deadline_misses;
      resets += r.resets;
      depleted += r.battery_depleted ? 1 : 0;
      energy += r.total_uj();
    }
    res.check(nodes_identical, "fleet: wrapped per-node replay differs");
    res.check(nodes_identical && frames == report.frames &&
                  offered == report.frames_offered &&
                  misses == report.deadline_misses && resets == report.resets &&
                  depleted == report.depleted &&
                  same_bits(energy, report.total_energy_uj),
              "fleet: per-node replay totals differ from the FleetReport");
  }
  res.digests["fleet"] = hex(d.value());

  res.e2e["fleet_node_days_per_s"] = {ratio(st.node_days, best_cycle_s(st.untraced_ref_s)),
                                      "1/s"};
  res.e2e["fleet_availability"] = {
      ratio(static_cast<double>(st.delivered), static_cast<double>(st.offered)), "ratio"};

  if (!traced) return;
  auto& L = res.layer;
  const double ops = std::max(st.traced_ops, 1.0);
  const std::vector<double>& op_s = st.untraced_cpu_s;
  // Each wrapped call pays two clock reads inside the mission's time, one
  // of them inside the call's own interval.
  const double calls = st.choose_calls + st.predict_calls;
  const double policy_ns = st.choose_ns + st.predict_ns - calls * clock_ns;
  const double engine_ns = st.mission_ns - 2.0 * calls * clock_ns;
  L["scenario.mission_ms_p50"] = {nearest_rank(st.mission_ms, 0.50), "ms"};
  L["scenario.mission_ms_p99"] = {nearest_rank(st.mission_ms, 0.99), "ms"};
  L["scenario.slot_ns"] = {ratio(engine_ns, st.frames_offered), "ns"};
  L["scenario.frames_offered"] = {st.frames_offered / ops, "count"};
  L["scenario.retries"] = {st.retries / ops, "count"};
  L["scenario.prelock_hit_rate"] = {ratio(st.prelock_hits, st.prelock_total), "ratio"};
  L["policy.choose_calls"] = {st.choose_calls / ops, "count"};
  L["policy.choose_ns"] = {ratio(st.choose_ns, st.choose_calls) - clock_ns, "ns"};
  L["policy.predict_calls"] = {st.predict_calls / ops, "count"};
  L["policy.predict_ns"] = {ratio(st.predict_ns, st.predict_calls) - clock_ns, "ns"};
  L["policy.time_share"] = {ratio(policy_ns, engine_ns), "ratio"};
  L["fleet.parallel_efficiency"] = {
      ratio(fast_decile_time(op_s) * static_cast<double>(s.fleets.size()),
            static_cast<double>(threads) * wide_s),
      "ratio"};
  L["pool.tasks"] = {static_cast<double>(pool.tasks), "count"};
  L["pool.busy_us"] = {static_cast<double>(pool.busy_us), "us"};
  L["trace.fleet_overhead_pct"] = {
      100.0 * (ratio(fast_decile_time(st.traced_cpu_s), fast_decile_time(op_s)) - 1.0),
      "%"};
}

// ---- serve -----------------------------------------------------------------

std::uint64_t answer_hash(std::uint64_t h, const serve::ScheduleAnswer& a) {
  Digest d;
  d.add(h);
  d.add(a.rung);
  d.add(a.feasible);
  d.add(a.shed);
  d.add(a.exact_feasible);
  d.add(a.deadline_us);
  d.add(a.exact_e_uj);
  return d.value();
}

struct ServeState {
  /// One fresh server per phase (untraced, traced), kept across rounds.
  std::array<std::unique_ptr<serve::ScheduleServer>, 2> servers;
  // Per pass over the query pool (untraced): throughput and latency
  // percentiles of that pass.
  std::vector<double> pass_qps, pass_p50_ns, pass_p99_ns;
  std::vector<std::uint64_t> pass_digests;
  std::vector<double> traced_pass_qps;
  NsHistogram quantize_ns, hit_ns;
  std::vector<double> miss_ns;
  std::vector<double> make_server_s;
};

void run_serve(const Setup& s, const Phase& phase, ServeState& st, Result& res) {
  // A fresh server per phase: cold misses, per-shard DP sweeps and
  // evictions all fall inside the timed loop.
  std::unique_ptr<serve::ScheduleServer>& server = st.servers[phase.log ? 1 : 0];
  if (!server) {
    const auto t_make = Clock::now();
    server = serve::make_server(s.predictive(), serve_config());
    st.make_server_s.push_back(seconds_since(t_make));
  }
  const std::vector<serve::DeviceState>& q = s.queries;
  NsHistogram latency;
  const auto start = Clock::now();
  do {
    std::uint64_t digest = 0;
    const double probe = clock_probe_s();
    const double cpu0 = cpu_now_s();
    if (phase.log == nullptr) {
      latency.clear();
      for (std::size_t i = 0; i < q.size(); ++i) {
        serve::ScheduleAnswer a;
        if (i % kLatencyStride == 0) {
          const std::int64_t a0 = now_ns();
          a = server->answer(q[i]);
          latency.add(now_ns() - a0);
        } else {
          a = server->answer(q[i]);
        }
        if (a.rung < 0) ++res.failed;
        digest = answer_hash(digest, a);
      }
      st.pass_qps.push_back(ratio(static_cast<double>(q.size()),
                                  at_reference_clock(cpu_now_s() - cpu0, probe)));
      st.pass_p50_ns.push_back(at_reference_clock(latency.percentile(0.50), probe));
      st.pass_p99_ns.push_back(at_reference_clock(latency.percentile(0.99), probe));
    } else {
      SpanLog::Scope pass(phase.log, "serve_pass");
      for (const serve::DeviceState& state : q) {
        const serve::ScheduleServer::Stats before = server->stats();
        const std::int64_t q0 = now_ns();
        (void)server->quantize(state);
        const std::int64_t q1 = now_ns();
        const serve::ScheduleAnswer a = server->answer(state);
        const std::int64_t q2 = now_ns();
        st.quantize_ns.add(q1 - q0);
        if (server->stats().hits > before.hits) {
          st.hit_ns.add(q2 - q1);
        } else {
          st.miss_ns.push_back(static_cast<double>(q2 - q1));
        }
        if (a.rung < 0) ++res.failed;
        digest = answer_hash(digest, a);
      }
      st.traced_pass_qps.push_back(ratio(static_cast<double>(q.size()),
                                         at_reference_clock(cpu_now_s() - cpu0, probe)));
    }
    res.attempted += q.size();
    st.pass_digests.push_back(digest);
  } while (seconds_since(start) < phase.seconds);
}

void finish_serve(const Setup& s, const ServeState& st, bool traced,
                  double clock_ns, Result& res) {
  // Cached == fresh on a seeded sample of the stream.
  serve::ScheduleServer& server = *st.servers[0];
  for (std::size_t i = 0; i < s.queries.size(); i += 131) {
    res.check(serve::answer_json(server.answer(s.queries[i])) ==
                  serve::answer_json(server.answer_fresh(s.queries[i])),
              "serve: cached answer differs from answer_fresh");
  }
  for (std::uint64_t d : st.pass_digests) {
    res.check(d == st.pass_digests.front(),
              "serve: answer stream differs between passes");
  }
  res.digests["serve"] = hex(st.pass_digests.front());
  res.e2e["serve_qps"] = {fast_decile_rate(st.pass_qps), "1/s"};
  res.e2e["serve_ns_p50"] = {fast_decile_time(st.pass_p50_ns), "ns"};
  res.e2e["serve_ns_p99"] = {fast_decile_time(st.pass_p99_ns), "ns"};
  if (!traced) return;
  const serve::ScheduleServer::Stats traced_stats = st.servers[1]->stats();
  auto& L = res.layer;
  L["serve.quantize_ns"] = {st.quantize_ns.percentile(0.50) - clock_ns, "ns"};
  L["serve.hit_ns_p50"] = {st.hit_ns.percentile(0.50) - clock_ns, "ns"};
  L["serve.miss_ns_p50"] = {median(st.miss_ns) - clock_ns, "ns"};
  L["serve.hit_rate"] = {traced_stats.hit_rate(), "ratio"};
  L["serve.evictions"] = {static_cast<double>(traced_stats.evictions), "count"};
  L["serve.dp_solves"] = {static_cast<double>(traced_stats.dp_solves), "count"};
  L["serve.setup_ms"] = {median(st.make_server_s) * 1e3, "ms"};
  L["trace.serve_overhead_pct"] = {
      100.0 * (ratio(fast_decile_rate(st.pass_qps),
                     fast_decile_rate(st.traced_pass_qps)) - 1.0),
      "%"};
}

// ---- Driver ----------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
      have_seconds = true;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") throw std::invalid_argument("--trace 0|1");
      a.trace = val == "1";
      have_trace = true;
    } else if (key == "--out-dir") {
      a.out_dir = val;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.workload != "deploy" && a.workload != "fleet" && a.workload != "serve") {
    throw std::invalid_argument("--workload must be deploy, fleet or serve");
  }
  if (!have_seed || !have_seconds || !have_trace || !(a.seconds > 0.0) ||
      a.seconds > 600.0) {
    throw std::invalid_argument("--seed, --seconds (0, 600] and --trace are required");
  }
  return a;
}

void write_metrics(std::ostream& os, const std::map<std::string, Metric>& m) {
  os << "{";
  bool first = true;
  char buf[64];
  for (const auto& [name, metric] : m) {
    std::snprintf(buf, sizeof buf, "%.17g", metric.value);
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << buf
       << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  os << "}";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "pipeline_bench: " << e.what() << "\n";
    return 2;
  }
  const int threads = nproc();
  Result res;
  SpanLog trace_log;
  SpanLog* const log = args.trace ? &trace_log : nullptr;

  // The two uses the workload does not time get a reference slice of
  // kSliceS each (deploy: at least one whole cycle per round), spread over
  // rounds of about kRoundS of the workload's own use.
  constexpr double kRoundS = 4.0;
  constexpr double kSliceS = 4.0;
  int rounds = std::max(1, static_cast<int>(std::ceil(args.seconds / kRoundS)));
  if (args.trace && rounds % 2 == 1) ++rounds;
  const auto budget = [&](const std::string& use) {
    return (use == args.workload ? args.seconds : std::min(args.seconds, kSliceS)) /
           rounds;
  };

  const HostProbe host = probe_host(threads);
  const double clock_ns = clock_read_ns();

  // ---- Set-up, repeated; setup_s is the median repetition.
  std::vector<double> setup_s, ladders_s;
  std::unique_ptr<Setup> setup;
  for (int rep = 0; rep < 7; ++rep) {
    setup.reset();
    const double probe = clock_probe_s();
    const double cpu0 = cpu_now_s();
    setup = build_setup(args.seed, log);
    setup_s.push_back(at_reference_clock(cpu_now_s() - cpu0, probe));
    ladders_s.push_back(setup->ladders_s);
  }
  const Setup& s = *setup;

  DeployState deploy;
  deploy.reference.resize(s.models.size());
  FleetState fleet;
  ServeState serve_st;
  std::mt19937_64 order_rng(splitmix64(args.seed ^ 0x0d3eull));

  try {
    for (int r = 0; r < rounds; ++r) {
      SpanLog* const round_log = r % 2 == 1 ? log : nullptr;
      run_deploy(s, order_rng, {budget("deploy"), round_log}, deploy, res);
      run_fleet(s, {budget("fleet"), round_log}, fleet, res);
      run_serve(s, {budget("serve"), round_log}, serve_st, res);
    }
    finish_deploy(s, deploy, args.trace, log, res);
    finish_fleet(s, threads, clock_ns, fleet, args.trace, res);
    finish_serve(s, serve_st, args.trace, clock_ns, res);
  } catch (const std::exception& e) {
    res.check(false, std::string("exception: ") + e.what());
  }

  res.e2e["setup_s"] = {median(setup_s), "s"};
  res.e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  if (args.trace) {
    auto& L = res.layer;
    L["governor.ladder_ms"] = {median(ladders_s) * 1e3, "ms"};
    L["governor.rungs"] = {static_cast<double>(s.predictive().rungs().size()), "count"};
    L["governor.ladder_cache_hit_rate"] = {s.ladders.cache_hit_rate.back(), "ratio"};
    L["trace.clock_ns"] = {clock_ns, "ns"};
  }
  for (const auto& group : {&res.e2e, &res.layer}) {
    for (const auto& [name, m] : *group) {
      res.check(std::isfinite(m.value), "metric " + name + " is not finite");
    }
  }

  // ---- Provenance + artifacts. Recorded, never gated on.
  std::ostringstream prov;
  prov << "{\"provenance\": {\"compiler\": \"" << json_escape(__VERSION__)
       << "\", \"cxx_flags\": \"" << json_escape(PERFBENCH_CXX_FLAGS)
       << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\", \"commit\": \""
       << PERFBENCH_COMMIT << "\", \"source_digest\": \"" << PERFBENCH_SOURCE_DIGEST
       << "\", \"kernel_backend\": \"" << kernels::default_backend().name
       << "\", \"nproc\": " << threads
       << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
       << ", \"threads\": {\"explore\": " << kTimedThreads
       << ", \"fleet\": " << kTimedThreads << ", \"checks\": " << threads
       << ", \"serve_clients\": 1}, \"host_spin_ms\": " << host.spin_ms
       << ", \"parallel_capacity\": " << host.parallel_capacity
       << ", \"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
       << ", \"seconds\": " << args.seconds << ", \"trace\": " << args.trace
       << "}, \"digests\": {";
  bool first = true;
  for (const auto& [use, d] : res.digests) {
    prov << (first ? "" : ", ") << "\"" << use << "\": \"" << d << "\"";
    first = false;
  }
  prov << "}, \"errors\": [";
  for (std::size_t i = 0; i < res.errors.size(); ++i) {
    prov << (i ? ", " : "") << "\"" << json_escape(res.errors[i]) << "\"";
  }
  prov << "]}";

  std::ostringstream result;
  result << "{\"correct\": " << (res.correct ? "true" : "false")
         << ", \"attempted\": " << res.attempted << ", \"failed\": " << res.failed
         << ", \"metrics\": ";
  write_metrics(result, args.trace ? res.layer : res.e2e);
  result << "}";

  const std::string stem = args.out_dir + "/" + args.workload +
                           (args.trace ? "_trace" : "");
  if (args.trace) {
    std::ofstream tf(stem + ".perfetto.json");
    trace_log.trace().write_chrome_json(tf);
  }
  {
    std::ofstream rf(stem + ".result.json");
    rf << prov.str() << "\n" << result.str() << "\n";
  }
  for (const std::string& e : res.errors) std::cerr << "CHECK FAILED: " << e << "\n";
  std::cout << prov.str() << "\n" << result.str() << std::endl;
  return res.correct ? 0 : 1;
}
