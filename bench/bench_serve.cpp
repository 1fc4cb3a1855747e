// Schedule-serving benchmark: a ScheduleServer built from a real governor
// ladder (make_server) answering a seeded stream of device states, point
// and batch. Emits BENCH_serve.json with the gates the PR's acceptance
// criteria pin:
//
//   * cached_identical      — answers served from the cache are
//                             byte-identical (answer_json) to fresh
//                             resolves of the same state;
//   * batch_thread_invariant — the batch reply stream is byte-identical
//                             across 0/1/8-worker pools (preassigned reply
//                             slots + per-call parallel_for tracking);
//   * eviction_bounded      — a capacity-bounded server never exceeds its
//                             configured cache bound and actually evicts;
//   * cache_effective       — the seeded stream's hit rate clears a floor
//                             (the stream revisits quantized cells);
//   * metrics_match_stats   — serve.* counters published by answer_batch
//                             agree with the server's own stats deltas.
//
//   $ ./build/bench_serve                   # full, BENCH_serve.json
//   $ ./build/bench_serve smoke out.json    # CI-sized
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "dse/design_space.hpp"
#include "governor/governor.hpp"
#include "graph/zoo.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "power/power_model.hpp"
#include "serve/schedule_server.hpp"
#include "util/json_writer.hpp"
#include "util/thread_pool.hpp"

using namespace daedvfs;

namespace {

double wall_ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Seeded query stream: the whole fleet's state space — slacks beyond the
/// grid, winter-to-summer ambients, draining batteries, congested uplinks.
std::vector<serve::DeviceState> make_queries(std::size_t n) {
  std::mt19937 rng(0x5e47e001u);
  std::uniform_real_distribution<double> slack(-0.05, 0.6);
  std::uniform_real_distribution<double> temp(-25.0, 65.0);
  std::uniform_real_distribution<double> soc(0.0, 1.0);
  std::uniform_int_distribution<std::uint32_t> backlog(0, 12);
  std::uniform_real_distribution<double> window(-0.002, 0.01);
  std::vector<serve::DeviceState> queries;
  queries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    serve::DeviceState s;
    s.qos_slack = slack(rng);
    s.ambient_c = temp(rng);
    s.soc = soc(rng);
    s.backlog = backlog(rng);
    s.window_remaining_s = window(rng);
    queries.push_back(s);
  }
  return queries;
}

serve::ServerConfig serve_config() {
  serve::ServerConfig cfg;
  cfg.derate = {40.0, 2.0, 216.0};
  cfg.degraded.critical_soc = 0.3;
  cfg.degraded.max_skip = 3;
  return cfg;
}

std::string batch_stream(serve::ScheduleServer& server,
                         const std::vector<serve::DeviceState>& queries,
                         int workers) {
  util::ThreadPool pool(workers);
  const std::vector<serve::ScheduleAnswer> replies =
      server.answer_batch(queries, pool, 64);
  std::ostringstream os;
  serve::write_answers_json(os, replies);
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "full";
  const bool smoke = mode == "smoke";
  const std::string out_path = argc > 2 ? argv[2] : "BENCH_serve.json";

  // ---- Ladder: one real governor build; the server copies its rungs and
  // the retained per-layer MCKP instance (the exact-answer sidecar).
  const graph::Model model = graph::zoo::make_person_detection();
  governor::GovernorConfig gov_cfg;
  gov_cfg.pipeline.space = dse::make_paper_design_space(
      power::PowerModel{gov_cfg.pipeline.explore.sim.power});
  const auto t_ladder = std::chrono::steady_clock::now();
  const governor::ScheduleGovernor governor(model, gov_cfg);
  const double ladder_ms = wall_ms_since(t_ladder);

  const serve::ServerConfig cfg = serve_config();
  std::unique_ptr<serve::ScheduleServer> server =
      serve::make_server(governor, cfg);

  const std::size_t n_queries = smoke ? 5000 : 100000;
  const std::vector<serve::DeviceState> queries = make_queries(n_queries);

  // ---- Point-query throughput: cold pass populates the cache, warm pass
  // measures the steady serving state.
  std::cout << "serve " << n_queries << " point queries (cold)...\n";
  const auto t_cold = std::chrono::steady_clock::now();
  for (const serve::DeviceState& q : queries) (void)server->answer(q);
  const double cold_ms = wall_ms_since(t_cold);
  const auto t_warm = std::chrono::steady_clock::now();
  for (const serve::DeviceState& q : queries) (void)server->answer(q);
  const double warm_ms = wall_ms_since(t_warm);
  const serve::ScheduleServer::Stats point_stats = server->stats();

  // ---- Identity gate: cached answers byte-equal fresh resolves.
  bool cached_identical = true;
  const std::size_t stride = std::max<std::size_t>(1, n_queries / 1000);
  for (std::size_t i = 0; i < n_queries; i += stride) {
    if (serve::answer_json(server->answer(queries[i])) !=
        serve::answer_json(server->answer_fresh(queries[i]))) {
      cached_identical = false;
      break;
    }
  }

  // ---- Batch fan-out: byte-identical reply stream for 0/1/8 workers
  // (fresh server per run — cache history must not matter either), plus
  // throughput at 8 workers on the warmed main server.
  std::cout << "serve batch invariance (0/1/8 workers)...\n";
  const std::string stream0 =
      batch_stream(*serve::make_server(governor, cfg), queries, 0);
  const std::string stream1 =
      batch_stream(*serve::make_server(governor, cfg), queries, 1);
  const std::string stream8 =
      batch_stream(*serve::make_server(governor, cfg), queries, 8);
  const bool batch_thread_invariant = stream0 == stream1 && stream1 == stream8;

  util::ThreadPool pool8(8);
  const auto t_batch = std::chrono::steady_clock::now();
  const std::vector<serve::ScheduleAnswer> batch_replies =
      server->answer_batch(queries, pool8, 64);
  const double batch_ms = wall_ms_since(t_batch);
  const bool batch_complete = batch_replies.size() == queries.size();

  // ---- Eviction bound: a deliberately small cache must stay within its
  // configured capacity while still serving correct (fresh-identical)
  // answers.
  serve::ServerConfig small_cfg = cfg;
  small_cfg.cache_capacity = 256;
  std::unique_ptr<serve::ScheduleServer> bounded =
      serve::make_server(governor, small_cfg);
  for (const serve::DeviceState& q : queries) (void)bounded->answer(q);
  const bool eviction_bounded =
      bounded->cache_size() <= small_cfg.cache_capacity &&
      bounded->stats().evictions > 0;

  // ---- serve.* observability: counters published by a sink-carrying
  // batch agree with the server's own stats delta.
  obs::MetricsRegistry metrics;
  obs::Sink sink;
  sink.metrics = &metrics;
  std::unique_ptr<serve::ScheduleServer> observed =
      serve::make_server(governor, cfg);
  const serve::ScheduleServer::Stats before = observed->stats();
  (void)observed->answer_batch(queries, pool8, 64, &sink);
  const serve::ScheduleServer::Stats after = observed->stats();
  const bool metrics_match_stats =
      metrics.counter("serve.queries").value() == after.queries - before.queries &&
      metrics.counter("serve.cache_hits").value() == after.hits - before.hits &&
      metrics.counter("serve.cache_misses").value() ==
          after.misses - before.misses &&
      metrics.counter("serve.dp_solves").value() ==
          after.dp_solves - before.dp_solves &&
      metrics.gauge("serve.cache_entries").value() ==
          static_cast<double>(observed->cache_size());

  // The seeded stream revisits quantized cells heavily; steady-state
  // serving must be mostly hits.
  const bool cache_effective = point_stats.hit_rate() >= 0.5;

  const auto qps = [&](double ms) {
    return ms > 0.0 ? static_cast<double>(n_queries) / (ms * 1e-3) : 0.0;
  };

  std::ofstream os(out_path);
  os.precision(6);
  os << "{\n"
     << "  \"smoke\": " << util::json_bool(smoke) << ",\n"
     << "  \"model\": " << util::json_quoted(model.name()) << ",\n"
     << "  \"rungs\": " << server->rungs().size() << ",\n"
     << "  \"n_queries\": " << n_queries << ",\n"
     << "  \"shards\": " << cfg.shards << ",\n"
     << "  \"cache_capacity\": " << cfg.cache_capacity << ",\n"
     << "  \"ladder_ms\": " << ladder_ms << ",\n"
     << "  \"point_cold\": {\n"
     << "    \"wall_ms\": " << cold_ms << ",\n"
     << "    \"queries_per_sec\": " << qps(cold_ms) << "\n"
     << "  },\n"
     << "  \"point_warm\": {\n"
     << "    \"wall_ms\": " << warm_ms << ",\n"
     << "    \"queries_per_sec\": " << qps(warm_ms) << "\n"
     << "  },\n"
     << "  \"batch8\": {\n"
     << "    \"wall_ms\": " << batch_ms << ",\n"
     << "    \"queries_per_sec\": " << qps(batch_ms) << "\n"
     << "  },\n"
     << "  \"hit_rate\": " << point_stats.hit_rate() << ",\n"
     << "  \"cache_entries\": " << server->cache_size() << ",\n"
     << "  \"dp_solves\": " << point_stats.dp_solves << ",\n"
     << "  \"cached_identical\": " << util::json_bool(cached_identical)
     << ",\n"
     << "  \"batch_thread_invariant\": "
     << util::json_bool(batch_thread_invariant) << ",\n"
     << "  \"batch_complete\": " << util::json_bool(batch_complete) << ",\n"
     << "  \"eviction_bounded\": " << util::json_bool(eviction_bounded)
     << ",\n"
     << "  \"cache_effective\": " << util::json_bool(cache_effective) << ",\n"
     << "  \"metrics_match_stats\": " << util::json_bool(metrics_match_stats)
     << "\n}\n";
  os.close();

  const bool ok = cached_identical && batch_thread_invariant &&
                  batch_complete && eviction_bounded && cache_effective &&
                  metrics_match_stats;
  std::cout << "point warm: " << qps(warm_ms) / 1e6 << " Mq/s, batch8: "
            << qps(batch_ms) / 1e6 << " Mq/s, hit rate "
            << point_stats.hit_rate() << " -> " << out_path << "\n";
  return ok ? 0 : 1;
}
