// Schedule-serving benchmark: a ScheduleServer built from a real governor
// ladder (make_server) answering a seeded stream of device states, point
// and batch. Emits BENCH_serve.json with the gates the serving contract
// pins:
//
//   * cached_identical      — answer() is byte-identical (answer_json) to
//                             answer_fresh() for the same state;
//   * batch_thread_invariant — the batch reply stream is byte-identical
//                             across 0/1/8-worker pools (preassigned reply
//                             slots + per-call parallel_for tracking, reads
//                             of the server's immutable tables);
//   * batch_complete        — one reply per query;
//   * metrics_match_stats   — serve.queries published by answer_batch
//                             agrees with the server's own stats delta.
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
  const auto t_setup = std::chrono::steady_clock::now();
  std::unique_ptr<serve::ScheduleServer> server =
      serve::make_server(governor, cfg);
  const double setup_ms = wall_ms_since(t_setup);

  const std::size_t n_queries = smoke ? 5000 : 100000;
  const std::vector<serve::DeviceState> queries = make_queries(n_queries);

  // ---- Point-query throughput over the stream.
  std::cout << "serve " << n_queries << " point queries...\n";
  const auto t_point = std::chrono::steady_clock::now();
  for (const serve::DeviceState& q : queries) (void)server->answer(q);
  const double point_ms = wall_ms_since(t_point);

  // ---- Identity gate: answer() byte-equals answer_fresh().
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
  // (fresh server per run), plus throughput at 8 workers.
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

  // ---- serve.* observability: the counter published by a sink-carrying
  // batch agrees with the server's own stats delta.
  obs::MetricsRegistry metrics;
  obs::Sink sink;
  sink.metrics = &metrics;
  std::unique_ptr<serve::ScheduleServer> observed =
      serve::make_server(governor, cfg);
  const serve::ScheduleServer::Stats before = observed->stats();
  (void)observed->answer_batch(queries, pool8, 64, &sink);
  const serve::ScheduleServer::Stats after = observed->stats();
  const bool metrics_match_stats = metrics.counter("serve.queries").value() ==
                                   after.queries - before.queries;

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
     << "  \"ladder_ms\": " << ladder_ms << ",\n"
     << "  \"setup_ms\": " << setup_ms << ",\n"
     << "  \"point\": {\n"
     << "    \"wall_ms\": " << point_ms << ",\n"
     << "    \"queries_per_sec\": " << qps(point_ms) << "\n"
     << "  },\n"
     << "  \"batch8\": {\n"
     << "    \"wall_ms\": " << batch_ms << ",\n"
     << "    \"queries_per_sec\": " << qps(batch_ms) << "\n"
     << "  },\n"
     << "  \"dp_solves\": " << server->stats().dp_solves << ",\n"
     << "  \"cached_identical\": " << util::json_bool(cached_identical)
     << ",\n"
     << "  \"batch_thread_invariant\": "
     << util::json_bool(batch_thread_invariant) << ",\n"
     << "  \"batch_complete\": " << util::json_bool(batch_complete) << ",\n"
     << "  \"metrics_match_stats\": " << util::json_bool(metrics_match_stats)
     << "\n}\n";
  os.close();

  const bool ok = cached_identical && batch_thread_invariant &&
                  batch_complete && metrics_match_stats;
  std::cout << "point: " << qps(point_ms) / 1e6 << " Mq/s, batch8: "
            << qps(batch_ms) / 1e6 << " Mq/s, setup " << setup_ms
            << " ms -> " << out_path << "\n";
  return ok ? 0 : 1;
}
