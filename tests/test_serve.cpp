// ScheduleServer tests: the serving determinism contract (cached answers
// byte-identical to fresh resolves, batch reply stream byte-identical
// across thread counts), the eviction bound, conservative quantization,
// the LadderPolicy-mirroring fallback tiers, the exact-MCKP sidecar, and
// the serve.* observability surface.
#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "mckp/mckp.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "scenario/faults.hpp"
#include "scenario/mission.hpp"
#include "scenario/policy.hpp"
#include "serve/schedule_server.hpp"
#include "util/thread_pool.hpp"

namespace daedvfs::serve {
namespace {

constexpr double kTBaseUs = 1000.0;

scenario::RungInfo rung(const char* name, double t_us, double e_uj,
                        double peak_mhz) {
  scenario::RungInfo r;
  r.name = name;
  r.t_us = t_us;
  r.e_uj = e_uj;
  r.max_sysclk_mhz = peak_mhz;
  return r;
}

/// Three-rung Pareto ladder over t_base 1000us: default grid deadlines run
/// 1000..1500 in 50us cells.
std::vector<scenario::RungInfo> ladder() {
  return {rung("fast", 900.0, 50.0, 216.0), rung("mid", 1100.0, 30.0, 144.0),
          rung("slow", 1400.0, 20.0, 72.0)};
}

mckp::Instance small_instance() {
  mckp::Instance inst;
  inst.classes = {{{400.0, 30.0}, {700.0, 12.0}},
                  {{350.0, 25.0}, {600.0, 9.0}}};
  return inst;
}

DeviceState random_state(std::mt19937& rng) {
  std::uniform_real_distribution<double> slack(-0.1, 0.7);
  std::uniform_real_distribution<double> temp(-30.0, 70.0);
  std::uniform_real_distribution<double> soc(0.0, 1.0);
  std::uniform_int_distribution<std::uint32_t> backlog(0, 12);
  std::uniform_real_distribution<double> window(-0.001, 0.008);
  DeviceState s;
  s.qos_slack = slack(rng);
  s.ambient_c = temp(rng);
  s.soc = soc(rng);
  s.backlog = backlog(rng);
  s.window_remaining_s = window(rng);
  return s;
}

ServerConfig eventful_config() {
  ServerConfig cfg;
  cfg.derate = {25.0, 2.0, 216.0};       // caps bite at warm cells
  cfg.degraded.critical_soc = 0.5;       // shed hints at low bands
  cfg.degraded.max_skip = 4;
  return cfg;
}

TEST(Serve, CachedAnswerIsByteIdenticalToFresh) {
  ScheduleServer server(ladder(), kTBaseUs, eventful_config(),
                        small_instance(), 100.0);
  std::mt19937 rng(7);
  for (int i = 0; i < 300; ++i) {
    const DeviceState s = random_state(rng);
    const ScheduleAnswer first = server.answer(s);   // populates the cache
    const ScheduleAnswer cached = server.answer(s);  // served from it
    const ScheduleAnswer fresh = server.answer_fresh(s);
    EXPECT_EQ(answer_json(first), answer_json(fresh)) << "query " << i;
    EXPECT_EQ(answer_json(cached), answer_json(fresh)) << "query " << i;
  }
  EXPECT_GT(server.stats().hits, 0u);
  EXPECT_GT(server.stats().misses, 0u);
  EXPECT_EQ(server.stats().queries,
            server.stats().hits + server.stats().misses);
}

TEST(Serve, BatchReplyStreamIsThreadCountInvariant) {
  std::mt19937 rng(11);
  std::vector<DeviceState> queries;
  for (int i = 0; i < 500; ++i) queries.push_back(random_state(rng));

  std::string streams[3];
  const int worker_counts[3] = {0, 1, 4};
  for (int w = 0; w < 3; ++w) {
    // Fresh server per thread count: cache history must not matter either.
    ScheduleServer server(ladder(), kTBaseUs, eventful_config(),
                          small_instance(), 100.0);
    util::ThreadPool pool(worker_counts[w]);
    const std::vector<ScheduleAnswer> replies =
        server.answer_batch(queries, pool, 16);
    ASSERT_EQ(replies.size(), queries.size());
    std::ostringstream os;
    write_answers_json(os, replies);
    streams[w] = os.str();
  }
  EXPECT_EQ(streams[0], streams[1]);
  EXPECT_EQ(streams[1], streams[2]);

  // And the batch replies are the point answers, slot for slot.
  ScheduleServer point(ladder(), kTBaseUs, eventful_config(),
                       small_instance(), 100.0);
  std::istringstream lines(streams[0]);
  std::string line;
  std::getline(lines, line);  // "["
  for (const DeviceState& q : queries) {
    std::getline(lines, line);
    if (!line.empty() && line.back() == ',') line.pop_back();
    EXPECT_EQ(line, "  " + answer_json(point.answer(q)));
  }
}

TEST(Serve, EvictionBoundHolds) {
  ServerConfig cfg = eventful_config();
  cfg.shards = 4;
  cfg.cache_capacity = 16;  // 4 entries per shard
  ScheduleServer server(ladder(), kTBaseUs, cfg, {}, 0.0);
  std::mt19937 rng(23);
  std::vector<DeviceState> states;
  for (int i = 0; i < 800; ++i) {
    const DeviceState s = random_state(rng);
    states.push_back(s);
    (void)server.answer(s);
    EXPECT_LE(server.cache_size(), cfg.cache_capacity);
  }
  EXPECT_GT(server.stats().evictions, 0u);
  // Eviction affects only hit rate, never bytes: re-query everything.
  for (const DeviceState& s : states) {
    EXPECT_EQ(answer_json(server.answer(s)), answer_json(server.answer_fresh(s)));
  }
}

TEST(Serve, QuantizationIsConservative) {
  ScheduleServer server(ladder(), kTBaseUs, {}, {}, 0.0);
  // Slack floors to the tighter cell (grid 0..0.5, 11 cells, step 0.05).
  EXPECT_EQ(server.quantize({0.049, 25.0, 1.0, 0, -1.0}).slack_cell, 0);
  EXPECT_EQ(server.quantize({0.05, 25.0, 1.0, 0, -1.0}).slack_cell, 1);
  EXPECT_EQ(server.quantize({2.0, 25.0, 1.0, 0, -1.0}).slack_cell, 10);
  EXPECT_EQ(server.quantize({-1.0, 25.0, 1.0, 0, -1.0}).slack_cell, 0);
  // Ambient ceils to the hotter cell (grid -20..60, 17 cells, step 5).
  EXPECT_EQ(server.quantize({0.1, 25.0, 1.0, 0, -1.0}).temp_cell, 9);
  EXPECT_EQ(server.quantize({0.1, 25.1, 1.0, 0, -1.0}).temp_cell, 10);
  EXPECT_EQ(server.quantize({0.1, -100.0, 1.0, 0, -1.0}).temp_cell, 0);
  EXPECT_EQ(server.quantize({0.1, 999.0, 1.0, 0, -1.0}).temp_cell, 16);
  // SoC floors to the emptier band (4 bands).
  EXPECT_EQ(server.quantize({0.1, 25.0, 0.74, 0, -1.0}).soc_band, 2);
  EXPECT_EQ(server.quantize({0.1, 25.0, 0.75, 0, -1.0}).soc_band, 3);
  EXPECT_EQ(server.quantize({0.1, 25.0, 1.0, 0, -1.0}).soc_band, 3);
  EXPECT_EQ(server.quantize({0.1, 25.0, -0.5, 0, -1.0}).soc_band, 0);
  // NaN inputs land on the conservative cell instead of an int cast.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const QuantizedState q_slack = server.quantize({nan, 25.0, 1.0, 0, -1.0});
  EXPECT_EQ(q_slack.slack_cell, 0);
  EXPECT_EQ(q_slack.effective_cell, 0);
  EXPECT_EQ(server.quantize({0.1, nan, 1.0, 0, -1.0}).temp_cell, 16);
  EXPECT_EQ(server.quantize({0.1, 25.0, nan, 0, -1.0}).soc_band, 0);
  const QuantizedState q_window = server.quantize({0.5, 25.0, 1.0, 3, nan});
  EXPECT_EQ(q_window.slack_cell, 10);
  EXPECT_EQ(q_window.effective_cell, 0);
}

TEST(Serve, BacklogTightensEffectiveCell) {
  ScheduleServer server(ladder(), kTBaseUs, {}, {}, 0.0);
  // No window: effective == declared.
  DeviceState s{0.5, 25.0, 1.0, 3, -1.0};
  EXPECT_EQ(server.quantize(s).effective_cell, 10);
  // budget = window / (backlog + 1) = 4920 / 4 = 1230us -> cell 4 (1200us).
  s.window_remaining_s = 0.00492;
  QuantizedState q = server.quantize(s);
  EXPECT_EQ(q.slack_cell, 10);
  EXPECT_EQ(q.effective_cell, 4);
  // Backlog clamps at the grid's backlog_cap (8): depth 100 == depth 8.
  s.backlog = 100;
  DeviceState capped = s;
  capped.backlog = 8;
  EXPECT_EQ(server.quantize(s).key(), server.quantize(capped).key());
  // A budget below the fastest deadline floors at cell 0.
  s.window_remaining_s = 0.0001;
  EXPECT_EQ(server.quantize(s).effective_cell, 0);
}

TEST(Serve, FallbackTiersMirrorLadderPolicy) {
  ServerConfig cfg;
  cfg.derate = {25.0, 10.0, 216.0};
  ScheduleServer server(ladder(), kTBaseUs, cfg, {}, 0.0);

  // Tier 1: cool cell, wide deadline -> min-energy rung under it (slow).
  ScheduleAnswer a = server.answer_fresh({0.5, 20.0, 1.0, 0, -1.0});
  EXPECT_TRUE(a.feasible);
  EXPECT_EQ(a.rung, 2);
  EXPECT_DOUBLE_EQ(a.rung_e_uj, 20.0);

  // Tier 2: ambient 30 -> cap 166 MHz excludes "fast"; the backlog budget
  // tightens the effective deadline to 1000us, which no eligible rung
  // meets; dropping the budget, "slow" meets the declared 1500us.
  a = server.answer_fresh({0.5, 30.0, 1.0, 9, 0.005});
  EXPECT_TRUE(a.feasible);
  EXPECT_EQ(a.rung, 2);
  EXPECT_DOUBLE_EQ(a.deadline_us, 1000.0);

  // Tier 3: declared deadline 1000us, "fast" thermally excluded -> no
  // eligible rung meets any deadline; serve the fastest eligible (mid) and
  // flag the miss.
  a = server.answer_fresh({0.0, 30.0, 1.0, 0, -1.0});
  EXPECT_FALSE(a.feasible);
  EXPECT_EQ(a.rung, 1);
  EXPECT_GT(a.cap_mhz, 0.0);

  // Tier 4: hot enough that the cap excludes every rung -> coolest rung,
  // infeasible.
  a = server.answer_fresh({0.5, 60.0, 1.0, 0, -1.0});
  EXPECT_FALSE(a.feasible);
  EXPECT_EQ(a.rung, 2);

  // Empty ladder: answered, flagged, no crash.
  ScheduleServer empty({}, kTBaseUs, {}, {}, 0.0);
  a = empty.answer_fresh({0.1, 25.0, 1.0, 0, -1.0});
  EXPECT_FALSE(a.feasible);
  EXPECT_EQ(a.rung, -1);
}

TEST(Serve, ShedHintFollowsDegradedLadder) {
  ServerConfig cfg;
  cfg.degraded.critical_soc = 0.5;
  cfg.degraded.max_skip = 4;
  ScheduleServer server(ladder(), kTBaseUs, cfg, {}, 0.0);
  // Band 0 (repr. SoC 0.0): full severity -> max_skip.
  EXPECT_EQ(server.answer_fresh({0.1, 25.0, 0.1, 0, -1.0}).shed, 4u);
  // Band 1 (repr. SoC 0.25): severity 0.5 -> ceil(0.5 * 4) = 2.
  EXPECT_EQ(server.answer_fresh({0.1, 25.0, 0.3, 0, -1.0}).shed, 2u);
  // Healthy band: no shedding.
  EXPECT_EQ(server.answer_fresh({0.1, 25.0, 0.9, 0, -1.0}).shed, 0u);
  // Disabled spec: never sheds.
  ScheduleServer off(ladder(), kTBaseUs, {}, {}, 0.0);
  EXPECT_EQ(off.answer_fresh({0.1, 25.0, 0.0, 0, -1.0}).shed, 0u);
}

TEST(Serve, ExactSidecarMatchesDirectSweep) {
  const double reserve = 100.0;
  ServerConfig cfg;
  ScheduleServer server(ladder(), kTBaseUs, cfg, small_instance(), reserve);
  // The server memoizes ONE sweep over the whole deadline ladder; its
  // answer at cell c must equal a direct solve_dp_sweep over the same
  // capacity ladder read at index c.
  std::vector<double> caps;
  for (int c = 0; c < cfg.grid.slack_cells; ++c) {
    const double deadline = kTBaseUs * (1.0 + cfg.grid.slack_value(c));
    caps.push_back(std::max(0.0, deadline - reserve));
  }
  mckp::DpWorkspace ws;
  const std::vector<mckp::Solution> expect =
      mckp::solve_dp_sweep(small_instance(), caps, cfg.mckp_ticks, ws);
  for (int c = 0; c < cfg.grid.slack_cells; ++c) {
    const double slack = cfg.grid.slack_value(c);
    const ScheduleAnswer a = server.answer_fresh({slack, 25.0, 1.0, 0, -1.0});
    const auto cell = static_cast<std::size_t>(c);
    ASSERT_EQ(a.exact_feasible, expect[cell].feasible) << "cell " << c;
    if (!a.exact_feasible) continue;
    EXPECT_EQ(a.exact_t_us, expect[cell].total_weight) << "cell " << c;
    EXPECT_EQ(a.exact_e_uj, expect[cell].total_value) << "cell " << c;
  }
  // The memoized sweep ran on at most one shard per distinct key shard —
  // never once per query.
  EXPECT_LE(server.stats().dp_solves,
            static_cast<std::uint64_t>(cfg.shards));
}

TEST(Serve, BatchPublishesServeMetrics) {
  ScheduleServer server(ladder(), kTBaseUs, {}, small_instance(), 100.0);
  std::mt19937 rng(31);
  std::vector<DeviceState> queries;
  for (int i = 0; i < 200; ++i) queries.push_back(random_state(rng));
  obs::MetricsRegistry metrics;
  obs::Sink sink;
  sink.metrics = &metrics;
  util::ThreadPool pool(2);
  (void)server.answer_batch(queries, pool, 16, &sink);
  EXPECT_EQ(metrics.counter("serve.queries").value(), 200u);
  EXPECT_EQ(metrics.counter("serve.cache_hits").value() +
                metrics.counter("serve.cache_misses").value(),
            200u);
  EXPECT_EQ(metrics.gauge("serve.cache_entries").value(),
            static_cast<double>(server.cache_size()));
  // A second batch publishes only its own delta — and with every key now
  // resident it is all hits.
  const std::uint64_t hits_after_first =
      metrics.counter("serve.cache_hits").value();
  (void)server.answer_batch(queries, pool, 16, &sink);
  EXPECT_EQ(metrics.counter("serve.queries").value(), 400u);
  EXPECT_EQ(metrics.counter("serve.cache_hits").value(),
            hits_after_first + 200u);
}

}  // namespace
}  // namespace daedvfs::serve
