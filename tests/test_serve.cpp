// ScheduleServer tests: the serving determinism contract (answer() equals
// answer_fresh(), batch reply stream byte-identical across thread counts),
// conservative quantization, the tabulated rule against its source of truth
// (scenario::LadderPolicy), the exact-MCKP sidecar, and the serve.*
// observability surface.
#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "clock/clock_config.hpp"
#include "dse/design_space.hpp"
#include "governor/governor.hpp"
#include "graph/zoo.hpp"
#include "mckp/mckp.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "power/power_model.hpp"
#include "scenario/faults.hpp"
#include "scenario/mission.hpp"
#include "scenario/policy.hpp"
#include "serve/schedule_server.hpp"
#include "util/thread_pool.hpp"

namespace daedvfs::serve {
namespace {

constexpr double kTBaseUs = 1000.0;
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

scenario::RungInfo rung(const char* name, double t_us, double e_uj,
                        double peak_mhz) {
  scenario::RungInfo r;
  r.name = name;
  r.t_us = t_us;
  r.e_uj = e_uj;
  r.max_sysclk_mhz = peak_mhz;
  // A valid clock at both boundaries, so LadderPolicy can price wakes.
  r.entry_hfo = clock::ClockConfig::hsi_direct();
  r.exit_hfo = r.entry_hfo;
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

DeviceState state(double slack, double ambient_c, double soc = 1.0,
                  std::uint32_t backlog = 0, double window_s = -1.0,
                  double radio_us = 0.0) {
  DeviceState s;
  s.qos_slack = slack;
  s.ambient_c = ambient_c;
  s.soc = soc;
  s.backlog = backlog;
  s.window_remaining_s = window_s;
  s.radio_us = radio_us;
  return s;
}

/// Random state over the whole grid and beyond it, with catch-up windows
/// and radio bursts scaled to `t_base_us`.
DeviceState random_state(std::mt19937& rng, double t_base_us = kTBaseUs) {
  std::uniform_real_distribution<double> slack(-0.1, 0.7);
  std::uniform_real_distribution<double> temp(-30.0, 70.0);
  std::uniform_real_distribution<double> soc(0.0, 1.0);
  std::uniform_int_distribution<std::uint32_t> backlog(0, 12);
  std::uniform_real_distribution<double> window(-1.0, 8.0);
  std::uniform_real_distribution<double> radio(0.0, 0.3);
  return state(slack(rng), temp(rng), soc(rng), backlog(rng),
               window(rng) * t_base_us * 1e-6, radio(rng) * t_base_us);
}

/// random_state with one field in five replaced by NaN.
DeviceState adversarial_state(std::mt19937& rng, double t_base_us) {
  DeviceState s = random_state(rng, t_base_us);
  switch (std::uniform_int_distribution<int>(0, 9)(rng)) {
    case 0: s.qos_slack = kNaN; break;
    case 1: s.ambient_c = kNaN; break;
    case 2: s.soc = kNaN; break;
    case 3: s.window_remaining_s = kNaN; break;
    case 4: s.radio_us = kNaN; break;
    default: break;
  }
  return s;
}

ServerConfig eventful_config() {
  ServerConfig cfg;
  cfg.derate = {25.0, 2.0, 216.0};       // caps bite at warm cells
  cfg.degraded.critical_soc = 0.5;       // shed hints at low bands
  cfg.degraded.max_skip = 4;
  return cfg;
}

TEST(Serve, AnswerIsByteIdenticalToFresh) {
  const ScheduleServer server(ladder(), kTBaseUs, eventful_config(),
                              small_instance(), 100.0);
  std::mt19937 rng(7);
  for (int i = 0; i < 300; ++i) {
    const DeviceState s = adversarial_state(rng, kTBaseUs);
    EXPECT_EQ(answer_json(server.answer(s)),
              answer_json(server.answer_fresh(s)))
        << "query " << i;
  }
  // Every answer is a table read: all hits, nothing to miss or evict.
  const ScheduleServer::Stats st = server.stats();
  EXPECT_EQ(st.queries, 300u);
  EXPECT_EQ(st.hits, st.queries);
  EXPECT_EQ(st.misses, 0u);
  EXPECT_EQ(st.evictions, 0u);
}

TEST(Serve, BatchReplyStreamIsThreadCountInvariant) {
  std::mt19937 rng(11);
  std::vector<DeviceState> queries;
  for (int i = 0; i < 500; ++i) queries.push_back(random_state(rng));

  std::string streams[3];
  const int worker_counts[3] = {0, 1, 4};
  for (int w = 0; w < 3; ++w) {
    const ScheduleServer server(ladder(), kTBaseUs, eventful_config(),
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
  const ScheduleServer point(ladder(), kTBaseUs, eventful_config(),
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

TEST(Serve, QuantizationIsConservative) {
  const ScheduleServer server(ladder(), kTBaseUs, {}, {}, 0.0);
  // Slack floors to the tighter cell (grid 0..0.5, 11 cells, step 0.05).
  EXPECT_EQ(server.quantize(state(0.049, 25.0)).slack_cell, 0);
  EXPECT_EQ(server.quantize(state(0.05, 25.0)).slack_cell, 1);
  EXPECT_EQ(server.quantize(state(2.0, 25.0)).slack_cell, 10);
  EXPECT_EQ(server.quantize(state(-1.0, 25.0)).slack_cell, 0);
  // Ambient ceils to the hotter cell (grid -20..60, 17 cells, step 5).
  EXPECT_EQ(server.quantize(state(0.1, 25.0)).temp_cell, 9);
  EXPECT_EQ(server.quantize(state(0.1, 25.1)).temp_cell, 10);
  EXPECT_EQ(server.quantize(state(0.1, -100.0)).temp_cell, 0);
  EXPECT_EQ(server.quantize(state(0.1, 999.0)).temp_cell, 16);
  // SoC floors to the emptier band (4 bands).
  EXPECT_EQ(server.quantize(state(0.1, 25.0, 0.74)).soc_band, 2);
  EXPECT_EQ(server.quantize(state(0.1, 25.0, 0.75)).soc_band, 3);
  EXPECT_EQ(server.quantize(state(0.1, 25.0, 1.0)).soc_band, 3);
  EXPECT_EQ(server.quantize(state(0.1, 25.0, -0.5)).soc_band, 0);
  // NaN inputs land on the conservative cell instead of an int cast.
  const QuantizedState q_slack = server.quantize(state(kNaN, 25.0));
  EXPECT_EQ(q_slack.slack_cell, 0);
  EXPECT_EQ(q_slack.effective_cell, 0);
  EXPECT_EQ(server.quantize(state(0.1, kNaN)).temp_cell, 16);
  EXPECT_EQ(server.quantize(state(0.1, 25.0, kNaN)).soc_band, 0);
  const QuantizedState q_window =
      server.quantize(state(0.5, 25.0, 1.0, 3, kNaN));
  EXPECT_EQ(q_window.slack_cell, 10);
  EXPECT_EQ(q_window.effective_cell, 0);
  EXPECT_EQ(server.quantize(state(0.5, 25.0, 1.0, 3, 1.0, kNaN))
                .effective_cell,
            0);
}

TEST(Serve, BacklogTightensEffectiveCell) {
  const ScheduleServer server(ladder(), kTBaseUs, {}, {}, 0.0);
  // No window: effective == declared.
  DeviceState s = state(0.5, 25.0, 1.0, 3, -1.0);
  EXPECT_EQ(server.quantize(s).effective_cell, 10);
  // budget = window / (backlog + 1) = 4920 / 4 = 1230us -> cell 4 (1200us).
  s.window_remaining_s = 0.00492;
  QuantizedState q = server.quantize(s);
  EXPECT_EQ(q.slack_cell, 10);
  EXPECT_EQ(q.effective_cell, 4);
  // The radio burst comes off each frame's share, as in LadderPolicy:
  // 1230 - 40 = 1190us -> cell 3 (1150us).
  s.radio_us = 40.0;
  EXPECT_EQ(server.quantize(s).effective_cell, 3);
  s.radio_us = 0.0;
  // Backlog clamps at the grid's backlog_cap (8): depth 100 == depth 8.
  s.backlog = 100;
  DeviceState capped = s;
  capped.backlog = 8;
  const QuantizedState deep = server.quantize(s);
  const QuantizedState at_cap = server.quantize(capped);
  EXPECT_EQ(deep.slack_cell, at_cap.slack_cell);
  EXPECT_EQ(deep.effective_cell, at_cap.effective_cell);
  EXPECT_EQ(deep.temp_cell, at_cap.temp_cell);
  EXPECT_EQ(deep.soc_band, at_cap.soc_band);
  // A budget below the fastest deadline floors at cell 0.
  s.window_remaining_s = 0.0001;
  EXPECT_EQ(server.quantize(s).effective_cell, 0);
  // Without a backlog the governor applies no budget, and neither does the
  // server: the same closing window leaves the declared cell, even unknown.
  s.backlog = 0;
  EXPECT_EQ(server.quantize(s).effective_cell, 10);
  s.window_remaining_s = kNaN;
  EXPECT_EQ(server.quantize(s).effective_cell, 10);
}

TEST(Serve, FallbackTiersMirrorLadderPolicy) {
  ServerConfig cfg;
  cfg.derate = {25.0, 10.0, 216.0};
  const ScheduleServer server(ladder(), kTBaseUs, cfg, {}, 0.0);

  // Tier 1: cool cell, wide deadline -> min-energy rung under it (slow).
  ScheduleAnswer a = server.answer_fresh(state(0.5, 20.0));
  EXPECT_TRUE(a.feasible);
  EXPECT_EQ(a.rung, 2);
  EXPECT_DOUBLE_EQ(a.rung_e_uj, 20.0);

  // Tier 2: ambient 30 -> cap 166 MHz excludes "fast"; the backlog budget
  // tightens the effective deadline to 1000us, which no eligible rung
  // meets; dropping the budget, "slow" meets the declared 1500us.
  a = server.answer_fresh(state(0.5, 30.0, 1.0, 9, 0.005));
  EXPECT_TRUE(a.feasible);
  EXPECT_EQ(a.rung, 2);
  EXPECT_DOUBLE_EQ(a.deadline_us, 1000.0);

  // Tier 3: declared deadline 1000us, "fast" thermally excluded -> no
  // eligible rung meets any deadline; serve the fastest eligible (mid) and
  // flag the miss.
  a = server.answer_fresh(state(0.0, 30.0));
  EXPECT_FALSE(a.feasible);
  EXPECT_EQ(a.rung, 1);
  EXPECT_GT(a.cap_mhz, 0.0);

  // Tier 4: hot enough that the cap excludes every rung -> coolest rung,
  // infeasible.
  a = server.answer_fresh(state(0.5, 60.0));
  EXPECT_FALSE(a.feasible);
  EXPECT_EQ(a.rung, 2);

  // Empty ladder: answered, flagged, no crash.
  const ScheduleServer empty({}, kTBaseUs, {}, {}, 0.0);
  a = empty.answer_fresh(state(0.1, 25.0));
  EXPECT_FALSE(a.feasible);
  EXPECT_EQ(a.rung, -1);
}

/// The server's rung equals LadderPolicy::choose (no wake row) on the
/// cell's representative context: the declared cell's deadline, a
/// catch-up budget equal to the effective cell's deadline (backlog 1 and a
/// window of two such deadlines) and the temp cell's cap.
void expect_matches_policy(const ScheduleServer& server,
                           const scenario::LadderPolicy& policy,
                           std::uint32_t seed) {
  const StateGrid& grid = server.config().grid;
  const auto deadline_us = [&](int cell) {
    return server.t_base_us() * (1.0 + grid.slack_value(cell));
  };
  std::mt19937 rng(seed);
  for (int i = 0; i < 2000; ++i) {
    const DeviceState s = adversarial_state(rng, server.t_base_us());
    const QuantizedState q = server.quantize(s);
    scenario::FrameContext ctx;
    ctx.deadline_us = deadline_us(q.slack_cell);
    ctx.backlog = 1;
    ctx.window_remaining_s = 2.0 * deadline_us(q.effective_cell) * 1e-6;
    ctx.max_sysclk_mhz =
        server.config().derate.max_sysclk_mhz(grid.temp_value(q.temp_cell));
    ASSERT_EQ(server.answer(s).rung, policy.choose(ctx, -1))
        << "state " << i << ": slack " << s.qos_slack << " ambient "
        << s.ambient_c << " backlog " << s.backlog << " window "
        << s.window_remaining_s << " radio " << s.radio_us;
  }
}

TEST(Serve, MatchesLadderPolicyOnRepresentativeContext) {
  {
    SCOPED_TRACE("synthetic ladder");
    ServerConfig cfg = eventful_config();
    cfg.derate = {20.0, 5.0, 216.0};  // every tier, coolest included
    const ScheduleServer server(ladder(), kTBaseUs, cfg, {}, 0.0);
    const scenario::LadderPolicy policy(ladder(), {}, {});
    expect_matches_policy(server, policy, 41);
  }
  {
    SCOPED_TRACE("PD predictive ladder");
    const graph::Model pd = graph::zoo::make_person_detection();
    governor::GovernorConfig gov_cfg;
    gov_cfg.pipeline.space = dse::make_paper_design_space(
        power::PowerModel{gov_cfg.pipeline.explore.sim.power});
    gov_cfg.predictive = true;
    const governor::ScheduleGovernor gov(pd, gov_cfg);
    ServerConfig cfg = eventful_config();
    cfg.derate = {40.0, 2.0, 216.0};
    const std::unique_ptr<ScheduleServer> server = make_server(gov, cfg);
    expect_matches_policy(*server, gov, 43);
  }
}

TEST(Serve, ShedHintFollowsDegradedLadder) {
  ServerConfig cfg;
  cfg.degraded.critical_soc = 0.5;
  cfg.degraded.max_skip = 4;
  const ScheduleServer server(ladder(), kTBaseUs, cfg, {}, 0.0);
  // Band 0 (repr. SoC 0.0): full severity -> max_skip.
  EXPECT_EQ(server.answer_fresh(state(0.1, 25.0, 0.1)).shed, 4u);
  // Band 1 (repr. SoC 0.25): severity 0.5 -> ceil(0.5 * 4) = 2.
  EXPECT_EQ(server.answer_fresh(state(0.1, 25.0, 0.3)).shed, 2u);
  // Healthy band: no shedding.
  EXPECT_EQ(server.answer_fresh(state(0.1, 25.0, 0.9)).shed, 0u);
  // Disabled spec: never sheds.
  const ScheduleServer off(ladder(), kTBaseUs, {}, {}, 0.0);
  EXPECT_EQ(off.answer_fresh(state(0.1, 25.0, 0.0)).shed, 0u);
}

TEST(Serve, ExactSidecarMatchesDirectSweep) {
  const double reserve = 100.0;
  ServerConfig cfg;
  const ScheduleServer server(ladder(), kTBaseUs, cfg, small_instance(),
                              reserve);
  // The server runs ONE sweep over the whole deadline ladder; its answer
  // at cell c must equal a direct solve_dp_sweep over the same capacity
  // ladder read at index c.
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
    const ScheduleAnswer a = server.answer_fresh(state(slack, 25.0));
    const auto cell = static_cast<std::size_t>(c);
    ASSERT_EQ(a.exact_feasible, expect[cell].feasible) << "cell " << c;
    if (!a.exact_feasible) continue;
    EXPECT_EQ(a.exact_t_us, expect[cell].total_weight) << "cell " << c;
    EXPECT_EQ(a.exact_e_uj, expect[cell].total_value) << "cell " << c;
  }
  EXPECT_EQ(server.stats().dp_solves, 1u);
  const ScheduleServer no_instance(ladder(), kTBaseUs, cfg, {}, reserve);
  EXPECT_EQ(no_instance.stats().dp_solves, 0u);
}

TEST(Serve, BatchPublishesServeMetrics) {
  const ScheduleServer server(ladder(), kTBaseUs, {}, small_instance(),
                              100.0);
  std::mt19937 rng(31);
  std::vector<DeviceState> queries;
  for (int i = 0; i < 200; ++i) queries.push_back(random_state(rng));
  obs::MetricsRegistry metrics;
  obs::Sink sink;
  sink.metrics = &metrics;
  util::ThreadPool pool(2);
  (void)server.answer_batch(queries, pool, 16, &sink);
  EXPECT_EQ(metrics.counter("serve.queries").value(), 200u);
  // A second batch publishes only its own queries.
  (void)server.answer_batch(queries, pool, 16, &sink);
  EXPECT_EQ(metrics.counter("serve.queries").value(), 400u);
  EXPECT_EQ(server.stats().queries, 400u);
}

}  // namespace
}  // namespace daedvfs::serve
