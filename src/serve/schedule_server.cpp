#include "serve/schedule_server.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <ostream>

#include "governor/governor.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json_writer.hpp"

namespace daedvfs::serve {
namespace {

constexpr int kMaxCells = 4096;

int clamp_cells(int cells) { return std::clamp(cells, 1, kMaxCells); }

/// Spacing of `cells` grid points over [lo, hi]; 0 for a one-cell axis.
double grid_step(double lo, double hi, int cells) {
  return cells <= 1 ? 0.0 : (hi - lo) / static_cast<double>(cells - 1);
}

// The conservative roundings of StateGrid's cell functions, which the
// server's quantize() calls with its hoisted step. A step that is not
// positive (one cell, or hi <= lo) collapses the axis onto cell 0.

/// Floor with a grid-point epsilon: an exact grid value lands on its own
/// cell, anything between grid points rounds DOWN. NaN -> cell 0.
int floor_cell(double x, double lo, double hi, double step, int cells) {
  if (!(step > 0.0) || std::isnan(x)) return 0;
  const double s = std::clamp(x, lo, hi);
  const int cell = static_cast<int>(std::floor((s - lo) / step + 1e-9));
  return std::clamp(cell, 0, cells - 1);
}

/// Ceil with a grid-point epsilon: between grid points rounds UP. NaN ->
/// the last cell.
int ceil_cell(double x, double lo, double hi, double step, int cells) {
  if (!(step > 0.0)) return 0;
  if (std::isnan(x)) return cells - 1;
  const double t = std::clamp(x, lo, hi);
  const int cell = static_cast<int>(std::ceil((t - lo) / step - 1e-9));
  return std::clamp(cell, 0, cells - 1);
}

void append_double(std::string& out, const char* field, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"%s\":%.9g", field, v);
  out += buf;
}

}  // namespace

double StateGrid::slack_value(int cell) const {
  return slack_min + static_cast<double>(cell) *
                         grid_step(slack_min, slack_max,
                                   clamp_cells(slack_cells));
}

int StateGrid::slack_cell(double slack) const {
  // NaN slack: the tightest deadline cell.
  const int cells = clamp_cells(slack_cells);
  return floor_cell(slack, slack_min, slack_max,
                    grid_step(slack_min, slack_max, cells), cells);
}

double StateGrid::temp_value(int cell) const {
  const int cells = clamp_cells(temp_cells);
  if (cells <= 1) return temp_max;
  return temp_min +
         static_cast<double>(cell) * grid_step(temp_min, temp_max, cells);
}

int StateGrid::temp_cell(double ambient_c) const {
  // NaN ambient: the hottest cell (tighter thermal cap).
  const int cells = clamp_cells(temp_cells);
  return ceil_cell(ambient_c, temp_min, temp_max,
                   grid_step(temp_min, temp_max, cells), cells);
}

int StateGrid::soc_band(double soc) const {
  const int bands = clamp_cells(soc_bands);
  if (std::isnan(soc)) return 0;  // NaN SoC: the emptiest band.
  const double s = std::clamp(soc, 0.0, 1.0);
  const int band = static_cast<int>(std::floor(s * static_cast<double>(bands)));
  return std::clamp(band, 0, bands - 1);
}

double StateGrid::soc_value(int band) const {
  const int bands = clamp_cells(soc_bands);
  return static_cast<double>(band) / static_cast<double>(bands);
}

std::string answer_json(const ScheduleAnswer& a) {
  std::string out = "{";
  out += "\"feasible\":";
  out += util::json_bool(a.feasible);
  out += ",\"rung\":" + std::to_string(a.rung) + ",";
  append_double(out, "rung_t_us", a.rung_t_us);
  out += ",";
  append_double(out, "rung_e_uj", a.rung_e_uj);
  out += ",";
  append_double(out, "deadline_us", a.deadline_us);
  out += ",";
  append_double(out, "cap_mhz", a.cap_mhz);
  out += ",\"shed\":" + std::to_string(a.shed);
  out += ",\"exact_feasible\":";
  out += util::json_bool(a.exact_feasible);
  out += ",";
  append_double(out, "exact_t_us", a.exact_t_us);
  out += ",";
  append_double(out, "exact_e_uj", a.exact_e_uj);
  out += "}";
  return out;
}

void write_answers_json(std::ostream& os,
                        const std::vector<ScheduleAnswer>& answers) {
  os << "[\n";
  for (std::size_t i = 0; i < answers.size(); ++i) {
    os << "  " << answer_json(answers[i]);
    if (i + 1 < answers.size()) os << ",";
    os << "\n";
  }
  os << "]\n";
}

ScheduleServer::ScheduleServer(std::vector<scenario::RungInfo> rungs,
                               double t_base_us, ServerConfig cfg,
                               mckp::Instance instance, double mckp_reserve_us)
    : rungs_(std::move(rungs)), t_base_us_(t_base_us), cfg_(std::move(cfg)) {
  StateGrid& g = cfg_.grid;
  g.slack_cells = clamp_cells(g.slack_cells);
  g.temp_cells = clamp_cells(g.temp_cells);
  g.soc_bands = clamp_cells(g.soc_bands);
  slack_step_ = grid_step(g.slack_min, g.slack_max, g.slack_cells);
  temp_step_ = grid_step(g.temp_min, g.temp_max, g.temp_cells);

  const double reserve_us = mckp_reserve_us < 0.0 ? 0.0 : mckp_reserve_us;
  std::vector<double> capacities;
  for (int c = 0; c < g.slack_cells; ++c) {
    deadline_us_.push_back(t_base_us_ * (1.0 + g.slack_value(c)));
    capacities.push_back(std::max(0.0, deadline_us_.back() - reserve_us));
  }
  // No catch-up budget here: answer() applies it by reading the effective
  // cell's pick before the declared cell's.
  constexpr double kNoBudget = std::numeric_limits<double>::infinity();
  for (int t = 0; t < g.temp_cells; ++t) {
    cap_mhz_.push_back(cfg_.derate.max_sysclk_mhz(g.temp_value(t)));
    for (const double deadline : deadline_us_) {
      picks_.push_back(scenario::select_rung(rungs_, deadline, kNoBudget,
                                             cap_mhz_.back(), nullptr));
    }
  }
  // Shed hint at each band's representative SoC with zero miss pressure:
  // the server holds no per-device miss history.
  for (int b = 0; b < g.soc_bands; ++b) {
    shed_.push_back(
        scenario::degraded_skip(g.soc_value(b), 0.0, cfg_.degraded));
  }
  if (!instance.classes.empty()) {
    mckp::DpWorkspace ws;
    exact_ = mckp::solve_dp_sweep(instance, capacities, cfg_.mckp_ticks, ws);
  }
}

QuantizedState ScheduleServer::quantize(const DeviceState& state) const {
  const StateGrid& g = cfg_.grid;
  QuantizedState q;
  q.slack_cell = floor_cell(state.qos_slack, g.slack_min, g.slack_max,
                            slack_step_, g.slack_cells);
  q.temp_cell = ceil_cell(state.ambient_c, g.temp_min, g.temp_max,
                          temp_step_, g.temp_cells);
  q.soc_band = g.soc_band(state.soc);
  q.effective_cell = q.slack_cell;
  if (state.backlog == 0) return q;  // No queue: the budget does not apply.
  if (std::isnan(state.window_remaining_s)) {
    q.effective_cell = 0;  // Unknown link state: the fastest cell.
    return q;
  }
  // The catch-up budget maps DOWN to the largest grid deadline it still
  // covers; below the fastest cell (or NaN) the device gets cell 0, and a
  // feasible=false answer flags a miss there.
  const double budget_us = scenario::catch_up_budget_us(
      std::min(state.backlog, g.backlog_cap), state.window_remaining_s,
      state.radio_us);
  while (q.effective_cell > 0 &&
         !(deadline_us_[static_cast<std::size_t>(q.effective_cell)] <=
           budget_us)) {
    --q.effective_cell;
  }
  return q;
}

ScheduleAnswer ScheduleServer::answer_fresh(const DeviceState& state) const {
  const QuantizedState q = quantize(state);
  const auto slack = static_cast<std::size_t>(q.slack_cell);
  const auto effective = static_cast<std::size_t>(q.effective_cell);
  const std::size_t row =
      static_cast<std::size_t>(q.temp_cell) * deadline_us_.size();
  // LadderPolicy's tiers from two reads: the budget-tightened cell, then
  // the declared cell. A declared-cell pick that met nothing already holds
  // the temp cell's fastest eligible or coolest rung.
  scenario::RungPick pick = picks_[row + effective];
  if (pick.tier != scenario::kTierBudget) pick = picks_[row + slack];

  ScheduleAnswer a;
  a.feasible = pick.tier == scenario::kTierBudget;
  a.rung = pick.rung;
  if (a.rung >= 0) {
    const scenario::RungInfo& r = rungs_[static_cast<std::size_t>(a.rung)];
    a.rung_t_us = r.t_us;
    a.rung_e_uj = r.e_uj;
  }
  a.deadline_us = deadline_us_[effective];
  a.cap_mhz = cap_mhz_[static_cast<std::size_t>(q.temp_cell)];
  a.shed = shed_[static_cast<std::size_t>(q.soc_band)];
  if (!exact_.empty() && exact_[effective].feasible) {
    a.exact_feasible = true;
    a.exact_t_us = exact_[effective].total_weight;
    a.exact_e_uj = exact_[effective].total_value;
  }
  return a;
}

ScheduleAnswer ScheduleServer::answer(const DeviceState& state) const {
  queries_.fetch_add(1, std::memory_order_relaxed);
  return answer_fresh(state);
}

std::vector<ScheduleAnswer> ScheduleServer::answer_batch(
    const std::vector<DeviceState>& queries, util::ThreadPool& pool,
    std::int64_t chunk, obs::Sink* sink) const {
  const bool host_span = sink != nullptr && sink->trace != nullptr;
  const double wall_start_us = host_span ? obs::host_now_us() : 0.0;

  std::vector<ScheduleAnswer> out(queries.size());
  pool.parallel_for(static_cast<std::int64_t>(queries.size()), chunk,
                    [&](std::int64_t begin, std::int64_t end) {
                      for (std::int64_t i = begin; i < end; ++i) {
                        out[static_cast<std::size_t>(i)] =
                            answer_fresh(queries[static_cast<std::size_t>(i)]);
                      }
                    });
  // Counted once per batch, so the workers share no written cache line.
  queries_.fetch_add(queries.size(), std::memory_order_relaxed);

  // Observability (docs/observability.md): purely observational — replies
  // are already sealed in their slots.
  if (sink != nullptr) {
    if (obs::MetricsRegistry* mx = sink->metrics) {
      mx->counter("serve.queries").add(queries.size());
    }
    if (obs::TraceRecorder* tr = sink->trace) {
      tr->complete(obs::Track::kHost, "serve_batch", wall_start_us,
                   obs::host_now_us() - wall_start_us, "queries",
                   static_cast<double>(queries.size()));
    }
  }
  return out;
}

ScheduleServer::Stats ScheduleServer::stats() const {
  Stats s;
  s.queries = queries_.load(std::memory_order_relaxed);
  s.hits = s.queries;
  s.dp_solves = exact_.empty() ? 0 : 1;
  return s;
}

std::unique_ptr<ScheduleServer> make_server(
    const governor::ScheduleGovernor& gov, ServerConfig cfg) {
  return std::make_unique<ScheduleServer>(gov.rungs(), gov.t_base_us(),
                                          std::move(cfg), gov.mckp_instance(),
                                          gov.mckp_reserve_us());
}

}  // namespace daedvfs::serve
