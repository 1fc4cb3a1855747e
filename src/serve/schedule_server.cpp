#include "serve/schedule_server.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "governor/governor.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json_writer.hpp"

namespace daedvfs::serve {
namespace {

constexpr int kMaxCells = 4096;   // Grid key packs 16 bits per dimension.
constexpr int kMaxShards = 256;

int clamp_cells(int cells) { return std::clamp(cells, 1, kMaxCells); }

/// splitmix64 finalizer — spreads the packed grid key across shards.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

void append_double(std::string& out, const char* field, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"%s\":%.9g", field, v);
  out += buf;
}

}  // namespace

double StateGrid::slack_value(int cell) const {
  const int cells = clamp_cells(slack_cells);
  if (cells <= 1) return slack_min;
  const double step = (slack_max - slack_min) / static_cast<double>(cells - 1);
  return slack_min + static_cast<double>(cell) * step;
}

int StateGrid::slack_cell(double slack) const {
  const int cells = clamp_cells(slack_cells);
  // NaN slack: the tightest deadline cell.
  if (cells <= 1 || slack_max <= slack_min || std::isnan(slack)) return 0;
  const double s = std::clamp(slack, slack_min, slack_max);
  const double step = (slack_max - slack_min) / static_cast<double>(cells - 1);
  // Floor with a grid-point epsilon: an exact grid value lands on its own
  // cell, anything between grid points rounds DOWN to the tighter deadline.
  const int cell = static_cast<int>(std::floor((s - slack_min) / step + 1e-9));
  return std::clamp(cell, 0, cells - 1);
}

double StateGrid::temp_value(int cell) const {
  const int cells = clamp_cells(temp_cells);
  if (cells <= 1) return temp_max;
  const double step = (temp_max - temp_min) / static_cast<double>(cells - 1);
  return temp_min + static_cast<double>(cell) * step;
}

int StateGrid::temp_cell(double ambient_c) const {
  const int cells = clamp_cells(temp_cells);
  if (cells <= 1 || temp_max <= temp_min) return 0;
  if (std::isnan(ambient_c)) return cells - 1;  // NaN ambient: hottest cell.
  const double t = std::clamp(ambient_c, temp_min, temp_max);
  const double step = (temp_max - temp_min) / static_cast<double>(cells - 1);
  // Ceil with a grid-point epsilon: between grid points rounds UP to the
  // hotter cell (tighter thermal cap).
  const int cell = static_cast<int>(std::ceil((t - temp_min) / step - 1e-9));
  return std::clamp(cell, 0, cells - 1);
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
    : rungs_(std::move(rungs)),
      t_base_us_(t_base_us),
      cfg_(std::move(cfg)),
      instance_(std::move(instance)),
      mckp_reserve_us_(mckp_reserve_us < 0.0 ? 0.0 : mckp_reserve_us) {
  cfg_.grid.slack_cells = clamp_cells(cfg_.grid.slack_cells);
  cfg_.grid.temp_cells = clamp_cells(cfg_.grid.temp_cells);
  cfg_.grid.soc_bands = clamp_cells(cfg_.grid.soc_bands);
  cfg_.shards = std::clamp(cfg_.shards, 1, kMaxShards);
  capacities_.reserve(static_cast<std::size_t>(cfg_.grid.slack_cells));
  for (int c = 0; c < cfg_.grid.slack_cells; ++c) {
    capacities_.push_back(std::max(0.0, deadline_us(c) - mckp_reserve_us_));
  }
  if (cfg_.cache_capacity > 0) {
    shard_capacity_ = std::max<std::size_t>(
        1, cfg_.cache_capacity / static_cast<std::size_t>(cfg_.shards));
  }
  shards_.reserve(static_cast<std::size_t>(cfg_.shards));
  for (int s = 0; s < cfg_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

double ScheduleServer::deadline_us(int cell) const {
  return t_base_us_ * (1.0 + cfg_.grid.slack_value(cell));
}

QuantizedState ScheduleServer::quantize(const DeviceState& state) const {
  QuantizedState q;
  q.slack_cell = cfg_.grid.slack_cell(state.qos_slack);
  q.temp_cell = cfg_.grid.temp_cell(state.ambient_c);
  q.soc_band = cfg_.grid.soc_band(state.soc);
  q.effective_cell = q.slack_cell;
  if (std::isnan(state.window_remaining_s)) {
    q.effective_cell = 0;  // Unknown link state: the fastest cell.
  } else if (state.window_remaining_s >= 0.0) {
    // Backlog catch-up budget (the LadderPolicy rule): each queued frame's
    // share of the closing window, tightening-only. The budget maps DOWN to
    // the largest grid deadline it still covers; below the fastest cell the
    // device gets the fastest rung (and a feasible=false answer flags the
    // miss).
    const std::uint32_t backlog =
        std::min(state.backlog, cfg_.grid.backlog_cap);
    const double budget_us =
        state.window_remaining_s * 1e6 / static_cast<double>(backlog + 1);
    while (q.effective_cell > 0 && deadline_us(q.effective_cell) > budget_us) {
      --q.effective_cell;
    }
    if (deadline_us(q.effective_cell) > budget_us) q.effective_cell = 0;
  }
  return q;
}

ScheduleServer::Shard& ScheduleServer::shard_of(std::uint64_t key) {
  const std::size_t idx = static_cast<std::size_t>(
      mix(key) % static_cast<std::uint64_t>(shards_.size()));
  return *shards_[idx];
}

ScheduleAnswer ScheduleServer::resolve(const QuantizedState& q, Shard& shard) {
  ScheduleAnswer a;
  a.deadline_us = deadline_us(q.effective_cell);
  a.cap_mhz = cfg_.derate.max_sysclk_mhz(cfg_.grid.temp_value(q.temp_cell));

  // Rung pick, mirroring scenario::LadderPolicy's tiers: (1) min-energy
  // thermally eligible rung under the effective (budget-tightened)
  // deadline; (2) budget dropped, declared deadline; (3) fastest eligible
  // rung (the miss is the device's to count); (4) cap excludes everything:
  // coolest rung.
  const double declared_us = deadline_us(q.slack_cell);
  int best = -1, best_declared = -1, fastest = -1, coolest = -1;
  for (std::size_t i = 0; i < rungs_.size(); ++i) {
    const scenario::RungInfo& r = rungs_[i];
    const int idx = static_cast<int>(i);
    if (coolest < 0 ||
        r.peak_mhz() <
            rungs_[static_cast<std::size_t>(coolest)].peak_mhz()) {
      coolest = idx;
    }
    if (a.cap_mhz > 0.0 && r.peak_mhz() > a.cap_mhz) continue;
    if (fastest < 0 ||
        r.t_us < rungs_[static_cast<std::size_t>(fastest)].t_us) {
      fastest = idx;
    }
    if (r.t_us <= a.deadline_us &&
        (best < 0 ||
         r.e_uj < rungs_[static_cast<std::size_t>(best)].e_uj)) {
      best = idx;
    }
    if (r.t_us <= declared_us &&
        (best_declared < 0 ||
         r.e_uj < rungs_[static_cast<std::size_t>(best_declared)].e_uj)) {
      best_declared = idx;
    }
  }
  if (best >= 0) {
    a.rung = best;
    a.feasible = true;
  } else if (best_declared >= 0) {
    a.rung = best_declared;
    a.feasible = true;
  } else if (fastest >= 0) {
    a.rung = fastest;
  } else {
    a.rung = coolest;  // -1 iff the ladder is empty.
  }
  if (a.rung >= 0) {
    const scenario::RungInfo& r = rungs_[static_cast<std::size_t>(a.rung)];
    a.rung_t_us = r.t_us;
    a.rung_e_uj = r.e_uj;
  }

  // Degraded-mode shed hint: the LadderPolicy severity formula at the
  // band's representative SoC, with zero miss pressure (the server holds no
  // per-device miss history).
  const scenario::DegradedModeSpec& d = cfg_.degraded;
  if (d.enabled() && d.critical_soc > 0.0) {
    const double soc = cfg_.grid.soc_value(q.soc_band);
    if (soc < d.critical_soc) {
      const double severity = (d.critical_soc - soc) / d.critical_soc;
      const double scaled = std::ceil(std::min(severity, 1.0) *
                                      static_cast<double>(d.max_skip));
      const auto skip = static_cast<std::uint32_t>(scaled);
      a.shed = skip < d.max_skip ? skip : d.max_skip;
    }
  }

  // Exact per-layer MCKP at the cell deadline, from the per-shard memoized
  // sweep (one solve_dp_sweep over the whole deadline ladder per shard,
  // shard.mu held by the caller).
  if (!instance_.classes.empty()) {
    if (!shard.sweep_ready) {
      shard.sweep =
          mckp::solve_dp_sweep(instance_, capacities_, cfg_.mckp_ticks,
                               shard.ws);
      shard.sweep_ready = true;
      dp_solves_.fetch_add(1, std::memory_order_relaxed);
    }
    const auto cell = static_cast<std::size_t>(q.effective_cell);
    if (cell < shard.sweep.size() && shard.sweep[cell].feasible) {
      a.exact_feasible = true;
      a.exact_t_us = shard.sweep[cell].total_weight;
      a.exact_e_uj = shard.sweep[cell].total_value;
    }
  }
  return a;
}

ScheduleAnswer ScheduleServer::answer(const DeviceState& state) {
  const QuantizedState q = quantize(state);
  const std::uint64_t key = q.key();
  Shard& shard = shard_of(key);
  queries_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.cache.find(key);
  if (it != shard.cache.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  const ScheduleAnswer a = resolve(q, shard);
  if (shard_capacity_ > 0 && shard.cache.size() >= shard_capacity_) {
    shard.cache.erase(shard.cache.begin());
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  shard.cache.emplace(key, a);
  return a;
}

ScheduleAnswer ScheduleServer::answer_fresh(const DeviceState& state) {
  const QuantizedState q = quantize(state);
  Shard& shard = shard_of(q.key());
  std::lock_guard<std::mutex> lock(shard.mu);
  return resolve(q, shard);
}

std::vector<ScheduleAnswer> ScheduleServer::answer_batch(
    const std::vector<DeviceState>& queries, util::ThreadPool& pool,
    std::int64_t chunk, obs::Sink* sink) {
  const bool host_span = sink != nullptr && sink->trace != nullptr;
  const double wall_start_us = host_span ? obs::host_now_us() : 0.0;
  const Stats before = stats();

  std::vector<ScheduleAnswer> out(queries.size());
  pool.parallel_for(static_cast<std::int64_t>(queries.size()), chunk,
                    [&](std::int64_t begin, std::int64_t end) {
                      for (std::int64_t i = begin; i < end; ++i) {
                        out[static_cast<std::size_t>(i)] =
                            answer(queries[static_cast<std::size_t>(i)]);
                      }
                    });

  // Observability (docs/observability.md): this batch's serve.* deltas plus
  // a wall-clock span on the host track. Purely observational — replies are
  // already sealed in their slots.
  if (sink != nullptr) {
    const Stats after = stats();
    if (obs::MetricsRegistry* mx = sink->metrics) {
      mx->counter("serve.queries").add(after.queries - before.queries);
      mx->counter("serve.cache_hits").add(after.hits - before.hits);
      mx->counter("serve.cache_misses").add(after.misses - before.misses);
      mx->counter("serve.cache_evictions")
          .add(after.evictions - before.evictions);
      mx->counter("serve.dp_solves").add(after.dp_solves - before.dp_solves);
      mx->gauge("serve.cache_entries").set(static_cast<double>(cache_size()));
    }
    if (obs::TraceRecorder* tr = sink->trace) {
      tr->complete(obs::Track::kHost, "serve_batch", wall_start_us,
                   obs::host_now_us() - wall_start_us, "queries",
                   static_cast<double>(queries.size()), "hits",
                   static_cast<double>(after.hits - before.hits));
    }
  }
  return out;
}

ScheduleServer::Stats ScheduleServer::stats() const {
  Stats s;
  s.queries = queries_.load(std::memory_order_relaxed);
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.dp_solves = dp_solves_.load(std::memory_order_relaxed);
  return s;
}

std::size_t ScheduleServer::cache_size() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    n += shard->cache.size();
  }
  return n;
}

std::unique_ptr<ScheduleServer> make_server(
    const governor::ScheduleGovernor& gov, ServerConfig cfg) {
  return std::make_unique<ScheduleServer>(gov.rungs(), gov.t_base_us(),
                                          std::move(cfg), gov.mckp_instance(),
                                          gov.mckp_reserve_us());
}

}  // namespace daedvfs::serve
