// Schedule-serving layer (DSE as a service): a thread-safe, long-running
// ScheduleServer that answers "best schedule for my current state" queries
// against a precomputed governor ladder — the ROADMAP north-star query of
// millions of devices phoning home with their (QoS slack, ambient
// temperature, SoC, link) state.
//
// Query path:
//   1. Quantize the raw DeviceState onto the configurable StateGrid
//      (conservative rounding: slack floors to the tighter cell, ambient
//      ceils to the hotter cell, SoC floors to the emptier band, the
//      backlog/window link state tightens the deadline cell — a quantized
//      answer is always safe for the true state).
//   2. Read the answer from tables the constructor built once: the shared
//      decision rule (scenario::select_rung) per (temp cell, deadline
//      cell), the cap per temp cell, the deadline per slack cell, the shed
//      hint per SoC band and — when the server holds the governor's
//      per-layer mckp::Instance — the exact MCKP answer per deadline cell
//      from ONE mckp::solve_dp_sweep over the whole deadline ladder.
//
// Determinism contract (docs/serving.md): an answer is a pure function of
// (config, ladder, instance, quantized state) — independent of query order
// and thread count. The tables are never written after construction, so
// concurrent queries read them without locks, and the batch API — which
// fans out over util::ThreadPool::parallel_for into preassigned reply
// slots — emits a byte-identical reply stream for any thread count
// (bench_serve gates it). Batch queries may run from a task already on the
// pool: parallel_for completion is tracked per call, so fleet simulation
// and serving can share one pool.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "mckp/mckp.hpp"
#include "obs/sink.hpp"
#include "scenario/mission.hpp"
#include "scenario/policy.hpp"
#include "util/thread_pool.hpp"

namespace daedvfs::governor {
class ScheduleGovernor;
}

namespace daedvfs::serve {

/// Raw device state of one query, as phoned home.
struct DeviceState {
  double qos_slack = 0.10;   ///< Requested slack over the base latency.
  double ambient_c = 25.0;   ///< Ambient temperature at the node.
  double soc = 1.0;          ///< Battery state of charge in [0, 1].
  std::uint32_t backlog = 0; ///< Frames queued behind the uplink.
  /// Time left in the node's connectivity window; < 0 = unbounded, NaN =
  /// unknown (served at the tightest deadline cell when backlogged).
  double window_remaining_s = -1.0;
  /// Per-frame uplink transmit time, netted out of the catch-up budget
  /// exactly like scenario::FrameContext::radio_us.
  double radio_us = 0.0;
};

/// Quantization grid the server collapses raw states onto. Cell counts are
/// clamped to [1, 4096] at server construction (bounding the pick table at
/// 4096 x 4096 entries).
struct StateGrid {
  double slack_min = 0.0;
  double slack_max = 0.5;
  int slack_cells = 11;     ///< Grid points slack_min..slack_max inclusive.
  double temp_min = -20.0;
  double temp_max = 60.0;
  int temp_cells = 17;
  int soc_bands = 4;
  /// Backlog clamp: queue depths at or above this are one link state.
  std::uint32_t backlog_cap = 8;

  /// Representative slack of a cell (the cell's lower edge — the tighter
  /// deadline, so serving the cell value is safe for every state in it).
  [[nodiscard]] double slack_value(int cell) const;
  /// Cell of a raw slack: clamped, floored (conservative); NaN -> cell 0.
  [[nodiscard]] int slack_cell(double slack) const;
  /// Representative ambient of a cell (the cell's upper edge — hotter, so
  /// the thermal cap derived from it is safe for every state in it).
  [[nodiscard]] double temp_value(int cell) const;
  /// Cell of a raw ambient: clamped, ceiled (conservative); NaN -> the
  /// hottest cell.
  [[nodiscard]] int temp_cell(double ambient_c) const;
  /// Band of a raw SoC: clamped to [0, 1], floored onto `soc_bands` equal
  /// bands (conservative: emptier); NaN -> band 0.
  [[nodiscard]] int soc_band(double soc) const;
  /// Representative SoC of a band (lower edge).
  [[nodiscard]] double soc_value(int band) const;
};

/// A device state quantized onto the grid — the table index domain.
/// `effective_cell <= slack_cell`: the deadline cell after the link state
/// (backlog catch-up budget window/(backlog+1) - radio_us, the LadderPolicy
/// rule, applied only with a backlog) tightened the declared cell, floored
/// at cell 0.
struct QuantizedState {
  int slack_cell = 0;
  int effective_cell = 0;
  int temp_cell = 0;
  int soc_band = 0;
};

/// One served answer. Pure function of (server config, ladder, instance,
/// quantized state); contains nothing host-dependent.
struct ScheduleAnswer {
  /// Some thermally eligible rung met the effective deadline (tier 1/2 of
  /// the fallback ladder). false = the served rung will miss (tier 3) or
  /// violate the cap (tier 4) — the device should expect degradation.
  bool feasible = false;
  int rung = -1;             ///< Ladder index to run (-1: empty ladder).
  double rung_t_us = 0.0;    ///< Served rung's measured latency.
  double rung_e_uj = 0.0;    ///< Served rung's measured energy.
  double deadline_us = 0.0;  ///< Effective deadline the answer served.
  double cap_mhz = 0.0;      ///< Thermal clock cap applied (0 = uncapped).
  std::uint32_t shed = 0;    ///< Degraded-mode skip hint for the SoC band.
  /// Exact per-layer MCKP re-solve at the cell deadline (present when the
  /// server holds the governor's instance): the energy/latency a custom
  /// schedule built for exactly this deadline would achieve — what the
  /// precomputed rung quantizes.
  bool exact_feasible = false;
  double exact_t_us = 0.0;
  double exact_e_uj = 0.0;
};

/// One-line JSON object of an answer. Locale-independent "%.9g" doubles —
/// the byte format the identity and thread-invariance gates compare.
[[nodiscard]] std::string answer_json(const ScheduleAnswer& a);

/// The batch reply stream: a JSON array, one answer per line, in query
/// order. Byte-identical across thread counts (preassigned reply slots).
void write_answers_json(std::ostream& os,
                        const std::vector<ScheduleAnswer>& answers);

struct ServerConfig {
  StateGrid grid;
  /// Thermal derating curve turning the cell ambient into a clock cap.
  /// Default: derating disabled (mhz_per_c == 0 — no cap at any cell).
  scenario::ThermalDerate derate;
  /// Degraded-mode ladder for the shed hint (scenario::degraded_skip at the
  /// band SoC with zero miss pressure). Default: disabled.
  scenario::DegradedModeSpec degraded;
  /// DP width of the construction-time MCKP sweep.
  int mckp_ticks = 4096;
};

class ScheduleServer {
 public:
  /// `rungs` is the precomputed ladder (ascending latency, the governor's
  /// rungs()); `t_base_us` anchors slack -> deadline. `instance` is the
  /// optional per-layer MCKP instance behind the ladder
  /// (governor.mckp_instance()) enabling the exact re-solve;
  /// `mckp_reserve_us` is the deadline -> capacity reserve
  /// (governor.mckp_reserve_us()).
  ScheduleServer(std::vector<scenario::RungInfo> rungs, double t_base_us,
                 ServerConfig cfg = {}, mckp::Instance instance = {},
                 double mckp_reserve_us = 0.0);

  ScheduleServer(const ScheduleServer&) = delete;
  ScheduleServer& operator=(const ScheduleServer&) = delete;

  /// Counter snapshot — safe to take while queries run; observability
  /// only, never an answer input. Every answer is a table read, so `hits ==
  /// queries` and `misses == evictions == 0`; `dp_solves` is 1 when the
  /// server holds an MCKP instance (the construction-time sweep), else 0.
  struct Stats {
    std::uint64_t queries = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t dp_solves = 0;
    [[nodiscard]] double hit_rate() const {
      const std::uint64_t total = hits + misses;
      return total ? static_cast<double>(hits) / static_cast<double>(total)
                   : 0.0;
    }
  };

  /// Point query: quantize plus table reads. Thread-safe and lock-free.
  [[nodiscard]] ScheduleAnswer answer(const DeviceState& state) const;

  /// answer() without counting the query; equal to it by construction.
  [[nodiscard]] ScheduleAnswer answer_fresh(const DeviceState& state) const;

  /// Batch query: fans the queries out via pool.parallel_for into
  /// preassigned reply slots — reply stream byte-identical across thread
  /// counts — and counts the batch once. Safe to call from a task already
  /// running on `pool` (the nested-parallel_for contract). With a sink,
  /// publishes serve.queries and a kHost "serve_batch" span.
  [[nodiscard]] std::vector<ScheduleAnswer> answer_batch(
      const std::vector<DeviceState>& queries, util::ThreadPool& pool,
      std::int64_t chunk = 64, obs::Sink* sink = nullptr) const;

  [[nodiscard]] QuantizedState quantize(const DeviceState& state) const;

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] const std::vector<scenario::RungInfo>& rungs() const {
    return rungs_;
  }
  [[nodiscard]] const ServerConfig& config() const { return cfg_; }
  [[nodiscard]] double t_base_us() const { return t_base_us_; }

 private:
  std::vector<scenario::RungInfo> rungs_;
  double t_base_us_ = 0.0;
  ServerConfig cfg_;
  double slack_step_ = 0.0;  ///< Grid spacings, hoisted out of quantize().
  double temp_step_ = 0.0;
  std::vector<double> deadline_us_;  ///< Per slack cell.
  std::vector<double> cap_mhz_;      ///< Per temp cell (0 = uncapped).
  /// select_rung under each slack cell's deadline at each temp cell's cap,
  /// temp-major. Tier kTierBudget = some rung met the deadline; otherwise
  /// the pick is the temp cell's fastest eligible or coolest rung.
  std::vector<scenario::RungPick> picks_;
  std::vector<std::uint32_t> shed_;  ///< Per SoC band.
  /// Exact MCKP per slack cell; empty without an instance.
  std::vector<mckp::Solution> exact_;

  mutable std::atomic<std::uint64_t> queries_{0};
};

/// Convenience: a server over a built governor — copies the rung ladder,
/// the retained per-layer MCKP instance and the capacity reserve.
[[nodiscard]] std::unique_ptr<ScheduleServer> make_server(
    const governor::ScheduleGovernor& gov, ServerConfig cfg = {});

}  // namespace daedvfs::serve
