#include "mckp/mckp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace daedvfs::mckp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Solution finalize(const Instance& inst, double capacity,
                  std::vector<int> chosen) {
  Solution s;
  s.chosen = std::move(chosen);
  for (std::size_t k = 0; k < inst.classes.size(); ++k) {
    const Item& it =
        inst.classes[k][static_cast<std::size_t>(s.chosen[k])];
    s.total_weight += it.weight;
    s.total_value += it.value;
  }
  s.feasible = s.total_weight <= capacity + 1e-9;
  return s;
}

/// Shared DP grid: weights are discretized onto `width - 1` ticks of size
/// `tick` (the grid of the solve's largest capacity).
struct DpGrid {
  double tick = 1.0;
  int width = 1;

  [[nodiscard]] static DpGrid over(double capacity, int max_ticks) {
    const int ticks = std::max(1, max_ticks);
    DpGrid g;
    // A zero-capacity grid has a single budget cell: only zero-weight items
    // can be selected.
    g.tick = capacity > 0.0 ? capacity / static_cast<double>(ticks) : 1.0;
    g.width = capacity > 0.0 ? ticks + 1 : 1;
    return g;
  }

  /// Item weight in ticks, rounded *up* (keeps every solution feasible
  /// w.r.t. the true budget).
  [[nodiscard]] int64_t to_ticks(double w) const {
    return static_cast<int64_t>(std::ceil(w / tick - 1e-12));
  }

  /// Budget cell of a capacity on this grid, rounded *down*.
  [[nodiscard]] int budget_cell(double capacity) const {
    const auto w = static_cast<int64_t>(std::floor(capacity / tick + 1e-9));
    return static_cast<int>(std::clamp<int64_t>(w, 0, width - 1));
  }
};

/// Fills ws.dp (final row: min value at each budget cell) and ws.parent
/// (per-class choice at each cell) for `inst` on `grid`. Returns false when
/// some class has no items, or when a class exceeds kMaxClassItems — the
/// int16_t parent table cannot index such a class, so the instance is
/// rejected as infeasible instead of wrapping indices into a corrupt
/// backtrack (the documented contract, mckp.hpp). Items apply in ascending
/// order and the strict '<' keeps the first minimum per budget cell.
bool build_dp(const Instance& inst, const DpGrid& grid, DpWorkspace& ws) {
  const std::size_t n = inst.classes.size();
  for (const auto& cls : inst.classes) {
    if (cls.empty() || cls.size() > kMaxClassItems) return false;
  }
  const int width = grid.width;

  // dp[w] = min value achievable using classes 0..k with total weight <= w.
  // The workspace grows monotonically and is reused across solves; only the
  // first `width` (resp. n * width) cells are touched below.
  const auto uwidth = static_cast<std::size_t>(width);
  if (ws.dp.size() < uwidth) ws.dp.resize(uwidth);
  if (ws.next.size() < uwidth) ws.next.resize(uwidth);
  // parent[k * width + w] = item chosen for class k at budget w (int16, flat
  // row-major: one allocation instead of n, reusable across solves).
  if (ws.parent.size() < n * uwidth) ws.parent.resize(n * uwidth);
  std::vector<double>& dp = ws.dp;
  std::vector<double>& next = ws.next;
  std::fill_n(dp.begin(), uwidth, kInf);
  std::fill_n(ws.parent.begin(), n * uwidth, static_cast<int16_t>(-1));
  const auto parent_row = [&](std::size_t k) {
    return ws.parent.data() + k * uwidth;
  };
  // Item weight in ticks; `width` (no budget cell fits it) skips the item.
  const auto item_ticks = [&](const Item& it) {
    const int64_t wt = grid.to_ticks(it.weight);
    return wt < width ? static_cast<int>(wt) : width;
  };

  // Class 0 seeds the table.
  int16_t* par0 = parent_row(0);
  const std::vector<Item>& cls0 = inst.classes[0];
  for (std::size_t j = 0; j < cls0.size(); ++j) {
    const double value = cls0[j].value;
    for (int w = item_ticks(cls0[j]); w < width; ++w) {
      if (value < dp[static_cast<std::size_t>(w)]) {
        dp[static_cast<std::size_t>(w)] = value;
        par0[static_cast<std::size_t>(w)] = static_cast<int16_t>(j);
      }
    }
  }

  for (std::size_t k = 1; k < n; ++k) {
    std::fill_n(next.begin(), uwidth, kInf);
    int16_t* par = parent_row(k);
    const std::vector<Item>& cls = inst.classes[k];
    // dp is non-increasing in w, so its finite cells are the suffix from
    // first_finite on; starting each item there skips exactly the cells
    // whose base is kInf.
    const int first_finite = static_cast<int>(
        std::find_if(dp.begin(), dp.begin() + width,
                     [](double d) { return d != kInf; }) -
        dp.begin());
    for (std::size_t j = 0; j < cls.size(); ++j) {
      const int wt = item_ticks(cls[j]);
      const double value = cls[j].value;
      for (int w = wt + first_finite; w < width; ++w) {
        const double base = dp[static_cast<std::size_t>(w - wt)];
        const double v = base + value;
        if (v < next[static_cast<std::size_t>(w)]) {
          next[static_cast<std::size_t>(w)] = v;
          par[static_cast<std::size_t>(w)] = static_cast<int16_t>(j);
        }
      }
    }
    dp.swap(next);
  }
  return true;
}

/// Backtracks one solution from budget cell `w_start`. dp[w] is monotone
/// non-increasing in w, so the optimum for a capacity sits at its own cell.
std::vector<int> backtrack(const Instance& inst, const DpGrid& grid,
                           const DpWorkspace& ws, int w_start) {
  const std::size_t n = inst.classes.size();
  const auto uwidth = static_cast<std::size_t>(grid.width);
  std::vector<int> chosen(n, -1);
  int w = w_start;
  for (std::size_t k = n; k-- > 0;) {
    const int16_t* par = ws.parent.data() + k * uwidth;
    const int16_t j = par[static_cast<std::size_t>(w)];
    // Every finite dp cell records a parent: next[w]/par[w] are only ever
    // written together, and an exactly-one-item-per-class DP has no
    // inherit-without-choice transition. A missing parent at a cell the
    // caller verified finite therefore means the table is corrupt — fail
    // loudly (empty solution) instead of scanning down to a different cell
    // and returning a silently wrong assignment.
    if (j < 0) return {};
    chosen[k] = j;
    w -= static_cast<int>(grid.to_ticks(
        inst.classes[k][static_cast<std::size_t>(j)].weight));
  }
  return chosen;
}

}  // namespace

Solution solve_dp(const Instance& inst, int max_ticks) {
  DpWorkspace ws;
  return solve_dp(inst, max_ticks, ws);
}

Solution solve_dp(const Instance& inst, int max_ticks, DpWorkspace& ws) {
  if (inst.classes.empty()) {
    Solution s;
    s.feasible = true;
    return s;
  }
  const DpGrid grid = DpGrid::over(inst.capacity, max_ticks);
  if (!build_dp(inst, grid, ws)) return {};
  if (ws.dp[static_cast<std::size_t>(grid.width - 1)] == kInf) return {};
  std::vector<int> chosen = backtrack(inst, grid, ws, grid.width - 1);
  if (chosen.empty()) return {};
  return finalize(inst, inst.capacity, std::move(chosen));
}

std::vector<Solution> solve_dp_sweep(const Instance& inst,
                                     const std::vector<double>& capacities,
                                     int max_ticks, DpWorkspace& ws) {
  std::vector<Solution> out(capacities.size());
  if (capacities.empty()) return out;
  if (inst.classes.empty()) {
    for (Solution& s : out) s.feasible = true;
    return out;
  }
  double cap_max = 0.0;
  for (double c : capacities) cap_max = std::max(cap_max, c);
  const DpGrid grid = DpGrid::over(cap_max, max_ticks);
  if (!build_dp(inst, grid, ws)) return out;  // all infeasible

  for (std::size_t i = 0; i < capacities.size(); ++i) {
    if (capacities[i] < 0.0) continue;
    const int cell = grid.budget_cell(capacities[i]);
    if (ws.dp[static_cast<std::size_t>(cell)] == kInf) continue;
    std::vector<int> chosen = backtrack(inst, grid, ws, cell);
    if (chosen.empty()) continue;
    out[i] = finalize(inst, capacities[i], std::move(chosen));
  }
  return out;
}

Solution solve_brute_force(const Instance& inst) {
  const std::size_t n = inst.classes.size();
  Solution best;
  best.total_value = kInf;
  std::vector<int> idx(n, 0);
  while (true) {
    double w = 0.0, v = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      const Item& it = inst.classes[k][static_cast<std::size_t>(idx[k])];
      w += it.weight;
      v += it.value;
    }
    if (w <= inst.capacity + 1e-9 && v < best.total_value) {
      best.feasible = true;
      best.chosen = idx;
      best.total_weight = w;
      best.total_value = v;
    }
    // Odometer increment.
    std::size_t k = 0;
    for (; k < n; ++k) {
      if (++idx[k] < static_cast<int>(inst.classes[k].size())) break;
      idx[k] = 0;
    }
    if (k == n) break;
  }
  if (!best.feasible) return {};
  return best;
}

Solution solve_greedy(const Instance& inst) {
  const std::size_t n = inst.classes.size();
  std::vector<int> chosen(n);
  double weight = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    if (inst.classes[k].empty()) return {};
    // Start from the min-weight item of each class.
    int best = 0;
    for (std::size_t j = 1; j < inst.classes[k].size(); ++j) {
      if (inst.classes[k][j].weight <
          inst.classes[k][static_cast<std::size_t>(best)].weight) {
        best = static_cast<int>(j);
      }
    }
    chosen[k] = best;
    weight += inst.classes[k][static_cast<std::size_t>(best)].weight;
  }
  if (weight > inst.capacity + 1e-9) return {};  // even the fastest overruns

  // Repeatedly apply the best value-per-weight swap that still fits.
  while (true) {
    double best_ratio = 0.0;
    std::size_t best_k = n;
    int best_j = -1;
    for (std::size_t k = 0; k < n; ++k) {
      const Item& cur = inst.classes[k][static_cast<std::size_t>(chosen[k])];
      for (std::size_t j = 0; j < inst.classes[k].size(); ++j) {
        const Item& it = inst.classes[k][j];
        const double dv = cur.value - it.value;   // energy saved
        const double dw = it.weight - cur.weight; // latency added
        if (dv <= 0.0) continue;
        if (weight + dw > inst.capacity + 1e-9) continue;
        const double ratio = dw > 0.0 ? dv / dw : kInf;
        if (ratio > best_ratio) {
          best_ratio = ratio;
          best_k = k;
          best_j = static_cast<int>(j);
        }
      }
    }
    if (best_j < 0) break;
    weight += inst.classes[best_k][static_cast<std::size_t>(best_j)].weight -
              inst.classes[best_k][static_cast<std::size_t>(chosen[best_k])]
                  .weight;
    chosen[best_k] = best_j;
  }
  return finalize(inst, inst.capacity, std::move(chosen));
}

}  // namespace daedvfs::mckp
