// Multiple-Choice Knapsack Problem (MCKP) solvers — Step 3 of the paper
// (§III-C, Eq. 2-5): pick exactly one Pareto-optimal operating point per
// layer (class) minimizing total energy (value) subject to a latency budget
// (capacity, the QoS).
//
// Kellerer/Pferschy/Pisinger treat MCKP as maximization; the paper converts
// its minimization objective with the standard transform
// v'_kj = max_j(v_kj) - v_kj. We solve the minimization form directly — the
// two are equivalent and direct minimization avoids the constant bookkeeping.
//
// The DP is pseudo-polynomial in the capacity, so weights (microseconds) are
// discretized onto a tick grid chosen to bound the table size; item weights
// are rounded *up*, keeping every solution feasible w.r.t. the true budget
// (a conservative 1-tick-per-class approximation error, bounded and tested).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace daedvfs::mckp {

struct Item {
  double weight = 0.0;  ///< Latency t_kj (us).
  double value = 0.0;   ///< Energy E_kj (uJ).
};

struct Instance {
  std::vector<std::vector<Item>> classes;  ///< One inner vector per layer.
  double capacity = 0.0;                   ///< QoS latency budget.
};

struct Solution {
  bool feasible = false;
  std::vector<int> chosen;  ///< Item index per class.
  double total_weight = 0.0;
  double total_value = 0.0;
};

/// Reusable DP buffers. The explorer pipeline solves many instances of the
/// same shape back to back (QoS sweeps, repair iterations); passing one
/// workspace across solves turns the per-solve O(n * width) allocation of
/// the value/parent tables into a one-time cost.
struct DpWorkspace {
  std::vector<double> dp;
  std::vector<double> next;
  std::vector<int16_t> parent;  ///< Flat n x width table, row-major by class.
};

/// Largest per-class item count the DP solvers accept. The parent table
/// stores item indices as int16_t; a class with more items than this would
/// silently wrap through the cast and backtrack a corrupt solution, so
/// solve_dp / solve_dp_sweep instead treat such an instance as infeasible
/// (solve_dp returns the default Solution; every sweep entry stays
/// infeasible) — the documented contract rather than a corrupt answer.
/// Per-layer Pareto fronts are orders of magnitude below this in practice.
inline constexpr std::size_t kMaxClassItems = 32767;  // INT16_MAX

/// Dynamic-programming solver. `max_ticks` bounds the DP width (capacity is
/// discretized onto that many ticks; larger = finer = slower).
[[nodiscard]] Solution solve_dp(const Instance& inst, int max_ticks = 20000);

/// As above, reusing `ws` buffers across calls.
[[nodiscard]] Solution solve_dp(const Instance& inst, int max_ticks,
                                DpWorkspace& ws);

/// Solves the same item classes at several capacities (a QoS-slack ladder)
/// with ONE DP pass: the table is built on the grid of the largest capacity
/// and each smaller capacity is answered by backtracking from its own budget
/// cell. `inst.capacity` is ignored; one Solution per entry of `capacities`
/// is returned, in order. Weights are rounded up onto the shared grid, so
/// every returned solution is feasible w.r.t. its true capacity; smaller
/// capacities see a coarser effective resolution than a dedicated solve_dp
/// would give them (grid error still bounded by one tick per class).
[[nodiscard]] std::vector<Solution> solve_dp_sweep(
    const Instance& inst, const std::vector<double>& capacities,
    int max_ticks, DpWorkspace& ws);

/// Exhaustive search (exponential) — test oracle for small instances.
[[nodiscard]] Solution solve_brute_force(const Instance& inst);

/// Greedy heuristic: start from the per-class minimum-weight items, then
/// repeatedly take the swap with the best value-decrease per weight-increase
/// that still fits. Fast lower-quality reference for the ablation bench.
[[nodiscard]] Solution solve_greedy(const Instance& inst);

}  // namespace daedvfs::mckp
