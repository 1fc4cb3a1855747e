// MCKP solver tests: DP optimality vs exhaustive search (property-based over
// random instances), feasibility edges, discretization conservativeness, and
// solver-quality ordering (DP <= greedy <= any feasible).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "mckp/mckp.hpp"

namespace daedvfs::mckp {
namespace {

Instance random_instance(uint32_t seed, int n_classes, int items_per_class,
                         double tightness) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> w(1.0, 100.0);
  std::uniform_real_distribution<double> v(1.0, 50.0);
  Instance inst;
  double min_total = 0.0, max_total = 0.0;
  for (int k = 0; k < n_classes; ++k) {
    std::vector<Item> cls;
    double wmin = 1e18, wmax = 0.0;
    for (int j = 0; j < items_per_class; ++j) {
      cls.push_back({w(rng), v(rng)});
      wmin = std::min(wmin, cls.back().weight);
      wmax = std::max(wmax, cls.back().weight);
    }
    min_total += wmin;
    max_total += wmax;
    inst.classes.push_back(std::move(cls));
  }
  inst.capacity = min_total + tightness * (max_total - min_total);
  return inst;
}

TEST(Dp, TrivialSingleClass) {
  Instance inst;
  inst.classes = {{{5.0, 10.0}, {2.0, 20.0}, {8.0, 1.0}}};
  inst.capacity = 6.0;
  const Solution s = solve_dp(inst);
  ASSERT_TRUE(s.feasible);
  EXPECT_EQ(s.chosen[0], 0);  // weight 5, value 10 (8 doesn't fit)
  EXPECT_DOUBLE_EQ(s.total_value, 10.0);
}

TEST(Dp, InfeasibleWhenNothingFits) {
  Instance inst;
  inst.classes = {{{5.0, 1.0}}, {{6.0, 1.0}}};
  inst.capacity = 8.0;
  EXPECT_FALSE(solve_dp(inst).feasible);
}

TEST(Dp, EmptyClassIsInfeasible) {
  Instance inst;
  inst.classes = {{{1.0, 1.0}}, {}};
  inst.capacity = 10.0;
  EXPECT_FALSE(solve_dp(inst).feasible);
}

TEST(Dp, EmptyInstanceIsTriviallyFeasible) {
  EXPECT_TRUE(solve_dp(Instance{}).feasible);
}

TEST(Dp, ExactlyOneItemPerClass) {
  const Instance inst = random_instance(1, 12, 6, 0.5);
  const Solution s = solve_dp(inst);
  ASSERT_TRUE(s.feasible);
  ASSERT_EQ(s.chosen.size(), inst.classes.size());
  for (std::size_t k = 0; k < inst.classes.size(); ++k) {
    EXPECT_GE(s.chosen[k], 0);
    EXPECT_LT(s.chosen[k],
              static_cast<int>(inst.classes[k].size()));
  }
}

TEST(Dp, SolutionRespectsTrueCapacity) {
  // Weights are rounded *up* in the DP, so the reported solution must be
  // feasible under the exact (unrounded) weights.
  for (uint32_t seed = 0; seed < 20; ++seed) {
    const Instance inst = random_instance(seed, 15, 8, 0.3);
    const Solution s = solve_dp(inst, 5000);
    if (!s.feasible) continue;
    EXPECT_LE(s.total_weight, inst.capacity + 1e-9) << "seed " << seed;
  }
}

/// Property: DP matches exhaustive search on small instances, up to the
/// bounded discretization error (tick = capacity / ticks per class).
class DpOptimality : public ::testing::TestWithParam<uint32_t> {};

TEST_P(DpOptimality, MatchesBruteForce) {
  const Instance inst = random_instance(GetParam(), 6, 4, 0.45);
  const Solution dp = solve_dp(inst, 20000);
  const Solution bf = solve_brute_force(inst);
  ASSERT_EQ(dp.feasible, bf.feasible);
  if (!bf.feasible) return;
  // Discretization can cost a little optimality; with 20k ticks on a 6-class
  // instance the loss is bounded by ~6 ticks of weight -> tiny value delta.
  EXPECT_LE(dp.total_value, bf.total_value * 1.02 + 1e-9)
      << "DP must be within 2% of the exhaustive optimum";
  EXPECT_GE(dp.total_value, bf.total_value - 1e-9)
      << "DP cannot beat the true optimum";
}

INSTANTIATE_TEST_SUITE_P(Seeds, DpOptimality,
                         ::testing::Range(0u, 25u));

/// Property: greedy is feasible but never better than DP.
class GreedyQuality : public ::testing::TestWithParam<uint32_t> {};

TEST_P(GreedyQuality, NeverBeatsDp) {
  const Instance inst = random_instance(GetParam() + 100, 10, 6, 0.4);
  const Solution dp = solve_dp(inst, 20000);
  const Solution greedy = solve_greedy(inst);
  ASSERT_EQ(dp.feasible, greedy.feasible);
  if (!dp.feasible) return;
  EXPECT_LE(greedy.total_weight, inst.capacity + 1e-9);
  EXPECT_GE(greedy.total_value, dp.total_value - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyQuality, ::testing::Range(0u, 15u));

TEST(Dp, MonotoneInCapacity) {
  const Instance base = random_instance(5, 10, 6, 0.3);
  Instance relaxed = base;
  relaxed.capacity *= 1.5;
  const Solution tight = solve_dp(base);
  const Solution loose = solve_dp(relaxed);
  ASSERT_TRUE(tight.feasible);
  ASSERT_TRUE(loose.feasible);
  EXPECT_LE(loose.total_value, tight.total_value + 1e-9)
      << "more budget can only reduce the optimal energy";
}

TEST(Dp, ZeroCapacityNeedsZeroWeightItems) {
  Instance inst;
  inst.classes = {{{0.0, 3.0}, {1.0, 1.0}}};
  inst.capacity = 0.0;
  const Solution s = solve_dp(inst);
  ASSERT_TRUE(s.feasible);
  EXPECT_EQ(s.chosen[0], 0);
}

TEST(Greedy, StartsAtMinWeightAndImproves) {
  Instance inst;
  // Class with a clear energy-per-time trade: fastest is costly.
  inst.classes = {{{10.0, 100.0}, {20.0, 10.0}}};
  inst.capacity = 25.0;
  const Solution s = solve_greedy(inst);
  ASSERT_TRUE(s.feasible);
  EXPECT_EQ(s.chosen[0], 1) << "greedy should take the cheap slower item";
}

TEST(Greedy, InfeasibleWhenFastestOverruns) {
  Instance inst;
  inst.classes = {{{10.0, 1.0}}, {{10.0, 1.0}}};
  inst.capacity = 15.0;
  EXPECT_FALSE(solve_greedy(inst).feasible);
}

TEST(Dp, SharedWorkspaceMatchesFreshAcrossRepeatedSolves) {
  // The explorer issues many DP solves back to back; a shared workspace must
  // not leak state between them, including across instances of different
  // shape (wider then narrower).
  DpWorkspace ws;
  for (uint32_t seed : {60u, 61u, 62u, 63u}) {
    for (int n : {8, 3, 12, 5}) {
      const Instance inst = random_instance(seed + static_cast<uint32_t>(n),
                                            n, 4, 0.5);
      const Solution fresh = solve_dp(inst, 600);
      const Solution reused = solve_dp(inst, 600, ws);
      ASSERT_EQ(fresh.feasible, reused.feasible);
      if (!fresh.feasible) continue;
      EXPECT_EQ(fresh.chosen, reused.chosen);
      EXPECT_DOUBLE_EQ(fresh.total_value, reused.total_value);
      EXPECT_DOUBLE_EQ(fresh.total_weight, reused.total_weight);
    }
  }
}

TEST(DpSweep, SingleCapacityMatchesSolveDpBitwise) {
  // The sweep with one capacity builds the exact grid solve_dp would, so
  // the answers must coincide bit for bit.
  DpWorkspace ws_a, ws_b;
  for (uint32_t seed = 0; seed < 10; ++seed) {
    const Instance inst = random_instance(seed, 9, 5, 0.4);
    const Solution solo = solve_dp(inst, 5000, ws_a);
    const std::vector<Solution> sweep =
        solve_dp_sweep(inst, {inst.capacity}, 5000, ws_b);
    ASSERT_EQ(sweep.size(), 1u);
    ASSERT_EQ(solo.feasible, sweep[0].feasible) << "seed " << seed;
    if (!solo.feasible) continue;
    EXPECT_EQ(solo.chosen, sweep[0].chosen) << "seed " << seed;
    EXPECT_DOUBLE_EQ(solo.total_value, sweep[0].total_value);
    EXPECT_DOUBLE_EQ(solo.total_weight, sweep[0].total_weight);
  }
}

TEST(DpSweep, LadderIsFeasibleAndMonotone) {
  DpWorkspace ws;
  for (uint32_t seed = 30; seed < 40; ++seed) {
    const Instance inst = random_instance(seed, 12, 6, 0.2);
    const std::vector<double> caps = {inst.capacity, inst.capacity * 1.2,
                                      inst.capacity * 1.6,
                                      inst.capacity * 2.5};
    const std::vector<Solution> sols = solve_dp_sweep(inst, caps, 20000, ws);
    ASSERT_EQ(sols.size(), caps.size());
    double prev_value = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < sols.size(); ++i) {
      if (!sols[i].feasible) continue;
      EXPECT_LE(sols[i].total_weight, caps[i] + 1e-9)
          << "seed " << seed << " cap " << i;
      EXPECT_LE(sols[i].total_value, prev_value + 1e-9)
          << "more budget can only reduce the optimal energy";
      prev_value = sols[i].total_value;
    }
    EXPECT_TRUE(sols.back().feasible) << "widest budget must be feasible";
  }
}

TEST(DpSweep, NearOptimalAtEveryRung) {
  // Each rung's answer is optimal on the shared grid; vs the exhaustive
  // optimum at that capacity the loss is bounded by the per-class rounding
  // (n ticks of the largest-capacity grid).
  for (uint32_t seed = 50; seed < 60; ++seed) {
    const Instance inst = random_instance(seed, 6, 4, 0.45);
    const std::vector<double> caps = {inst.capacity, inst.capacity * 1.3,
                                      inst.capacity * 2.0};
    DpWorkspace ws;
    const std::vector<Solution> sols = solve_dp_sweep(inst, caps, 20000, ws);
    for (std::size_t i = 0; i < caps.size(); ++i) {
      Instance at_cap = inst;
      at_cap.capacity = caps[i];
      const Solution bf = solve_brute_force(at_cap);
      if (!bf.feasible) {
        continue;  // sweep may also be infeasible from rounding; fine
      }
      if (!sols[i].feasible) continue;
      EXPECT_GE(sols[i].total_value, bf.total_value - 1e-9)
          << "cannot beat the true optimum";
      EXPECT_LE(sols[i].total_value, bf.total_value * 1.03 + 1e-9)
          << "seed " << seed << " cap " << i;
    }
  }
}

TEST(DpSweep, InfeasibleRungsAreMarked) {
  Instance inst;
  inst.classes = {{{5.0, 1.0}}, {{6.0, 2.0}}};
  DpWorkspace ws;
  // Note 11.0 (the exact weight sum) lands infeasible: item weights round
  // *up* onto the shared grid — the same conservatism solve_dp applies.
  const std::vector<Solution> sols =
      solve_dp_sweep(inst, {4.0, 10.9, 11.01, 30.0, -1.0}, 20000, ws);
  EXPECT_FALSE(sols[0].feasible);
  EXPECT_FALSE(sols[1].feasible);
  EXPECT_TRUE(sols[2].feasible);
  EXPECT_TRUE(sols[3].feasible);
  EXPECT_FALSE(sols[4].feasible) << "negative capacity";
  EXPECT_DOUBLE_EQ(sols[3].total_value, 3.0);
}

TEST(DpSweep, EmptyInstanceAndEmptyCapacities) {
  DpWorkspace ws;
  EXPECT_TRUE(solve_dp_sweep(Instance{}, {5.0}, 100, ws)[0].feasible);
  EXPECT_TRUE(solve_dp_sweep(Instance{}, {5.0}, 100, ws)[0].chosen.empty());
  Instance inst;
  inst.classes = {{{1.0, 1.0}}};
  EXPECT_TRUE(solve_dp_sweep(inst, {}, 100, ws).empty());
}

/// Property: on a multi-rung ladder whose LARGEST capacity equals
/// inst.capacity, the sweep's answer at that rung is bitwise identical to a
/// dedicated solve_dp — the shared grid is built on the largest capacity,
/// so that rung sees exactly the dedicated solve's discretization. The
/// serving layer leans on this: its memoized sweep must not be a weaker
/// oracle than per-deadline solves.
class SweepCapMaxIdentity : public ::testing::TestWithParam<uint32_t> {};

TEST_P(SweepCapMaxIdentity, MatchesDedicatedSolveDp) {
  const uint32_t seed = GetParam();
  const Instance inst = random_instance(seed, 10, 5, 0.35);
  const std::vector<double> caps = {inst.capacity * 0.4, inst.capacity * 0.7,
                                    inst.capacity * 0.85, inst.capacity};
  DpWorkspace ws_sweep, ws_solo;
  const std::vector<Solution> sweep = solve_dp_sweep(inst, caps, 8000,
                                                     ws_sweep);
  const Solution solo = solve_dp(inst, 8000, ws_solo);
  ASSERT_EQ(sweep.size(), caps.size());
  const Solution& at_max = sweep.back();
  ASSERT_EQ(at_max.feasible, solo.feasible) << "seed " << seed;
  if (!solo.feasible) return;
  EXPECT_EQ(at_max.chosen, solo.chosen) << "seed " << seed;
  EXPECT_EQ(at_max.total_value, solo.total_value) << "seed " << seed;
  EXPECT_EQ(at_max.total_weight, solo.total_weight) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SweepCapMaxIdentity, ::testing::Range(0u, 20u));

/// The DP as it reads without the finite-suffix start: every item scans
/// every budget cell from its own weight on and skips an infinite base per
/// cell. Same grid, tie rule (first minimum), backtrack and totals as
/// solve_dp / solve_dp_sweep, so their answers must match it exactly.
class NaiveDp {
 public:
  NaiveDp(const Instance& inst, double grid_capacity, int max_ticks)
      : inst_(inst) {
    const int ticks = std::max(1, max_ticks);
    tick_ = grid_capacity > 0.0 ? grid_capacity / ticks : 1.0;
    width_ = grid_capacity > 0.0 ? ticks + 1 : 1;
    const auto uw = static_cast<std::size_t>(width_);
    dp_.assign(uw, kInf);
    parent_.assign(inst.classes.size(), std::vector<int>(uw, -1));
    for (std::size_t k = 0; k < inst.classes.size(); ++k) {
      std::vector<double> next(uw, kInf);
      for (std::size_t j = 0; j < inst.classes[k].size(); ++j) {
        const Item& it = inst.classes[k][j];
        const int64_t wt = ticks_of(it.weight);
        for (int64_t w = wt; w < width_; ++w) {
          const double base =
              k == 0 ? 0.0 : dp_[static_cast<std::size_t>(w - wt)];
          if (base == kInf) continue;
          const double v = k == 0 ? it.value : base + it.value;
          if (v < next[static_cast<std::size_t>(w)]) {
            next[static_cast<std::size_t>(w)] = v;
            parent_[k][static_cast<std::size_t>(w)] = static_cast<int>(j);
          }
        }
      }
      dp_ = std::move(next);
    }
  }

  /// solve_dp's answer when built on inst.capacity.
  [[nodiscard]] Solution solve() const {
    return answer(width_ - 1, inst_.capacity);
  }

  /// solve_dp_sweep's answer at `capacity` on this (largest-capacity) grid.
  [[nodiscard]] Solution at(double capacity) const {
    if (capacity < 0.0) return {};
    const auto cell = static_cast<int64_t>(std::floor(capacity / tick_ + 1e-9));
    return answer(static_cast<int>(std::clamp<int64_t>(cell, 0, width_ - 1)),
                  capacity);
  }

 private:
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  [[nodiscard]] int64_t ticks_of(double weight) const {
    return static_cast<int64_t>(std::ceil(weight / tick_ - 1e-12));
  }

  [[nodiscard]] Solution answer(int cell, double capacity) const {
    if (dp_[static_cast<std::size_t>(cell)] == kInf) return {};
    Solution s;
    s.chosen.assign(inst_.classes.size(), -1);
    int64_t w = cell;
    for (std::size_t k = inst_.classes.size(); k-- > 0;) {
      const int j = parent_[k][static_cast<std::size_t>(w)];
      s.chosen[k] = j;
      w -= ticks_of(inst_.classes[k][static_cast<std::size_t>(j)].weight);
    }
    for (std::size_t k = 0; k < inst_.classes.size(); ++k) {
      const Item& it =
          inst_.classes[k][static_cast<std::size_t>(s.chosen[k])];
      s.total_weight += it.weight;
      s.total_value += it.value;
    }
    s.feasible = s.total_weight <= capacity + 1e-9;
    return s;
  }

  const Instance& inst_;
  double tick_ = 1.0;
  int width_ = 1;
  std::vector<double> dp_;
  std::vector<std::vector<int>> parent_;
};

/// Random instance with the DP's corner cases: zero-weight items, items
/// heavier than the capacity, repeated values (ties), zero capacity, and
/// classes whose minimum weights sum past the capacity, which pushes the
/// finite suffix of the table past the grid's last cell.
Instance corner_instance(std::mt19937& rng) {
  std::uniform_int_distribution<int> n_classes(1, 7);
  std::uniform_int_distribution<int> n_items(1, 6);
  std::uniform_int_distribution<int> pick(0, 9);
  std::uniform_real_distribution<double> weight(0.0, 40.0);
  std::uniform_int_distribution<int> value(1, 12);  // small ints: many ties
  Instance inst;
  double min_total = 0.0;
  const int n = n_classes(rng);
  for (int k = 0; k < n; ++k) {
    std::vector<Item> cls;
    double wmin = std::numeric_limits<double>::infinity();
    const int m = n_items(rng);
    for (int j = 0; j < m; ++j) {
      const int kind = pick(rng);
      const double w = kind == 0   ? 0.0
                       : kind == 1 ? 1000.0 + weight(rng)
                                   : weight(rng);
      cls.push_back({w, static_cast<double>(value(rng)) +
                            (pick(rng) == 0 ? 0.5 : 0.0)});
      wmin = std::min(wmin, w);
    }
    min_total += wmin;
    inst.classes.push_back(std::move(cls));
  }
  const int cap_kind = pick(rng);
  inst.capacity = cap_kind == 0   ? 0.0
                  : cap_kind == 1 ? 0.5 * min_total
                                  : min_total + weight(rng) * n * 0.5;
  return inst;
}

void expect_identical(const Solution& got, const Solution& want,
                      const std::string& where) {
  ASSERT_EQ(got.feasible, want.feasible) << where;
  if (!want.feasible) return;
  EXPECT_EQ(got.chosen, want.chosen) << where;
  EXPECT_EQ(got.total_value, want.total_value) << where;
  EXPECT_EQ(got.total_weight, want.total_weight) << where;
}

TEST(Dp, MatchesNaiveDpOnCornerInstances) {
  std::mt19937 rng(0xd9);
  std::uniform_int_distribution<int> ticks(1, 300);
  DpWorkspace ws;
  int feasible = 0, infeasible = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const Instance inst = corner_instance(rng);
    const int max_ticks = ticks(rng);
    const std::string where = "trial " + std::to_string(trial);

    const NaiveDp naive(inst, inst.capacity, max_ticks);

    const Solution solo = solve_dp(inst, max_ticks, ws);
    expect_identical(solo, naive.solve(), where);
    (solo.feasible ? feasible : infeasible) += 1;

    const std::vector<double> caps = {inst.capacity * 0.3, 0.0, -1.0,
                                      inst.capacity * 0.7, inst.capacity};
    const std::vector<Solution> sweep =
        solve_dp_sweep(inst, caps, max_ticks, ws);
    ASSERT_EQ(sweep.size(), caps.size());
    for (std::size_t i = 0; i < caps.size(); ++i) {
      expect_identical(sweep[i], naive.at(caps[i]),
                       where + " cap " + std::to_string(i));
    }
  }
  // The stream must reach both outcomes, or one side of the suffix start
  // went untested.
  EXPECT_GT(feasible, 50);
  EXPECT_GT(infeasible, 50);
}

TEST(Dp, OversizeClassIsRejectedNotWrapped) {
  // A class with more than kMaxClassItems items cannot be indexed by the
  // int16_t parent table; build_dp must report infeasible instead of
  // wrapping the item index.
  Instance inst;
  inst.classes.emplace_back();
  std::vector<Item>& cls = inst.classes.back();
  cls.reserve(kMaxClassItems + 1);
  for (std::size_t j = 0; j < kMaxClassItems + 1; ++j) {
    cls.push_back({1.0, static_cast<double>(j)});
  }
  inst.capacity = 10.0;
  EXPECT_FALSE(solve_dp(inst, 64).feasible);
  DpWorkspace ws;
  const std::vector<Solution> sweep = solve_dp_sweep(inst, {10.0}, 64, ws);
  EXPECT_FALSE(sweep[0].feasible);

  // Exactly at the limit is still solvable.
  cls.resize(kMaxClassItems);
  const Solution at_limit = solve_dp(inst, 64);
  ASSERT_TRUE(at_limit.feasible);
  EXPECT_EQ(at_limit.chosen[0], 0) << "min-value item of the class";
}

}  // namespace
}  // namespace daedvfs::mckp
