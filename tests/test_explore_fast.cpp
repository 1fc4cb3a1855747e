// Tests for the fast exploration machinery: profile memoization must be
// exact (bitwise equal to the serial unmemoized sweep), parallel profiling
// must be deterministic for any thread count, persistent caches must carry
// profiles across calls, and frequency replay must preserve the Pareto
// fronts it feeds to the MCKP.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "dse/explorer.hpp"
#include "dse/freq_replay.hpp"
#include "dse/profile_cache.hpp"
#include "graph/builder.hpp"

namespace daedvfs::dse {
namespace {

/// Two structurally identical dw/pw blocks back to back (the MobileNet
/// repetition pattern the memoization targets) plus a unique head/tail.
graph::Model repeated_block_model() {
  graph::ModelBuilder b("repeat", 24, 24, 3, 7);
  int x = b.conv2d(graph::ModelBuilder::input(), 8, 3, 2, true);
  for (int i = 0; i < 3; ++i) {
    x = b.depthwise(x, 3, 1, true);
    x = b.pointwise(x, 8, false);
  }
  b.pointwise(x, 16, true);
  return b.take();
}

void expect_sets_equal(const std::vector<LayerSolutionSet>& a,
                       const std::vector<LayerSolutionSet>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].all.size(), b[i].all.size()) << "layer " << i;
    for (std::size_t j = 0; j < a[i].all.size(); ++j) {
      const LayerSolution& sa = a[i].all[j];
      const LayerSolution& sb = b[i].all[j];
      EXPECT_EQ(sa.granularity, sb.granularity);
      EXPECT_EQ(sa.hfo, sb.hfo);
      EXPECT_DOUBLE_EQ(sa.t_us, sb.t_us) << "layer " << i << " cand " << j;
      EXPECT_DOUBLE_EQ(sa.energy_uj, sb.energy_uj)
          << "layer " << i << " cand " << j;
    }
    ASSERT_EQ(a[i].pareto.size(), b[i].pareto.size()) << "layer " << i;
  }
}

TEST(ExploreFast, MemoizedEqualsSerialUnmemoizedBitwise) {
  const graph::Model m = repeated_block_model();
  const power::PowerModel pm;
  const DesignSpace ds = make_reduced_design_space(pm);

  ExploreOptions serial;
  serial.memoize = false;
  serial.num_threads = 1;
  const auto baseline = explore_model(m, ds, serial);

  ExploreOptions fast;
  fast.memoize = true;
  fast.num_threads = 4;
  ExploreStats st;
  const auto memoized = explore_model(m, ds, fast, &st);

  expect_sets_equal(baseline, memoized);
  // The repeated blocks must actually be served from the memo.
  EXPECT_GT(st.cache_hits, 0);
  EXPECT_LT(st.profiled, st.total_candidates);
  EXPECT_EQ(st.pruned, 0);
}

TEST(ExploreFast, DeterministicAcrossThreadCounts) {
  const graph::Model m = repeated_block_model();
  const power::PowerModel pm;
  const DesignSpace ds = make_reduced_design_space(pm);
  ExploreOptions one;
  one.num_threads = 1;
  ExploreOptions many;
  many.num_threads = 8;
  expect_sets_equal(explore_model(m, ds, one), explore_model(m, ds, many));
}

TEST(ExploreFast, PersistentCacheServesSecondCallEntirely) {
  const graph::Model m = repeated_block_model();
  const power::PowerModel pm;
  const DesignSpace ds = make_reduced_design_space(pm);
  ProfileCache cache;
  ExploreOptions opts;
  opts.cache = &cache;
  ExploreStats first, second;
  const auto a = explore_model(m, ds, opts, &first);
  const auto b = explore_model(m, ds, opts, &second);
  EXPECT_GT(first.profiled, 0);
  EXPECT_EQ(second.profiled, 0) << "second sweep must be fully cached";
  EXPECT_EQ(second.cache_hits, second.total_candidates);
  expect_sets_equal(a, b);
}

TEST(ExploreFast, CacheKeySeparatesSimParameterizations) {
  const graph::Model m = repeated_block_model();
  const power::PowerModel pm;
  const DesignSpace ds = make_reduced_design_space(pm);
  ProfileCache cache;
  ExploreOptions opts;
  opts.cache = &cache;
  const auto a = explore_model(m, ds, opts);
  opts.sim.cost.cycles_per_mac *= 2.0;  // different machine: must re-profile
  ExploreStats st;
  const auto b = explore_model(m, ds, opts, &st);
  EXPECT_GT(st.profiled, 0);
  EXPECT_GT(b[1].all[0].t_us, a[1].all[0].t_us);
}

TEST(ExploreFast, IsolatedProfileIsAPureFunctionOfTheSignature) {
  // Two models whose layer 1 is structurally identical but placed behind
  // different predecessors (different arena offsets, weight addresses):
  // canonical profiling must yield identical numbers.
  graph::ModelBuilder b1("m1", 16, 16, 3, 11);
  const int c1 = b1.conv2d(graph::ModelBuilder::input(), 8, 3, 1, true);
  b1.depthwise(c1, 3, 1, true);
  graph::Model m1 = b1.take();

  graph::ModelBuilder b2("m2", 16, 16, 8, 99);  // no conv in front
  b2.depthwise(graph::ModelBuilder::input(), 3, 1, true);
  graph::Model m2 = b2.take();

  const graph::LayerSpec& l1 = m1.layers()[1];
  const graph::LayerSpec& l2 = m2.layers()[0];
  ASSERT_EQ(layer_signature(m1, l1), layer_signature(m2, l2));

  ExploreOptions opts;
  LayerSolution cand;
  cand.granularity = 4;
  cand.dvfs_enabled = true;
  cand.hfo = clock::ClockConfig::pll_hse(50.0, 25, 216, 2);
  const clock::ClockConfig lfo = clock::ClockConfig::hse_direct(50.0);
  const LayerSolution p1 = profile_candidate_isolated(m1, 1, cand, lfo, opts);
  const LayerSolution p2 = profile_candidate_isolated(m2, 0, cand, lfo, opts);
  EXPECT_DOUBLE_EQ(p1.t_us, p2.t_us);
  EXPECT_DOUBLE_EQ(p1.energy_uj, p2.energy_uj);
}

TEST(ExploreFast, SharedCacheKeepsReplayAndExactEntriesApart) {
  // Replayed profiles are ~1e-12-accurate, not bitwise; a cache shared
  // between a replay-mode and an exact-mode explore must never serve one
  // mode's entries to the other.
  const graph::Model m = repeated_block_model();
  const power::PowerModel pm;
  const DesignSpace ds = make_reduced_design_space(pm);
  ProfileCache cache;
  ExploreOptions replay_opts;
  replay_opts.cache = &cache;
  replay_opts.freq_replay = true;
  (void)explore_model(m, ds, replay_opts);

  ExploreOptions exact_opts;
  exact_opts.cache = &cache;
  ExploreStats st;
  const auto warm = explore_model(m, ds, exact_opts, &st);
  EXPECT_GT(st.profiled, 0) << "exact mode must not reuse replayed entries";

  ExploreOptions fresh_opts;
  const auto fresh = explore_model(m, ds, fresh_opts);
  expect_sets_equal(fresh, warm);
}

TEST(FreqReplay, MatchesDirectSimulationToReassociationError) {
  // Profile one candidate with a ledger, replay to every other HFO of the
  // paper space, and compare against direct simulation of that HFO: the
  // replay must agree to FP-reassociation error. Two non-PLL pairs ride
  // along: with no PLL locked, which oscillators run during LFO segments
  // follows the active source alone (an HSE-direct HFO stops drawing the
  // crystal while the HSI drives SYSCLK, and vice versa).
  const graph::Model m = repeated_block_model();
  const power::PowerModel pm;
  const DesignSpace ds = make_paper_design_space(pm);
  struct Pair {
    clock::ClockConfig lfo;
    std::vector<clock::ClockConfig> hfos;  ///< front() is the reference.
  };
  const clock::ClockConfig hse50 = clock::ClockConfig::hse_direct(50.0);
  const clock::ClockConfig hsi = clock::ClockConfig::hsi_direct();
  const std::vector<Pair> pairs = {
      {ds.lfo, ds.hfo_configs}, {hsi, {hse50}}, {hse50, {hsi}}};
  ExploreOptions opts;
  for (const Pair& pair : pairs) {
    for (int layer_idx : {0, 1, 2}) {   // conv (no dvfs), dw, pw
      for (int g : m.layers()[static_cast<std::size_t>(layer_idx)]
                           .is_dae_eligible()
                       ? std::vector<int>{0, 4, 16}
                       : std::vector<int>{0}) {
        LayerSolution ref_cand;
        ref_cand.granularity = g;
        ref_cand.dvfs_enabled = g > 0;
        ref_cand.hfo = pair.hfos.front();
        sim::WorkLedger ledger;
        const LayerSolution ref = profile_candidate_isolated(
            m, layer_idx, ref_cand, pair.lfo, opts, &ledger);

        // Replaying at the reference HFO itself must reproduce it too.
        for (const auto& hfo : pair.hfos) {
          LayerSolution direct_cand = ref_cand;
          direct_cand.hfo = hfo;
          const LayerSolution direct = profile_candidate_isolated(
              m, layer_idx, direct_cand, pair.lfo, opts);
          const ProfileEntry replayed =
              replay_profile(ledger, ref.hfo, hfo, opts.sim);
          EXPECT_NEAR(replayed.t_us, direct.t_us,
                      std::abs(direct.t_us) * 1e-9)
              << "layer " << layer_idx << " g=" << g << " "
              << hfo.str() << " / " << pair.lfo.str();
          EXPECT_NEAR(replayed.energy_uj, direct.energy_uj,
                      std::abs(direct.energy_uj) * 1e-9)
              << "layer " << layer_idx << " g=" << g << " "
              << hfo.str() << " / " << pair.lfo.str();
        }
      }
    }
  }
}

TEST(FreqReplay, ExploreWithReplayPreservesFrontsAndRanking) {
  const graph::Model m = repeated_block_model();
  const power::PowerModel pm;
  const DesignSpace ds = make_paper_design_space(pm);

  ExploreOptions exact;
  exact.memoize = false;
  exact.num_threads = 1;
  const auto direct = explore_model(m, ds, exact);

  ExploreOptions fast;
  fast.freq_replay = true;
  ExploreStats st;
  const auto replayed = explore_model(m, ds, fast, &st);

  EXPECT_GT(st.replayed, 0);
  EXPECT_LT(st.profiled, st.total_candidates / 4);
  ASSERT_EQ(direct.size(), replayed.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    // Candidate values agree to replay tolerance...
    ASSERT_EQ(direct[i].all.size(), replayed[i].all.size());
    for (std::size_t j = 0; j < direct[i].all.size(); ++j) {
      EXPECT_NEAR(direct[i].all[j].t_us, replayed[i].all[j].t_us,
                  direct[i].all[j].t_us * 1e-9);
      EXPECT_NEAR(direct[i].all[j].energy_uj, replayed[i].all[j].energy_uj,
                  direct[i].all[j].energy_uj * 1e-9);
    }
    // ...and the Pareto fronts are candidate-identical.
    ASSERT_EQ(direct[i].pareto.size(), replayed[i].pareto.size())
        << "layer " << i;
    for (std::size_t j = 0; j < direct[i].pareto.size(); ++j) {
      EXPECT_EQ(direct[i].pareto[j].granularity,
                replayed[i].pareto[j].granularity)
          << "layer " << i << " front " << j;
      EXPECT_EQ(direct[i].pareto[j].hfo, replayed[i].pareto[j].hfo)
          << "layer " << i << " front " << j;
    }
  }
}

}  // namespace
}  // namespace daedvfs::dse
