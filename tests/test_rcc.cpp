// Unit tests for the RCC peripheral model and the switch cost model —
// the paper's §II-A behaviour: PLL relock ~200 us, HSE mux ~instant,
// locked-PLL fast path, voltage-scale policy.
#include <gtest/gtest.h>

#include <vector>

#include "clock/rcc.hpp"
#include "dse/design_space.hpp"

namespace daedvfs::clock {
namespace {

const ClockConfig kHfo216 = ClockConfig::pll_hse(50.0, 25, 216, 2);
const ClockConfig kHfo168 = ClockConfig::pll_hse(50.0, 25, 168, 2);
const ClockConfig kHfo108 = ClockConfig::pll_hse(50.0, 50, 216, 2);
const ClockConfig kLfo = ClockConfig::hse_direct(50.0);

TEST(SwitchModel, NoOpSwitchIsFree) {
  SwitchCostParams p;
  const SwitchCost c = switch_cost(p, kHfo216, kHfo216, kHfo216.pll);
  EXPECT_DOUBLE_EQ(c.total_us, 0.0);
}

TEST(SwitchModel, MuxToggleToHseIsNearInstant) {
  SwitchCostParams p;
  const SwitchCost c = switch_cost(p, kHfo216, kLfo, kHfo216.pll);
  EXPECT_DOUBLE_EQ(c.total_us, p.mux_switch_us);
  EXPECT_FALSE(c.pll_relocked);
}

TEST(SwitchModel, BackToLockedPllIsNearInstant) {
  SwitchCostParams p;
  // PLL still locked with the same parameters: only the mux cost.
  const SwitchCost c = switch_cost(p, kLfo, kHfo216, kHfo216.pll);
  EXPECT_DOUBLE_EQ(c.total_us, p.mux_switch_us);
  EXPECT_FALSE(c.pll_relocked);
}

TEST(SwitchModel, ReprogrammingPllPaysRelock) {
  SwitchCostParams p;
  const SwitchCost c = switch_cost(p, kHfo216, kHfo168, kHfo216.pll);
  EXPECT_TRUE(c.pll_relocked);
  EXPECT_DOUBLE_EQ(c.total_us, p.mux_switch_us + p.pll_relock_us);
}

TEST(SwitchModel, ColdPllPaysRelock) {
  SwitchCostParams p;
  const SwitchCost c = switch_cost(p, kLfo, kHfo216, std::nullopt);
  EXPECT_TRUE(c.pll_relocked);
}

TEST(Rcc, BootState) {
  Rcc rcc;  // HSI boot, like real hardware
  EXPECT_DOUBLE_EQ(rcc.sysclk_mhz(), 16.0);
  EXPECT_FALSE(rcc.pll_running());
  EXPECT_EQ(rcc.stats().switches, 0u);
}

TEST(Rcc, LfoHfoToggleKeepsPllLocked) {
  Rcc rcc(kHfo216);
  ASSERT_TRUE(rcc.pll_running());
  const SwitchCost to_lfo = rcc.switch_to(kLfo);
  EXPECT_FALSE(to_lfo.pll_relocked);
  EXPECT_TRUE(rcc.pll_running()) << "mux to HSE must not stop the PLL";
  const SwitchCost back = rcc.switch_to(kHfo216);
  EXPECT_FALSE(back.pll_relocked) << "same-parameter PLL reselect is free";
  EXPECT_EQ(rcc.stats().pll_relocks, 0u);
  EXPECT_EQ(rcc.stats().switches, 2u);
}

TEST(Rcc, ChangingHfoRelocks) {
  Rcc rcc(kHfo216);
  const SwitchCost c = rcc.switch_to(kHfo168);
  EXPECT_TRUE(c.pll_relocked);
  EXPECT_EQ(rcc.stats().pll_relocks, 1u);
  EXPECT_EQ(*rcc.state().locked_pll, *kHfo168.pll);
}

TEST(Rcc, VoltageScaleRaisedBeforeRunningFaster) {
  Rcc rcc(ClockConfig::hse_direct(50.0));  // Scale3 at boot
  EXPECT_EQ(rcc.state().scale, VoltageScale::kScale3);
  const SwitchCost c = rcc.switch_to(kHfo216);
  EXPECT_TRUE(c.vos_changed);
  EXPECT_EQ(rcc.state().scale, VoltageScale::kScale1OverDrive);
}

TEST(Rcc, VoltageScaleNotLoweredOnMuxToggle) {
  Rcc rcc(kHfo216);  // Scale1+OD
  rcc.switch_to(kLfo);
  // 50 MHz would allow Scale3, but an intra-layer toggle must not wait the
  // regulator settle time — the scale stays pinned.
  EXPECT_EQ(rcc.state().scale, VoltageScale::kScale1OverDrive);
}

TEST(Rcc, VoltageScaleLoweredOnRelock) {
  Rcc rcc(kHfo216);
  const SwitchCost c = rcc.switch_to(kHfo108);  // 108 MHz needs only Scale3
  EXPECT_TRUE(c.pll_relocked);
  EXPECT_TRUE(c.vos_changed);
  EXPECT_EQ(rcc.state().scale, VoltageScale::kScale3);
}

TEST(Rcc, StopPllRequiresMuxAway) {
  Rcc rcc(kHfo216);
  EXPECT_THROW(rcc.stop_pll(), std::logic_error);
  rcc.switch_to(kLfo);
  rcc.stop_pll();
  EXPECT_FALSE(rcc.pll_running());
  // Re-selecting the PLL now costs a full relock.
  const SwitchCost c = rcc.switch_to(kHfo216);
  EXPECT_TRUE(c.pll_relocked);
}

TEST(Rcc, RejectsInvalidConfigs) {
  Rcc rcc(kHfo216);
  EXPECT_THROW(rcc.switch_to(ClockConfig::pll_hse(50.0, 10, 100, 2)),
               std::invalid_argument);
  EXPECT_THROW(Rcc(ClockConfig::hse_direct(99.0)), std::invalid_argument);
}

TEST(Rcc, StatsAccumulate) {
  Rcc rcc(kHfo216);
  rcc.switch_to(kLfo);
  rcc.switch_to(kHfo216);
  rcc.switch_to(kHfo168);
  const RccStats& st = rcc.stats();
  EXPECT_EQ(st.switches, 3u);
  EXPECT_EQ(st.pll_relocks, 1u);
  EXPECT_GT(st.total_switch_us, 200.0);
}

// A switch is a no-op only when it targets the running config. Zeroing a
// cost parameter (an ideal-mux or instant-relock ablation) must not drop a
// real switch: for every (from, to) pair of the paper design space, with
// each SwitchCostParams field zeroed in turn, the Rcc lands on `to`, counts
// the switch iff it moved, and prices it as the mux/relock model plus the
// regulator settle it reports.
TEST(Rcc, SwitchLandsOnTargetWithAnyCostZeroed) {
  const dse::DesignSpace ds = dse::make_paper_design_space(power::PowerModel{});
  std::vector<ClockConfig> configs = ds.hfo_configs;
  configs.push_back(ds.lfo);
  ASSERT_GE(configs.size(), 2u);

  std::vector<SwitchCostParams> variants(5);
  variants[0].mux_switch_us = 0.0;
  variants[1].pll_relock_us = 0.0;
  variants[2].hse_startup_us = 0.0;
  variants[3].vos_change_us = 0.0;
  variants[4] = {0.0, 0.0, 0.0, 0.0};

  for (std::size_t v = 0; v < variants.size(); ++v) {
    const SwitchCostParams& p = variants[v];
    for (const ClockConfig& from : configs) {
      for (const ClockConfig& to : configs) {
        Rcc rcc(from, p);
        const RccState before = rcc.state();
        const SwitchCost c = rcc.switch_to(to);
        const bool moved = !(from == to);
        EXPECT_TRUE(rcc.current() == to)
            << "variant " << v << ": " << from.str() << " -> " << to.str();
        EXPECT_EQ(rcc.stats().switches, moved ? 1u : 0u) << "variant " << v;
        const SwitchCost base = switch_cost(p, from, to, before.locked_pll);
        EXPECT_EQ(c.total_us,
                  base.total_us + (c.vos_changed ? p.vos_change_us : 0.0))
            << "variant " << v;
      }
    }
  }
}

}  // namespace
}  // namespace daedvfs::clock
