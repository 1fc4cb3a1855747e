// Unit tests for the virtual STM32F767ZI (sim/mcu): timeline advancement,
// energy integration, clock switching, idling, the per-activity power memo.
#include <gtest/gtest.h>

#include "sim/mcu.hpp"

namespace daedvfs::sim {
namespace {

const clock::ClockConfig kHfo216 = clock::ClockConfig::pll_hse(50.0, 25, 216, 2);
const clock::ClockConfig kHfo108 = clock::ClockConfig::pll_hse(50.0, 50, 216, 2);
const clock::ClockConfig kLfo = clock::ClockConfig::hse_direct(50.0);

SimParams params_at(const clock::ClockConfig& boot) {
  SimParams p;
  p.boot = boot;
  return p;
}

TEST(Mcu, ComputeAdvancesCyclesOverFrequency) {
  Mcu mcu(params_at(kHfo216));
  mcu.compute(216.0e3);  // 216k cycles at 216 MHz = 1 ms
  EXPECT_NEAR(mcu.time_us(), 1000.0, 1e-9);
  EXPECT_GT(mcu.energy_uj(), 0.0);
}

TEST(Mcu, SameCyclesTakeLongerAtLowerClock) {
  Mcu fast(params_at(kHfo216));
  Mcu slow(params_at(kLfo));
  fast.compute(1e6);
  slow.compute(1e6);
  EXPECT_NEAR(slow.time_us() / fast.time_us(), 216.0 / 50.0, 1e-9);
  EXPECT_LT(slow.energy_uj() / slow.time_us(),
            fast.energy_uj() / fast.time_us())
      << "average power must be lower at the lower clock";
}

TEST(Mcu, MemReadChargesIssueAndMissStall) {
  Mcu mcu(params_at(kHfo216));
  const MemRef ref{kSramBase, MemRegion::kSram};
  mcu.mem_read(ref, 32);
  const double t_miss = mcu.time_us();
  EXPECT_GT(t_miss, 0.0);
  const double t0 = mcu.time_us();
  mcu.mem_read(ref, 32);  // now cached: only issue cycles
  EXPECT_LT(mcu.time_us() - t0, t_miss);
}

TEST(Mcu, IssueWordsOverrideScalesTime) {
  Mcu a(params_at(kHfo216)), b(params_at(kHfo216));
  const MemRef ref{kSramBase, MemRegion::kSram};
  a.mem_read(ref, 64);             // 16 word loads
  b.mem_read(ref, 64, 64.0);       // 64 byte loads
  EXPECT_GT(b.time_us(), a.time_us());
}

TEST(Mcu, DtcmBypassesCache) {
  Mcu mcu(params_at(kHfo216));
  const uint64_t misses0 = mcu.cache().stats().misses;
  mcu.mem_read({kDtcmBase, MemRegion::kDtcm}, 1024);
  EXPECT_EQ(mcu.cache().stats().misses, misses0);
}

TEST(Mcu, FlashMissCostsMoreThanSramMiss) {
  Mcu a(params_at(kHfo216)), b(params_at(kHfo216));
  a.mem_read({kFlashBase, MemRegion::kFlash}, 32);
  b.mem_read({kSramBase, MemRegion::kSram}, 32);
  EXPECT_GT(a.time_us(), b.time_us());
}

TEST(Mcu, SwitchClockChargesCostAndChangesRate) {
  Mcu mcu(params_at(kHfo216));
  const auto cost = mcu.switch_clock(kHfo108);  // PLL reprogram
  EXPECT_TRUE(cost.pll_relocked);
  EXPECT_NEAR(mcu.time_us(), cost.total_us, 1e-9);
  EXPECT_GE(mcu.time_us(), 200.0);
  EXPECT_DOUBLE_EQ(mcu.sysclk_mhz(), 108.0);
}

TEST(Mcu, LfoHfoToggleIsCheap) {
  Mcu mcu(params_at(kHfo216));
  mcu.switch_clock(kLfo);
  mcu.switch_clock(kHfo216);
  EXPECT_LT(mcu.time_us(), 2.0) << "two mux toggles must stay sub-2us";
}

TEST(Mcu, IdleUntilFillsWindowAndGatingIsCheaper) {
  Mcu plain(params_at(kHfo216)), gated(params_at(kHfo216));
  plain.idle_until(1000.0, false);
  gated.idle_until(1000.0, true);
  EXPECT_NEAR(plain.time_us(), 1000.0, 1e-9);
  EXPECT_NEAR(gated.time_us(), 1000.0, 1e-9);
  EXPECT_LT(gated.energy_uj(), plain.energy_uj() / 3.0);
  // idle_until in the past is a no-op.
  plain.idle_until(500.0, false);
  EXPECT_NEAR(plain.time_us(), 1000.0, 1e-9);
}

// Energy is accumulated as mw * (t_end - t_begin) * 1e-3 per interval, with
// t_end = t_begin + dt. Folding the meter into the timeline as mw * dt * 1e-3
// looks equivalent but rounds differently and moves the deploy and fleet
// perfbench digests.
TEST(Mcu, EnergyAccumulatesEndMinusBeginBitForBit) {
  Mcu mcu(params_at(kHfo216));
  const double mw = mcu.power_model().power_mw(
      power::PowerState::of(mcu.rcc().state()), power::Activity::kCompute);
  mcu.compute(1e5);
  const double t1 = mcu.time_us();
  const double dt2 = 12345.0 / mcu.sysclk_mhz();
  mcu.compute(12345.0);
  EXPECT_EQ(mcu.time_us(), t1 + dt2);

  double expected = 0.0;
  expected += mw * (t1 - 0.0) * 1e-3;
  expected += mw * ((t1 + dt2) - t1) * 1e-3;
  // Guard: these values tell the two forms apart.
  ASSERT_NE(mw * dt2 * 1e-3, mw * ((t1 + dt2) - t1) * 1e-3);
  ASSERT_NE(mw * t1 * 1e-3 + mw * dt2 * 1e-3, expected);
  EXPECT_EQ(mcu.energy_uj(), expected);
}

TEST(Mcu, ChargeMemoryAdvancesStall) {
  Mcu mcu(params_at(kHfo216));
  mcu.charge_memory(216.0, 500.0);  // 1 us issue + 0.5 us stall
  EXPECT_NEAR(mcu.time_us(), 1.5, 1e-9);
}

TEST(Mcu, SnapshotDiffsAreConsistent) {
  Mcu mcu(params_at(kHfo216));
  const McuSnapshot a = mcu.snapshot();
  mcu.compute(1e5);
  mcu.mem_read({kSramBase, MemRegion::kSram}, 4096);
  mcu.switch_clock(kLfo);
  const McuSnapshot b = mcu.snapshot();
  EXPECT_GT(b.time_us, a.time_us);
  EXPECT_GT(b.energy_uj, a.energy_uj);
  EXPECT_EQ(b.rcc.switches - a.rcc.switches, 1u);
  EXPECT_EQ(b.cache.misses - a.cache.misses, 128u);
}

TEST(Mcu, DeterministicAcrossRuns) {
  auto run = [] {
    Mcu mcu(params_at(kHfo216));
    mcu.compute(12345.0);
    mcu.mem_read({kSramBase + 128, MemRegion::kSram}, 1000);
    mcu.switch_clock(kLfo);
    mcu.mem_write({kSramBase + 4096, MemRegion::kSram}, 512);
    return std::pair{mcu.time_us(), mcu.energy_uj()};
  };
  EXPECT_EQ(run(), run());
}

// Switching through the mutable rcc() accessor (as bench_switch_overhead
// positions its clocks) bypasses switch_clock(); the next event must still be
// priced at the new clock-tree state, not at a memoized pre-switch power.
TEST(Mcu, MutableRccAccessDropsPowerMemo) {
  Mcu mcu(params_at(kHfo216));
  const Mcu& view = mcu;
  const auto power_now = [&](power::Activity act) {
    return view.power_model().power_mw(
        power::PowerState::of(view.rcc().state()), act);
  };
  mcu.compute(1e4);  // memoizes compute power at 216 MHz
  const double mw_216 = power_now(power::Activity::kCompute);

  mcu.rcc().switch_to(kLfo);
  const double mw_lfo = power_now(power::Activity::kCompute);
  ASSERT_NE(mw_lfo, mw_216);
  double t0 = mcu.time_us(), e0 = mcu.energy_uj();
  mcu.compute(777.0);
  EXPECT_EQ(mcu.energy_uj(), e0 + mw_lfo * (mcu.time_us() - t0) * 1e-3);

  // Stopping the PLL changes power without any switch at all.
  mcu.rcc().stop_pll();
  const double mw_off = power_now(power::Activity::kCompute);
  ASSERT_LT(mw_off, mw_lfo);
  t0 = mcu.time_us();
  e0 = mcu.energy_uj();
  mcu.compute(777.0);
  EXPECT_EQ(mcu.energy_uj(), e0 + mw_off * (mcu.time_us() - t0) * 1e-3);
}

// The run memo stores Mcu copies and later continues them. A copy carries
// the power memo with the clock state it describes, so it continues any
// event sequence bit-identically to the original.
TEST(Mcu, CopyContinuesBitIdentically) {
  const auto continue_run = [](Mcu& mcu) {
    mcu.mem_read({kSramBase + 64, MemRegion::kSram}, 700);
    mcu.switch_clock(kLfo);
    mcu.mem_read_strided({kFlashBase + 32, MemRegion::kFlash}, 40, 48);
    mcu.charge_memory(31.0, 77.0);
    mcu.switch_clock(kHfo216);
    mcu.compute(4321.0);
    mcu.mem_write({kSramBase + 8192, MemRegion::kSram}, 300);
    mcu.switch_clock(kHfo108);
    mcu.compute(999.0);
    mcu.idle_for(55.5, true);
    mcu.idle_until(mcu.time_us() + 12.25, false);
  };
  Mcu original(params_at(kHfo216));
  original.compute(12345.0);
  original.switch_clock(kLfo);  // copy taken with the memo just dropped...
  Mcu after_switch = original;
  original.mem_read({kSramBase, MemRegion::kSram}, 96);
  Mcu warm = original;  // ...and with it populated
  after_switch.mem_read({kSramBase, MemRegion::kSram}, 96);

  continue_run(original);
  continue_run(after_switch);
  continue_run(warm);
  for (const Mcu* copy : {&after_switch, &warm}) {
    EXPECT_EQ(copy->time_us(), original.time_us());
    EXPECT_EQ(copy->energy_uj(), original.energy_uj());
    EXPECT_EQ(copy->cache().state_fingerprint(),
              original.cache().state_fingerprint());
    EXPECT_EQ(copy->rcc().stats().switches, original.rcc().stats().switches);
    EXPECT_TRUE(copy->rcc().state() == original.rcc().state());
  }
}

}  // namespace
}  // namespace daedvfs::sim
