// Unit tests for the power model (power/power_model) — the analytic stand-in
// for the paper's INA219 rig. Checks the structural properties every
// experiment relies on.
#include <gtest/gtest.h>

#include "clock/rcc.hpp"
#include "power/battery.hpp"
#include "power/power_model.hpp"
#include "power/radio_model.hpp"

namespace daedvfs::power {
namespace {

const clock::ClockConfig kHfo216 = clock::ClockConfig::pll_hse(50.0, 25, 216, 2);
const clock::ClockConfig kHfo100 = clock::ClockConfig::pll_hse(50.0, 25, 100, 2);
const clock::ClockConfig kLfo50 = clock::ClockConfig::hse_direct(50.0);

TEST(PowerModel, PowerIncreasesWithFrequency) {
  PowerModel pm;
  EXPECT_LT(pm.config_power_mw(kHfo100), pm.config_power_mw(kHfo216));
  EXPECT_LT(pm.config_power_mw(kLfo50), pm.config_power_mw(kHfo100));
}

TEST(PowerModel, ActivityOrdering) {
  PowerModel pm;
  const double compute = pm.config_power_mw(kHfo216, Activity::kCompute);
  const double stall = pm.config_power_mw(kHfo216, Activity::kMemoryStall);
  const double idle = pm.config_power_mw(kHfo216, Activity::kIdle);
  const double gated =
      pm.config_power_mw(kHfo216, Activity::kIdleClockGated);
  EXPECT_GT(compute, stall);
  EXPECT_GT(idle, gated);
  EXPECT_GT(compute, idle);
  EXPECT_LT(gated, 20.0) << "gated idle must collapse to near-static power";
}

TEST(PowerModel, IsoFrequencyVcoGap) {
  // Same 216 MHz SYSCLK via VCO 432 (P=2) vs via a hypothetical higher-VCO
  // path does not exist at 216; use 100 MHz: VCO 200 (P=2) vs VCO 400 (P=4).
  PowerModel pm;
  const auto low_vco = clock::ClockConfig::pll_hse(50.0, 25, 100, 2);
  const auto high_vco = clock::ClockConfig::pll_hse(50.0, 25, 200, 4);
  ASSERT_TRUE(low_vco.valid());
  ASSERT_TRUE(high_vco.valid());
  ASSERT_DOUBLE_EQ(low_vco.sysclk_mhz(), high_vco.sysclk_mhz());
  EXPECT_LT(pm.config_power_mw(low_vco), pm.config_power_mw(high_vco))
      << "iso-frequency configs must differ in power via the VCO term "
         "(paper Fig. 2, PLLP=2 rationale)";
}

TEST(PowerModel, HseDirectCheaperThanPllAtSameFrequency) {
  PowerModel pm;
  const auto pll50 = clock::ClockConfig::pll_hse(50.0, 50, 100, 2);  // 50 MHz
  ASSERT_TRUE(pll50.valid());
  EXPECT_LT(pm.config_power_mw(kLfo50), pm.config_power_mw(pll50));
}

TEST(PowerModel, CalibrationBand) {
  // Absolute calibration sanity (paper Fig. 2 band): ~200 mW at 216 MHz
  // compute, ~50 mW at HSE-direct 50 MHz.
  PowerModel pm;
  EXPECT_NEAR(pm.config_power_mw(kHfo216), 210.0, 40.0);
  EXPECT_NEAR(pm.config_power_mw(kLfo50), 50.0, 15.0);
}

TEST(PowerState, FromRccTracksLockedPll) {
  clock::Rcc rcc(kHfo216);
  rcc.switch_to(kLfo50);
  const PowerState st = PowerState::of(rcc.state());
  EXPECT_TRUE(st.pll_running) << "PLL keeps running while muxed to HSE";
  EXPECT_DOUBLE_EQ(st.vco_mhz, 432.0);
  EXPECT_DOUBLE_EQ(st.sysclk_mhz, 50.0);
  EXPECT_TRUE(st.hse_running);

  rcc.stop_pll();
  const PowerState st2 = PowerState::of(rcc.state());
  EXPECT_FALSE(st2.pll_running);

  PowerModel pm;
  EXPECT_LT(pm.power_mw(st2, Activity::kCompute),
            pm.power_mw(st, Activity::kCompute))
      << "stopping the PLL must save its analog power";
}

TEST(PowerState, LfoAtPinnedScaleCostsMoreThanNativeScale) {
  // Running 50 MHz with the regulator pinned at Scale1+OD (intra-layer LFO)
  // must cost more than 50 MHz at its native Scale3.
  PowerModel pm;
  PowerState pinned;
  pinned.sysclk_mhz = 50.0;
  pinned.scale = clock::VoltageScale::kScale1OverDrive;
  PowerState native = pinned;
  native.scale = clock::VoltageScale::kScale3;
  EXPECT_GT(pm.power_mw(pinned, Activity::kCompute),
            pm.power_mw(native, Activity::kCompute));
}

TEST(PowerModel, VoltageExponentAblation) {
  // The SMPS ablation (exponent 2) must widen the high/low-frequency power
  // ratio relative to the LDO default (exponent 1).
  PowerModelParams ldo;
  PowerModelParams smps;
  smps.voltage_exponent = 2.0;
  const PowerModel pm_ldo(ldo), pm_smps(smps);
  const double ratio_ldo =
      pm_ldo.config_power_mw(kHfo216) / pm_ldo.config_power_mw(kHfo100);
  const double ratio_smps =
      pm_smps.config_power_mw(kHfo216) / pm_smps.config_power_mw(kHfo100);
  EXPECT_GT(ratio_smps, ratio_ldo);
}

TEST(Battery, LifetimeScalesWithEnergy) {
  BatteryModel battery;
  DutyCycle duty{60.0, 0.8};
  const double cheap = battery.lifetime_days(5000.0, 50000.0, duty);
  const double costly = battery.lifetime_days(20000.0, 50000.0, duty);
  EXPECT_GT(cheap, costly);
  EXPECT_GT(cheap, 0.0);
}

TEST(Battery, SleepPowerDominatesAtLongPeriods) {
  BatteryModel battery;
  const double rare = battery.lifetime_days(5000.0, 50000.0, {600.0, 0.8});
  const double frequent = battery.lifetime_days(5000.0, 50000.0, {1.0, 0.8});
  EXPECT_GT(rare, frequent);
}

TEST(Battery, ZeroCapacityHasZeroLifetime) {
  BatteryModel battery(BatteryParams{0.0, 0.02});
  EXPECT_DOUBLE_EQ(battery.lifetime_days(5000.0, 50000.0, {60.0, 0.8}), 0.0);
  BatteryModel negative(BatteryParams{-10.0, 0.02});
  EXPECT_DOUBLE_EQ(negative.lifetime_days(5000.0, 50000.0, {60.0, 0.8}),
                   0.0);
}

TEST(Battery, NonPositivePeriodYieldsZeroLifetime) {
  BatteryModel battery;
  EXPECT_DOUBLE_EQ(battery.lifetime_days(5000.0, 50000.0, {0.0, 0.8}), 0.0);
  EXPECT_DOUBLE_EQ(battery.lifetime_days(5000.0, 50000.0, {-5.0, 0.8}), 0.0);
}

TEST(Battery, SelfDischargeAloneBoundsLifetime) {
  // Self-discharge >= external draw: with zero load and zero sleep draw,
  // lifetime collapses to capacity / self_discharge hours.
  BatteryParams p;
  p.capacity_mwh = 240.0;
  p.self_discharge_mw = 1.0;
  BatteryModel battery(p);
  const double days = battery.lifetime_days(0.0, 0.0, {60.0, 0.0});
  EXPECT_NEAR(days, 240.0 / 1.0 / 24.0, 1e-9);
  // Negative inputs clamp to zero instead of inflating the lifetime.
  EXPECT_NEAR(battery.lifetime_days(-1e9, -5.0, {60.0, -3.0}), days, 1e-9);
}

TEST(Battery, AllZeroDrawHasNoFiniteAnswer) {
  BatteryModel battery(BatteryParams{2400.0, 0.0});
  EXPECT_DOUBLE_EQ(battery.lifetime_days(0.0, 0.0, {60.0, 0.0}), 0.0);
}

TEST(StatefulBattery, DrainAndElapseTrackCharge) {
  Battery b(BatteryParams{1.0, 0.0});  // 1 mWh = 3.6 J
  EXPECT_FALSE(b.depleted());
  EXPECT_DOUBLE_EQ(b.soc(), 1.0);
  b.drain_uj(1.8e6);  // half the charge
  EXPECT_NEAR(b.soc(), 0.5, 1e-12);
  b.elapse(900.0, 1.0);  // 1 mW for a quarter hour = 0.25 mWh
  EXPECT_NEAR(b.remaining_mwh(), 0.25, 1e-12);
  b.drain_uj(10e6);  // overdrain clamps at empty
  EXPECT_TRUE(b.depleted());
  EXPECT_DOUBLE_EQ(b.remaining_mwh(), 0.0);
  EXPECT_DOUBLE_EQ(b.soc(), 0.0);
}

TEST(StatefulBattery, SelfDischargeDrainsWithoutLoad) {
  BatteryParams p;
  p.capacity_mwh = 1.0;
  p.self_discharge_mw = 2.0;
  Battery b(p);
  b.elapse(1800.0, 0.0);  // half an hour at 2 mW self-discharge
  EXPECT_TRUE(b.depleted());
}

TEST(StatefulBattery, ChargeStoresClampsAndReportsStoredAmount) {
  BatteryParams p;
  p.capacity_mwh = 1.0;
  p.self_discharge_mw = 0.0;
  Battery b(p);
  b.drain_uj(1.8e6);  // down to 0.5 mWh
  // 2 mW for a quarter hour = 0.5 mWh: exactly fills the battery.
  EXPECT_NEAR(b.charge(900.0, 2.0), 0.5, 1e-12);
  EXPECT_NEAR(b.remaining_mwh(), 1.0, 1e-12);
  // A full battery clips the whole intake: nothing stored, nothing banked.
  EXPECT_DOUBLE_EQ(b.charge(900.0, 2.0), 0.0);
  EXPECT_NEAR(b.remaining_mwh(), 1.0, 1e-12);
  // Partial clip: only the headroom is stored and reported.
  b.drain_uj(0.36e6);  // 0.1 mWh of headroom
  EXPECT_NEAR(b.charge(3600.0, 2.0), 0.1, 1e-12);
  EXPECT_NEAR(b.soc(), 1.0, 1e-12);
}

TEST(StatefulBattery, ChargeRateCapLimitsIntake) {
  BatteryParams p;
  p.capacity_mwh = 10.0;
  p.self_discharge_mw = 0.0;
  p.charge_rate_cap_mw = 1.0;
  Battery b(p);
  b.drain_uj(18e6);  // down to 5 mWh
  // 6 mW offered, 1 mW accepted: one hour stores 1 mWh, the rest is lost.
  EXPECT_NEAR(b.charge(3600.0, 6.0), 1.0, 1e-12);
  EXPECT_NEAR(b.remaining_mwh(), 6.0, 1e-12);
  // Below the cap the full intake lands.
  EXPECT_NEAR(b.charge(3600.0, 0.5), 0.5, 1e-12);
}

TEST(StatefulBattery, ChargeDegenerateInputsAreNoOps) {
  Battery b(BatteryParams{1.0, 0.0});
  b.drain_uj(1.8e6);
  EXPECT_DOUBLE_EQ(b.charge(-10.0, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(b.charge(100.0, -2.0), 0.0);
  EXPECT_DOUBLE_EQ(b.charge(0.0, 2.0), 0.0);
  EXPECT_NEAR(b.remaining_mwh(), 0.5, 1e-12);
  Battery zero(BatteryParams{0.0, 0.0});
  EXPECT_DOUBLE_EQ(zero.charge(3600.0, 5.0), 0.0)
      << "a zero-capacity battery has no headroom to store into";
  EXPECT_TRUE(zero.depleted());
}

TEST(StatefulBattery, DischargeIsMonotoneWithoutCharge) {
  // The fuzz harness's "monotone between charge intervals" contract at the
  // unit level: any interleaving of drains and elapses only ever lowers the
  // charge; only charge() raises it.
  Battery b(BatteryParams{5.0, 0.01});
  double prev = b.remaining_mwh();
  const double drains[] = {100.0, 0.0, 5e4, 300.0};
  for (double uj : drains) {
    b.drain_uj(uj);
    b.elapse(120.0, 0.4);
    EXPECT_LE(b.remaining_mwh(), prev);
    prev = b.remaining_mwh();
  }
  b.charge(3600.0, 1.0);
  EXPECT_GT(b.remaining_mwh(), prev);
}

TEST(StatefulBattery, DegenerateParamsAreClamped) {
  Battery zero(BatteryParams{0.0, 0.02});
  EXPECT_TRUE(zero.depleted());
  EXPECT_DOUBLE_EQ(zero.soc(), 0.0);

  Battery negative(BatteryParams{-5.0, -1.0});
  EXPECT_TRUE(negative.depleted());
  negative.elapse(1e6, -10.0);  // negative draws must not charge the battery
  EXPECT_DOUBLE_EQ(negative.remaining_mwh(), 0.0);

  Battery b(BatteryParams{1.0, -1.0});  // negative self-discharge clamps to 0
  b.elapse(3600.0, 0.0);
  EXPECT_DOUBLE_EQ(b.remaining_mwh(), 1.0);
  b.drain_uj(-100.0);  // negative drain is a no-op
  EXPECT_DOUBLE_EQ(b.remaining_mwh(), 1.0);
}

TEST(RadioModel, DisabledUnlessRateAndPayloadArePositive) {
  EXPECT_FALSE(RadioModel{}.enabled());
  EXPECT_FALSE(RadioModel(RadioParams{250.0, 0.0, 80.0, 800.0}).enabled());
  EXPECT_FALSE(RadioModel(RadioParams{0.0, 512.0, 80.0, 800.0}).enabled());
  const RadioModel off(RadioParams{-1.0, 512.0, 80.0, 800.0});
  EXPECT_FALSE(off.enabled());
  EXPECT_DOUBLE_EQ(off.tx_us(), 0.0);
  EXPECT_DOUBLE_EQ(off.tx_uj(), 0.0);
}

TEST(RadioModel, BurstTimeAndEnergyFollowTheLinkRate) {
  // 512 B at 250 kbit/s = 4096 bits / 250 bits-per-ms = 16.384 ms, plus the
  // 1.5 ms PA ramp; at 80 mW the burst costs tx_us * 80e-3 uJ.
  const RadioModel radio(RadioParams{250.0, 512.0, 80.0, 1500.0});
  ASSERT_TRUE(radio.enabled());
  EXPECT_NEAR(radio.tx_us(), 1500.0 + 16384.0, 1e-9);
  EXPECT_NEAR(radio.tx_uj(), radio.tx_us() * 80.0 * 1e-3, 1e-9);
  // Doubling the link rate halves the payload time, not the ramp.
  const RadioModel fast(RadioParams{500.0, 512.0, 80.0, 1500.0});
  EXPECT_NEAR(fast.tx_us(), 1500.0 + 8192.0, 1e-9);
  // Negative ramp/draw clamp to zero instead of producing negative costs.
  const RadioModel weird(RadioParams{250.0, 512.0, -80.0, -1500.0});
  EXPECT_NEAR(weird.tx_us(), 16384.0, 1e-9);
  EXPECT_DOUBLE_EQ(weird.tx_uj(), 0.0);
}

}  // namespace
}  // namespace daedvfs::power
