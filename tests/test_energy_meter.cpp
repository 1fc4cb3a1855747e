// Unit tests for the event-driven energy meter.
#include <gtest/gtest.h>

#include "power/energy_meter.hpp"

namespace daedvfs::power {
namespace {

TEST(EnergyMeter, IntegratesMilliwattMicroseconds) {
  EnergyMeter m;
  m.record(0.0, 1000.0, 100.0);  // 100 mW for 1 ms = 100 uJ
  EXPECT_DOUBLE_EQ(m.total_uj(), 100.0);
}

TEST(EnergyMeter, TotalSumsConsecutiveIntervals) {
  EnergyMeter m;
  m.record(0.0, 500.0, 100.0);
  m.record(500.0, 1500.0, 200.0);
  m.record(1500.0, 2000.0, 50.0);
  EXPECT_DOUBLE_EQ(m.total_uj(), 50.0 + 200.0 + 25.0);
}

}  // namespace
}  // namespace daedvfs::power
