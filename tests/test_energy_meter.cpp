// Unit tests for the event-driven energy meter.
#include <gtest/gtest.h>

#include "power/energy_meter.hpp"

namespace daedvfs::power {
namespace {

TEST(EnergyMeter, IntegratesMilliwattMicroseconds) {
  EnergyMeter m;
  m.record(0.0, 1000.0, 100.0, "a");  // 100 mW for 1 ms = 100 uJ
  EXPECT_DOUBLE_EQ(m.total_uj(), 100.0);
}

TEST(EnergyMeter, TagAttributionIsAdditive) {
  EnergyMeter m;
  m.record(0.0, 500.0, 100.0, "L0/mem");
  m.record(500.0, 1500.0, 200.0, "L0/cmp");
  m.record(1500.0, 2000.0, 50.0, "L0/mem");
  EXPECT_DOUBLE_EQ(m.tag_uj("L0/mem"), 50.0 + 25.0);
  EXPECT_DOUBLE_EQ(m.tag_uj("L0/cmp"), 200.0);
  EXPECT_DOUBLE_EQ(m.tag_uj("unknown"), 0.0);
  EXPECT_DOUBLE_EQ(m.total_uj(), m.tag_uj("L0/mem") + m.tag_uj("L0/cmp"));
}

}  // namespace
}  // namespace daedvfs::power
