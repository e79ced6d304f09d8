// Tests for the MSP430 behavioral model.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "mcu/msp430.hpp"

namespace pico::mcu {
namespace {

using namespace pico::literals;

struct McuFixture : ::testing::Test {
  sim::Simulator sim;
  Msp430 cpu{sim};

  void power_on(Voltage v = 2.5_V) { cpu.set_supply(v); }
};

TEST_F(McuFixture, PowerOnResetEntersActive) {
  EXPECT_EQ(cpu.state(), PowerState::kOff);
  EXPECT_DOUBLE_EQ(cpu.supply_current().value(), 0.0);
  power_on();
  EXPECT_EQ(cpu.state(), PowerState::kActive);
  EXPECT_GT(cpu.supply_current().value(), 100e-6);
}

TEST_F(McuFixture, Lpm3IsSubMicroamp) {
  power_on(2.2_V);
  cpu.sleep(PowerState::kLpm3);
  EXPECT_EQ(cpu.state(), PowerState::kLpm3);
  EXPECT_LT(cpu.supply_current().value(), 1e-6);
  // Sub-microwatt deep sleep: the paper's selection criterion.
  EXPECT_LT(cpu.supply_current().value() * 2.2, 2.2e-6);
}

TEST_F(McuFixture, CurrentScalesWithSupply) {
  power_on(2.2_V);
  const double i22 = cpu.supply_current().value();
  cpu.set_supply(3.0_V);
  const double i30 = cpu.supply_current().value();
  EXPECT_GT(i30, i22);
}

TEST_F(McuFixture, StateOrdering) {
  power_on();
  const double active = cpu.supply_current().value();
  cpu.sleep(PowerState::kLpm0);
  const double lpm0 = cpu.supply_current().value();
  cpu.sleep(PowerState::kLpm3);
  const double lpm3 = cpu.supply_current().value();
  cpu.sleep(PowerState::kLpm4);
  const double lpm4 = cpu.supply_current().value();
  EXPECT_GT(active, lpm0);
  EXPECT_GT(lpm0, lpm3);
  EXPECT_GT(lpm3, lpm4);
}

TEST_F(McuFixture, RunForHoldsActiveThenCallback) {
  power_on();
  bool done = false;
  cpu.run_for(5_ms, [&] { done = true; });
  sim.run_until(4_ms);
  EXPECT_FALSE(done);
  EXPECT_EQ(cpu.state(), PowerState::kActive);
  sim.run_until(6_ms);
  EXPECT_TRUE(done);
}

TEST_F(McuFixture, InterruptWakesFromSleepWithLatency) {
  power_on();
  cpu.sleep(PowerState::kLpm3);
  bool handled = false;
  cpu.set_interrupt_handler([&] { handled = true; });
  cpu.request_interrupt();
  EXPECT_FALSE(handled);  // latency pending
  sim.run_until(10_us);
  EXPECT_TRUE(handled);
  EXPECT_EQ(cpu.state(), PowerState::kActive);
}

TEST_F(McuFixture, SensorEventWakesFromLpm4) {
  power_on();
  bool fired = false;
  cpu.set_interrupt_handler([&] { fired = true; });
  cpu.sleep(PowerState::kLpm4);
  // LPM4 stops every clock, but the sensor line is an external interrupt.
  cpu.request_interrupt();
  sim.run_until(1_s);
  EXPECT_TRUE(fired);
  EXPECT_EQ(cpu.state(), PowerState::kActive);
}

TEST_F(McuFixture, SpiTransferTimingAndCurrent) {
  power_on();
  const double idle = cpu.supply_current().value();
  bool done = false;
  cpu.spi_transfer(8, [&] { done = true; });
  EXPECT_TRUE(cpu.spi_busy());
  EXPECT_GT(cpu.supply_current().value(), idle);
  // 8 bytes at 250 kHz = 256 us.
  sim.run_until(200_us);
  EXPECT_FALSE(done);
  sim.run_until(300_us);
  EXPECT_TRUE(done);
  EXPECT_FALSE(cpu.spi_busy());
}

TEST_F(McuFixture, SpiBusyRejectsOverlap) {
  power_on();
  cpu.spi_transfer(8, {});
  EXPECT_THROW(cpu.spi_transfer(8, {}), pico::DesignError);
}

TEST_F(McuFixture, BrownOutKillsExecution) {
  power_on();
  bool done = false;
  cpu.run_for(5_ms, [&] { done = true; });
  sim.run_until(1_ms);
  cpu.set_supply(0.5_V);  // brown-out mid-execution
  sim.run_until(10_ms);
  EXPECT_FALSE(done);
  EXPECT_EQ(cpu.state(), PowerState::kOff);
}

TEST_F(McuFixture, CurrentListenerSeesTransitions) {
  int changes = 0;
  cpu.set_current_listener([&](Current) { ++changes; });
  power_on();
  cpu.sleep(PowerState::kLpm3);
  EXPECT_GE(changes, 2);
}

TEST_F(McuFixture, ActiveTimeAccumulates) {
  power_on();
  cpu.run_for(3_ms, [this] { cpu.sleep(PowerState::kLpm3); });
  sim.run_until(1_s);
  EXPECT_NEAR(cpu.total_active_time().value(), 3e-3, 1e-6);
}

}  // namespace
}  // namespace pico::mcu
