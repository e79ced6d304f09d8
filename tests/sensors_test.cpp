// Tests for the sensor models and their synthetic environments.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "harvest/profiles.hpp"
#include "sensors/accelerometer.hpp"
#include "sensors/stimulus.hpp"
#include "sensors/tpms.hpp"

namespace pico::sensors {
namespace {

using namespace pico::literals;

TEST(TireEnvironment, WarmsUpWhileDriving) {
  TireEnvironment env(harvest::make_highway_cycle());
  const double t_cold = env.temperature(0.0).value();
  const double t_warm = env.temperature(3600.0).value();
  EXPECT_GT(t_warm, t_cold + 5.0);  // highway driving heats the tire
}

TEST(TireEnvironment, StaysAmbientWhenParked) {
  TireEnvironment env(harvest::make_parked(7200_s));
  EXPECT_NEAR(env.temperature(3600.0).value(), env.params().ambient.value(), 0.5);
}

TEST(TireEnvironment, PressureFollowsTemperature) {
  TireEnvironment env(harvest::make_highway_cycle());
  const double p_cold = env.pressure(0.0).value();
  const double p_warm = env.pressure(3600.0).value();
  EXPECT_GT(p_warm, p_cold);
  // Gay-Lussac: dP/P == dT/T.
  const double ratio_p = p_warm / p_cold;
  const double ratio_t = env.temperature(3600.0).value() / env.temperature(0.0).value();
  EXPECT_NEAR(ratio_p, ratio_t, 1e-9);
}

TEST(TireEnvironment, LeakDetectable) {
  TireEnvironment::Params p;
  p.leak_per_day = 0.05;
  TireEnvironment env(harvest::make_parked(Duration{86400.0 * 4}), p);
  EXPECT_LT(env.pressure(86400.0).value(), env.pressure(0.0).value() * 0.97);
}

TEST(TireEnvironment, CentripetalAccel) {
  TireEnvironment env(harvest::make_highway_cycle());
  const double omega = env.profile().omega(10.0);
  EXPECT_NEAR(env.radial_accel(10.0).value(), omega * omega * 0.19, 1e-9);
  // Highway: hundreds of g at the rim.
  EXPECT_GT(env.radial_accel(10.0).value() / 9.81, 100.0);
}

TEST(TireEnvironment, TemperatureAndPressurePinned) {
  // Exact samples of the tire model on two drive cycles and a fast, leaky
  // tire (tau = 120 s), so any re-arrangement of the weighted average has
  // to keep every bit.
  TireEnvironment highway(harvest::make_highway_cycle());
  TireEnvironment city(harvest::make_city_cycle());
  TireEnvironment::Params p;
  p.thermal_tau = Duration{120.0};
  p.leak_per_day = 0.05;
  TireEnvironment quick(harvest::make_city_cycle(), p);
  struct Pin {
    const TireEnvironment* env;
    double t;
    double kelvin;
    double pascal;
  };
  const Pin pins[] = {
      {&highway, 250.0, 0x1.32af671e95e93p+8, 0x1.c990b221058d3p+17},
      {&highway, 900.5, 0x1.3f79339bc71c2p+8, 0x1.dca51b632358p+17},
      {&highway, 3600.0, 0x1.46f85b8ad43fep+8, 0x1.e7d46e5b2f39bp+17},
      {&city, 250.0, 0x1.27b544cd49845p+8, 0x1.b9300f0a0f683p+17},
      {&city, 900.5, 0x1.28dd793e2f22dp+8, 0x1.bae9fcd5d51a7p+17},
      {&city, 3600.0, 0x1.2ad4263328db5p+8, 0x1.bdd7f6fe37addp+17},
      {&quick, 250.0, 0x1.297829ab8e29dp+8, 0x1.bbc057799f3bap+17},
      {&quick, 900.5, 0x1.2ad4263328db5p+8, 0x1.bd9c7c68edd41p+17},
      {&quick, 3600.0, 0x1.2a27f6e57dc6ap+8, 0x1.bbe9d2781e9e2p+17},
  };
  for (const Pin& pin : pins) {
    EXPECT_EQ(pin.env->temperature(pin.t).value(), pin.kelvin) << "t = " << pin.t;
    EXPECT_EQ(pin.env->pressure(pin.t).value(), pin.pascal) << "t = " << pin.t;
  }
}

TEST(MotionScenario, GravityWhenStill) {
  const auto demo = MotionScenario::retreat_demo();
  const auto a = demo.at(5.0);  // before the first pickup
  EXPECT_NEAR(a.magnitude(), 9.80665, 1e-9);
}

TEST(MotionScenario, MotionDuringSegments) {
  const auto demo = MotionScenario::retreat_demo();
  // Somewhere during handling the deviation from gravity is significant.
  double max_dev = 0.0;
  for (double t = 10.0; t < 25.0; t += 0.01) {
    max_dev = std::max(max_dev, std::fabs(demo.at(t).magnitude() - 9.80665));
  }
  EXPECT_GT(max_dev, 3.0);
}

TEST(MotionScenario, RejectsBadSegment) {
  EXPECT_THROW(MotionScenario({{5_s, 3_s, 1_mps2, 1_Hz}}), pico::DesignError);
}

// --- SP12 TPMS ----------------------------------------------------------

struct TpmsFixture : ::testing::Test {
  sim::Simulator sim;
  TireEnvironment env{harvest::make_city_cycle()};
  Sp12Tpms tpms{sim, env, Sp12Tpms::Params{}};
  mcu::Msp430 cpu{sim};

  void power_all() {
    cpu.set_supply(2.5_V);
    tpms.set_supply(2.5_V);
  }
};

TEST_F(TpmsFixture, TimerRaisesSensorEventEverySixSeconds) {
  power_all();
  int events = 0;
  cpu.set_interrupt_handler([&] {
    ++events;
    cpu.sleep(mcu::PowerState::kLpm3);
  });
  tpms.start(cpu);
  cpu.sleep(mcu::PowerState::kLpm3);
  sim.run_until(60.5_s);
  EXPECT_EQ(events, 10);
}

TEST_F(TpmsFixture, MeasureProducesEnvironmentValues) {
  power_all();
  bool got = false;
  TpmsSample sample;
  tpms.measure(cpu, [&](const TpmsSample& s) {
    got = true;
    sample = s;
  });
  sim.run_until(20_ms);
  ASSERT_TRUE(got);
  const double t = sample.timestamp.value();
  EXPECT_NEAR(sample.pressure.value(), env.pressure(t).value(), 2000.0);
  EXPECT_NEAR(sample.temperature.value(), env.temperature(t).value(), 1.0);
  EXPECT_DOUBLE_EQ(sample.supply.value(), 2.5);
  EXPECT_EQ(tpms.samples_taken(), 1u);
}

TEST_F(TpmsFixture, ConversionBurstsCurrent) {
  power_all();
  EXPECT_NEAR(tpms.supply_current().value(), 0.25e-6, 1e-9);
  tpms.measure(cpu, {});
  EXPECT_NEAR(tpms.supply_current().value(), 200e-6, 1e-9);
  sim.run_until(20_ms);
  EXPECT_NEAR(tpms.supply_current().value(), 0.25e-6, 1e-9);
}

TEST_F(TpmsFixture, ConversionTimeIsChannelsTimesPerChannel) {
  EXPECT_NEAR(tpms.conversion_time().value(), 4 * 2.0e-3, 1e-12);
}

TEST_F(TpmsFixture, UnpoweredRejectsUse) {
  EXPECT_THROW(tpms.start(cpu), pico::DesignError);
  EXPECT_THROW(tpms.measure(cpu, {}), pico::DesignError);
  EXPECT_DOUBLE_EQ(tpms.supply_current().value(), 0.0);
}

// --- SCA3000 --------------------------------------------------------------

struct AccelFixture : ::testing::Test {
  sim::Simulator sim;
  MotionScenario demo = MotionScenario::retreat_demo();
  Sca3000 accel{sim, demo, Sca3000::Params{}};
  mcu::Msp430 cpu{sim};

  void power_all() {
    cpu.set_supply(2.5_V);
    accel.set_supply(2.5_V);
  }
};

TEST_F(AccelFixture, MotionDetectFiresOnPickup) {
  power_all();
  int events = 0;
  cpu.set_interrupt_handler([&] {
    ++events;
    cpu.sleep(mcu::PowerState::kLpm3);
  });
  accel.enter_motion_detect(cpu);
  cpu.sleep(mcu::PowerState::kLpm3);
  sim.run_until(9_s);
  EXPECT_EQ(events, 0);  // still on the table
  sim.run_until(30_s);
  EXPECT_GT(events, 0);  // picked up at t = 10..25 s
  EXPECT_EQ(accel.motion_events(), static_cast<std::uint64_t>(events));
}

TEST_F(AccelFixture, DebounceLimitsEventRate) {
  power_all();
  accel.enter_motion_detect(cpu);
  sim.run_until(25_s);
  // 15 s of motion with 0.4 s debounce: at most ~38 events.
  EXPECT_LE(accel.motion_events(), 40u);
  EXPECT_GE(accel.motion_events(), 10u);
}

TEST_F(AccelFixture, ModeCurrents) {
  power_all();
  EXPECT_DOUBLE_EQ(accel.supply_current().value(), 0.0);
  accel.enter_motion_detect(cpu);
  EXPECT_NEAR(accel.supply_current().value(), 10e-6, 1e-9);
  accel.enter_measurement();
  EXPECT_NEAR(accel.supply_current().value(), 120e-6, 1e-9);
}

TEST_F(AccelFixture, ReadSampleReturnsScenario) {
  power_all();
  accel.enter_measurement();
  bool got = false;
  AccelSample s;
  sim.schedule_at(15_s, [&] {
    accel.read_sample(cpu, [&](const AccelSample& sample) {
      got = true;
      s = sample;
    });
  });
  sim.run_until(15.1_s);
  ASSERT_TRUE(got);
  // Sample must match the scenario at its timestamp.
  const auto expected = demo.at(s.timestamp.value());
  EXPECT_NEAR(s.accel.x, expected.x, 1e-9);
  EXPECT_NEAR(s.accel.z, expected.z, 1e-9);
}

TEST_F(AccelFixture, UndervoltageForcesOff) {
  power_all();
  accel.enter_motion_detect(cpu);
  accel.set_supply(1.5_V);  // below vdd_min
  EXPECT_EQ(accel.mode(), Sca3000::Mode::kOff);
  EXPECT_DOUBLE_EQ(accel.supply_current().value(), 0.0);
  sim.run_until(30_s);
  EXPECT_EQ(accel.motion_events(), 0u);
}

TEST_F(AccelFixture, MeasurementModeRequiredForRead) {
  power_all();
  EXPECT_THROW(accel.read_sample(cpu, {}), pico::DesignError);
}

}  // namespace
}  // namespace pico::sensors
