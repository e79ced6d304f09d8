// Tests for the §7 "ongoing work" extensions: wake-up radio and the solar
// node variant.
#include <gtest/gtest.h>

#include "core/node.hpp"
#include "radio/wakeup.hpp"

namespace pico {
namespace {

using namespace pico::literals;

// --- Wake-up radio (§7.3) -----------------------------------------------------

TEST(WakeupReceiver, WaterfallAroundSensitivity) {
  radio::WakeupReceiver rx;
  const double s = rx.params().sensitivity_dbm;
  EXPECT_GT(rx.wake_probability(s + 10.0), 0.99);
  EXPECT_LT(rx.wake_probability(s - 10.0), 0.01);
  // At sensitivity the per-chip probability is ~0.5: a 16-chip code with
  // <= 1 error almost never correlates.
  EXPECT_LT(rx.wake_probability(s), 0.01);
}

TEST(WakeupReceiver, ChipProbabilityMonotone) {
  radio::WakeupReceiver rx;
  double prev = 0.0;
  for (double dbm = -80.0; dbm <= -30.0; dbm += 2.0) {
    const double p = rx.chip_success_probability(dbm);
    EXPECT_GE(p, prev);
    prev = p;
  }
  EXPECT_LT(prev, 1.0);
}

TEST(WakeupReceiver, TryWakeIsDeterministicPerSeed) {
  radio::WakeupReceiver a{radio::WakeupReceiver::Params{}, 5};
  radio::WakeupReceiver b{radio::WakeupReceiver::Params{}, 5};
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.try_wake(-56.0), b.try_wake(-56.0));
  }
  EXPECT_EQ(a.wakes_seen(), b.wakes_seen());
}

TEST(WakeupReceiver, CodeTimingAndFalseWakes) {
  radio::WakeupReceiver rx;
  EXPECT_NEAR(rx.code_duration().value(), 16.0 / 10e3, 1e-12);
  EXPECT_NEAR(rx.expected_false_wakes(Duration{7200.0}), 2.0, 1e-9);
}

TEST(WakeupDuty, BeaconAverageMatchesNodeScale) {
  radio::WakeupDutyAnalysis an{radio::WakeupDutyAnalysis::Inputs{}};
  // Defaults mirror the measured node: ~6.8 uW at the 6 s cadence.
  EXPECT_NEAR(an.beacon_average(6_s).value(), 6.8e-6, 0.6e-6);
}

TEST(WakeupDuty, FiftyMicrowattListenerNeverWins) {
  // Ref [16]-era 50 uW listeners cost more than the whole beaconing node:
  // the crossover does not exist.
  radio::WakeupDutyAnalysis an{radio::WakeupDutyAnalysis::Inputs{}};
  EXPECT_DOUBLE_EQ(an.crossover_query_rate(6_s), 0.0);
}

TEST(WakeupDuty, MicrowattListenerWins) {
  radio::WakeupDutyAnalysis::Inputs in;
  in.wakeup_listen = Power{1e-6};  // the later-art single-uW class
  radio::WakeupDutyAnalysis an{in};
  const double q = an.crossover_query_rate(6_s);
  EXPECT_GT(q, 0.0);
  // Below the crossover the wake-up node is cheaper.
  EXPECT_LT(an.wakeup_average(q * 0.5).value(), an.beacon_average(6_s).value());
  EXPECT_GT(an.wakeup_average(q * 2.0).value(), an.beacon_average(6_s).value());
}

TEST(WakeupDuty, RequiredListenPowerIsMicrowattClass) {
  radio::WakeupDutyAnalysis an{radio::WakeupDutyAnalysis::Inputs{}};
  const auto budget = an.required_listen_power(6_s, 1.0 / 60.0);
  EXPECT_GT(budget.value(), 0.2e-6);
  EXPECT_LT(budget.value(), 3e-6);
}

// --- Solar node variant ----------------------------------------------------------

TEST(SolarNode, NeutralUnderGoodLight) {
  core::NodeConfig cfg;
  cfg.drive = harvest::make_parked(600_s);
  cfg.attach_harvester = true;
  cfg.harvester = core::NodeConfig::HarvesterKind::kSolar;
  harvest::IrradianceProfile::Params ip;
  ip.peak_w_per_m2 = 400.0;
  ip.daylight_fraction = 1.0;  // well-lit bench
  cfg.irradiance = harvest::IrradianceProfile{ip};
  cfg.battery_initial_soc = 0.5;
  core::PicoCubeNode node(cfg);
  node.run(300_s);
  const auto r = node.report();
  EXPECT_GT(r.harvested_energy_in.value(), r.battery_energy_out.value());
  EXPECT_GT(r.soc_end, r.soc_start);
}

TEST(SolarNode, DarkNodeDischarges) {
  core::NodeConfig cfg;
  cfg.drive = harvest::make_parked(600_s);
  cfg.attach_harvester = true;
  cfg.harvester = core::NodeConfig::HarvesterKind::kSolar;
  harvest::IrradianceProfile::Params ip;
  ip.peak_w_per_m2 = 0.0;
  ip.floor_w_per_m2 = 0.0;
  cfg.irradiance = harvest::IrradianceProfile{ip};
  core::PicoCubeNode node(cfg);
  node.run(300_s);
  const auto r = node.report();
  EXPECT_NEAR(r.harvested_energy_in.value(), 0.0, 1e-9);
  EXPECT_LT(r.soc_end, r.soc_start);
}

TEST(SolarNode, OfficeLightIsMarginal) {
  // Dim office light (2 W/m^2 floor only) on a 0.8 cm^2 cell: ~a few uW
  // at the MPP — right at the node's consumption. The intro's "well-lit
  // conditions" caveat is real.
  core::NodeConfig cfg;
  cfg.drive = harvest::make_parked(600_s);
  cfg.attach_harvester = true;
  cfg.harvester = core::NodeConfig::HarvesterKind::kSolar;
  harvest::IrradianceProfile::Params ip;
  ip.peak_w_per_m2 = 2.0;
  ip.floor_w_per_m2 = 2.0;
  cfg.irradiance = harvest::IrradianceProfile{ip};
  core::PicoCubeNode node(cfg);
  node.run(300_s);
  const auto r = node.report();
  const double harvest_w = r.harvested_energy_in.value() / r.duration.value();
  EXPECT_GT(harvest_w, 0.2e-6);
  EXPECT_LT(harvest_w, 20e-6);
}

}  // namespace
}  // namespace pico
