// Tests for harvester models and motion profiles.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "harvest/harvester.hpp"
#include "harvest/profiles.hpp"

namespace pico::harvest {
namespace {

using namespace pico::literals;

TEST(SpeedProfile, InterpolatesAndIntegrates) {
  SpeedProfile p({{0.0, 0.0}, {10.0, 10.0}});
  EXPECT_DOUBLE_EQ(p.omega(5.0), 5.0);
  // angle = integral of ramp = t^2/2.
  EXPECT_NEAR(p.angle(10.0), 50.0, 1e-9);
  EXPECT_NEAR(p.angle(5.0), 12.5, 1e-9);
  // Holds final speed.
  EXPECT_DOUBLE_EQ(p.omega(20.0), 10.0);
  EXPECT_NEAR(p.angle(20.0), 50.0 + 100.0, 1e-9);
}

TEST(SpeedProfile, LoopingRepeats) {
  SpeedProfile p({{0.0, 2.0}, {10.0, 2.0}}, /*loop=*/true);
  EXPECT_DOUBLE_EQ(p.omega(25.0), 2.0);
  EXPECT_NEAR(p.angle(25.0), 50.0, 1e-9);
}

TEST(SpeedProfile, AngleIsMonotone) {
  auto p = make_city_cycle();
  double prev = p.angle(0.0);
  for (double t = 1.0; t < 400.0; t += 1.0) {
    const double a = p.angle(t);
    EXPECT_GE(a, prev - 1e-9);
    prev = a;
  }
}

TEST(SpeedProfile, RejectsBadInput) {
  EXPECT_THROW(SpeedProfile({{1.0, 0.0}, {0.5, 1.0}}), pico::DesignError);
  EXPECT_THROW(SpeedProfile({{0.0, -1.0}}), pico::DesignError);
}

TEST(SpeedProfile, RejectsNonFiniteBreakpoints) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // A one-point profile with a NaN time used to pass every ordering check
  // and then read past its one breakpoint in omega().
  EXPECT_THROW(SpeedProfile({{nan, 10.0}}), pico::DesignError);
  EXPECT_THROW(SpeedProfile({{0.0, 1.0}, {nan, 2.0}, {3.0, 1.0}}), pico::DesignError);
  EXPECT_THROW(SpeedProfile({{0.0, 1.0}, {inf, 2.0}}), pico::DesignError);
  EXPECT_THROW(SpeedProfile({{-inf, 1.0}, {0.0, 2.0}}), pico::DesignError);
  EXPECT_THROW(SpeedProfile({{0.0, nan}}), pico::DesignError);
  EXPECT_THROW(SpeedProfile({{0.0, 1.0}, {1.0, inf}}, true), pico::DesignError);
}

TEST(SpeedProfile, CursorSampleMatchesScalarQueries) {
  // Cursor::sample shares one segment search between omega and angle. The
  // two fold t into a loop by different formulas (fmod vs. floor), which
  // can disagree in the last bit for a span like 0.3; then it must fall
  // back to a separate omega lookup.
  const std::vector<SpeedProfile> profiles = {
      make_city_cycle(),
      make_bicycle_ride(),
      SpeedProfile({{0.1, 3.0}, {0.25, 40.0}, {0.4, 7.0}}, true),
      SpeedProfile({{-2.0, 5.0}, {1.5, 90.0}, {4.0, 20.0}}),
      SpeedProfile({{0.0, 12.0}}),
  };
  Rng rng(2020);
  int fold_disagreements = 0;  // on the 0.1..0.4 loop
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const SpeedProfile& p = profiles[i];
    SpeedProfile::Cursor cursor(p);
    for (int k = 0; k < 20000; ++k) {
      // Mostly forward in time, with backward jumps and large times.
      const double t = k % 97 == 0 ? rng.uniform(-5.0, 1e7) : rng.uniform(-1.0, 1.0) + 1e-3 * k;
      const auto s = cursor.sample(t);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(s.omega), std::bit_cast<std::uint64_t>(p.omega(t)))
          << "t=" << t;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(s.angle), std::bit_cast<std::uint64_t>(p.angle(t)))
          << "t=" << t;
      if (i == 2) {
        const double shifted = std::max(t - 0.1, 0.0);
        const double span = 0.4 - 0.1;
        fold_disagreements +=
            std::fmod(shifted, span) != shifted - std::floor(shifted / span) * span ? 1 : 0;
      }
    }
  }
  EXPECT_GT(fold_disagreements, 0);
}

TEST(Shaker, SilentWhenParked) {
  ElectromagneticShaker shaker(make_parked(100_s));
  for (double t = 0.0; t < 10.0; t += 0.1) {
    EXPECT_DOUBLE_EQ(shaker.open_circuit_voltage(t), 0.0);
  }
  EXPECT_DOUBLE_EQ(shaker.waveform_period(1.0).value(), 0.0);
}

TEST(Shaker, PulsesWhenRolling) {
  ElectromagneticShaker shaker(make_highway_cycle());
  double vmax = 0.0;
  for (double t = 10.0; t < 11.0; t += 1e-4) {
    vmax = std::max(vmax, std::fabs(shaker.open_circuit_voltage(t)));
  }
  EXPECT_GT(vmax, 0.5);  // highway speed gives a solid pulse amplitude
  EXPECT_LE(vmax, shaker.params().clamp.value());
}

TEST(Shaker, AmplitudeScalesWithSpeed) {
  auto scan = [](const SpeedProfile& p) {
    ElectromagneticShaker s(p);
    double vmax = 0.0;
    for (double t = 20.0; t < 22.0; t += 1e-4) {
      vmax = std::max(vmax, std::fabs(s.open_circuit_voltage(t)));
    }
    return vmax;
  };
  const double v_city = scan(make_city_cycle());
  const double v_highway = scan(make_highway_cycle());
  EXPECT_GT(v_highway, v_city);
}

TEST(Shaker, PeriodTracksRotation) {
  ElectromagneticShaker shaker(make_highway_cycle());
  const double omega = shaker.profile().omega(10.0);
  const double expected = 2.0 * M_PI / (omega * shaker.params().pulses_per_rev);
  EXPECT_NEAR(shaker.waveform_period(10.0).value(), expected, 1e-12);
}

TEST(Vibration, ResonantPowerMatchesClosedForm) {
  ResonantVibrationHarvester h;
  const auto& p = h.params();
  const double wn = 2.0 * M_PI * p.resonance.value();
  const double zt = p.zeta_mech + p.zeta_elec;
  const double a = p.vib_amplitude.value();
  const double expected = p.proof_mass.value() * p.zeta_elec * a * a / (4.0 * wn * zt * zt);
  // Default is excited exactly at resonance (and below the travel stop?).
  const double z = h.displacement(p.vib_amplitude, p.vib_frequency).value();
  if (z < p.max_displacement.value()) {
    EXPECT_NEAR(h.electrical_power().value(), expected, expected * 1e-9);
  } else {
    EXPECT_LE(h.electrical_power().value(), expected);
  }
}

TEST(Vibration, PowerPeaksAtResonance) {
  ResonantVibrationHarvester h;
  const double at_res = h.electrical_power(Acceleration{2.5}, Frequency{120.0}).value();
  const double below = h.electrical_power(Acceleration{2.5}, Frequency{60.0}).value();
  const double above = h.electrical_power(Acceleration{2.5}, Frequency{240.0}).value();
  EXPECT_GT(at_res, below);
  EXPECT_GT(at_res, above);
}

TEST(Vibration, DisplacementLimitSaturatesPower) {
  ResonantVibrationHarvester::Params p;
  p.max_displacement = Length{1e-5};  // very tight stop
  ResonantVibrationHarvester tight(p);
  ResonantVibrationHarvester::Params p2;
  p2.max_displacement = Length{1.0};
  ResonantVibrationHarvester loose(p2);
  const auto a = Acceleration{25.0};
  EXPECT_LT(tight.electrical_power(a, Frequency{120.0}).value(),
            loose.electrical_power(a, Frequency{120.0}).value());
}

TEST(Vibration, MicrowattScaleAtTypicalVibration) {
  // 1 g proof mass at 2.5 m/s^2, 120 Hz: tens to hundreds of uW — the
  // range the paper's refs [4,5] report for this class of scavenger.
  ResonantVibrationHarvester h;
  const double p = h.electrical_power().value();
  EXPECT_GT(p, 1e-6);
  EXPECT_LT(p, 1e-3);
}

TEST(Solar, OpenCircuitVoltageRises) {
  SolarCell cell{IrradianceProfile{}};
  const double v_dim = cell.open_circuit_voltage(0.0);  // t=0: dawn
  (void)v_dim;
  // Direct irradiance query through current_at: Voc where I crosses zero.
  const double i_at_voc = cell.current_at(Voltage{cell.params().v_oc_stc.value()}, 1000.0).value();
  EXPECT_NEAR(i_at_voc, 0.0, cell.photo_current(1000.0).value() * 0.02);
}

TEST(Solar, MppScalesWithIrradiance) {
  SolarCell cell{IrradianceProfile{}};
  const double p_full = cell.mpp(1000.0).value();
  const double p_half = cell.mpp(500.0).value();
  EXPECT_GT(p_full, p_half);
  EXPECT_GT(p_half, 0.0);
  // At STC the MPP should be close to the rated efficiency * area * 1000.
  const double rated = cell.params().efficiency_stc * cell.params().area.value() * 1000.0;
  EXPECT_NEAR(p_full, rated, rated * 0.2);
}

TEST(Solar, NightIsDark) {
  IrradianceProfile::Params ip;
  ip.floor_w_per_m2 = 0.0;
  SolarCell cell{IrradianceProfile{ip}};
  // Late night: 90 % through the day, after daylight_fraction = 50 %.
  const double t_night = 0.9 * 86400.0;
  EXPECT_NEAR(cell.mpp_at_time(t_night).value(), 0.0, 1e-12);
}

TEST(Harvester, MatchedPowerFormula) {
  ElectromagneticShaker shaker(make_highway_cycle());
  const double t = 15.0;
  const double voc = shaker.open_circuit_voltage(t);
  const double expected = voc * voc / (4.0 * shaker.source_resistance().value());
  EXPECT_NEAR(shaker.matched_power(t).value(), expected, 1e-15);
}

TEST(Irradiance, DayNightCycle) {
  IrradianceProfile p;
  const double noonish = 0.25 * 86400.0;  // middle of the daylight half
  EXPECT_GT(p.at(noonish), 300.0);
  EXPECT_NEAR(p.at(0.75 * 86400.0), 2.0, 1e-9);
}

}  // namespace
}  // namespace pico::harvest
