// stimulus.hpp — synthetic physical environments that drive the sensor
// models (the substitution for the paper's real tire and the BWRC demo
// table).
//
// TireEnvironment: tire pressure/temperature/acceleration as a function of
// the drive cycle — pressure follows temperature via Gay-Lussac's law from
// a cold-fill reference; temperature relaxes first-order toward an
// equilibrium that rises with speed; radial acceleration is centripetal
// (omega^2 * r) at the rim where the node is mounted.
//
// MotionScenario: the retreat-demo script (Fig 7/8) — the node rests on a
// table, is picked up and waved, and is put down again.
#pragma once

#include <array>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "harvest/profiles.hpp"

namespace pico::sensors {

class TireEnvironment {
 public:
  struct Params {
    Pressure cold_pressure{220e3};       // ~32 psi gauge... stored absolute
    Temperature cold_temperature{288.0}; // 15 C fill temperature
    Temperature ambient{293.0};
    // Equilibrium temperature rise per (rad/s) of wheel speed.
    double heatup_k_per_rad_per_s = 0.35;
    Duration thermal_tau{600.0};         // ~10 min warmup constant
    Length rim_radius{0.19};             // node mount radius
    // Slow leak (fraction of pressure per day) for leak-detection demos.
    double leak_per_day = 0.0;
  };

  TireEnvironment(harvest::SpeedProfile profile, Params p);
  explicit TireEnvironment(harvest::SpeedProfile profile);

  [[nodiscard]] Temperature temperature(double t) const;
  [[nodiscard]] Pressure pressure(double t) const;
  // The same pressure from a temperature already evaluated at `t` (what
  // temperature(t) returns), so a sampler runs the thermal model once.
  [[nodiscard]] Pressure pressure(double t, Temperature temperature) const;
  // Radial (centripetal) acceleration at the node mount.
  [[nodiscard]] Acceleration radial_accel(double t) const;
  [[nodiscard]] const harvest::SpeedProfile& profile() const { return profile_; }
  [[nodiscard]] const Params& params() const { return prm_; }

 private:
  // The thermal average's sample ages and weights depend only on
  // thermal_tau. They are tabled on the first temperature() call rather
  // than in the constructor, which node setup pays for; that first call
  // writes the table, so it must not race with another on one instance.
  static constexpr int kThermalTaps = 24;
  struct ThermalTaps {
    std::array<double, kThermalTaps> age{};
    std::array<double, kThermalTaps> weight{};
    double norm = 0.0;
  };
  [[nodiscard]] const ThermalTaps& thermal_taps() const;

  harvest::SpeedProfile profile_;
  Params prm_;
  mutable std::optional<ThermalTaps> taps_;
};

// A 3-axis acceleration sample in units of m/s^2.
struct Accel3 {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;
  [[nodiscard]] double magnitude() const;
};

class MotionScenario {
 public:
  struct Segment {
    Duration start{};
    Duration end{};
    Acceleration amplitude{};  // peak dynamic acceleration while handled
    Frequency wave{2.0};       // hand-waving frequency
  };

  // Gravity is always present on z; segments add handling motion.
  explicit MotionScenario(std::vector<Segment> segments, std::uint64_t noise_seed = 1234);

  // Deterministic acceleration at time t (noise derived from quantized t).
  [[nodiscard]] Accel3 at(double t) const;
  // True while some segment is active.
  [[nodiscard]] bool in_motion(double t) const;
  [[nodiscard]] const std::vector<Segment>& segments() const { return segments_; }

  // The canonical retreat demo: still, picked up twice, still again.
  static MotionScenario retreat_demo();

 private:
  std::vector<Segment> segments_;
  std::uint64_t seed_;
};

}  // namespace pico::sensors
