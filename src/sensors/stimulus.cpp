#include "sensors/stimulus.hpp"

#include <cmath>

#include "common/error.hpp"

namespace pico::sensors {

TireEnvironment::TireEnvironment(harvest::SpeedProfile profile)
    : TireEnvironment(std::move(profile), Params{}) {}

TireEnvironment::TireEnvironment(harvest::SpeedProfile profile, Params p)
    : profile_(std::move(profile)), prm_(p) {
  PICO_REQUIRE(prm_.cold_pressure.value() > 0.0, "cold pressure must be positive");
  PICO_REQUIRE(prm_.cold_temperature.value() > 0.0, "cold temperature must be positive");
  PICO_REQUIRE(prm_.thermal_tau.value() > 0.0, "thermal time constant must be positive");
}

const TireEnvironment::ThermalTaps& TireEnvironment::thermal_taps() const {
  if (!taps_) {
    const double tau = prm_.thermal_tau.value();
    const double window = 6.0 * tau;
    ThermalTaps& taps = taps_.emplace();
    for (int k = 0; k < kThermalTaps; ++k) {
      const double age = window * (k + 0.5) / kThermalTaps;
      const double w = std::exp(-age / tau);
      taps.age[static_cast<std::size_t>(k)] = age;
      taps.weight[static_cast<std::size_t>(k)] = w;
      taps.norm += w;
    }
  }
  return *taps_;
}

Temperature TireEnvironment::temperature(double t) const {
  // First-order response to the speed-dependent equilibrium, approximated
  // by an exponentially-weighted average of recent wheel speed.
  const ThermalTaps& taps = thermal_taps();
  double weighted = 0.0;
  for (std::size_t k = 0; k < taps.age.size(); ++k) {
    const double s = t - taps.age[k];
    weighted += taps.weight[k] * (s >= 0.0 ? profile_.omega(s) : 0.0);
  }
  const double omega_avg = weighted / taps.norm;
  return Temperature{prm_.ambient.value() + prm_.heatup_k_per_rad_per_s * omega_avg};
}

Pressure TireEnvironment::pressure(double t) const { return pressure(t, temperature(t)); }

Pressure TireEnvironment::pressure(double t, Temperature temperature) const {
  // Gay-Lussac from the cold fill, with an optional slow leak.
  const double temp_ratio = temperature.value() / prm_.cold_temperature.value();
  const double leak = 1.0 - prm_.leak_per_day * t / 86400.0;
  return Pressure{prm_.cold_pressure.value() * temp_ratio * std::max(leak, 0.0)};
}

Acceleration TireEnvironment::radial_accel(double t) const {
  const double omega = profile_.omega(t);
  return Acceleration{omega * omega * prm_.rim_radius.value()};
}

double Accel3::magnitude() const { return std::sqrt(x * x + y * y + z * z); }

MotionScenario::MotionScenario(std::vector<Segment> segments, std::uint64_t noise_seed)
    : segments_(std::move(segments)), seed_(noise_seed) {
  for (const auto& s : segments_) {
    PICO_REQUIRE(s.end.value() > s.start.value(), "segment must have positive duration");
  }
}

Accel3 MotionScenario::at(double t) const {
  Accel3 a;
  a.z = 9.80665;  // gravity: the node rests flat
  for (const auto& s : segments_) {
    if (t < s.start.value() || t >= s.end.value()) continue;
    const double w = 2.0 * M_PI * s.wave.value();
    const double amp = s.amplitude.value();
    // Hand motion: quasi-periodic, different phases per axis, plus a
    // deterministic jitter derived from quantized time.
    Rng jitter(seed_ ^ static_cast<std::uint64_t>(t * 997.0));
    const double j = 0.2 * amp * (jitter.uniform() - 0.5);
    a.x += amp * std::sin(w * t) + j;
    a.y += 0.7 * amp * std::sin(w * t * 1.31 + 1.0);
    a.z += 0.5 * amp * std::sin(w * t * 0.77 + 2.0);
  }
  return a;
}

MotionScenario MotionScenario::retreat_demo() {
  using namespace pico::literals;
  return MotionScenario({
      {10_s, 25_s, 6_mps2, 1.8_Hz},   // picked up, waved around
      {40_s, 48_s, 3_mps2, 1.2_Hz},   // second, gentler handling
  });
}

}  // namespace pico::sensors
