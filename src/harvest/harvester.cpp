#include "harvest/harvester.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/mathutil.hpp"

namespace pico::harvest {

Power Harvester::matched_power(double t) const {
  const double voc = open_circuit_voltage(t);
  return Power{voc * voc / (4.0 * source_resistance().value())};
}

double Harvester::emf_bound(double, double) const {
  return std::numeric_limits<double>::infinity();
}

int Harvester::sweep_emf(double t0, double dt, int k0, int k1, double /*quiet*/,
                         double* out, int* visited) const {
  int n = 0;
  for (int k = k0; k < k1; ++k) out[n++] = open_circuit_voltage(t0 + (k + 0.5) * dt);
  if (visited != nullptr) *visited = n;
  return n;
}

// ---------------------------------------------------------------------------
// ElectromagneticShaker
// ---------------------------------------------------------------------------
ElectromagneticShaker::ElectromagneticShaker(SpeedProfile profile)
    : ElectromagneticShaker(std::move(profile), Params{}) {}

ElectromagneticShaker::ElectromagneticShaker(SpeedProfile profile, Params p)
    : profile_(std::move(profile)), prm_(p) {
  PICO_REQUIRE(prm_.pulses_per_rev > 0, "pulses per revolution must be positive");
  PICO_REQUIRE(prm_.coil_resistance.value() > 0.0, "coil resistance must be positive");
  PICO_REQUIRE(prm_.ring_frequency.value() > 0.0, "ring frequency must be positive");
  PICO_REQUIRE(prm_.ring_decay.value() > 0.0, "ring decay must be positive");
  // The ring age divides by the pulse rate, and emf_bound assumes a
  // non-negative peak.
  PICO_REQUIRE(prm_.min_omega > 0.0, "minimum angular speed must be positive");
  PICO_REQUIRE(prm_.volts_per_rad_per_s >= 0.0 && prm_.clamp.value() >= 0.0,
               "EMF coefficient and clamp must be non-negative");
}

double ElectromagneticShaker::pulse_phase(double angle) const {
  return angle / (2.0 * M_PI) * prm_.pulses_per_rev;
}

double ElectromagneticShaker::ring_age(double omega, double phase) const {
  const double frac = phase - std::floor(phase);
  // Time since the last magnet pass, approximated with the current speed
  // (speed changes slowly relative to a revolution).
  const double pulse_rate = omega / (2.0 * M_PI) * prm_.pulses_per_rev;  // pulses/s
  return frac / pulse_rate;
}

double ElectromagneticShaker::ring_voltage(double omega, double since) const {
  const double vpeak =
      std::min(prm_.volts_per_rad_per_s * omega, prm_.clamp.value());
  const double envelope = std::exp(-since / prm_.ring_decay.value());
  return vpeak * envelope * std::sin(2.0 * M_PI * prm_.ring_frequency.value() * since);
}

double ElectromagneticShaker::open_circuit_voltage(double t) const {
  const double omega = profile_.omega(t);
  if (omega < prm_.min_omega) return 0.0;
  return ring_voltage(omega, ring_age(omega, pulse_phase(profile_.angle(t))));
}

namespace {
// Relative slack on the window's peak speed: covers the rounding of the
// profile's interpolation and loop folding (a few ulps) many times over.
constexpr double kOmegaMargin = 1e-9;
// Slack on the ring-age cutoff, in e-folds: covers the rounding of exp,
// log, the division and the two products of ring_voltage.
constexpr double kDecayMargin = 1e-9;
// Bound on how far two computed pulse phases of one sweep can stray from
// the exact phase difference of their sample times, in pulses: an absolute
// floor for the profile's interpolation and cumulative-angle rounding, plus
// ~45 ulps of the phase and of the phase advance over one ulp of the time
// (sample-time and loop-folding rounding), so it holds deep into long runs.
constexpr double kPhaseSlack = 1e-6;
constexpr double kPhaseSlackRel = 1e-14;
}  // namespace

double ElectromagneticShaker::emf_bound_at(double w) const {
  // |voc| <= vpeak = min(k * omega, clamp): the ring envelope and the sine
  // never exceed 1, and a product with a factor <= 1 rounds to at most the
  // other factor.
  if (w < prm_.min_omega) return 0.0;  // every sample is below min_omega
  return std::min(prm_.volts_per_rad_per_s * w, prm_.clamp.value());
}

double ElectromagneticShaker::emf_bound(double t0, double t1) const {
  return emf_bound_at(profile_.max_omega(t0, t1) * (1.0 + kOmegaMargin));
}

int ElectromagneticShaker::sweep_emf(double t0, double dt, int k0, int k1, double quiet,
                                     double* out, int* visited) const {
  // |voc| <= bound * exp(-since / tau), so once the ring age passes
  // since / tau >= ln(bound / quiet) no sample can exceed `quiet`.
  double decay_cut = std::numeric_limits<double>::infinity();
  // Peak pulse rate over the chunk (pulses/s); 0 while nothing is culled.
  double r_max = 0.0;
  const double tau = prm_.ring_decay.value();
  if (quiet > 0.0) {
    const double w = profile_.max_omega(t0 + k0 * dt, t0 + k1 * dt) * (1.0 + kOmegaMargin);
    const double bound = emf_bound_at(w);
    decay_cut = bound <= quiet ? 0.0 : std::log(bound / quiet) + kDecayMargin;
    r_max = w / (2.0 * M_PI) * prm_.pulses_per_rev * (1.0 + kOmegaMargin);
  }
  // Pulse skipping. The phase only grows, at no more than r_max, and the
  // ring age is frac / rate with rate <= r_max. So once a culled sample's
  // pulse fraction satisfies (frac - slack) / r_max >= cut * tau, every
  // sample before the next magnet pass is culled too: its fraction is at
  // least frac - slack and its rate at most r_max. The pass cannot come
  // sooner than (1 - frac - slack) / r_max; one sample of time slack and a
  // second `slack` keep the jump short of it. Visited samples run exactly
  // the operations they would without the jump, so the output is the same.
  const double skip_age = decay_cut * tau * (1.0 + kDecayMargin);
  const bool drop_silent = quiet >= 0.0;  // below min_omega the EMF is exactly 0
  SpeedProfile::Cursor cursor(profile_);
  int n = 0;
  int looked_up = 0;
  for (int k = k0; k < k1; ++k) {
    ++looked_up;
    const double t = t0 + (k + 0.5) * dt;
    const auto [omega, angle] = cursor.sample(t);
    if (omega < prm_.min_omega) {
      if (!drop_silent) out[n++] = 0.0;
      continue;
    }
    const double phase = pulse_phase(angle);
    const double since = ring_age(omega, phase);
    if (since / tau >= decay_cut) {
      const double frac = phase - std::floor(phase);
      const double slack =
          kPhaseSlack + kPhaseSlackRel * (std::fabs(phase) + r_max * std::fabs(t));
      if ((frac - slack) / r_max >= skip_age) {
        // Clamped in double: a tiny dt makes the count overflow int.
        const double jump = std::floor((1.0 - frac - 2.0 * slack) / (r_max * dt)) - 1.0;
        if (jump >= 1.0) k += static_cast<int>(std::min(jump, static_cast<double>(k1 - 1 - k)));
      }
      continue;
    }
    out[n++] = ring_voltage(omega, since);
  }
  if (visited != nullptr) *visited = looked_up;
  return n;
}

Duration ElectromagneticShaker::waveform_period(double t) const {
  const double omega = profile_.omega(t);
  if (omega < prm_.min_omega) return Duration{0.0};
  return Duration{2.0 * M_PI / (omega * prm_.pulses_per_rev)};
}

// ---------------------------------------------------------------------------
// ResonantVibrationHarvester
// ---------------------------------------------------------------------------
ResonantVibrationHarvester::ResonantVibrationHarvester()
    : ResonantVibrationHarvester(Params{}) {}

ResonantVibrationHarvester::ResonantVibrationHarvester(Params p) : prm_(p) {
  PICO_REQUIRE(prm_.proof_mass.value() > 0.0, "proof mass must be positive");
  PICO_REQUIRE(prm_.resonance.value() > 0.0, "resonance must be positive");
  PICO_REQUIRE(prm_.zeta_mech > 0.0 && prm_.zeta_elec > 0.0, "damping ratios must be positive");
}

Length ResonantVibrationHarvester::displacement(Acceleration amplitude, Frequency freq) const {
  const double wn = 2.0 * M_PI * prm_.resonance.value();
  const double w = 2.0 * M_PI * freq.value();
  const double r = w / wn;
  const double zt = prm_.zeta_mech + prm_.zeta_elec;
  const double denom = std::sqrt((1.0 - r * r) * (1.0 - r * r) + (2.0 * zt * r) * (2.0 * zt * r));
  // Z = Y0 r^2 / D with Y0 = A/w^2, so Z = (A / wn^2) / D (Williams–Yates).
  const double z = amplitude.value() / (wn * wn) / denom;
  return Length{std::min(z, prm_.max_displacement.value())};
}

Power ResonantVibrationHarvester::electrical_power(Acceleration amplitude,
                                                   Frequency freq) const {
  const double wn = 2.0 * M_PI * prm_.resonance.value();
  const double w = 2.0 * M_PI * freq.value();
  const double r = w / wn;
  const double zt = prm_.zeta_mech + prm_.zeta_elec;
  const double d2 = (1.0 - r * r) * (1.0 - r * r) + (2.0 * zt * r) * (2.0 * zt * r);
  // P_e = m * zeta_e * A^2 * r^2 / (omega_n * D^2); at r=1 this reduces to
  // the classic m*zeta_e*A^2 / (4*omega_n*zeta_T^2).
  const double p =
      prm_.proof_mass.value() * prm_.zeta_elec * amplitude.value() * amplitude.value() * r * r /
      (wn * d2);
  // Respect the displacement stop: power saturates once the proof mass
  // hits the travel limit (displacement-limited regime).
  const double z_free = amplitude.value() / (wn * wn) / std::sqrt(d2);
  const double zmax = prm_.max_displacement.value();
  if (z_free > zmax) {
    const double scale = zmax / z_free;
    return Power{p * scale * scale};
  }
  return Power{p};
}

Power ResonantVibrationHarvester::electrical_power() const {
  return electrical_power(prm_.vib_amplitude, prm_.vib_frequency);
}

double ResonantVibrationHarvester::open_circuit_voltage(double t) const {
  // Represent the extracted power as a sinusoidal EMF behind source_res:
  // P_matched = Voc^2 / (8 R)  for a sine =>  Voc_peak = sqrt(8 R P).
  const double p = electrical_power().value();
  const double vpk = std::sqrt(8.0 * prm_.source_res.value() * p);
  return vpk * std::sin(2.0 * M_PI * prm_.vib_frequency.value() * t);
}

Duration ResonantVibrationHarvester::waveform_period(double) const {
  return Duration{1.0 / prm_.vib_frequency.value()};
}

// ---------------------------------------------------------------------------
// SolarCell
// ---------------------------------------------------------------------------
namespace {
constexpr double kBoltzmann = 1.380649e-23;
constexpr double kElectronCharge = 1.602176634e-19;
}  // namespace

SolarCell::SolarCell(IrradianceProfile profile) : SolarCell(std::move(profile), Params{}) {}

SolarCell::SolarCell(IrradianceProfile profile, Params p)
    : profile_(std::move(profile)), prm_(p) {
  PICO_REQUIRE(prm_.area.value() > 0.0, "cell area must be positive");
  PICO_REQUIRE(prm_.efficiency_stc > 0.0 && prm_.efficiency_stc < 1.0,
               "efficiency must be within (0, 1)");
}

Current SolarCell::photo_current(double irradiance) const {
  // Calibrate so that MPP at STC delivers efficiency * area * 1000 W/m^2.
  // With a fill factor ~0.75 and Vmp ~ 0.8*Voc:
  const double p_stc = prm_.efficiency_stc * prm_.area.value() * 1000.0;
  const double i_sc_stc = p_stc / (0.75 * prm_.v_oc_stc.value());
  return Current{i_sc_stc * irradiance / 1000.0};
}

Current SolarCell::current_at(Voltage v, double irradiance) const {
  const double nvt =
      prm_.diode_ideality * kBoltzmann * prm_.temperature.value() / kElectronCharge;
  const double iph = photo_current(irradiance).value();
  // Saturation current fixed by Voc at STC: Iph_stc = I0*(exp(Voc/nVt)-1).
  const double iph_stc = photo_current(1000.0).value();
  const double i0 = iph_stc / (std::exp(prm_.v_oc_stc.value() / nvt) - 1.0);
  const double x = std::min(v.value() / nvt, 80.0);
  const double i = iph - i0 * (std::exp(x) - 1.0);
  return Current{i};
}

Power SolarCell::mpp(double irradiance) const {
  if (irradiance <= 0.0) return Power{0.0};
  auto neg_power = [&](double v) { return -(v * current_at(Voltage{v}, irradiance).value()); };
  const double v_best = golden_minimize(neg_power, 0.0, prm_.v_oc_stc.value() * 1.05);
  const double p = v_best * current_at(Voltage{v_best}, irradiance).value();
  return Power{std::max(p, 0.0)};
}

Power SolarCell::mpp_at_time(double t) const { return mpp(profile_.at(t)); }

double SolarCell::open_circuit_voltage(double t) const {
  const double nvt =
      prm_.diode_ideality * kBoltzmann * prm_.temperature.value() / kElectronCharge;
  const double iph = photo_current(profile_.at(t)).value();
  const double iph_stc = photo_current(1000.0).value();
  const double i0 = iph_stc / (std::exp(prm_.v_oc_stc.value() / nvt) - 1.0);
  if (iph <= 0.0) return 0.0;
  return nvt * std::log(iph / i0 + 1.0);
}

}  // namespace pico::harvest
