// fbar.hpp — Film Bulk Acoustic Resonator carrier generation (paper §4.6).
//
// "An FBAR is a MEMS device that behaves like a capacitor except at
// resonance, where it has Q > 1000." The transmitter power-cycles the
// FBAR oscillator for OOK, so the oscillator's startup time — set by the
// resonator Q — bounds the usable data rate and adds per-bit energy.
#pragma once

#include "common/units.hpp"

namespace pico::radio {

class FbarResonator {
 public:
  struct Params {
    Frequency resonance{1.863e9};  // the Cube's channel
    double q_factor = 1200.0;
  };

  FbarResonator();
  explicit FbarResonator(Params p);

  [[nodiscard]] double q_factor() const { return prm_.q_factor; }
  // Effective motional RC time constant tau = 2Q / omega_0.
  [[nodiscard]] Duration ring_time_constant() const;
  [[nodiscard]] const Params& params() const { return prm_; }

 private:
  Params prm_;
};

class FbarOscillator {
 public:
  struct Params {
    // Oscillation builds as exp(t/tau); startup is the time to grow from
    // thermal noise to full swing, ~ tau * ln(V_full / V_noise).
    double startup_log_ratio = 9.2;  // ln(1e4)
    Current core_current{180e-6};    // oscillator core at 0.65 V
    double startup_failure_prob = 0.0;  // injectable fault
  };

  FbarOscillator(FbarResonator resonator, Params p);
  explicit FbarOscillator(FbarResonator resonator);

  [[nodiscard]] Duration startup_time() const;
  [[nodiscard]] const FbarResonator& resonator() const { return res_; }
  [[nodiscard]] const Params& params() const { return prm_; }

 private:
  FbarResonator res_;
  Params prm_;
};

}  // namespace pico::radio
