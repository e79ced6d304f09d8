#include "radio/fbar.hpp"

#include <cmath>

#include "common/error.hpp"

namespace pico::radio {

FbarResonator::FbarResonator() : FbarResonator(Params{}) {}

FbarResonator::FbarResonator(Params p) : prm_(p) {
  PICO_REQUIRE(prm_.resonance.value() > 0.0, "resonance must be positive");
  PICO_REQUIRE(prm_.q_factor > 1.0, "Q must exceed 1");
}

Duration FbarResonator::ring_time_constant() const {
  const double omega = 2.0 * M_PI * prm_.resonance.value();
  return Duration{2.0 * prm_.q_factor / omega};
}

FbarOscillator::FbarOscillator(FbarResonator resonator) : FbarOscillator(resonator, Params{}) {}

FbarOscillator::FbarOscillator(FbarResonator resonator, Params p) : res_(resonator), prm_(p) {
  PICO_REQUIRE(prm_.startup_log_ratio > 0.0, "startup log ratio must be positive");
}

Duration FbarOscillator::startup_time() const {
  return Duration{res_.ring_time_constant().value() * prm_.startup_log_ratio};
}

}  // namespace pico::radio
