#include "radio/antenna.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/mathutil.hpp"

namespace pico::radio {

namespace {
constexpr double kC0 = 299792458.0;
}

PatchAntenna::PatchAntenna() : PatchAntenna(Params{}) {}

PatchAntenna::PatchAntenna(Params p) : prm_(p) {
  PICO_REQUIRE(prm_.dielectric_constant >= 1.0, "eps_r must be >= 1");
  PICO_REQUIRE(prm_.thickness.value() > 0.0, "substrate thickness must be positive");
  PICO_REQUIRE(prm_.frequency.value() > 0.0, "frequency must be positive");
}

Length PatchAntenna::resonant_length() const {
  const double lambda0 = kC0 / prm_.frequency.value();
  return Length{lambda0 / (2.0 * std::sqrt(prm_.dielectric_constant))};
}

bool PatchAntenna::fits_board() const {
  return resonant_length().value() <= prm_.board_edge.value();
}

double PatchAntenna::efficiency() const {
  // Substrate-thickness efficiency surface (anchored to the paper's
  // account): thin high-eps_r substrates confine the field and radiate
  // poorly; 70 mil would have been "acceptable", 50 mil was the
  // compromise. Values in dB at eps_r = 10.2.
  // (The electrically-small size penalty below adds ~15 dB on this board;
  // the 50 mil anchor is set so the shipped antenna lands at the measured
  // -60 dBm at 1 m through the link-budget chain.)
  static const LookupTable thickness_db({{10.0, -26.0},
                                         {20.0, -20.0},
                                         {35.0, -16.0},
                                         {50.0, -12.5},
                                         {70.0, -7.0},
                                         {100.0, -3.5}});
  const double t_mil = prm_.thickness.value() / 25.4e-6;
  double eff_db = thickness_db(t_mil);

  // Lower eps_r radiates better per unit thickness...
  eff_db += 5.0 * std::log10(10.2 / prm_.dielectric_constant);

  // ...but the patch must still fit the 8 mm board: an oversized resonant
  // length forces an electrically-small loaded patch with a steep
  // mismatch/size penalty (Chu-limit flavored, ~30 dB/decade).
  const double len_ratio = resonant_length().value() / prm_.board_edge.value();
  if (len_ratio > 1.0) eff_db -= 30.0 * std::log10(len_ratio);

  return std::min(db_to_ratio(eff_db), 1.0);
}

double PatchAntenna::efficiency_db() const { return ratio_to_db(efficiency()); }

double PatchAntenna::gain() const { return efficiency() * prm_.directivity; }

double PatchAntenna::gain_dbi() const { return ratio_to_db(gain()); }

double PatchAntenna::gain_at_orientation(double alignment) const {
  PICO_REQUIRE(alignment >= 0.0 && alignment <= 1.0, "alignment must be within [0, 1]");
  return gain() * alignment;
}

double friis_path_loss(Frequency f, Length d) {
  PICO_REQUIRE(d.value() > 0.0, "distance must be positive");
  const double lambda = kC0 / f.value();
  const double ratio = 4.0 * M_PI * d.value() / lambda;
  return std::max(ratio * ratio, 1.0);
}

}  // namespace pico::radio
