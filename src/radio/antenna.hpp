// antenna.hpp — the 1 cm^3 patch antenna (paper §4.6), the other headline
// challenge of the Cube ("the challenge of integrating interfaces such as
// antennas into such a small volume").
//
// The paper's design story: acceptable efficiency needed a patch-ground
// dielectric with eps_r > 10 at 70 mil thickness; the best material
// (Rogers 3010) peaked at 50 mil, a two-layer 50+20 bond delaminated, and
// the shipped board compromised on a single 50 mil layer. The model is an
// empirical thickness/eps_r efficiency surface anchored so the shipped
// configuration reproduces the measured -60 dBm at 1 m, with an
// electrically-small penalty when the resonant patch no longer fits the
// 8 mm board.
#pragma once

#include "common/units.hpp"

namespace pico::radio {

class PatchAntenna {
 public:
  struct Params {
    double dielectric_constant = 10.2;  // Rogers 3010
    Length thickness{50 * 25.4e-6};     // the shipped 50 mil board
    Frequency frequency{1.863e9};
    Length board_edge{8e-3};            // usable antenna aperture
    // Broadside directivity of a small patch (linear).
    double directivity = 1.8;
  };

  PatchAntenna();
  explicit PatchAntenna(Params p);

  // Resonant half-wavelength patch length in the dielectric.
  [[nodiscard]] Length resonant_length() const;
  [[nodiscard]] bool fits_board() const;

  // Total radiation efficiency (0..1), including the matching penalty when
  // the patch is forced electrically small.
  [[nodiscard]] double efficiency() const;
  [[nodiscard]] double efficiency_db() const;
  // Realized broadside gain (linear) = efficiency * directivity.
  [[nodiscard]] double gain() const;
  [[nodiscard]] double gain_dbi() const;
  // Gain reduced by an orientation misalignment factor in [0, 1].
  [[nodiscard]] double gain_at_orientation(double alignment) const;

  [[nodiscard]] const Params& params() const { return prm_; }

 private:
  Params prm_;
};

// Free-space path loss at distance d (linear power ratio >= 1).
double friis_path_loss(Frequency f, Length d);

}  // namespace pico::radio
