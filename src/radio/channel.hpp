// channel.hpp — RF propagation between the Cube and the demo receiver.
//
// Friis free-space loss at 1.863 GHz plus antenna gains and an orientation
// factor ("range is about 1 meter depending on orientation of the
// antenna"), with optional log-normal shadowing. Noise floor from kTB and
// the receiver noise figure.
#pragma once

#include "common/rng.hpp"
#include "common/units.hpp"
#include "radio/antenna.hpp"
#include "radio/transmitter.hpp"

namespace pico::radio {

class Channel {
 public:
  struct Params {
    Length distance{1.0};
    double tx_alignment = 1.0;   // antenna orientation factor [0, 1]
    double rx_gain_dbi = 2.0;    // receiver board antenna
    double shadowing_sigma_db = 0.0;  // log-normal shadowing (0 = off)
    Temperature noise_temp{300.0};
    double noise_figure_db = 10.0;    // superregen front-end
  };

  Channel(PatchAntenna tx_antenna, Params p, std::uint64_t seed = 42);
  explicit Channel(PatchAntenna tx_antenna);

  // One fading realization of a link: every field derives from the same
  // shadowing draw, so a frame's detection decision and its bit-error rate
  // are consistent. This is the unit the receiver and the base station
  // consume — call it once per frame.
  struct LinkSample {
    Power p_rx{};          // received power after path loss + shadowing
    double rx_dbm = -999.0;
    double snr = 0.0;      // linear, in the bandwidth matched to data_rate
  };
  [[nodiscard]] LinkSample sample_link(Power tx_power, Frequency data_rate);

  // Received power for a frame sent at `tx_power`. Each call with
  // shadowing enabled is an independent fading draw — use sample_link()
  // when the same frame also needs an SNR.
  [[nodiscard]] Power received_power(Power tx_power);
  [[nodiscard]] double received_power_dbm(Power tx_power);

  // Noise power in a bandwidth matched to the data rate (B ~ 2 * rate).
  [[nodiscard]] Power noise_power(Frequency data_rate) const;
  [[nodiscard]] const Params& params() const { return prm_; }
  [[nodiscard]] const PatchAntenna& tx_antenna() const { return tx_ant_; }

 private:
  PatchAntenna tx_ant_;
  Params prm_;
  Rng rng_;
};

}  // namespace pico::radio
