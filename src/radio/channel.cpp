#include "radio/channel.hpp"

#include <cmath>

#include "common/error.hpp"

namespace pico::radio {

namespace {
constexpr double kBoltzmann = 1.380649e-23;
}

Channel::Channel(PatchAntenna tx_antenna) : Channel(std::move(tx_antenna), Params{}) {}

Channel::Channel(PatchAntenna tx_antenna, Params p, std::uint64_t seed)
    : tx_ant_(std::move(tx_antenna)), prm_(p), rng_(seed) {
  PICO_REQUIRE(prm_.distance.value() > 0.0, "distance must be positive");
  PICO_REQUIRE(prm_.tx_alignment >= 0.0 && prm_.tx_alignment <= 1.0,
               "alignment must be within [0, 1]");
}

Power Channel::received_power(Power tx_power) {
  const double f = tx_ant_.params().frequency.value();
  const double pl = friis_path_loss(Frequency{f}, prm_.distance);
  const double g_tx = tx_ant_.gain_at_orientation(prm_.tx_alignment);
  const double g_rx = db_to_ratio(prm_.rx_gain_dbi);
  double p = tx_power.value() * g_tx * g_rx / pl;
  if (prm_.shadowing_sigma_db > 0.0) {
    const double shadow_db = rng_.normal(0.0, prm_.shadowing_sigma_db);
    p *= db_to_ratio(shadow_db);
  }
  return Power{p};
}

Channel::LinkSample Channel::sample_link(Power tx_power, Frequency data_rate) {
  LinkSample s;
  s.p_rx = received_power(tx_power);  // the frame's single shadowing draw
  s.rx_dbm = watts_to_dbm(s.p_rx);
  s.snr = s.p_rx.value() / noise_power(data_rate).value();
  return s;
}

double Channel::received_power_dbm(Power tx_power) {
  return watts_to_dbm(received_power(tx_power));
}

Power Channel::noise_power(Frequency data_rate) const {
  const double bandwidth = 2.0 * data_rate.value();  // OOK matched filter
  const double n = kBoltzmann * prm_.noise_temp.value() * bandwidth *
                   db_to_ratio(prm_.noise_figure_db);
  return Power{n};
}

}  // namespace pico::radio
