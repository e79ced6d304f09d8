#include "radio/receiver.hpp"

#include <cmath>

#include "common/error.hpp"

namespace pico::radio {

SuperregenReceiver::SuperregenReceiver(Channel channel)
    : SuperregenReceiver(std::move(channel), Params{}) {}

SuperregenReceiver::SuperregenReceiver(Channel channel, Params p, std::uint64_t seed)
    : channel_(std::move(channel)), prm_(p), rng_(seed) {}

double SuperregenReceiver::ook_ber(double snr_linear) {
  if (snr_linear <= 0.0) return 0.5;
  return 0.5 * std::exp(-snr_linear / 2.0);
}

std::optional<double> SuperregenReceiver::capture_sinr(double p_rx_w,
                                                       double interference_w,
                                                       double noise_w,
                                                       double capture_ratio) {
  if (p_rx_w < interference_w * capture_ratio) return std::nullopt;
  return p_rx_w / (noise_w + interference_w);
}

SuperregenReceiver::Reception SuperregenReceiver::receive(const RfFrame& frame) {
  // One fading draw per frame: detection and bit errors must agree on the
  // realization this frame actually saw.
  return receive(frame, channel_.sample_link(frame.tx_power, frame.data_rate));
}

SuperregenReceiver::Reception SuperregenReceiver::receive(
    const RfFrame& frame, const Channel::LinkSample& link) {
  Reception r;
  ++frames_seen_;
  airtime_s_ += frame.airtime().value();
  r.rx_power_dbm = link.rx_dbm;
  if (r.rx_power_dbm < prm_.sensitivity_dbm) {
    return r;  // below squelch: seen but not detected
  }
  r.detected = true;
  ++frames_detected_;
  r.snr_db = ratio_to_db(link.snr);
  const double ber = ook_ber(link.snr);

  // Flip bits independently with probability `ber`.
  auto bits = bytes_to_bits(frame.bytes);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (rng_.chance(ber)) {
      bits[i] = !bits[i];
      ++r.bit_errors;
    }
  }
  const auto bytes = bits_to_bytes(bits);
  r.packet = codec_.decode(bytes);
  if (r.packet.has_value()) ++frames_decoded_;
  return r;
}

}  // namespace pico::radio
