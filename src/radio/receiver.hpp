// receiver.hpp — the demo receiver (paper §6): another BWRC research
// radio, the 400 uW superregenerative transceiver of ref [12], feeding a
// laptop display.
//
// OOK demodulation is modeled at the bit level: noncoherent OOK has
// BER ~ 0.5 * exp(-SNR/2); each received frame's bits are flipped with
// that probability (deterministic seeded RNG) and handed to the packet
// codec, whose CRC rejects corrupted frames — so packet-error rate vs
// range emerges from the link physics.
//
// Counter semantics (each frame increments exactly one rung past the
// last it clears, and every earlier rung):
//   frames_seen     — every frame presented to the receiver. Airtime
//                     accrues here: a below-squelch frame still occupied
//                     the medium for its full on-air interval (startup
//                     chirp + data bits).
//   frames_detected — frames whose received power cleared the squelch
//                     threshold (sensitivity_dbm) on this frame's fading
//                     realization; only these are demodulated.
//   frames_decoded  — detected frames whose CRC survived the bit flips.
// So seen >= detected >= decoded, and seen - detected frames fell below
// squelch (range/orientation/fade), detected - decoded frames died to
// bit errors.
#pragma once

#include <cstdint>
#include <optional>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "radio/channel.hpp"
#include "radio/packet.hpp"

namespace pico::radio {

class SuperregenReceiver {
 public:
  struct Params {
    Power rx_power{400e-6};       // DC draw while listening (ref [12])
    double sensitivity_dbm = -75.0;  // squelch threshold
  };

  SuperregenReceiver(Channel channel, Params p, std::uint64_t seed = 7);
  explicit SuperregenReceiver(Channel channel);

  // Theoretical noncoherent-OOK bit error rate at a linear SNR.
  [[nodiscard]] static double ook_ber(double snr_linear);
  // Front-end capture of a wanted frame at `p_rx_w` against the summed
  // power of every overlapping frame: the frame is lost to a collision
  // (nullopt) unless it beats the interference by the linear
  // `capture_ratio`; a captured frame demodulates at the SINR returned,
  // interference joining the noise floor. The one capture rule of the
  // shared-timeline station (net::BaseStation) and the fleet kernel.
  [[nodiscard]] static std::optional<double> capture_sinr(double p_rx_w,
                                                          double interference_w,
                                                          double noise_w,
                                                          double capture_ratio);

  struct Reception {
    bool detected = false;         // above sensitivity
    double rx_power_dbm = -999.0;
    double snr_db = -999.0;
    std::size_t bit_errors = 0;
    std::optional<Packet> packet;  // decoded if CRC passed
  };

  // Demodulate one transmitted frame. Draws one fading realization from
  // the channel (Channel::sample_link) — detection and bit errors both
  // derive from that single draw.
  [[nodiscard]] Reception receive(const RfFrame& frame);
  // Demodulate against an externally-resolved link sample. The base
  // station uses this after collision/capture resolution, where the
  // effective SNR is an SINR the channel alone cannot know.
  [[nodiscard]] Reception receive(const RfFrame& frame, const Channel::LinkSample& link);

  [[nodiscard]] Channel& channel() { return channel_; }
  [[nodiscard]] const Params& params() const { return prm_; }
  [[nodiscard]] std::uint64_t frames_seen() const { return frames_seen_; }
  [[nodiscard]] std::uint64_t frames_detected() const { return frames_detected_; }
  [[nodiscard]] std::uint64_t frames_decoded() const { return frames_decoded_; }
  [[nodiscard]] const PacketCodec& codec() const { return codec_; }

  // The receiver side has an energy budget too (ref [12]: 400 uW RX).
  [[nodiscard]] Energy listen_energy(Duration window) const {
    return Energy{prm_.rx_power.value() * window.value()};
  }
  // Cumulative occupied-air time of every frame seen (startup + bits),
  // matching RfFrame::airtime() / FbarOokTransmitter::airtime().
  [[nodiscard]] Duration airtime_seen() const { return Duration{airtime_s_}; }

 private:
  Channel channel_;
  Params prm_;
  PacketCodec codec_;
  Rng rng_;
  std::uint64_t frames_seen_ = 0;
  std::uint64_t frames_detected_ = 0;
  std::uint64_t frames_decoded_ = 0;
  double airtime_s_ = 0.0;
};

}  // namespace pico::radio
