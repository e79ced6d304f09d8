// basestation.hpp — the receiving end of the network: one superregenerative
// data receiver (§6's demo receiver) plus a downlink that answers decoded
// frames with a wake-up code burst (§7.3: ACK = wake-up signal).
//
// The base station is also the shared medium. Each attached node reports
// frame starts and completions through its port; the station tracks every
// occupied-air interval on one timeline and resolves overlaps at the
// receiver the way a real front-end would:
//
//   - no overlap            -> demodulate at the frame's own SNR
//   - overlap, strong frame -> capture: demodulate at SINR if the wanted
//                              frame beats the sum of interferers by
//                              `capture_db`
//   - overlap, comparable   -> collision: both frames lost
//
// The capture test and the SINR are radio::SuperregenReceiver::capture_sinr
// — the same rule the sharded fleet kernel resolves its domains with.
//
// Every frame's link budget comes from ONE Channel::sample_link draw made
// at frame start (fading is frozen for the frame's duration), so the
// capture decision and the demod BER see the same realization.
//
// Decoded data frames are deduplicated per port by sequence number — a
// retransmission whose ACK was lost arrives as a duplicate, is counted,
// re-ACKed (the node is still waiting) and dropped. Delivered payload
// bits and unique frames feed energy-per-delivered-bit.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/units.hpp"
#include "obs/metrics.hpp"
#include "radio/channel.hpp"
#include "radio/receiver.hpp"
#include "radio/transmitter.hpp"
#include "sim/simulator.hpp"

namespace pico::net {

class BaseStation {
 public:
  struct Params {
    radio::SuperregenReceiver::Params rx{};  // squelch + listen power
    double capture_db = 6.0;    // wanted-over-interference margin to capture
    Duration ack_turnaround{2e-3};  // decode-to-ACK delay at the station
    // Downlink burst power. The station is wall-powered (it feeds a
    // laptop), so it shouts 20 dBm at the node's deliberately deaf
    // envelope detector — a node-class 0.8 dBm burst would land below
    // the wake-up sensitivity even at 1 m.
    Power ack_tx_power{100e-3};
    Frequency ack_chip_rate{10e3};  // wake-up code chip rate
    int ack_code_bits = 16;
    std::uint64_t seed = 0xBA5E;
  };

  struct Counters {
    std::uint64_t frames_on_air = 0;   // starts registered on the medium
    std::uint64_t frames_completed = 0;  // reached the receiver (not faded)
    std::uint64_t collided = 0;        // lost to a comparable interferer
    std::uint64_t captured = 0;        // decoded through interference
    std::uint64_t below_squelch = 0;   // faded under the sensitivity floor
    std::uint64_t crc_rejected = 0;    // bit errors killed the packet
    std::uint64_t delivered = 0;       // unique decoded data frames
    std::uint64_t dup_rx = 0;          // retransmissions of delivered frames
    std::uint64_t acks_sent = 0;
    std::uint64_t delivered_payload_bits = 0;
    double airtime_s = 0.0;            // medium occupancy, all ports
  };

  BaseStation(sim::Simulator& sim, Params p);

  // Attach a node: `uplink` carries its data frames to the station,
  // `downlink` carries ACK bursts back, `on_ack(rx_dbm)` delivers the
  // burst to the node's wake-up receiver (null for beacon-only nodes —
  // frames are still counted as delivered, nothing is sent back).
  // Returns the port id the node must use in frame_started/completed.
  using AckSink = std::function<void(double /*rx_dbm*/)>;
  int attach_node(radio::Channel uplink, radio::Channel downlink, AckSink on_ack);

  // Pre-size the port table and the on-air window for a fleet of `nodes`
  // attached ports, so fleet bring-up and frame bursts don't reallocate
  // mid-run. Call before the attach loop.
  void reserve_ports(std::size_t nodes);

  // Medium events, from the node transmitter's listeners. `frame_started`
  // must fire for every frame that occupies air (including ones that
  // later fade — they still jam); `frame_completed` only for frames that
  // finished cleanly and reached the receiver.
  void frame_started(int port, const radio::RfFrame& f);
  void frame_completed(int port, const radio::RfFrame& f);

  // On-air time of one ACK burst (code bits at the chip rate).
  [[nodiscard]] Duration ack_burst_duration() const;

  [[nodiscard]] const Counters& counters() const { return c_; }
  [[nodiscard]] const Params& params() const { return prm_; }
  [[nodiscard]] std::size_t ports() const { return ports_.size(); }
  [[nodiscard]] const radio::SuperregenReceiver& receiver() const { return demod_; }

  // net.* metric family (frames_on_air, collisions, delivered, dup_rx, ...).
  void publish_metrics(obs::MetricsRegistry& m) const;

 private:
  struct OnAir {
    int port = -1;
    double start_s = 0.0;
    double end_s = 0.0;
    radio::Channel::LinkSample link;  // the frame's single fading draw
  };
  struct Port {
    radio::Channel uplink;
    radio::Channel downlink;
    AckSink on_ack;
    std::optional<std::uint8_t> last_seq;  // dedup horizon (stop-and-wait)
  };

  void prune_before(double t);
  [[nodiscard]] const OnAir* find_record(int port, const radio::RfFrame& f) const;

  sim::Simulator& sim_;
  Params prm_;
  radio::SuperregenReceiver demod_;  // its own channel is unused: links
                                     // are resolved per-port, per-frame
  std::vector<Port> ports_;
  std::vector<OnAir> on_air_;
  Counters c_;
};

}  // namespace pico::net
