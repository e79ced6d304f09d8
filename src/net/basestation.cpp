#include "net/basestation.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "common/error.hpp"

namespace pico::net {

namespace {
// On-air records older than this can no longer overlap a live frame; any
// real frame is well under a second of airtime.
constexpr double kRecordHorizonS = 2.0;
}  // namespace

BaseStation::BaseStation(sim::Simulator& sim) : BaseStation(sim, Params{}) {}

BaseStation::BaseStation(sim::Simulator& sim, Params p)
    : sim_(sim),
      prm_(p),
      demod_(radio::Channel{radio::PatchAntenna{}}, p.rx, p.seed) {
  PICO_REQUIRE(prm_.capture_db >= 0.0, "capture margin must be non-negative");
  PICO_REQUIRE(prm_.ack_turnaround.value() >= 0.0, "turnaround must be non-negative");
  PICO_REQUIRE(prm_.ack_code_bits > 0, "ack code must have at least one bit");
  PICO_REQUIRE(prm_.ack_chip_rate.value() > 0.0, "ack chip rate must be positive");
}

void BaseStation::reserve_ports(std::size_t nodes) {
  ports_.reserve(nodes);
  // Worst case every port has one frame inside the prune horizon.
  on_air_.reserve(std::max<std::size_t>(64, nodes));
}

int BaseStation::attach_node(radio::Channel uplink, radio::Channel downlink,
                             AckSink on_ack) {
  Port port{std::move(uplink), std::move(downlink), std::move(on_ack),
            std::nullopt, 0, 0};
  ports_.push_back(std::move(port));
  return static_cast<int>(ports_.size()) - 1;
}

Duration BaseStation::ack_burst_duration() const {
  return Duration{static_cast<double>(prm_.ack_code_bits) /
                  prm_.ack_chip_rate.value()};
}

Energy BaseStation::listen_energy(Duration window) const {
  return Energy{prm_.rx.rx_power.value() * window.value()};
}

std::uint64_t BaseStation::delivered_from(int port) const {
  return ports_.at(static_cast<std::size_t>(port)).delivered;
}

std::uint64_t BaseStation::dup_from(int port) const {
  return ports_.at(static_cast<std::size_t>(port)).dup;
}

void BaseStation::prune_before(double t) {
  on_air_.erase(std::remove_if(on_air_.begin(), on_air_.end(),
                               [t](const OnAir& r) { return r.end_s < t; }),
                on_air_.end());
}

const BaseStation::OnAir* BaseStation::find_record(int port,
                                                   const radio::RfFrame& f) const {
  for (const auto& r : on_air_) {
    if (r.port == port && r.start_s == f.start.value()) return &r;
  }
  return nullptr;
}

void BaseStation::frame_started(int port, const radio::RfFrame& f) {
  PICO_REQUIRE(port >= 0 && static_cast<std::size_t>(port) < ports_.size(),
               "frame_started: unknown port");
  prune_before(sim_.now().value() - kRecordHorizonS);
  Port& p = ports_[static_cast<std::size_t>(port)];
  OnAir rec;
  rec.port = port;
  rec.start_s = f.start.value();
  rec.end_s = f.start.value() + f.airtime().value();
  // The frame's one fading draw: frozen here, consumed by the capture
  // decision and the demodulator alike.
  rec.link = p.uplink.sample_link(f.tx_power, f.data_rate);
  on_air_.push_back(rec);
  ++c_.frames_on_air;
  c_.airtime_s += f.airtime().value();
}

void BaseStation::frame_completed(int port, const radio::RfFrame& f) {
  PICO_REQUIRE(port >= 0 && static_cast<std::size_t>(port) < ports_.size(),
               "frame_completed: unknown port");
  const OnAir* rec = find_record(port, f);
  PICO_REQUIRE(rec != nullptr, "frame_completed without a matching frame_started");
  ++c_.frames_completed;

  // Sum the power of every other frame that overlapped this one.
  double interference_w = 0.0;
  for (const auto& other : on_air_) {
    if (&other == rec || other.port == rec->port) continue;
    if (other.start_s < rec->end_s && other.end_s > rec->start_s) {
      interference_w += other.link.p_rx.value();
    }
  }

  Port& p = ports_[static_cast<std::size_t>(port)];
  radio::Channel::LinkSample link = rec->link;
  if (interference_w > 0.0) {
    const std::optional<double> sinr = radio::SuperregenReceiver::capture_sinr(
        link.p_rx.value(), interference_w, p.uplink.noise_power(f.data_rate).value(),
        db_to_ratio(prm_.capture_db));
    if (!sinr) {
      ++c_.collided;
      return;  // comparable interferer: both frames die at the front end
    }
    ++c_.captured;
    link.snr = *sinr;
  }

  const auto r = demod_.receive(f, link);
  if (!r.detected) {
    ++c_.below_squelch;
    return;
  }
  if (!r.packet.has_value()) {
    ++c_.crc_rejected;
    return;
  }

  const bool dup = p.last_seq.has_value() && *p.last_seq == r.packet->seq;
  if (dup) {
    ++c_.dup_rx;
    ++p.dup;
  } else {
    p.last_seq = r.packet->seq;
    ++c_.delivered;
    ++p.delivered;
    c_.delivered_payload_bits += r.packet->payload.size() * 8;
  }

  // ACK even duplicates: a dup means the node never heard the first ACK
  // and is listening again right now.
  if (p.on_ack) {
    ++c_.acks_sent;
    const Duration at{prm_.ack_turnaround.value() + ack_burst_duration().value()};
    sim_.schedule_in(at, [this, port] {
      Port& pp = ports_[static_cast<std::size_t>(port)];
      // One downlink fading draw per burst, made at delivery time.
      const double rx_dbm = pp.downlink.received_power_dbm(prm_.ack_tx_power);
      if (pp.on_ack) pp.on_ack(rx_dbm);
    }, "bs ack burst");
  }
}

void BaseStation::publish_metrics(obs::MetricsRegistry& m) const {
  const auto c = [&m](const char* name, double v) { m.add(m.counter(name), v); };
  c("net.frames_on_air", static_cast<double>(c_.frames_on_air));
  c("net.frames_completed", static_cast<double>(c_.frames_completed));
  c("net.collisions", static_cast<double>(c_.collided));
  c("net.captured", static_cast<double>(c_.captured));
  c("net.below_squelch", static_cast<double>(c_.below_squelch));
  c("net.crc_rejected", static_cast<double>(c_.crc_rejected));
  c("net.delivered", static_cast<double>(c_.delivered));
  c("net.dup_rx", static_cast<double>(c_.dup_rx));
  c("net.acks_sent", static_cast<double>(c_.acks_sent));
  c("net.delivered_payload_bits", static_cast<double>(c_.delivered_payload_bits));
  c("net.medium_airtime_s", c_.airtime_s);
}

}  // namespace pico::net
