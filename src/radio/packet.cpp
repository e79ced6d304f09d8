#include "radio/packet.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace pico::radio {

std::uint16_t crc16_ccitt(const std::uint8_t* data, std::size_t len) {
  std::uint16_t crc = 0xFFFF;
  for (std::size_t i = 0; i < len; ++i) {
    crc ^= static_cast<std::uint16_t>(data[i]) << 8;
    for (int b = 0; b < 8; ++b) {
      crc = (crc & 0x8000) ? static_cast<std::uint16_t>((crc << 1) ^ 0x1021)
                           : static_cast<std::uint16_t>(crc << 1);
    }
  }
  return crc;
}

PacketCodec::PacketCodec() : PacketCodec(Params{}) {}

PacketCodec::PacketCodec(Params p) : prm_(p) {
  PICO_REQUIRE(prm_.preamble_bytes >= 1, "preamble required for slicer settling");
  PICO_REQUIRE(prm_.max_payload <= 255, "length field is one byte");
}

std::size_t PacketCodec::overhead_bytes() const {
  // preamble + sync(2) + len(1) + id(1) + seq(1) + crc(2)
  return prm_.preamble_bytes + 7;
}

std::size_t PacketCodec::frame_bytes(const Packet& p) const {
  return overhead_bytes() + p.payload.size();
}

std::vector<std::uint8_t> PacketCodec::encode(const Packet& p) const {
  std::vector<std::uint8_t> out;
  encode_into(p, out);
  return out;
}

void PacketCodec::encode_into(const Packet& p, std::vector<std::uint8_t>& out) const {
  PICO_REQUIRE(p.payload.size() <= prm_.max_payload, "payload exceeds max length");
  out.clear();
  out.reserve(frame_bytes(p));
  for (std::size_t i = 0; i < prm_.preamble_bytes; ++i) out.push_back(0xAA);
  out.push_back(static_cast<std::uint8_t>(prm_.sync_word >> 8));
  out.push_back(static_cast<std::uint8_t>(prm_.sync_word & 0xFF));
  const std::size_t body_start = out.size();
  out.push_back(static_cast<std::uint8_t>(p.payload.size()));
  out.push_back(p.node_id);
  out.push_back(p.seq);
  out.insert(out.end(), p.payload.begin(), p.payload.end());
  const std::uint16_t crc = crc16_ccitt(out.data() + body_start, out.size() - body_start);
  out.push_back(static_cast<std::uint8_t>(crc >> 8));
  out.push_back(static_cast<std::uint8_t>(crc & 0xFF));
}

std::optional<Packet> PacketCodec::decode(const std::vector<std::uint8_t>& frame) const {
  const std::uint8_t s0 = static_cast<std::uint8_t>(prm_.sync_word >> 8);
  const std::uint8_t s1 = static_cast<std::uint8_t>(prm_.sync_word & 0xFF);
  // Scan for the sync word (the preamble may be corrupted or truncated).
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    if (frame[i] != s0 || frame[i + 1] != s1) continue;
    const std::size_t body = i + 2;
    if (body + 3 > frame.size()) return std::nullopt;
    const std::size_t len = frame[body];
    const std::size_t total = body + 3 + len + 2;
    if (len > prm_.max_payload || total > frame.size()) return std::nullopt;
    const std::uint16_t crc_rx = static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(frame[total - 2]) << 8) | frame[total - 1]);
    const std::uint16_t crc = crc16_ccitt(frame.data() + body, 3 + len);
    if (crc != crc_rx) return std::nullopt;
    Packet p;
    p.node_id = frame[body + 1];
    p.seq = frame[body + 2];
    p.payload.assign(frame.begin() + static_cast<std::ptrdiff_t>(body + 3),
                     frame.begin() + static_cast<std::ptrdiff_t>(body + 3 + len));
    return p;
  }
  return std::nullopt;
}

std::vector<bool> bytes_to_bits(const std::vector<std::uint8_t>& bytes) {
  std::vector<bool> bits;
  bits.reserve(bytes.size() * 8);
  for (std::uint8_t b : bytes) {
    for (int k = 7; k >= 0; --k) bits.push_back((b >> k) & 1);
  }
  return bits;
}

std::vector<std::uint8_t> bits_to_bytes(const std::vector<bool>& bits) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(bits.size() / 8);
  for (std::size_t i = 0; i + 7 < bits.size(); i += 8) {
    std::uint8_t b = 0;
    for (int k = 0; k < 8; ++k) b = static_cast<std::uint8_t>((b << 1) | (bits[i + static_cast<std::size_t>(k)] ? 1 : 0));
    bytes.push_back(b);
  }
  return bytes;
}

namespace {
void push_u16(std::vector<std::uint8_t>& v, std::uint16_t x) {
  v.push_back(static_cast<std::uint8_t>(x >> 8));
  v.push_back(static_cast<std::uint8_t>(x & 0xFF));
}
std::uint16_t pop_u16(const std::vector<std::uint8_t>& v, std::size_t at) {
  return static_cast<std::uint16_t>((static_cast<std::uint16_t>(v[at]) << 8) | v[at + 1]);
}
std::uint16_t clamp_u16(double x) {
  if (x < 0.0) return 0;
  if (x > 65535.0) return 65535;
  return static_cast<std::uint16_t>(std::lround(x));
}
}  // namespace

void encode_tpms_payload_into(const sensors::TpmsSample& s, std::vector<std::uint8_t>& out) {
  out.clear();
  out.reserve(8);
  push_u16(out, clamp_u16(s.pressure.value() / 100.0));            // 0.1 kPa units
  push_u16(out, clamp_u16((s.temperature.value() - 200.0) * 100)); // cK above 200 K
  push_u16(out, clamp_u16(s.accel.value() * 10.0));                // 0.1 m/s^2 units
  push_u16(out, clamp_u16(s.supply.value() * 1000.0));             // mV
}

std::optional<sensors::TpmsSample> decode_tpms_payload(const std::vector<std::uint8_t>& p) {
  if (p.size() != 8) return std::nullopt;
  sensors::TpmsSample s;
  s.pressure = Pressure{pop_u16(p, 0) * 100.0};
  s.temperature = Temperature{200.0 + pop_u16(p, 2) / 100.0};
  s.accel = Acceleration{pop_u16(p, 4) / 10.0};
  s.supply = Voltage{pop_u16(p, 6) / 1000.0};
  return s;
}

std::vector<std::uint8_t> encode_accel_payload(const sensors::Accel3& a) {
  auto mg = [](double mps2) {
    const double v = mps2 / 9.80665 * 1000.0;
    const double c = std::clamp(v, -32768.0, 32767.0);
    return static_cast<std::int16_t>(std::lround(c));
  };
  std::vector<std::uint8_t> p;
  for (double axis : {a.x, a.y, a.z}) {
    const auto q = static_cast<std::uint16_t>(mg(axis));
    push_u16(p, q);
  }
  return p;
}

std::optional<sensors::Accel3> decode_accel_payload(const std::vector<std::uint8_t>& p) {
  if (p.size() != 6) return std::nullopt;
  auto to_mps2 = [](std::uint16_t q) {
    return static_cast<std::int16_t>(q) / 1000.0 * 9.80665;
  };
  sensors::Accel3 a;
  a.x = to_mps2(pop_u16(p, 0));
  a.y = to_mps2(pop_u16(p, 2));
  a.z = to_mps2(pop_u16(p, 4));
  return a;
}

}  // namespace pico::radio
