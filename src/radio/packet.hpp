// packet.hpp — over-the-air packet format and payload codecs.
//
// The PicoCube firmware's job is "take a sample, process the data,
// packetize the data, transmit the packet" (paper §3). The frame is a
// classic OOK sensor-node format: preamble for the superregenerative
// receiver's slicer, a sync word, length/id/sequence header, payload, and
// CRC-16. Payload codecs pack the TPMS and accelerometer samples into
// fixed-point fields.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/units.hpp"
#include "sensors/accelerometer.hpp"
#include "sensors/tpms.hpp"

namespace pico::radio {

// CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF).
std::uint16_t crc16_ccitt(const std::uint8_t* data, std::size_t len);

struct Packet {
  std::uint8_t node_id = 0;
  std::uint8_t seq = 0;
  std::vector<std::uint8_t> payload;

  bool operator==(const Packet&) const = default;
};

class PacketCodec {
 public:
  struct Params {
    std::size_t preamble_bytes = 4;  // 0xAA.. for slicer settling
    std::uint16_t sync_word = 0x2DD4;
    std::size_t max_payload = 32;
  };

  PacketCodec();
  explicit PacketCodec(Params p);

  // Full frame: preamble | sync | len | id | seq | payload | crc16.
  [[nodiscard]] std::vector<std::uint8_t> encode(const Packet& p) const;
  // Same frame encoded into a caller-owned buffer (cleared first). The
  // node's firmware reuses one buffer per cycle so steady-state wake
  // cycles never touch the heap.
  void encode_into(const Packet& p, std::vector<std::uint8_t>& out) const;
  // Scan for sync, validate length and CRC. nullopt on any corruption.
  [[nodiscard]] std::optional<Packet> decode(const std::vector<std::uint8_t>& frame) const;

  [[nodiscard]] std::size_t frame_bytes(const Packet& p) const;
  [[nodiscard]] std::size_t overhead_bytes() const;
  [[nodiscard]] const Params& params() const { return prm_; }

 private:
  Params prm_;
};

// Bit helpers (MSB first, the OOK modulator's order).
std::vector<bool> bytes_to_bits(const std::vector<std::uint8_t>& bytes);
std::vector<std::uint8_t> bits_to_bytes(const std::vector<bool>& bits);

// --- Payload codecs ---------------------------------------------------------

// TPMS sample: kPa*10 (u16) | centi-kelvin above 200 K (u16) | accel dm/s^2
// (u16) | supply mV (u16).
void encode_tpms_payload_into(const sensors::TpmsSample& s, std::vector<std::uint8_t>& out);
std::optional<sensors::TpmsSample> decode_tpms_payload(const std::vector<std::uint8_t>& p);

// Accelerometer sample: x, y, z in mg as signed 16-bit.
std::vector<std::uint8_t> encode_accel_payload(const sensors::Accel3& a);
std::optional<sensors::Accel3> decode_accel_payload(const std::vector<std::uint8_t>& p);

}  // namespace pico::radio
