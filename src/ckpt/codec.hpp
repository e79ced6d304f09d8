// codec.hpp — the versioned binary checkpoint container (src/ckpt).
//
// A checkpoint is a flat byte blob: a fixed header (magic, format
// version, payload length), a sequence of tagged sections (tag, section
// version, byte length, payload), and a trailing integrity digest over
// everything before it. Sections let subsystems evolve independently — a
// reader rejects an unknown *format* version outright but can branch on
// a *section* version — and the explicit lengths mean a truncated or
// bit-flipped blob is detected before any payload is interpreted:
// corrupt input raises CheckpointError, never undefined behavior (the
// asan lane runs the rejection tests).
//
// Everything is little-endian with fixed widths; doubles travel as their
// IEEE-754 bit patterns, so save → restore → re-save is byte-identical
// (the round-trip contract the codec tests pin for every fault scenario).
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace pico::ckpt {

// Malformed, truncated, corrupt, or version-mismatched checkpoint input.
// A DesignError: the blob is wrong, not the library.
class CheckpointError : public DesignError {
 public:
  explicit CheckpointError(const std::string& what)
      : DesignError("checkpoint: " + what) {}
};

// Container format version (the header field). Bump only when the
// header/section framing itself changes; payload evolution rides on
// per-section versions.
inline constexpr std::uint32_t kFormatVersion = 1;

// Four-character section tag, e.g. tag("FLEN").
constexpr std::uint32_t tag(const char (&s)[5]) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(s[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[3])) << 24;
}

class Writer {
 public:
  Writer();

  // --- Primitives (little-endian, fixed width) -------------------------------
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);  // IEEE-754 bit pattern
  void b(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& s);  // u32 length + bytes

  // --- Vectors (u64 count + elements) ---------------------------------------
  void u8v(const std::vector<std::uint8_t>& v);
  void u32v(const std::vector<std::uint32_t>& v);
  void u64v(const std::vector<std::uint64_t>& v);
  void f64v(const std::vector<double>& v);

  // --- Sections --------------------------------------------------------------
  // Sections may not nest. end_section backpatches the byte length.
  void begin_section(std::uint32_t section_tag, std::uint32_t version);
  void end_section();

  // Seal the blob: backpatch the payload length, append the digest.
  // The Writer is spent afterwards.
  [[nodiscard]] std::vector<std::uint8_t> finish();
  // finish() + write the blob to `path` (throws CheckpointError on I/O).
  void write_file(const std::string& path);

 private:
  void raw(const void* p, std::size_t n);

  std::vector<std::uint8_t> buf_;
  std::size_t section_len_at_ = 0;  // offset of the open section's length field
  bool in_section_ = false;
  bool finished_ = false;
};

class Reader {
 public:
  // Validates magic, format version, payload length, and digest before
  // returning; throws CheckpointError on any mismatch.
  explicit Reader(std::vector<std::uint8_t> bytes);
  [[nodiscard]] static Reader from_file(const std::string& path);

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] double f64();
  [[nodiscard]] bool b() { return u8() != 0; }
  [[nodiscard]] std::string str();

  [[nodiscard]] std::vector<std::uint8_t> u8v();
  [[nodiscard]] std::vector<std::uint32_t> u32v();
  [[nodiscard]] std::vector<std::uint64_t> u64v();
  [[nodiscard]] std::vector<double> f64v();

  // Read a u64 element count and check it against the payload left, given
  // that each element takes at least `min_elem_bytes` on the wire: a
  // corrupt count raises CheckpointError before anything is allocated
  // from it. Every count a blob declares goes through here.
  [[nodiscard]] std::uint64_t count(std::size_t min_elem_bytes);

  // Open the next section, requiring its tag; returns the section
  // version. leave_section() verifies the payload was consumed exactly.
  std::uint32_t enter_section(std::uint32_t expected_tag);
  void leave_section();

  // True once every payload byte has been consumed.
  [[nodiscard]] bool at_end() const { return pos_ == end_; }

 private:
  void need(std::size_t n) const;

  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
  std::size_t end_ = 0;          // payload end (digest excluded)
  std::size_t section_end_ = 0;  // open section payload end
  bool in_section_ = false;
};

}  // namespace pico::ckpt
