#include "ckpt/codec.hpp"

#include <cstdio>
#include <utility>

namespace pico::ckpt {
namespace {

constexpr std::uint32_t kMagic = tag("PCK1");
// Header: magic u32, format version u32, payload length u64.
constexpr std::size_t kHeaderSize = 4 + 4 + 8;
constexpr std::size_t kDigestSize = 8;
constexpr std::size_t kPayloadLenAt = 8;

// FNV-1a 64-bit over [p, p+n).
std::uint64_t fnv1a(const std::uint8_t* p, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

void put_u64_at(std::vector<std::uint8_t>& buf, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf[at + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t get_u32_at(const std::vector<std::uint8_t>& buf, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(buf[at + static_cast<std::size_t>(i)]) << (8 * i);
  return v;
}

std::uint64_t get_u64_at(const std::vector<std::uint8_t>& buf, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(buf[at + static_cast<std::size_t>(i)]) << (8 * i);
  return v;
}

std::string tag_name(std::uint32_t t) {
  std::string s(4, '?');
  for (int i = 0; i < 4; ++i) {
    const char c = static_cast<char>((t >> (8 * i)) & 0xff);
    s[static_cast<std::size_t>(i)] = (c >= 0x20 && c < 0x7f) ? c : '?';
  }
  return s;
}

}  // namespace

// ---------------------------------------------------------------------------
// Writer

Writer::Writer() {
  buf_.reserve(256);
  u32(kMagic);
  u32(kFormatVersion);
  u64(0);  // payload length, backpatched by finish()
}

void Writer::raw(const void* p, std::size_t n) {
  PICO_ASSERT(!finished_);
  const auto* b = static_cast<const std::uint8_t*>(p);
  buf_.insert(buf_.end(), b, b + n);
}

void Writer::u8(std::uint8_t v) { raw(&v, 1); }

void Writer::u16(std::uint16_t v) {
  std::uint8_t b[2];
  for (int i = 0; i < 2; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  raw(b, 2);
}

void Writer::u32(std::uint32_t v) {
  std::uint8_t b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  raw(b, 4);
}

void Writer::u64(std::uint64_t v) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  raw(b, 8);
}

void Writer::f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void Writer::str(const std::string& s) {
  PICO_REQUIRE(s.size() <= 0xffffffffULL, "checkpoint: string too long");
  u32(static_cast<std::uint32_t>(s.size()));
  raw(s.data(), s.size());
}

void Writer::u8v(const std::vector<std::uint8_t>& v) {
  u64(v.size());
  raw(v.data(), v.size());
}

void Writer::u32v(const std::vector<std::uint32_t>& v) {
  u64(v.size());
  for (std::uint32_t x : v) u32(x);
}

void Writer::u64v(const std::vector<std::uint64_t>& v) {
  u64(v.size());
  for (std::uint64_t x : v) u64(x);
}

void Writer::f64v(const std::vector<double>& v) {
  u64(v.size());
  for (double x : v) f64(x);
}

void Writer::begin_section(std::uint32_t section_tag, std::uint32_t version) {
  PICO_ASSERT(!in_section_);
  u32(section_tag);
  u32(version);
  section_len_at_ = buf_.size();
  u64(0);  // backpatched by end_section()
  in_section_ = true;
}

void Writer::end_section() {
  PICO_ASSERT(in_section_);
  const std::uint64_t len = buf_.size() - (section_len_at_ + 8);
  put_u64_at(buf_, section_len_at_, len);
  in_section_ = false;
}

std::vector<std::uint8_t> Writer::finish() {
  PICO_ASSERT(!in_section_);
  PICO_ASSERT(!finished_);
  finished_ = true;
  put_u64_at(buf_, kPayloadLenAt, buf_.size() - kHeaderSize);
  const std::uint64_t digest = fnv1a(buf_.data(), buf_.size());
  std::uint8_t tail[kDigestSize];
  for (int i = 0; i < 8; ++i) tail[i] = static_cast<std::uint8_t>(digest >> (8 * i));
  buf_.insert(buf_.end(), tail, tail + kDigestSize);
  return std::move(buf_);
}

void Writer::write_file(const std::string& path) {
  const std::vector<std::uint8_t> blob = finish();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw CheckpointError("cannot open '" + path + "' for writing");
  const std::size_t n = std::fwrite(blob.data(), 1, blob.size(), f);
  const bool ok = (n == blob.size()) && (std::fclose(f) == 0);
  if (!ok) throw CheckpointError("short write to '" + path + "'");
}

// ---------------------------------------------------------------------------
// Reader

Reader::Reader(std::vector<std::uint8_t> bytes) : buf_(std::move(bytes)) {
  if (buf_.size() < kHeaderSize + kDigestSize)
    throw CheckpointError("blob too small to be a checkpoint (" +
                          std::to_string(buf_.size()) + " bytes)");
  if (get_u32_at(buf_, 0) != kMagic)
    throw CheckpointError("bad magic — not a PicoCube checkpoint");
  const std::uint32_t fmt = get_u32_at(buf_, 4);
  if (fmt != kFormatVersion)
    throw CheckpointError("unsupported format version " + std::to_string(fmt) +
                          " (this build reads version " +
                          std::to_string(kFormatVersion) + ")");
  const std::uint64_t payload_len = get_u64_at(buf_, kPayloadLenAt);
  if (payload_len != buf_.size() - kHeaderSize - kDigestSize)
    throw CheckpointError("truncated or padded blob: header declares " +
                          std::to_string(payload_len) + " payload bytes, found " +
                          std::to_string(buf_.size() - kHeaderSize - kDigestSize));
  const std::size_t digest_at = buf_.size() - kDigestSize;
  const std::uint64_t want = get_u64_at(buf_, digest_at);
  const std::uint64_t got = fnv1a(buf_.data(), digest_at);
  if (want != got) throw CheckpointError("integrity digest mismatch — blob is corrupt");
  pos_ = kHeaderSize;
  end_ = digest_at;
}

Reader Reader::from_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw CheckpointError("cannot open '" + path + "' for reading");
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[65536];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
    bytes.insert(bytes.end(), chunk, chunk + n);
  const bool read_err = std::ferror(f) != 0;
  std::fclose(f);
  if (read_err) throw CheckpointError("read error on '" + path + "'");
  return Reader(std::move(bytes));
}

void Reader::need(std::size_t n) const {
  const std::size_t limit = in_section_ ? section_end_ : end_;
  if (pos_ + n > limit)
    throw CheckpointError("truncated payload: need " + std::to_string(n) +
                          " bytes, " + std::to_string(limit - pos_) + " remain");
}

std::uint64_t Reader::count(std::size_t min_elem_bytes) {
  PICO_ASSERT(min_elem_bytes >= 1);
  const std::uint64_t n = u64();
  const std::size_t limit = in_section_ ? section_end_ : end_;
  const std::uint64_t remain = limit - pos_;
  if (n > remain / min_elem_bytes)
    throw CheckpointError("corrupt element count " + std::to_string(n) +
                          " exceeds remaining payload");
  return n;
}

std::uint8_t Reader::u8() {
  need(1);
  return buf_[pos_++];
}

std::uint16_t Reader::u16() {
  need(2);
  std::uint16_t v = 0;
  for (int i = 0; i < 2; ++i)
    v = static_cast<std::uint16_t>(v | static_cast<std::uint16_t>(buf_[pos_ + static_cast<std::size_t>(i)]) << (8 * i));
  pos_ += 2;
  return v;
}

std::uint32_t Reader::u32() {
  need(4);
  const std::uint32_t v = get_u32_at(buf_, pos_);
  pos_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  need(8);
  const std::uint64_t v = get_u64_at(buf_, pos_);
  pos_ += 8;
  return v;
}

double Reader::f64() {
  const std::uint64_t bits = u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string Reader::str() {
  const std::uint32_t n = u32();
  need(n);
  std::string s(reinterpret_cast<const char*>(buf_.data() + pos_), n);
  pos_ += n;
  return s;
}

std::vector<std::uint8_t> Reader::u8v() {
  const std::uint64_t n = count(1);
  std::vector<std::uint8_t> v(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
                              buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return v;
}

std::vector<std::uint32_t> Reader::u32v() {
  const std::uint64_t n = count(4);
  std::vector<std::uint32_t> v(n);
  for (auto& x : v) x = u32();
  return v;
}

std::vector<std::uint64_t> Reader::u64v() {
  const std::uint64_t n = count(8);
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = u64();
  return v;
}

std::vector<double> Reader::f64v() {
  const std::uint64_t n = count(8);
  std::vector<double> v(n);
  for (auto& x : v) x = f64();
  return v;
}

std::uint32_t Reader::enter_section(std::uint32_t expected_tag) {
  PICO_ASSERT(!in_section_);
  const std::uint32_t t = u32();
  if (t != expected_tag)
    throw CheckpointError("expected section '" + tag_name(expected_tag) +
                          "', found '" + tag_name(t) + "'");
  const std::uint32_t version = u32();
  const std::uint64_t len = u64();
  if (len > end_ - pos_)
    throw CheckpointError("section '" + tag_name(t) + "' declares " +
                          std::to_string(len) + " bytes, " +
                          std::to_string(end_ - pos_) + " remain");
  section_end_ = pos_ + len;
  in_section_ = true;
  return version;
}

void Reader::leave_section() {
  PICO_ASSERT(in_section_);
  if (pos_ != section_end_)
    throw CheckpointError("section payload not fully consumed (" +
                          std::to_string(section_end_ - pos_) + " bytes left)");
  in_section_ = false;
}

}  // namespace pico::ckpt
