#include "util/wire.h"

#include <cstring>

#include "util/digest.h"
#include "util/error.h"

namespace ct::util {

namespace {

[[noreturn]] void fail(std::string_view message) {
  throw Error(ErrorCode::kProtocol, "wire", message);
}

void append_le(std::string& out, std::uint64_t v, std::size_t bytes) {
  for (std::size_t i = 0; i < bytes; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::uint64_t load_le(const std::uint8_t* p, std::size_t bytes) noexcept {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

/// The low lane of the payload digest over header bytes [0, 32).
std::uint64_t header_digest(const char* header) noexcept {
  return payload_digest(std::string_view(header, 32))[0];
}

}  // namespace

// --- WireWriter ------------------------------------------------------------

WireWriter& WireWriter::u8(std::uint8_t v) {
  append_le(out_, v, 1);
  return *this;
}
WireWriter& WireWriter::u16(std::uint16_t v) {
  append_le(out_, v, 2);
  return *this;
}
WireWriter& WireWriter::u32(std::uint32_t v) {
  append_le(out_, v, 4);
  return *this;
}
WireWriter& WireWriter::u64(std::uint64_t v) {
  append_le(out_, v, 8);
  return *this;
}
WireWriter& WireWriter::i32(std::int32_t v) {
  append_le(out_, static_cast<std::uint32_t>(v), 4);
  return *this;
}
WireWriter& WireWriter::f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  return u64(bits);
}
WireWriter& WireWriter::boolean(bool v) { return u8(v ? 1 : 0); }
WireWriter& WireWriter::str(std::string_view s) {
  if (s.size() > kMaxWireString) fail("string exceeds frame bound");
  u32(static_cast<std::uint32_t>(s.size()));
  out_.append(s.data(), s.size());
  return *this;
}

// --- WireReader ------------------------------------------------------------

const std::uint8_t* WireReader::take(std::size_t n) {
  if (n > remaining()) fail("payload truncated");
  const auto* p = reinterpret_cast<const std::uint8_t*>(data_.data()) + pos_;
  pos_ += n;
  return p;
}

std::uint8_t WireReader::u8() { return static_cast<std::uint8_t>(*take(1)); }
std::uint16_t WireReader::u16() {
  return static_cast<std::uint16_t>(load_le(take(2), 2));
}
std::uint32_t WireReader::u32() {
  return static_cast<std::uint32_t>(load_le(take(4), 4));
}
std::uint64_t WireReader::u64() { return load_le(take(8), 8); }
std::int32_t WireReader::i32() { return static_cast<std::int32_t>(u32()); }
double WireReader::f64() {
  const std::uint64_t bits = u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}
bool WireReader::boolean() {
  const std::uint8_t v = u8();
  if (v > 1) fail("boolean field out of range");
  return v == 1;
}
std::string WireReader::str() {
  const std::uint32_t n = u32();
  if (n > remaining()) fail("string length exceeds payload");
  const auto* p = take(n);
  return std::string(reinterpret_cast<const char*>(p), n);
}
void WireReader::require_end() const {
  if (pos_ != data_.size()) fail("trailing bytes after payload fields");
}

// --- sealed frames -----------------------------------------------------------

std::array<std::uint64_t, 2> payload_digest(std::string_view payload) noexcept {
  Digest d;
  d.str(payload);
  return d.value();
}

std::string seal_frame(const FrameFields& fields, std::string_view payload) {
  if (payload.size() > 0xffffffffu) fail("payload exceeds frame bound");
  const std::array<std::uint64_t, 2> digest = payload_digest(payload);
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size());
  append_le(out, fields.magic, 4);
  append_le(out, fields.version, 1);
  append_le(out, fields.type, 1);
  append_le(out, 0, 2);  // flags
  append_le(out, payload.size(), 4);
  append_le(out, fields.tag, 4);
  append_le(out, digest[0], 8);
  append_le(out, digest[1], 8);
  append_le(out, header_digest(out.data()), 8);
  out.append(payload.data(), payload.size());
  return out;
}

OpenedFrame open_frame(std::string_view bytes, std::size_t offset,
                       std::uint32_t magic,
                       std::uint32_t max_payload) noexcept {
  if (offset > bytes.size() || bytes.size() - offset < kFrameHeaderSize) {
    return {};
  }
  const char* header = bytes.data() + offset;
  const auto* h = reinterpret_cast<const std::uint8_t*>(header);
  // No field is trusted before the digest over bytes [0, 32) checks out.
  constexpr FrameStatus kBad = FrameStatus::kBad;
  if (load_le(h, 4) != magic) return {kBad, "bad magic"};
  if (header_digest(header) != load_le(h + 32, 8)) {
    return {kBad, "header checksum"};
  }
  if (load_le(h + 6, 2) != 0) return {kBad, "nonzero flags"};
  const std::uint64_t size = load_le(h + 8, 4);
  if (size > max_payload) return {kBad, "payload size exceeds bound"};
  if (bytes.size() - offset - kFrameHeaderSize < size) return {};
  const std::string_view payload = bytes.substr(offset + kFrameHeaderSize, size);
  const std::array<std::uint64_t, 2> digest = payload_digest(payload);
  if (digest[0] != load_le(h + 16, 8) || digest[1] != load_le(h + 24, 8)) {
    return {kBad, "payload checksum"};
  }
  const auto tag = static_cast<std::uint32_t>(load_le(h + 12, 4));
  return {FrameStatus::kComplete, {}, {magic, h[4], h[5], tag}, payload,
          kFrameHeaderSize + size};
}

std::size_t find_frame(std::string_view bytes, std::size_t from,
                       std::uint32_t magic) noexcept {
  for (std::size_t at = from; at < bytes.size(); ++at) {
    if (open_frame(bytes, at, magic).status == FrameStatus::kComplete) {
      return at;
    }
  }
  return std::string_view::npos;
}

}  // namespace ct::util
