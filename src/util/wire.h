// The one byte codec every durable file and every socket message shares.
//
// Payloads are written with WireWriter and read back with WireReader:
// little-endian fixed-width fields, u32-length-prefixed strings, and f64
// stored as its IEEE-754 bits, so a value round-trips bit for bit. A
// payload travels inside a sealed frame, a 40-byte header and then the
// payload:
//
//   offset  size  field
//   0       4     magic (one per format: "CTSV" wire, "CTCK" checkpoint, ...)
//   4       1     version (the format's own)
//   5       1     type (the format's own)
//   6       2     flags (must be zero)
//   8       4     payload size
//   12      4     tag (request id, journal sequence number, ...)
//   16      16    util::Digest of the payload (both 64-bit lanes)
//   32      8     util::Digest of header bytes [0, 32) (low lane)
//
// open_frame never trusts the size field before the header digest checks
// out, and the caller bounds the payload. It reports the version and type
// without judging them: a socket treats a mismatch as a protocol error, a
// file as stale or a miss. The digests catch damage, not an adversary.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace ct::util {

/// Largest string WireWriter encodes (and the wire's payload bound): 16 MiB.
inline constexpr std::uint32_t kMaxWireString = 16u * 1024u * 1024u;

/// Little-endian bounds-unchecked appender (writing cannot overrun — the
/// buffer grows); strings are u32-length-prefixed.
class WireWriter {
 public:
  WireWriter& u8(std::uint8_t v);
  WireWriter& u16(std::uint16_t v);
  WireWriter& u32(std::uint32_t v);
  WireWriter& u64(std::uint64_t v);
  WireWriter& i32(std::int32_t v);
  WireWriter& f64(double v);  ///< IEEE-754 bit pattern
  WireWriter& boolean(bool v);
  WireWriter& str(std::string_view s);

  const std::string& bytes() const noexcept { return out_; }
  std::string take() noexcept { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked little-endian reader over a payload. Every overrun,
/// oversize string, or trailing-garbage condition throws
/// ct::Error{kProtocol} — malformed input is a typed error, never UB.
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32();
  double f64();
  bool boolean();
  std::string str();

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  /// Throws unless the payload was consumed exactly.
  void require_end() const;

 private:
  const std::uint8_t* take(std::size_t n);

  std::string_view data_;
  std::size_t pos_ = 0;
};

// --- sealed frames -----------------------------------------------------------

inline constexpr std::size_t kFrameHeaderSize = 40;

struct FrameFields {
  std::uint32_t magic = 0;
  std::uint8_t version = 0;
  std::uint8_t type = 0;
  std::uint32_t tag = 0;
};

/// kIncomplete: the bytes end before the frame does; kBad: not a valid
/// frame of this magic (see OpenedFrame::reason).
enum class FrameStatus { kComplete, kIncomplete, kBad };

struct OpenedFrame {
  FrameStatus status = FrameStatus::kIncomplete;
  std::string_view reason{};  ///< why a frame is kBad
  FrameFields fields{};       ///< set when kComplete
  std::string_view payload{}; ///< view into the opened bytes (kComplete)
  std::size_t size = 0;     ///< header + payload bytes (kComplete)
};

/// The 128-bit digest a frame header carries for `payload`.
std::array<std::uint64_t, 2> payload_digest(std::string_view payload) noexcept;

/// The header for `fields` and `payload`, then the payload. Throws
/// ct::Error{kProtocol} when the payload exceeds 4 GiB.
std::string seal_frame(const FrameFields& fields, std::string_view payload);

/// Opens the frame at `offset` of `bytes`: magic, header digest, flags,
/// the payload bound, then the payload digest.
OpenedFrame open_frame(std::string_view bytes, std::size_t offset,
                       std::uint32_t magic,
                       std::uint32_t max_payload = 0xffffffffu) noexcept;

/// The first offset at or after `from` at which a complete, valid frame
/// of `magic` opens; npos when there is none.
std::size_t find_frame(std::string_view bytes, std::size_t from,
                       std::uint32_t magic) noexcept;

}  // namespace ct::util
