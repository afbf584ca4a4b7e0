#include "service/protocol.h"

#include <cmath>
#include <cstring>

#include "util/digest.h"

namespace ct::service {

namespace {

using util::Error;
using util::ErrorCode;

[[noreturn]] void fail(std::string_view message) {
  throw Error(ErrorCode::kProtocol, "wire", message);
}

void put_le(std::string& out, std::uint64_t v, std::size_t bytes) {
  for (std::size_t i = 0; i < bytes; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::uint64_t get_le(const std::uint8_t* p, std::size_t bytes) noexcept {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

}  // namespace

std::string_view status_name(Status status) noexcept {
  switch (status) {
    case Status::kMalformedRequest: return "malformed-request";
    case Status::kUnsupportedVersion: return "unsupported-version";
    case Status::kOverloaded: return "overloaded";
    case Status::kDeadlineExceeded: return "deadline-exceeded";
    case Status::kShuttingDown: return "shutting-down";
    case Status::kExecutionFailed: return "execution-failed";
  }
  return "unknown";
}

std::uint64_t frame_digest(std::string_view bytes) noexcept {
  util::Digest d;
  d.str(bytes);
  return d.value()[0];
}

// --- WireWriter ------------------------------------------------------------

WireWriter& WireWriter::u8(std::uint8_t v) {
  put_le(out_, v, 1);
  return *this;
}
WireWriter& WireWriter::u16(std::uint16_t v) {
  put_le(out_, v, 2);
  return *this;
}
WireWriter& WireWriter::u32(std::uint32_t v) {
  put_le(out_, v, 4);
  return *this;
}
WireWriter& WireWriter::u64(std::uint64_t v) {
  put_le(out_, v, 8);
  return *this;
}
WireWriter& WireWriter::i32(std::int32_t v) {
  put_le(out_, static_cast<std::uint32_t>(v), 4);
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
  if (s.size() > kMaxPayload) fail("string exceeds frame bound");
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
  return static_cast<std::uint16_t>(get_le(take(2), 2));
}
std::uint32_t WireReader::u32() {
  return static_cast<std::uint32_t>(get_le(take(4), 4));
}
std::uint64_t WireReader::u64() { return get_le(take(8), 8); }
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

// --- frame encode ----------------------------------------------------------

std::string encode_frame(FrameType type, std::uint32_t request_id,
                         std::string_view payload) {
  if (payload.size() > kMaxPayload) fail("payload exceeds frame bound");
  std::string out;
  out.reserve(kHeaderSize + payload.size());
  put_le(out, kMagic, 4);
  put_le(out, kProtocolVersion, 1);
  put_le(out, static_cast<std::uint8_t>(type), 1);
  put_le(out, 0, 2);  // flags
  put_le(out, static_cast<std::uint32_t>(payload.size()), 4);
  put_le(out, request_id, 4);
  put_le(out, frame_digest(payload), 8);
  put_le(out, frame_digest(out), 8);  // header digest over bytes [0, 24)
  out.append(payload.data(), payload.size());
  return out;
}

// --- typed payloads --------------------------------------------------------

std::string encode_hello(const Hello& hello) {
  WireWriter w;
  w.str(hello.client_name).u8(hello.min_version).u8(hello.max_version);
  return w.take();
}

Hello decode_hello(std::string_view payload) {
  WireReader r(payload);
  Hello hello;
  hello.client_name = r.str();
  hello.min_version = r.u8();
  hello.max_version = r.u8();
  if (hello.min_version > hello.max_version) fail("hello version range empty");
  r.require_end();
  return hello;
}

std::string encode_welcome(const Welcome& welcome) {
  WireWriter w;
  w.u8(welcome.version).str(welcome.server_name);
  return w.take();
}

Welcome decode_welcome(std::string_view payload) {
  WireReader r(payload);
  Welcome welcome;
  welcome.version = r.u8();
  welcome.server_name = r.str();
  r.require_end();
  return welcome;
}

std::string encode_request(const Request& request) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(request.kind));
  w.u64(request.realizations);
  w.f64(request.sea_level_offset_m);
  w.u32(request.max_retries);
  w.u32(request.deadline_ms);
  w.boolean(request.no_cache);
  w.boolean(request.strict);
  w.boolean(request.json);
  w.str(request.primary).str(request.backup).str(request.dc);
  w.str(request.topology_csv);
  return w.take();
}

Request decode_request(std::string_view payload) {
  WireReader r(payload);
  Request request;
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(RequestKind::kMetrics)) {
    fail("unknown request kind");
  }
  request.kind = static_cast<RequestKind>(kind);
  request.realizations = r.u64();
  request.sea_level_offset_m = r.f64();
  if (!std::isfinite(request.sea_level_offset_m)) {
    fail("sea-level offset is not finite");
  }
  request.max_retries = r.u32();
  request.deadline_ms = r.u32();
  request.no_cache = r.boolean();
  request.strict = r.boolean();
  request.json = r.boolean();
  request.primary = r.str();
  request.backup = r.str();
  request.dc = r.str();
  request.topology_csv = r.str();
  r.require_end();
  return request;
}

std::string encode_response(const Response& response) {
  WireWriter w;
  w.i32(response.exit_code);
  w.boolean(response.degraded).boolean(response.all_from_cache);
  w.u64(response.attempted).u64(response.completed);
  w.u64(response.quarantined).u64(response.retries);
  w.str(response.output);
  return w.take();
}

Response decode_response(std::string_view payload) {
  WireReader r(payload);
  Response response;
  response.exit_code = r.i32();
  response.degraded = r.boolean();
  response.all_from_cache = r.boolean();
  response.attempted = r.u64();
  response.completed = r.u64();
  response.quarantined = r.u64();
  response.retries = r.u64();
  response.output = r.str();
  r.require_end();
  return response;
}

std::string encode_chunk(const StreamChunk& chunk) {
  WireWriter w;
  w.u64(chunk.done).u64(chunk.total).u64(chunk.quarantined).u64(chunk.retries);
  return w.take();
}

StreamChunk decode_chunk(std::string_view payload) {
  WireReader r(payload);
  StreamChunk chunk;
  chunk.done = r.u64();
  chunk.total = r.u64();
  chunk.quarantined = r.u64();
  chunk.retries = r.u64();
  r.require_end();
  return chunk;
}

std::string encode_error(const ErrorInfo& error) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(error.status));
  w.str(error.message);
  w.u32(error.queue_depth).u32(error.retry_after_ms);
  return w.take();
}

ErrorInfo decode_error(std::string_view payload) {
  WireReader r(payload);
  ErrorInfo error;
  const std::uint8_t status = r.u8();
  if (status < static_cast<std::uint8_t>(Status::kMalformedRequest) ||
      status > static_cast<std::uint8_t>(Status::kExecutionFailed)) {
    fail("unknown error status");
  }
  error.status = static_cast<Status>(status);
  error.message = r.str();
  error.queue_depth = r.u32();
  error.retry_after_ms = r.u32();
  r.require_end();
  return error;
}

// --- FrameDecoder ----------------------------------------------------------

void FrameDecoder::feed(const void* data, std::size_t n) {
  buffer_.append(static_cast<const char*>(data), n);
}

bool FrameDecoder::next(Frame& out) {
  // Compact lazily so long sessions do not grow the buffer without bound.
  if (consumed_ > 0 && consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  } else if (consumed_ > 64 * 1024) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  if (buffered() < kHeaderSize) return false;
  const auto* h =
      reinterpret_cast<const std::uint8_t*>(buffer_.data()) + consumed_;

  // Validate strictly in header order; no field is trusted before the
  // digest over the preceding 24 bytes checks out.
  if (get_le(h, 4) != kMagic) fail("bad magic");
  const auto version = static_cast<std::uint8_t>(get_le(h + 4, 1));
  if (version != kProtocolVersion) fail("unsupported protocol version");
  const auto type = static_cast<std::uint8_t>(get_le(h + 5, 1));
  if (type < static_cast<std::uint8_t>(FrameType::kHello) ||
      type > static_cast<std::uint8_t>(FrameType::kError)) {
    fail("unknown frame type");
  }
  if (get_le(h + 6, 2) != 0) fail("nonzero flags");
  const auto payload_size = static_cast<std::uint32_t>(get_le(h + 8, 4));
  const auto request_id = static_cast<std::uint32_t>(get_le(h + 12, 4));
  const std::uint64_t payload_digest = get_le(h + 16, 8);
  const std::uint64_t header_digest = get_le(h + 24, 8);
  const std::string_view header_bytes(
      reinterpret_cast<const char*>(h), kHeaderSize - 8);
  if (frame_digest(header_bytes) != header_digest) fail("header checksum");
  if (payload_size > kMaxPayload) fail("payload size exceeds bound");

  if (buffered() < kHeaderSize + payload_size) return false;
  const std::string_view payload(
      buffer_.data() + consumed_ + kHeaderSize, payload_size);
  if (frame_digest(payload) != payload_digest) fail("payload checksum");

  out.type = static_cast<FrameType>(type);
  out.request_id = request_id;
  out.payload.assign(payload.data(), payload.size());
  consumed_ += kHeaderSize + payload_size;
  return true;
}

}  // namespace ct::service
