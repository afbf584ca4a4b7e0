#include "service/protocol.h"

#include <cmath>

namespace ct::service {

namespace {

using util::Error;
using util::ErrorCode;
using util::WireReader;
using util::WireWriter;

[[noreturn]] void fail(std::string_view message) {
  throw Error(ErrorCode::kProtocol, "wire", message);
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

// --- frame encode ----------------------------------------------------------

std::string encode_frame(FrameType type, std::uint32_t request_id,
                         std::string_view payload) {
  if (payload.size() > kMaxPayload) fail("payload exceeds frame bound");
  return util::seal_frame(
      {kMagic, kProtocolVersion, static_cast<std::uint8_t>(type), request_id},
      payload);
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
  const util::OpenedFrame frame =
      util::open_frame(buffer_, consumed_, kMagic, kMaxPayload);
  if (frame.status == util::FrameStatus::kIncomplete) return false;
  if (frame.status == util::FrameStatus::kBad) fail(frame.reason);
  if (frame.fields.version != kProtocolVersion) {
    fail("unsupported protocol version");
  }
  const std::uint8_t type = frame.fields.type;
  if (type < static_cast<std::uint8_t>(FrameType::kHello) ||
      type > static_cast<std::uint8_t>(FrameType::kError)) {
    fail("unknown frame type");
  }
  out.type = static_cast<FrameType>(type);
  out.request_id = frame.fields.tag;
  out.payload.assign(frame.payload.data(), frame.payload.size());
  consumed_ += frame.size;
  return true;
}

}  // namespace ct::service
