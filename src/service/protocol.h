// ct_service wire protocol: the versioned, length-prefixed binary framing
// the analysis server and its clients speak over a TCP or Unix-domain
// byte stream.
//
// Every message is one util sealed frame (util/wire.h has the 40-byte
// header layout) with the magic "CTSV", the version kProtocolVersion, a
// FrameType, and the request id as its tag (echoed on every response,
// chunk and error). A flipped header bit, a truncated stream, or a
// foreign protocol banging on the port is detected before any payload
// field is interpreted. Decoding NEVER trusts a length before the header
// digest verifies, payloads are bounded by kMaxPayload, and every payload
// read is bounds-checked — a malformed frame surfaces as a typed
// ct::Error{kProtocol}, not UB (the fuzz test feeds seeded-random bytes
// straight into the decoder under ASan/UBSan to hold that line).
//
// Conversation shape: client sends kHello, server answers kWelcome (the
// version handshake), then any number of kRequest frames each answered by
// zero or more kStreamChunk frames (slice-boundary progress of a running
// sweep) followed by exactly one kResponse or kError. Frame payloads are
// encoded with util::WireWriter/WireReader (little-endian fixed-width
// fields, length-prefixed strings).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.h"
#include "util/wire.h"

namespace ct::service {

inline constexpr std::uint32_t kMagic = 0x56535443u;  // "CTSV" little-endian
inline constexpr std::uint8_t kProtocolVersion = 2;
/// Upper bound on a frame payload; anything larger is a malformed frame
/// (an analysis report is a few KiB — 16 MiB leaves room for topology
/// uploads without letting a corrupt length field allocate the moon).
inline constexpr std::uint32_t kMaxPayload = util::kMaxWireString;
inline constexpr std::size_t kHeaderSize = util::kFrameHeaderSize;

enum class FrameType : std::uint8_t {
  kHello = 1,        ///< client -> server: version handshake
  kWelcome = 2,      ///< server -> client: handshake accepted
  kRequest = 3,      ///< client -> server: one analysis/stats request
  kResponse = 4,     ///< server -> client: final result of a request
  kStreamChunk = 5,  ///< server -> client: sweep progress at a slice boundary
  kError = 6,        ///< server -> client: request failed / was shed
};

/// Why the server answered kError instead of kResponse.
enum class Status : std::uint8_t {
  kMalformedRequest = 1,   ///< request payload failed to decode/validate
  kUnsupportedVersion = 2, ///< handshake version mismatch
  kOverloaded = 3,         ///< admission queue full: load shed, retry later
  kDeadlineExceeded = 4,   ///< per-request deadline expired mid-sweep
  kShuttingDown = 5,       ///< server draining; no new work admitted
  kExecutionFailed = 6,    ///< the analysis itself threw
};

std::string_view status_name(Status status) noexcept;

/// What the client asks the server to run.
enum class RequestKind : std::uint8_t {
  kPing = 0,      ///< round-trip liveness probe (no analysis)
  kAnalyze = 1,   ///< ctctl analyze: (configs x scenarios) sweep matrix
  kDowntime = 2,  ///< ctctl downtime: restoration-cost tables
  kSiting = 3,    ///< ctctl siting: backup-site ranking per scenario
  kStats = 4,     ///< server/runtime counters (cache, queue, latency)
  kMetrics = 5,   ///< full metrics-registry snapshot (ct_obs)
};

/// Sentinel for "use the server's configured default".
inline constexpr std::uint32_t kUseServerDefault = 0xffffffffu;

/// One analysis request, mirroring the ctctl flag surface. Execution
/// knobs that do not change results (worker count, cache placement) stay
/// server-side on purpose; everything here either changes the analysis
/// output or its accounting.
struct Request {
  RequestKind kind = RequestKind::kPing;
  std::uint64_t realizations = 1000;
  double sea_level_offset_m = 0.0;
  /// Retry budget per failed realization; kUseServerDefault defers.
  std::uint32_t max_retries = kUseServerDefault;
  /// Cooperative deadline for the whole request; 0 = server default.
  std::uint32_t deadline_ms = 0;
  bool no_cache = false;
  /// --strict exit-code policy (changes the exit code, not the report).
  bool strict = false;
  /// Render stats as JSON instead of a text table (kStats only).
  bool json = false;
  /// Asset ids of the primary / backup control center and data center;
  /// empty picks the built-in Oahu defaults.
  std::string primary;
  std::string backup;
  std::string dc;
  /// Topology CSV content shipped with the request; empty = built-in Oahu
  /// (files are client-local, so the CSV travels by value).
  std::string topology_csv;

  bool operator==(const Request&) const = default;
};

/// Final answer to a request. `output` is EXACTLY the report ctctl would
/// print to stdout for the same command locally — remote-vs-local
/// byte-identity is a protocol-level contract, enforced by tests and the
/// CI smoke job.
struct Response {
  std::int32_t exit_code = 0;
  bool degraded = false;
  /// No sweep ran: the mask table came from the session's memo or the
  /// result cache (the signal the cache-warm smoke assertion reads).
  bool all_from_cache = false;
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t retries = 0;
  std::string output;

  bool operator==(const Response&) const = default;
};

/// Sweep progress at a checkpoint-slice boundary (see
/// runtime::SweepProgressEvent — this is its wire form).
struct StreamChunk {
  std::uint64_t done = 0;
  std::uint64_t total = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t retries = 0;

  bool operator==(const StreamChunk&) const = default;
};

/// Error frame payload. For kOverloaded the queue fields carry the
/// admission state so a client can back off intelligently.
struct ErrorInfo {
  Status status = Status::kExecutionFailed;
  std::string message;
  std::uint32_t queue_depth = 0;     ///< admitted-but-unserved requests
  std::uint32_t retry_after_ms = 0;  ///< server's backoff hint

  bool operator==(const ErrorInfo&) const = default;
};

/// Handshake payloads.
struct Hello {
  std::string client_name;
  std::uint8_t min_version = kProtocolVersion;
  std::uint8_t max_version = kProtocolVersion;

  bool operator==(const Hello&) const = default;
};
struct Welcome {
  std::uint8_t version = kProtocolVersion;
  std::string server_name;

  bool operator==(const Welcome&) const = default;
};

// --- frames ----------------------------------------------------------------

/// A decoded frame: type + request id + raw payload bytes.
struct Frame {
  FrameType type = FrameType::kHello;
  std::uint32_t request_id = 0;
  std::string payload;
};

/// Encodes a complete frame (header + payload) ready for the socket.
std::string encode_frame(FrameType type, std::uint32_t request_id,
                         std::string_view payload);

// Typed payload encoders / decoders. Decoders validate exhaustively
// (enum ranges, exact payload consumption) and throw ct::Error{kProtocol}.
std::string encode_hello(const Hello& hello);
Hello decode_hello(std::string_view payload);
std::string encode_welcome(const Welcome& welcome);
Welcome decode_welcome(std::string_view payload);
std::string encode_request(const Request& request);
Request decode_request(std::string_view payload);
std::string encode_response(const Response& response);
Response decode_response(std::string_view payload);
std::string encode_chunk(const StreamChunk& chunk);
StreamChunk decode_chunk(std::string_view payload);
std::string encode_error(const ErrorInfo& error);
ErrorInfo decode_error(std::string_view payload);

/// Incremental frame decoder for a byte stream: feed() whatever recv()
/// returned, then drain next() until it reports no complete frame.
/// util::open_frame checks magic, header digest, flags, payload bound and
/// payload digest in that order, so a corrupt length can never commit the
/// decoder to a bogus read; the decoder then refuses any version but
/// kProtocolVersion and any unknown frame type. All errors are
/// ct::Error{kProtocol}; after one the stream is unsynchronized and the
/// connection must be dropped (the caller decides; the decoder itself
/// stays inert).
class FrameDecoder {
 public:
  /// Appends raw bytes from the stream.
  void feed(const void* data, std::size_t n);

  /// Extracts the next complete frame into `out`. Returns false when more
  /// bytes are needed. Throws ct::Error{kProtocol} on malformed input.
  bool next(Frame& out);

  /// Bytes buffered but not yet consumed by next().
  std::size_t buffered() const noexcept { return buffer_.size() - consumed_; }

 private:
  std::string buffer_;
  std::size_t consumed_ = 0;
};

}  // namespace ct::service
