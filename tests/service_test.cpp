// ct_service tests: wire-protocol round-trips and malformed-frame
// handling (every corruption must surface as ct::Error{kProtocol}, never
// UB — run under ASan/UBSan in CI), plus loopback server tests covering
// the serving-mode contracts: byte-identity with local execution (cold,
// cache-warm, and under fault-injection quarantine), bounded-queue load
// shedding, per-request deadlines, client-death reclamation, and
// concurrent sessions (exercised under TSan in CI).
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "scada/oahu.h"
#include "service/client.h"
#include "service/exec.h"
#include "service/protocol.h"
#include "service/server.h"
#include "threat/scenario.h"
#include "util/rng.h"

namespace ct::service {
namespace {

// ---------------------------------------------------------------- payloads

TEST(Protocol, HelloRoundTrip) {
  Hello in;
  in.client_name = "testctl";
  in.min_version = 1;
  in.max_version = 3;
  EXPECT_EQ(decode_hello(encode_hello(in)), in);
}

TEST(Protocol, WelcomeRoundTrip) {
  Welcome in;
  in.version = kProtocolVersion;
  in.server_name = "unit";
  EXPECT_EQ(decode_welcome(encode_welcome(in)), in);
}

TEST(Protocol, RequestRoundTrip) {
  Request in;
  in.kind = RequestKind::kAnalyze;
  in.realizations = 123456789;
  in.sea_level_offset_m = 0.75;
  in.max_retries = 5;
  in.deadline_ms = 60000;
  in.no_cache = true;
  in.strict = true;
  in.json = false;
  in.primary = "honolulu_cc";
  in.backup = "kahe_cc";
  in.dc = "drfortress_dc";
  in.topology_csv = "id,name\n# not a real csv, just bytes\n";
  EXPECT_EQ(decode_request(encode_request(in)), in);
}

TEST(Protocol, ResponseRoundTrip) {
  Response in;
  in.exit_code = 3;
  in.degraded = true;
  in.all_from_cache = true;
  in.attempted = 20000;
  in.completed = 19990;
  in.quarantined = 10;
  in.retries = 17;
  in.output = std::string("=== Hurricane ===\n") + std::string(4096, 'x');
  EXPECT_EQ(decode_response(encode_response(in)), in);
}

TEST(Protocol, ChunkAndErrorRoundTrip) {
  StreamChunk chunk;
  chunk.done = 128;
  chunk.total = 1000;
  chunk.quarantined = 2;
  chunk.retries = 3;
  EXPECT_EQ(decode_chunk(encode_chunk(chunk)), chunk);

  ErrorInfo error;
  error.status = Status::kOverloaded;
  error.message = "admission queue full";
  error.queue_depth = 8;
  error.retry_after_ms = 250;
  EXPECT_EQ(decode_error(encode_error(error)), error);
}

TEST(Protocol, DecodersRejectTruncationAndTrailingBytes) {
  const std::string good = encode_request(Request{});
  // Truncation at every prefix length must throw, never read past the end.
  for (std::size_t n = 0; n < good.size(); ++n) {
    EXPECT_THROW(decode_request(good.substr(0, n)), Error) << "prefix " << n;
  }
  EXPECT_THROW(decode_request(good + "x"), Error);
  try {
    decode_request(good.substr(0, 4));
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kProtocol);
  }
}

TEST(Protocol, DecodersRejectSemanticGarbage) {
  // Unknown request kind.
  std::string bad_kind = encode_request(Request{});
  bad_kind[0] = '\x7f';
  EXPECT_THROW(decode_request(bad_kind), Error);

  // NaN sea-level offset (would poison every downstream digest).
  Request nan_request;
  std::string encoded = encode_request(nan_request);
  // kind(1) + realizations(8), then the f64 — plant an all-ones pattern.
  for (std::size_t i = 9; i < 17; ++i) encoded[i] = '\xff';
  EXPECT_THROW(decode_request(encoded), Error);

  // Infinite sea-level offsets, either sign.
  for (const double offset : {std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity()}) {
    Request inf_request;
    inf_request.sea_level_offset_m = offset;
    try {
      decode_request(encode_request(inf_request));
      ADD_FAILURE() << "offset " << offset << " was accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kProtocol);
    }
  }

  // Empty hello version range.
  Hello hello;
  hello.min_version = 3;
  hello.max_version = 1;
  EXPECT_THROW(decode_hello(encode_hello(hello)), Error);

  // Boolean encoded as 2.
  std::string bad_bool = encode_request(Request{});
  bad_bool[25] = '\x02';  // no_cache field
  EXPECT_THROW(decode_request(bad_bool), Error);

  // Unknown error status.
  std::string bad_status = encode_error(ErrorInfo{});
  bad_status[0] = '\x63';
  EXPECT_THROW(decode_error(bad_status), Error);
}

// ---------------------------------------------------------------- frames

TEST(Frames, RoundTripThroughDecoder) {
  const std::string payload = encode_request(Request{});
  const std::string bytes =
      encode_frame(FrameType::kRequest, 42, payload);
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  Frame frame;
  ASSERT_TRUE(decoder.next(frame));
  EXPECT_EQ(frame.type, FrameType::kRequest);
  EXPECT_EQ(frame.request_id, 42u);
  EXPECT_EQ(frame.payload, payload);
  EXPECT_FALSE(decoder.next(frame));
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(Frames, ReassemblesByteAtATime) {
  const std::string bytes = encode_frame(
      FrameType::kResponse, 7, encode_response(Response{}));
  FrameDecoder decoder;
  Frame frame;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    decoder.feed(bytes.data() + i, 1);
    EXPECT_FALSE(decoder.next(frame)) << "complete after byte " << i;
  }
  decoder.feed(bytes.data() + bytes.size() - 1, 1);
  ASSERT_TRUE(decoder.next(frame));
  EXPECT_EQ(frame.type, FrameType::kResponse);
}

TEST(Frames, DrainsSeveralFramesFromOneFeed) {
  std::string stream;
  for (std::uint32_t id = 1; id <= 5; ++id) {
    stream += encode_frame(FrameType::kStreamChunk, id,
                           encode_chunk(StreamChunk{id, 100, 0, 0}));
  }
  FrameDecoder decoder;
  decoder.feed(stream.data(), stream.size());
  Frame frame;
  for (std::uint32_t id = 1; id <= 5; ++id) {
    ASSERT_TRUE(decoder.next(frame));
    EXPECT_EQ(frame.request_id, id);
  }
  EXPECT_FALSE(decoder.next(frame));
}

void expect_protocol_error(const std::string& bytes) {
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  Frame frame;
  try {
    while (decoder.next(frame)) {
    }
    FAIL() << "malformed frame decoded without error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kProtocol);
  }
}

TEST(Frames, DetectsEveryHeaderCorruption) {
  const std::string good =
      encode_frame(FrameType::kRequest, 9, encode_request(Request{}));
  {
    std::string bad = good;
    bad[0] = 'X';  // magic
    expect_protocol_error(bad);
  }
  {
    std::string bad = good;
    bad[4] = '\x01';  // unsupported version
    expect_protocol_error(bad);
  }
  {
    std::string bad = good;
    bad[5] = '\x00';  // frame type below range
    expect_protocol_error(bad);
  }
  {
    std::string bad = good;
    bad[6] = '\x01';  // nonzero flags
    expect_protocol_error(bad);
  }
  {
    std::string bad = good;
    bad[13] ^= '\x40';  // request id flip -> header digest mismatch
    expect_protocol_error(bad);
  }
  {
    std::string bad = good;
    bad[32] ^= '\x01';  // header digest itself
    expect_protocol_error(bad);
  }
  {
    std::string bad = good;
    bad[kHeaderSize] ^= '\x01';  // first payload byte -> payload checksum
    expect_protocol_error(bad);
  }
}

TEST(Frames, EveryTruncationWaitsAndEveryFlipIsAProtocolError) {
  const std::string good =
      encode_frame(FrameType::kRequest, 9, encode_request(Request{}));
  Frame frame;
  for (std::size_t n = 0; n < good.size(); ++n) {
    FrameDecoder decoder;
    decoder.feed(good.data(), n);
    EXPECT_FALSE(decoder.next(frame)) << "truncated to " << n;
  }
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x5a);
    expect_protocol_error(bad);
  }
  // A trailing byte is the start of the next frame: the frame decodes and
  // the decoder then waits for more.
  FrameDecoder decoder;
  const std::string trailing = good + "x";
  decoder.feed(trailing.data(), trailing.size());
  ASSERT_TRUE(decoder.next(frame));
  EXPECT_EQ(frame.request_id, 9u);
  EXPECT_FALSE(decoder.next(frame));
  EXPECT_EQ(decoder.buffered(), 1u);
}

TEST(Frames, SealedForeignVersionOrTypeIsAProtocolError) {
  // Validly sealed frames the decoder must still refuse: another protocol
  // version, and a frame type outside FrameType.
  const std::string payload = encode_request(Request{});
  expect_protocol_error(util::seal_frame(
      {kMagic, kProtocolVersion - 1,
       static_cast<std::uint8_t>(FrameType::kRequest), 1},
      payload));
  expect_protocol_error(util::seal_frame({kMagic, kProtocolVersion, 0x7f, 1},
                                         payload));
}

TEST(Frames, CorruptLengthCannotCommitToBogusRead) {
  // A flipped payload_size fails the HEADER digest before the decoder
  // ever waits for (or reads) payload bytes — a corrupt length must not
  // make the decoder buffer gigabytes or read out of bounds.
  std::string bad =
      encode_frame(FrameType::kRequest, 1, encode_request(Request{}));
  bad[10] = '\x7f';  // payload_size third byte: now ~8 MiB
  expect_protocol_error(bad);
}

TEST(Frames, OversizePayloadBoundRejected) {
  EXPECT_THROW(encode_frame(FrameType::kResponse, 1,
                            std::string(kMaxPayload + 1, 'a')),
               Error);
}

TEST(Frames, FuzzedFramesNeverCrash) {
  // 1k seeded-random corruptions of valid frames plus raw random byte
  // blobs: every outcome must be "decoded", "need more bytes", or a typed
  // kProtocol error. Anything else (crash, sanitizer report) fails CI.
  util::Rng rng(20260808);
  const std::string seed_frame =
      encode_frame(FrameType::kRequest, 77, encode_request(Request{}));
  std::size_t decoded = 0;
  std::size_t rejected = 0;
  for (int round = 0; round < 1000; ++round) {
    std::string bytes;
    if (round % 2 == 0) {
      bytes = seed_frame;
      const std::size_t flips = 1 + rng.next_u64() % 8;
      for (std::size_t f = 0; f < flips; ++f) {
        bytes[rng.next_u64() % bytes.size()] ^=
            static_cast<char>(1 + rng.next_u64() % 255);
      }
    } else {
      bytes.resize(rng.next_u64() % 256);
      for (char& c : bytes) c = static_cast<char>(rng.next_u64());
    }
    FrameDecoder decoder;
    Frame frame;
    try {
      decoder.feed(bytes.data(), bytes.size());
      while (decoder.next(frame)) {
        // A surviving frame must still decode or reject as a typed error.
        try {
          if (frame.type == FrameType::kRequest) decode_request(frame.payload);
        } catch (const Error&) {
        }
        ++decoded;
      }
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kProtocol);
      ++rejected;
    }
  }
  // The flip corpus must actually exercise the reject path.
  EXPECT_GT(rejected, 400u);
  (void)decoded;
}

// ---------------------------------------------------------------- address

TEST(Address, ParsesUnixAndTcpSpecs) {
  Address a = parse_address("unix:/tmp/ct.sock");
  EXPECT_TRUE(a.is_unix);
  EXPECT_EQ(a.path, "/tmp/ct.sock");

  a = parse_address("/var/run/ct.sock");  // bare path
  EXPECT_TRUE(a.is_unix);

  a = parse_address("tcp:127.0.0.1:7733");
  EXPECT_FALSE(a.is_unix);
  EXPECT_EQ(a.host, "127.0.0.1");
  EXPECT_EQ(a.port, 7733);

  a = parse_address("localhost:80");
  EXPECT_EQ(a.host, "localhost");
  EXPECT_EQ(a.port, 80);

  EXPECT_THROW(parse_address("unix:"), Error);
  EXPECT_THROW(parse_address("nonsense"), Error);
  EXPECT_THROW(parse_address("host:99999"), Error);
  EXPECT_THROW(parse_address("host:notaport"), Error);
}

// ---------------------------------------------------------------- server

/// Unique short unix-socket path (sockaddr_un caps at ~107 chars, so no
/// deep temp dirs).
std::string test_socket_path(const char* tag) {
  static std::atomic<int> counter{0};
  return "/tmp/ct_svc_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

ServerOptions loopback_options(const std::string& socket_path) {
  ServerOptions options;
  options.unix_path = socket_path;
  // Hermetic: memory cache only, small ensembles, two workers.
  options.defaults.runtime.disk_cache = false;
  options.defaults.runtime.jobs = 2;
  options.defaults.runtime.fault_spec = "none";
  return options;
}

Request analyze_request(std::uint64_t realizations) {
  Request request;
  request.kind = RequestKind::kAnalyze;
  request.realizations = realizations;
  return request;
}

/// Local reference execution through the same defaults the server uses.
ExecOutcome run_locally(const Request& request, const ServerOptions& options) {
  const auto runner = make_case_study(request, options.defaults, nullptr);
  return execute_request(request, *runner);
}

TEST(Server, HandshakeAndPing) {
  const std::string path = test_socket_path("ping");
  Server server(loopback_options(path));
  server.start();
  Client client(path, "unit");
  client.connect();
  EXPECT_EQ(client.welcome().version, kProtocolVersion);
  EXPECT_EQ(client.welcome().server_name, "ctserved");
  const CallResult result = client.call(Request{});
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.response.exit_code, 0);
  EXPECT_TRUE(result.response.output.empty());
  server.stop();
}

TEST(Server, AnalyzeMatchesLocalColdWarmAndCacheFlag) {
  const std::string path = test_socket_path("ident");
  const ServerOptions options = loopback_options(path);
  Server server(options);
  server.start();
  const Request request = analyze_request(48);
  const ExecOutcome local = run_locally(request, options);

  Client client(path, "unit");
  client.connect();
  const CallResult cold = client.call(request);
  ASSERT_TRUE(cold.ok);
  // The serving contract: remote output is byte-identical to local.
  EXPECT_EQ(cold.response.output, local.output);
  EXPECT_EQ(cold.response.exit_code, local.exit_code);
  EXPECT_FALSE(cold.response.all_from_cache);

  const CallResult warm = client.call(request);
  ASSERT_TRUE(warm.ok);
  EXPECT_EQ(warm.response.output, local.output);
  // Second identical request is served whole from the shared cache.
  EXPECT_TRUE(warm.response.all_from_cache);
  server.stop();
}

/// Restores the metrics registry gate on scope exit, so a test that
/// switches it on cannot leak that into the rest of the suite (CI also
/// runs this suite with CT_OBS=0).
struct ObsGateGuard {
  bool was_enabled = obs::enabled();
  ~ObsGateGuard() { obs::set_enabled(was_enabled); }
};

// A cache hit on a live case study must not run a realization: the
// engine-batch digest (whose probe runs realization 0) is paid once per
// runner, not once per request. surge.node_steps counts every envelope
// step any realization runs, so it must not move across a warm answer.
TEST(Server, CacheHitOnLiveCaseStudyRunsNoRealization) {
  ObsGateGuard guard;
  obs::set_enabled(true);
  const obs::Counter node_steps("surge.node_steps");
  const auto dir = std::filesystem::temp_directory_path() /
                   ("ct_svc_live_hit_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);

  const std::string path = test_socket_path("livehit");
  const ServerOptions options = loopback_options(path);
  core::CaseStudyOptions defaults = options.defaults;
  defaults.runtime.disk_cache = true;
  defaults.runtime.cache_dir = dir.string();
  const Request request = analyze_request(24);

  // In process: two requests against one runner.
  const auto runner = make_case_study(request, defaults, nullptr);
  std::uint64_t before = node_steps.value();
  const ExecOutcome cold = execute_request(request, *runner);
  if (obs::compiled_in()) {
    EXPECT_GT(node_steps.value(), before);
  }
  EXPECT_FALSE(cold.all_from_cache);
  before = node_steps.value();
  const ExecOutcome warm = execute_request(request, *runner);
  EXPECT_EQ(node_steps.value() - before, 0u);
  EXPECT_TRUE(warm.all_from_cache);
  EXPECT_EQ(warm.output, cold.output);

  // The memoized digest names the same record a freshly computed one
  // does: a fresh runner over the same disk cache is served whole, and the
  // table's key recomputed from the engine is in its store.
  const auto fresh = make_case_study(request, defaults, nullptr);
  const ExecOutcome reread = execute_request(request, *fresh);
  EXPECT_TRUE(reread.all_from_cache);
  EXPECT_EQ(reread.output, cold.output);
  EXPECT_EQ(fresh->runtime().cache_stats().disk_hits, 1u);
  runtime::SweepSpec spec = core::mask_sweep_spec(
      fresh->runtime().digest_engine_batch(fresh->engine(),
                                           fresh->options().realizations),
      fresh->options().realizations);
  spec.words = runtime::mask_words(fresh->engine());
  EXPECT_NE(fresh->runtime().store().lookup(spec, nullptr), nullptr);

  // Served: the second identical request hits the live session.
  Server server(options);
  server.start();
  Client client(path, "unit");
  client.connect();
  before = node_steps.value();
  const CallResult served_cold = client.call(request);
  ASSERT_TRUE(served_cold.ok);
  if (obs::compiled_in()) {
    EXPECT_GT(node_steps.value(), before);
  }
  EXPECT_FALSE(served_cold.response.all_from_cache);
  before = node_steps.value();
  const CallResult served_warm = client.call(request);
  ASSERT_TRUE(served_warm.ok);
  EXPECT_EQ(node_steps.value() - before, 0u);
  EXPECT_TRUE(served_warm.response.all_from_cache);
  EXPECT_EQ(served_warm.response.output, served_cold.response.output);
  server.stop();
  std::filesystem::remove_all(dir);
}

/// Sessions at two sea-level offsets on one server share one storm stage:
/// the two requests build one stage between them, a session the server's
/// runtime builds at either offset gets that same stage object, and both
/// answers are byte-identical to local execution.
TEST(Server, SessionsAtTwoOffsetsShareOneStormStage) {
  ObsGateGuard guard;
  obs::set_enabled(true);
  const obs::Counter builds("surge.stage_builds");
  const std::string path = test_socket_path("stage");
  const ServerOptions options = loopback_options(path);
  Server server(options);
  server.start();
  Client client(path, "unit");
  client.connect();
  std::vector<Request> requests(2, analyze_request(12));
  requests[1].sea_level_offset_m = 0.3;

  const std::uint64_t before = builds.value();
  std::vector<std::string> served;
  for (const Request& request : requests) {
    const CallResult result = client.call(request);
    ASSERT_TRUE(result.ok);
    served.push_back(result.response.output);
  }
  const auto first = make_case_study(requests[0], options.defaults,
                                     &server.runtime());
  const auto second = make_case_study(requests[1], options.defaults,
                                      &server.runtime());
  EXPECT_EQ(&first->engine().stage(), &second->engine().stage());
  if (obs::compiled_in()) {
    EXPECT_EQ(builds.value() - before, 1u);
  }

  for (std::size_t r = 0; r < requests.size(); ++r) {
    EXPECT_EQ(served[r], run_locally(requests[r], options).output) << r;
  }
  EXPECT_NE(served[0], served[1]) << "the offsets must answer differently";
  server.stop();
}

/// Storm counts on a borrowed runtime, as the server's sessions use it. A
/// first session's cached analyze of n realizations runs each storm once:
/// as many surge.node_steps as a --no-cache sweep of n (its batch digest's
/// probe of realization 0 goes through the storm memo), and it keeps n
/// shoreline records. A session at a second offset runs no storm. A case
/// study that owns its runtime (every ctctl run) keeps no record through
/// analyze, downtime and siting.
TEST(StormMemo, BorrowedRuntimeRunsEachStormOnce) {
  ObsGateGuard guard;
  obs::set_enabled(true);
  const obs::Counter node_steps("surge.node_steps");
  const ServerOptions options = loopback_options(test_socket_path("memo"));
  constexpr std::uint64_t kCount = 24;
  const Request request = analyze_request(kCount);
  Request no_cache = request;
  no_cache.no_cache = true;

  std::uint64_t before = node_steps.value();
  const ExecOutcome local = run_locally(no_cache, options);
  const std::uint64_t sweep_steps = node_steps.value() - before;
  if (obs::compiled_in()) {
    EXPECT_GT(sweep_steps, 0u);
  }

  runtime::EnsembleRunner shared(options.defaults.runtime);
  const auto first = make_case_study(request, options.defaults, &shared);
  before = node_steps.value();
  EXPECT_EQ(execute_request(request, *first).output, local.output);
  EXPECT_EQ(node_steps.value() - before, sweep_steps);
  EXPECT_EQ(shared.cache_stats().memo_stores, kCount);
  EXPECT_EQ(shared.cache_stats().memo_hits, 1u);

  Request offset = request;
  offset.sea_level_offset_m = 0.2;
  const std::string offset_local = run_locally(offset, options).output;
  const auto second = make_case_study(offset, options.defaults, &shared);
  before = node_steps.value();
  EXPECT_EQ(execute_request(offset, *second).output, offset_local);
  EXPECT_EQ(node_steps.value() - before, 0u);
  EXPECT_EQ(shared.cache_stats().memo_stores, kCount);
  EXPECT_EQ(shared.cache_stats().memo_hits, 1 + (kCount + 1));

  core::CaseStudyOptions owned_options = options.defaults;
  owned_options.realizations = kCount;
  core::CaseStudyRunner owned = core::make_oahu_case_study(owned_options);
  for (const RequestKind kind :
       {RequestKind::kAnalyze, RequestKind::kDowntime, RequestKind::kSiting}) {
    Request command = request;
    command.kind = kind;
    EXPECT_EQ(execute_request(command, owned).exit_code, 0);
  }
  EXPECT_EQ(owned.runtime().cache_stats().memo_lookups, 0u);
  EXPECT_EQ(owned.runtime().cache_stats().memo_stores, 0u);
}

// ---------------------------------------------------------------- table cache

/// Files under `dir` (the cache's records), recursively.
std::size_t files_under(const std::filesystem::path& dir) {
  std::size_t n = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) ++n;
  }
  return n;
}

/// The result cache's one product serves every command: after a default
/// analyze, a fresh runner over the same disk directory (a new process)
/// reads that table for a Kahe-backup analyze, the exhaustive attacker,
/// downtime and siting. Each runs only its batch digest's probe realization
/// (surge.node_steps moves by exactly that), and prints what a --no-cache
/// run prints.
TEST(TableCache, DiskTableServesEveryCommandOfANewProcess) {
  ObsGateGuard guard;
  obs::set_enabled(true);
  const obs::Counter node_steps("surge.node_steps");
  const auto dir = std::filesystem::temp_directory_path() /
                   ("ct_svc_table_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  core::CaseStudyOptions defaults;
  defaults.runtime.jobs = 2;
  defaults.runtime.fault_spec = "none";
  defaults.runtime.disk_cache = true;
  defaults.runtime.cache_dir = dir.string();
  const Request waiau = analyze_request(48);
  EXPECT_FALSE(
      execute_request(waiau, *make_case_study(waiau, defaults, nullptr))
          .all_from_cache);
  EXPECT_EQ(files_under(dir), 1u);

  std::uint64_t before = node_steps.value();
  {
    const auto probe = make_case_study(waiau, defaults, nullptr);
    probe->runtime().digest_engine_batch(probe->engine(),
                                         probe->options().realizations);
  }
  const std::uint64_t probe_steps = node_steps.value() - before;
  if (obs::compiled_in()) {
    EXPECT_GT(probe_steps, 0u);
  }

  Request kahe = waiau;
  kahe.backup = scada::oahu_ids::kKaheCc;
  Request downtime = waiau;
  downtime.kind = RequestKind::kDowntime;
  Request siting = waiau;
  siting.kind = RequestKind::kSiting;
  struct Case {
    const char* name;
    Request request;
  };
  for (const Case& c : {Case{"kahe analyze", kahe}, Case{"downtime", downtime},
                        Case{"siting", siting}}) {
    const auto runner = make_case_study(c.request, defaults, nullptr);
    before = node_steps.value();
    const ExecOutcome warm = execute_request(c.request, *runner);
    EXPECT_EQ(node_steps.value() - before, probe_steps) << c.name;
    EXPECT_EQ(runner->runtime().cache_stats().disk_hits, 1u) << c.name;
    EXPECT_NE(warm.cache_line.find("1 from disk"), std::string::npos)
        << c.name << ": " << warm.cache_line;

    Request uncached = c.request;
    uncached.no_cache = true;
    const ExecOutcome reference = execute_request(
        uncached, *make_case_study(uncached, defaults, nullptr));
    EXPECT_EQ(warm.output, reference.output) << c.name;
    EXPECT_EQ(warm.exit_code, reference.exit_code) << c.name;
  }
  EXPECT_EQ(files_under(dir), 1u) << "one table serves every command";
  std::filesystem::remove_all(dir);
}

/// A table with a quarantined realization (a throw on every attempt) never
/// reaches the disk, and its session still answers a second command by
/// folding over the memoized table, quarantine records included.
TEST(TableCache, QuarantinedTableNeverReachesDiskAndStaysMemoized) {
  ObsGateGuard guard;
  obs::set_enabled(true);
  const obs::Counter node_steps("surge.node_steps");
  const auto dir = std::filesystem::temp_directory_path() /
                   ("ct_svc_quarantine_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  core::CaseStudyOptions defaults;
  defaults.runtime.jobs = 2;
  defaults.runtime.fault_spec = "throw:every=7";
  defaults.runtime.max_retries = 1;
  defaults.runtime.disk_cache = true;
  defaults.runtime.cache_dir = dir.string();
  const Request analyze = analyze_request(40);
  const auto runner = make_case_study(analyze, defaults, nullptr);
  const ExecOutcome first = execute_request(analyze, *runner);
  EXPECT_TRUE(first.degraded);
  EXPECT_FALSE(first.all_from_cache);
  EXPECT_EQ(files_under(dir), 0u);

  Request downtime = analyze;
  downtime.kind = RequestKind::kDowntime;
  const std::uint64_t before = node_steps.value();
  const ExecOutcome second = execute_request(downtime, *runner);
  EXPECT_EQ(node_steps.value() - before, 0u);
  EXPECT_TRUE(second.degraded);
  EXPECT_EQ(second.quarantined, 6u);  // indices 0, 7, ..., 35
  EXPECT_EQ(second.retries, 6u);
  EXPECT_EQ(files_under(dir), 0u);
  std::filesystem::remove_all(dir);
}

TEST(Server, QuarantineRunsMatchLocalUnderFaultInjection) {
  const std::string path = test_socket_path("fault");
  ServerOptions options = loopback_options(path);
  // Deterministic quarantine: every 7th realization fails all attempts.
  options.defaults.runtime.fault_spec = "throw:every=7";
  Server server(options);
  server.start();
  Request request = analyze_request(40);
  const ExecOutcome local = run_locally(request, options);
  ASSERT_TRUE(local.degraded);

  Client client(path, "unit");
  client.connect();
  const CallResult remote = client.call(request);
  ASSERT_TRUE(remote.ok);
  EXPECT_EQ(remote.response.output, local.output);
  EXPECT_TRUE(remote.response.degraded);
  EXPECT_EQ(remote.response.quarantined, local.quarantined);
  EXPECT_EQ(remote.response.retries, local.retries);

  // Strict policy changes the exit code, not the report bytes.
  request.strict = true;
  const ExecOutcome strict_local = run_locally(request, options);
  const CallResult strict_remote = client.call(request);
  ASSERT_TRUE(strict_remote.ok);
  EXPECT_EQ(strict_remote.response.exit_code, strict_local.exit_code);
  EXPECT_EQ(strict_remote.response.exit_code, 3);
  EXPECT_EQ(strict_remote.response.output, strict_local.output);
  server.stop();
}

TEST(Server, StreamsProgressChunksAtSliceBoundaries) {
  const std::string path = test_socket_path("stream");
  ServerOptions options = loopback_options(path);
  options.stream_interval = 8;
  Server server(options);
  server.start();
  Client client(path, "unit");
  client.connect();
  std::vector<StreamChunk> chunks;
  const CallResult result = client.call(
      analyze_request(32),
      [&chunks](const StreamChunk& chunk) { chunks.push_back(chunk); });
  ASSERT_TRUE(result.ok);
  ASSERT_GE(chunks.size(), 2u);
  for (std::size_t i = 1; i < chunks.size(); ++i) {
    EXPECT_GE(chunks[i].done, chunks[i - 1].done);  // monotone progress
  }
  EXPECT_EQ(chunks.back().done, chunks.back().total);
  server.stop();
}

TEST(Server, BoundedQueueShedsLoadWithOverloaded) {
  const std::string path = test_socket_path("overload");
  ServerOptions options = loopback_options(path);
  options.queue_capacity = 1;
  // Every realization stalls, so jobs occupy the executor long enough for
  // the burst below to pile up deterministically.
  options.defaults.runtime.fault_spec = "delay:every=1,ms=40";
  options.defaults.runtime.jobs = 1;
  Server server(options);
  server.start();

  constexpr int kBurst = 4;
  std::atomic<int> ok{0};
  std::atomic<int> overloaded{0};
  std::vector<std::thread> threads;
  threads.reserve(kBurst);
  for (int i = 0; i < kBurst; ++i) {
    threads.emplace_back([&, i] {
      Client client(path, "burst-" + std::to_string(i));
      client.connect();
      // Distinct no_cache per thread would change session keys; identical
      // requests keep this about admission, not execution.
      const CallResult result = client.call(analyze_request(24));
      if (result.ok) {
        ++ok;
      } else {
        ASSERT_EQ(result.error.status, Status::kOverloaded);
        // The shed answer carries the admission state for backoff.
        EXPECT_LE(result.error.queue_depth, 1u);
        EXPECT_GT(result.error.retry_after_ms, 0u);
        ++overloaded;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // 1 in flight + 1 queued; the rest of the burst must be shed, and the
  // admitted ones must still be answered.
  EXPECT_GE(overloaded.load(), 1);
  EXPECT_GE(ok.load(), 1);
  EXPECT_EQ(ok.load() + overloaded.load(), kBurst);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.shed, static_cast<std::uint64_t>(overloaded.load()));
  EXPECT_EQ(stats.queue_depth, 0u);
  server.stop();
}

TEST(Server, DeadlineExceededMidSweep) {
  const std::string path = test_socket_path("deadline");
  ServerOptions options = loopback_options(path);
  options.stream_interval = 4;  // poll the token at fine granularity
  options.defaults.runtime.fault_spec = "delay:every=1,ms=25";
  options.defaults.runtime.jobs = 1;
  Server server(options);
  server.start();
  Client client(path, "unit");
  client.connect();
  Request request = analyze_request(200);
  request.deadline_ms = 120;
  const CallResult result = client.call(request);
  ASSERT_FALSE(result.ok);
  EXPECT_EQ(result.error.status, Status::kDeadlineExceeded);
  // The server must stay fully serviceable afterwards.
  const CallResult ping = client.call(Request{});
  EXPECT_TRUE(ping.ok);
  server.stop();
}

TEST(Server, MalformedRequestAnsweredWithTypedError) {
  const std::string path = test_socket_path("badreq");
  Server server(loopback_options(path));
  server.start();
  Client client(path, "unit");
  client.connect();
  Request request = analyze_request(16);
  request.primary = "atlantis_cc";  // no such asset
  const CallResult result = client.call(request);
  ASSERT_FALSE(result.ok);
  EXPECT_EQ(result.error.status, Status::kMalformedRequest);
  EXPECT_NE(result.error.message.find("atlantis_cc"), std::string::npos);
  // The connection survives a rejected request.
  const CallResult ping = client.call(Request{});
  EXPECT_TRUE(ping.ok);
  server.stop();
}

/// A request of no realizations asks nothing: make_case_study rejects it
/// as invalid input, and the server answers any client kMalformedRequest.
TEST(Server, ZeroRealizationsAnsweredWithTypedError) {
  const std::string path = test_socket_path("zero");
  const ServerOptions options = loopback_options(path);
  const Request request = analyze_request(0);
  try {
    make_case_study(request, options.defaults, nullptr);
    ADD_FAILURE() << "a case study of 0 realizations was built";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
  }
  Server server(options);
  server.start();
  Client client(path, "unit");
  client.connect();
  const CallResult result = client.call(request);
  ASSERT_FALSE(result.ok);
  EXPECT_EQ(result.error.status, Status::kMalformedRequest);
  EXPECT_NE(result.error.message.find("at least 1 realization"),
            std::string::npos);
  EXPECT_TRUE(client.call(Request{}).ok);
  server.stop();
}

/// Pulls a scalar metric out of a kMetrics JSON reply. Returns 0 when the
/// metric has not been registered yet (nothing has touched it).
std::uint64_t json_metric(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const std::size_t at = json.find(key);
  if (at == std::string::npos) return 0;
  std::size_t i = at + key.size();
  while (i < json.size() && json[i] == ' ') ++i;
  std::uint64_t value = 0;
  while (i < json.size() && json[i] >= '0' && json[i] <= '9') {
    value = value * 10 + static_cast<std::uint64_t>(json[i] - '0');
    ++i;
  }
  return value;
}

CallResult call_metrics(Client& client, bool json) {
  Request request;
  request.kind = RequestKind::kMetrics;
  request.json = json;
  return client.call(request);
}

TEST(Server, StatsRequestReportsCounters) {
  const std::string path = test_socket_path("stats");
  Server server(loopback_options(path));
  server.start();
  Client client(path, "unit");
  client.connect();
  ASSERT_TRUE(client.call(analyze_request(16)).ok);

  Request stats_request;
  stats_request.kind = RequestKind::kStats;
  const CallResult text = client.call(stats_request);
  ASSERT_TRUE(text.ok);
  EXPECT_NE(text.response.output.find("completed"), std::string::npos);

  stats_request.json = true;
  const CallResult json = client.call(stats_request);
  ASSERT_TRUE(json.ok);
  EXPECT_EQ(json.response.output.front(), '{');
  EXPECT_NE(json.response.output.find("\"completed\""), std::string::npos);
  // The cache and DES counters live in the metrics registry only.
  EXPECT_EQ(json.response.output.find("\"cache\""), std::string::npos);
  EXPECT_EQ(json.response.output.find("\"des\""), std::string::npos);
  EXPECT_EQ(text.response.output.find("cache"), std::string::npos);
  const CallResult metrics = call_metrics(client, /*json=*/true);
  ASSERT_TRUE(metrics.ok);
  EXPECT_GE(json_metric(metrics.response.output, "cache.lookups"), 1u);
  server.stop();
}

TEST(Server, MetricsRequestColdVsWarmCacheCountersMonotone) {
  const std::string path = test_socket_path("metrics");
  // One live session: the repeat below comes after its session was evicted,
  // so it looks the table up in the shared store (a live session would
  // fold over its memo without a lookup).
  ServerOptions options = loopback_options(path);
  options.session_cap = 1;
  Server server(options);
  server.start();
  Client client(path, "unit");
  client.connect();

  const CallResult before = call_metrics(client, /*json=*/true);
  ASSERT_TRUE(before.ok);
  EXPECT_EQ(before.response.output.front(), '{');
  const std::uint64_t lookups0 = json_metric(before.response.output,
                                             "cache.lookups");
  const std::uint64_t hits0 = json_metric(before.response.output,
                                          "cache.hits");

  // Cold analyze: a lookup that misses.
  ASSERT_TRUE(client.call(analyze_request(16)).ok);
  const CallResult cold = call_metrics(client, /*json=*/true);
  ASSERT_TRUE(cold.ok);
  const std::uint64_t lookups1 = json_metric(cold.response.output,
                                             "cache.lookups");
  EXPECT_GT(lookups1, lookups0);

  // Warm repeat of the identical request in a new session: a lookup that
  // hits.
  ASSERT_TRUE(client.call(analyze_request(8)).ok);
  ASSERT_TRUE(client.call(analyze_request(16)).ok);
  const CallResult warm = call_metrics(client, /*json=*/true);
  ASSERT_TRUE(warm.ok);
  const std::uint64_t lookups2 = json_metric(warm.response.output,
                                             "cache.lookups");
  const std::uint64_t hits2 = json_metric(warm.response.output, "cache.hits");
  EXPECT_GT(lookups2, lookups1);
  EXPECT_GT(hits2, hits0);

  // Text rendering serves the same snapshot in tabular form.
  const CallResult text = call_metrics(client, /*json=*/false);
  ASSERT_TRUE(text.ok);
  EXPECT_NE(text.response.output.find("cache.lookups"), std::string::npos);
  EXPECT_NE(text.response.output.find("service.requests"), std::string::npos);
  server.stop();
}

TEST(Server, MetricsShedCounterTracksOverloadedAnswers) {
  const std::string path = test_socket_path("metrics_shed");
  ServerOptions options = loopback_options(path);
  options.queue_capacity = 1;
  options.defaults.runtime.fault_spec = "delay:every=1,ms=40";
  options.defaults.runtime.jobs = 1;
  Server server(options);
  server.start();

  Client probe(path, "probe");
  probe.connect();
  const CallResult before = call_metrics(probe, /*json=*/true);
  ASSERT_TRUE(before.ok);
  const std::uint64_t shed0 = json_metric(before.response.output,
                                          "service.shed");

  constexpr int kBurst = 4;
  std::atomic<int> overloaded{0};
  std::vector<std::thread> threads;
  threads.reserve(kBurst);
  for (int i = 0; i < kBurst; ++i) {
    threads.emplace_back([&, i] {
      Client client(path, "burst-" + std::to_string(i));
      client.connect();
      const CallResult result = client.call(analyze_request(24));
      if (!result.ok) {
        ASSERT_EQ(result.error.status, Status::kOverloaded);
        ++overloaded;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_GE(overloaded.load(), 1);

  const CallResult after = call_metrics(probe, /*json=*/true);
  ASSERT_TRUE(after.ok);
  const std::uint64_t shed1 = json_metric(after.response.output,
                                          "service.shed");
  // Registry counter moved by exactly the kOverloaded answers this burst
  // produced (the registry is process-wide, hence the delta).
  EXPECT_EQ(shed1 - shed0, static_cast<std::uint64_t>(overloaded.load()));
  EXPECT_EQ(server.stats().shed, static_cast<std::uint64_t>(overloaded.load()));
  server.stop();
}

TEST(Protocol, MetricsRequestRoundTripAndGarbageRejected) {
  Request in;
  in.kind = RequestKind::kMetrics;
  in.json = true;
  EXPECT_EQ(decode_request(encode_request(in)), in);

  // Truncation at every prefix must throw a typed protocol error.
  const std::string good = encode_request(in);
  for (std::size_t n = 0; n < good.size(); ++n) {
    EXPECT_THROW(decode_request(good.substr(0, n)), Error) << "prefix " << n;
  }
  // Trailing garbage after a well-formed kMetrics payload.
  EXPECT_THROW(decode_request(good + "\x01"), Error);
  // One past the last known kind is still unknown.
  std::string bad_kind = good;
  bad_kind[0] = static_cast<char>(static_cast<int>(RequestKind::kMetrics) + 1);
  try {
    decode_request(bad_kind);
    FAIL() << "unknown kind accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kProtocol);
  }
}

/// Dials the socket, handshakes, sends one analyze request, and returns
/// the raw fd WITHOUT reading the answer — a client about to die
/// mid-stream.
int send_and_abandon(const std::string& path, const Request& request) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  const std::string hello =
      encode_frame(FrameType::kHello, 0, encode_hello(Hello{}));
  EXPECT_EQ(::send(fd, hello.data(), hello.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(hello.size()));
  // Wait for the kWelcome frame so the request is definitely admitted
  // after the handshake.
  FrameDecoder decoder;
  Frame frame;
  char buffer[4096];
  while (!decoder.next(frame)) {
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n <= 0) break;
    decoder.feed(buffer, static_cast<std::size_t>(n));
  }
  EXPECT_EQ(frame.type, FrameType::kWelcome);
  const std::string bytes =
      encode_frame(FrameType::kRequest, 1, encode_request(request));
  EXPECT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
  return fd;
}

TEST(Server, DeadClientReclaimedWithoutLeakingQueueSlot) {
  const std::string path = test_socket_path("reclaim");
  ServerOptions options = loopback_options(path);
  options.queue_capacity = 1;
  options.stream_interval = 4;
  options.defaults.runtime.fault_spec = "delay:every=1,ms=25";
  options.defaults.runtime.jobs = 1;
  Server server(options);
  server.start();

  // Kill the client the moment its (slow) request is in flight. The
  // server must cancel the sweep at the next slice boundary and free the
  // session without a response ever being sent.
  const int fd = send_and_abandon(path, analyze_request(400));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ::close(fd);

  // A well-behaved client must get served promptly afterwards — if the
  // dead client leaked its queue slot (capacity 1), this would shed or
  // hang rather than complete.
  Client client(path, "survivor");
  client.connect();
  const CallResult result = client.call(analyze_request(12));
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.response.exit_code, 0);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_GE(stats.abandoned + stats.completed, 2u);
  server.stop();
}

TEST(Server, ConcurrentSessionsSeeIdenticalBytes) {
  const std::string path = test_socket_path("concurrent");
  const ServerOptions options = loopback_options(path);
  Server server(options);
  server.start();
  const Request request = analyze_request(32);
  const ExecOutcome local = run_locally(request, options);

  constexpr int kSessions = 4;
  std::vector<std::string> outputs(kSessions);
  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
      Client client(path, "session-" + std::to_string(i));
      client.connect();
      for (int round = 0; round < 2; ++round) {
        const CallResult result = client.call(request);
        ASSERT_TRUE(result.ok);
        outputs[i] = result.response.output;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kSessions; ++i) {
    EXPECT_EQ(outputs[i], local.output) << "session " << i;
  }
  server.stop();
}

TEST(Server, GarbageBytesAnsweredWithErrorAndDropped) {
  const std::string path = test_socket_path("garbage");
  Server server(loopback_options(path));
  server.start();

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  // A whole header's worth of non-protocol bytes: the decoder validates
  // nothing until kHeaderSize bytes arrive, so the garbage must cover it.
  const std::string garbage =
      "GET /analyze HTTP/1.1\r\nHost: ct.example.test\r\n\r\n";
  ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(garbage.size()));
  // The server answers with a typed error frame, then closes.
  FrameDecoder decoder;
  Frame frame;
  char buffer[4096];
  bool got_error = false;
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n <= 0) break;
    decoder.feed(buffer, static_cast<std::size_t>(n));
    if (decoder.next(frame)) {
      EXPECT_EQ(frame.type, FrameType::kError);
      EXPECT_EQ(decode_error(frame.payload).status,
                Status::kMalformedRequest);
      got_error = true;
    }
  }
  EXPECT_TRUE(got_error);
  ::close(fd);

  // Wait for the session teardown to land in the counters.
  for (int i = 0; i < 100; ++i) {
    if (server.stats().protocol_errors > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.stats().protocol_errors, 1u);
  server.stop();
}

TEST(Server, VersionMismatchRefusedCleanly) {
  const std::string path = test_socket_path("version");
  Server server(loopback_options(path));
  server.start();

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  Hello hello;
  hello.min_version = 9;
  hello.max_version = 9;
  const std::string bytes =
      encode_frame(FrameType::kHello, 0, encode_hello(hello));
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
  FrameDecoder decoder;
  Frame frame;
  char buffer[4096];
  bool refused = false;
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n <= 0) break;
    decoder.feed(buffer, static_cast<std::size_t>(n));
    if (decoder.next(frame)) {
      ASSERT_EQ(frame.type, FrameType::kError);
      EXPECT_EQ(decode_error(frame.payload).status,
                Status::kUnsupportedVersion);
      refused = true;
    }
  }
  EXPECT_TRUE(refused);
  ::close(fd);
  server.stop();
}

TEST(Server, DrainRefusesNewWorkAfterStop) {
  const std::string path = test_socket_path("drain");
  Server server(loopback_options(path));
  server.start();
  Client client(path, "unit");
  client.connect();
  ASSERT_TRUE(client.call(analyze_request(12)).ok);
  server.stop();
  // The socket is gone after a drain; a fresh dial must fail loudly.
  Client late(path, "late");
  EXPECT_THROW(late.connect(), Error);
}

// The progress hook exec/server streaming is built on: fires with an
// empty checkpoint dir, monotone, and ends at done == total.
TEST(Checkpoint, OnProgressFiresWithoutJournalDir) {
  const Request request = analyze_request(32);
  core::CaseStudyOptions defaults;
  defaults.runtime.disk_cache = false;
  defaults.runtime.jobs = 2;
  defaults.runtime.fault_spec = "none";
  const auto runner = make_case_study(request, defaults, nullptr);
  runtime::CheckpointOptions ckpt;
  ckpt.interval = 8;
  std::vector<runtime::SweepProgressEvent> events;
  ckpt.on_progress = [&events](const runtime::SweepProgressEvent& event) {
    events.push_back(event);
  };
  const ExecOutcome outcome = execute_request(request, *runner, ckpt);
  EXPECT_EQ(outcome.exit_code, 0);
  ASSERT_GE(events.size(), 2u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].done, events[i - 1].done);
  }
  EXPECT_EQ(events.back().done, events.back().total);
}

/// Downtime and siting run their storms inside the mask sweep, so a
/// request cancelled from its first progress event (a deadline or SIGINT
/// while the storms run) ends there: exit 5, no table, and fewer envelope
/// steps than the full run.
TEST(Checkpoint, DowntimeAndSitingStopWhileTheirStormsRun) {
  ObsGateGuard guard;
  obs::set_enabled(true);
  const obs::Counter node_steps("surge.node_steps");
  core::CaseStudyOptions defaults;
  defaults.runtime.disk_cache = false;
  defaults.runtime.jobs = 2;
  defaults.runtime.fault_spec = "none";
  for (const RequestKind kind :
       {RequestKind::kDowntime, RequestKind::kSiting}) {
    Request request;
    request.kind = kind;
    request.realizations = 200;
    request.no_cache = true;  // every run sweeps its own storms

    std::uint64_t before = node_steps.value();
    const ExecOutcome full = execute_request(
        request, *make_case_study(request, defaults, nullptr));
    const std::uint64_t full_steps = node_steps.value() - before;
    EXPECT_EQ(full.exit_code, 0);
    EXPECT_FALSE(full.output.empty());

    runtime::CancellationToken token;
    runtime::CheckpointOptions ckpt;
    ckpt.interval = 32;
    std::size_t events = 0;
    ckpt.on_progress = [&](const runtime::SweepProgressEvent&) {
      ++events;
      token.request_cancel();
    };
    before = node_steps.value();
    const ExecOutcome cut = execute_request(
        request, *make_case_study(request, defaults, nullptr), ckpt, &token);
    const std::uint64_t cut_steps = node_steps.value() - before;
    const std::string what =
        kind == RequestKind::kDowntime ? "downtime" : "siting";
    EXPECT_EQ(cut.exit_code, 5) << what;
    EXPECT_TRUE(cut.interrupted) << what;
    EXPECT_TRUE(cut.output.empty()) << what;
    EXPECT_EQ(events, 1u) << what;
    if (obs::compiled_in()) {
      EXPECT_LT(cut_steps, full_steps) << what;
    }
  }
}

/// The journal key names the ensemble only: a Waiau analyze interrupted
/// mid-sweep resumes in the same directory as a Kahe analyze, which
/// restores the Waiau run's masks and prints a clean Kahe run's report.
TEST(Checkpoint, InterruptedWaiauAnalyzeResumesAsKahe) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("ct_svc_resume_kahe_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  core::CaseStudyOptions defaults;
  defaults.runtime.disk_cache = false;
  defaults.runtime.jobs = 2;
  defaults.runtime.fault_spec = "none";
  Request waiau = analyze_request(200);
  waiau.no_cache = true;
  Request kahe = waiau;
  kahe.backup = scada::oahu_ids::kKaheCc;

  runtime::CancellationToken token;
  runtime::CheckpointOptions ckpt;
  ckpt.dir = dir;
  ckpt.interval = 32;
  ckpt.crash_spec = "none";
  ckpt.on_progress = [&](const runtime::SweepProgressEvent&) {
    token.request_cancel();
  };
  const ExecOutcome cut = execute_request(
      waiau, *make_case_study(waiau, defaults, nullptr), ckpt, &token);
  ASSERT_TRUE(cut.interrupted);

  ckpt.on_progress = nullptr;
  ckpt.resume = true;
  const ExecOutcome resumed =
      execute_request(kahe, *make_case_study(kahe, defaults, nullptr), ckpt);
  EXPECT_EQ(resumed.exit_code, 0);
  const std::size_t line_end = resumed.output.find('\n');
  ASSERT_NE(line_end, std::string::npos);
  const std::string header = resumed.output.substr(0, line_end);
  EXPECT_EQ(header.rfind("checkpoint: resumed, restored 32 and computed 168",
                         0),
            0u)
      << header;
  const ExecOutcome clean =
      execute_request(kahe, *make_case_study(kahe, defaults, nullptr));
  EXPECT_EQ(resumed.output.substr(line_end + 2), clean.output);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ct::service
