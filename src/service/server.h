// ct_service server: an embedded analysis server layered over the
// ct_runtime execution engine.
//
// One Server multiplexes many client connections onto ONE work-stealing
// pool and ONE content-addressed result cache (the shared
// runtime::EnsembleRunner), which is the whole point of serving mode: the
// second client asking the paper's question gets a cache-warm answer
// without re-sweeping a single realization.
//
// Concurrency shape:
//   - one accept thread per listener (TCP loopback and/or Unix-domain);
//   - one session thread per connection, which owns the read side: it
//     drains the FrameDecoder, answers kPing/kStats inline, and ADMITS
//     analysis requests into a bounded queue;
//   - one executor thread, which drains the queue in admission order and
//     runs requests through service::execute_request against an LRU of
//     per-session CaseStudyRunners keyed by session_key().
//
// Admission control is explicit load shedding, not backpressure: when the
// queue is full the session answers kError/kOverloaded immediately —
// carrying the queue depth and a retry-after hint — instead of stalling
// the connection. A client that disappears mid-request has its in-flight
// sweep cancelled (cooperatively, at the next slice boundary) and its
// queued work skipped, so a dead client can never leak a queue slot.
// stop() drains gracefully: listeners close, new work is refused with
// kShuttingDown, admitted work completes, then sessions are torn down.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/case_study.h"
#include "runtime/ensemble_runner.h"
#include "service/exec.h"
#include "service/protocol.h"

namespace ct::service {

/// A parsed listen/connect address: "unix:<path>" (or any string
/// containing '/'), or "tcp:<host>:<port>" / "<host>:<port>".
struct Address {
  bool is_unix = false;
  std::string path;         ///< unix socket path
  std::string host;         ///< tcp host
  std::uint16_t port = 0;   ///< tcp port (0 = ephemeral when listening)
};

/// Parses an address string; throws ct::Error{kInvalidInput} on garbage.
Address parse_address(const std::string& spec);

struct ServerOptions {
  /// Unix-domain socket path; empty disables the Unix listener.
  std::string unix_path;
  /// Enable the TCP loopback listener.
  bool tcp = false;
  /// TCP port; 0 binds an ephemeral port (read back with tcp_port()).
  std::uint16_t tcp_port = 0;
  /// Admitted-but-unserved requests the queue holds before shedding.
  std::size_t queue_capacity = 8;
  /// Deadline applied to requests that do not carry one; 0 = none.
  std::uint32_t default_deadline_ms = 0;
  /// Backoff hint carried by kOverloaded error frames.
  std::uint32_t retry_after_ms = 250;
  /// Realizations per kStreamChunk progress frame (and the granularity at
  /// which deadlines/cancellation are honored).
  std::uint64_t stream_interval = 128;
  /// CaseStudyRunner sessions kept warm (LRU by session_key).
  std::size_t session_cap = 4;
  std::string name = "ctserved";
  /// Server-side execution knobs (jobs, cache placement, fault spec) and
  /// the defaults requests overlay (see exec.h).
  core::CaseStudyOptions defaults;
};

/// The server's own counters: the kStats reply (and the test hooks). The
/// result cache and the DES count into the metrics registry, which the
/// kMetrics reply serves as `cache.*` and `des.*`.
struct ServerStats {
  std::uint64_t connections = 0;        ///< accepted over the lifetime
  std::uint64_t active_sessions = 0;    ///< currently connected
  std::uint64_t queue_depth = 0;        ///< admitted, not yet served
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;          ///< answered with kResponse
  std::uint64_t shed = 0;               ///< answered with kOverloaded
  std::uint64_t failed = 0;             ///< answered with another kError
  std::uint64_t abandoned = 0;          ///< client gone before the answer
  std::uint64_t protocol_errors = 0;    ///< connections dropped on bad frames
  std::uint64_t total_latency_ms = 0;   ///< summed admission->answer, completed
  std::uint64_t max_latency_ms = 0;
  std::uint64_t quarantined = 0;        ///< summed over completed requests
  std::uint64_t chunks_streamed = 0;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the configured listeners and spawns the accept/executor
  /// threads. Throws ct::Error{kIo} when a bind fails (the unix path is
  /// unlinked first) and ct::Error{kInvalidInput} when no listener is
  /// configured.
  void start();

  /// Graceful drain: stop accepting, refuse new admissions with
  /// kShuttingDown, finish admitted work, tear down sessions, join every
  /// thread. Idempotent; also run by the destructor.
  void stop();

  /// The TCP port actually bound (after start(); 0 when TCP is off).
  std::uint16_t tcp_port() const noexcept { return bound_tcp_port_; }

  ServerStats stats() const;

  /// The shared execution runtime every compatible session borrows.
  runtime::EnsembleRunner& runtime() noexcept { return shared_runtime_; }

 private:
  struct Session;
  struct Job {
    std::shared_ptr<Session> session;
    Request request;
    std::uint32_t request_id = 0;
    std::chrono::steady_clock::time_point admitted_at;
  };

  void accept_loop(int listen_fd);
  void session_loop(std::shared_ptr<Session> session);
  void executor_loop();

  /// Handles one decoded frame on a session thread. Returns false when the
  /// connection must close (protocol violation, handshake refusal).
  bool handle_frame(const std::shared_ptr<Session>& session,
                    const Frame& frame);
  void admit(const std::shared_ptr<Session>& session, Request request,
             std::uint32_t request_id);
  void run_job(Job job);
  std::string render_stats(bool json) const;

  core::CaseStudyRunner& session_runner(const Request& request);

  ServerOptions options_;
  runtime::EnsembleRunner shared_runtime_;

  std::vector<int> listen_fds_;
  std::uint16_t bound_tcp_port_ = 0;
  std::vector<std::thread> accept_threads_;
  std::vector<std::thread> session_threads_;
  std::thread executor_thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};

  mutable std::mutex mutex_;  ///< guards queue_, sessions_, stats_
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;
  std::list<std::shared_ptr<Session>> sessions_;
  ServerStats stats_;

  /// Executor-thread-only LRU of warm case-study sessions (front = most
  /// recently used).
  std::list<std::pair<std::string, std::unique_ptr<core::CaseStudyRunner>>>
      runners_;
};

}  // namespace ct::service
