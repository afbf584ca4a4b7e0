// ctserved — the embedded analysis server. Binds a Unix-domain socket
// and/or a TCP loopback port, multiplexes every connected ctctl (or
// library client) onto one shared work-stealing pool and one
// content-addressed result cache, and streams sweep progress while long
// requests run. See src/service/server.h for the concurrency shape and
// DESIGN.md §13 for the architecture.
//
//   ctserved --listen unix:/tmp/ct.sock
//   ctserved --listen tcp:127.0.0.1:0        # ephemeral port, printed
//   ctserved --listen unix:/tmp/ct.sock --listen tcp:127.0.0.1:7733
//            --jobs 8 --queue-capacity 16 --deadline-ms 60000
//
// Flags:
//   --listen <addr>         repeatable: unix:<path> and/or tcp:<host>:<port>
//                           (TCP binds loopback; port 0 = ephemeral)
//   --jobs <n>              worker threads (0 = all cores)
//   --queue-capacity <n>    admitted-but-unserved requests before load
//                           shedding answers kOverloaded (default 8)
//   --deadline-ms <n>       default per-request deadline (0 = none)
//   --stream-interval <n>   realizations per progress chunk (default 128)
//   --sessions <n>          warm case-study sessions kept (default 4)
//   --no-disk-cache         keep the result cache in memory only
//   --fault <spec>          runtime fault-injection spec (testing)
//
// SIGINT/SIGTERM drain gracefully: listeners close, queued work finishes,
// then sessions are torn down. Exit codes: 0 clean shutdown, 1 runtime
// error, 2 usage.
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "service/server.h"
#include "util/strings.h"

using namespace ct;

namespace {

int usage() {
  std::cerr << "usage: ctserved --listen <unix:<path>|tcp:<host>:<port>> "
               "[--listen <addr>] [--jobs <n>] [--queue-capacity <n>] "
               "[--deadline-ms <n>] [--stream-interval <n>] [--sessions <n>] "
               "[--no-disk-cache] [--fault <spec>]\n";
  return 2;
}

// Self-pipe shutdown: the handler only write()s one byte (async-signal-
// safe); the main thread blocks on the read end and runs the graceful
// drain when it wakes.
int g_shutdown_pipe[2] = {-1, -1};

extern "C" void handle_shutdown_signal(int) {
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(g_shutdown_pipe[1], &byte, 1);
}

std::uint64_t parse_count(
    const std::string& value, const char* flag,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  if (const auto v = util::parse_u64(value, max)) return *v;
  std::string message = std::string(flag) + " expects a number";
  if (max != std::numeric_limits<std::uint64_t>::max()) {
    message += " up to " + std::to_string(max);
  }
  throw std::invalid_argument(message + ", got " + value);
}

}  // namespace

int main(int argc, char** argv) {
  service::ServerOptions options;
  options.defaults.runtime.disk_cache = true;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string key = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) {
          throw std::invalid_argument("flag " + key + " expects a value");
        }
        return argv[++i];
      };
      if (key == "--listen") {
        const service::Address addr = service::parse_address(value());
        if (addr.is_unix) {
          options.unix_path = addr.path;
        } else {
          options.tcp = true;
          options.tcp_port = addr.port;
        }
      } else if (key == "--jobs") {
        options.defaults.runtime.jobs = static_cast<unsigned>(
            parse_count(value(), "--jobs", runtime::TaskPool::kMaxJobs));
      } else if (key == "--queue-capacity") {
        options.queue_capacity = parse_count(value(), "--queue-capacity");
      } else if (key == "--deadline-ms") {
        options.default_deadline_ms = static_cast<std::uint32_t>(
            parse_count(value(), "--deadline-ms",
                        std::numeric_limits<std::uint32_t>::max()));
      } else if (key == "--stream-interval") {
        options.stream_interval = parse_count(value(), "--stream-interval");
      } else if (key == "--sessions") {
        options.session_cap = parse_count(value(), "--sessions");
      } else if (key == "--no-disk-cache") {
        options.defaults.runtime.disk_cache = false;
      } else if (key == "--fault") {
        options.defaults.runtime.fault_spec = value();
      } else {
        std::cerr << "ctserved: unknown flag " << key << "\n";
        return usage();
      }
    }
    if (options.unix_path.empty() && !options.tcp) return usage();

    if (::pipe(g_shutdown_pipe) != 0) {
      std::cerr << "ctserved: pipe: " << std::strerror(errno) << "\n";
      return 1;
    }

    service::Server server(options);
    server.start();
    if (!options.unix_path.empty()) {
      std::cout << "ctserved: listening on unix:" << options.unix_path << "\n";
    }
    if (options.tcp) {
      std::cout << "ctserved: listening on tcp:127.0.0.1:"
                << server.tcp_port() << "\n";
    }
    std::cout.flush();

    std::signal(SIGINT, handle_shutdown_signal);
    std::signal(SIGTERM, handle_shutdown_signal);
    char byte = 0;
    while (::read(g_shutdown_pipe[0], &byte, 1) < 0 && errno == EINTR) {
    }
    std::cerr << "ctserved: draining...\n";
    server.stop();
    std::cerr << "ctserved: stopped\n";
    return 0;
  } catch (const std::invalid_argument& e) {
    std::cerr << "ctserved: " << e.what() << "\n";
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "ctserved: " << e.what() << "\n";
    return 1;
  }
}
