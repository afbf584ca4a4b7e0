// ctctl — command-line front end to the compound-threat framework. The
// adoption path for practitioners: export the built-in Oahu topology,
// edit the CSV (or export one from a GIS), and analyze custom sitings
// without writing C++ — locally, or against a running ctserved instance
// (--connect), whose answers are byte-identical to local execution.
//
// Subcommands and flags are listed by `ctctl` with no arguments (see
// usage() below). Analysis commands (analyze, downtime, siting) share one
// body: flags build a service::Request, which either executes in-process
// or ships to a server; both paths render through service::execute_request
// so the report bytes cannot diverge.
//
// Exit codes: 0 success (incl. best-effort degraded), 1 runtime error,
// 2 usage, 3 degraded under --strict, 4 no realization completed,
// 5 interrupted but resumable (or remote deadline exceeded), 6 server
// overloaded or shutting down (retry later).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/case_study.h"
#include "core/map.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scada/oahu.h"
#include "scada/topology_io.h"
#include "service/client.h"
#include "service/exec.h"
#include "terrain/oahu.h"
#include "util/strings.h"

using namespace ct;

namespace {

/// A command-line mistake: reported with the usage text, exit 2 (distinct
/// from runtime failures, which exit 1).
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

int usage() {
  std::cerr <<
      "usage: ctctl <command> [options]\n"
      "\n"
      "commands:\n"
      "  topology export <file.csv>    write the built-in Oahu topology\n"
      "  topology validate <file.csv>  parse + summarize a topology CSV\n"
      "  map [realization]             ASCII region map (optionally with one\n"
      "                                realization's floods)\n"
      "  analyze [options]             operational profiles, 4 scenarios\n"
      "  downtime [options]            restoration costs in hours\n"
      "  siting [options]              backup-site ranking per scenario\n"
      "  stats --connect <addr>        server/runtime counters\n"
      "  stats --metrics               metrics-registry snapshot (local, or\n"
      "                                the server's with --connect)\n"
      "\n"
      "analysis options (analyze, downtime, siting):\n"
      "  --topology <file.csv>      topology to analyze (default: built-in\n"
      "                             Oahu)\n"
      "  --primary <asset id>       primary control center (default:\n"
      "                             honolulu_cc)\n"
      "  --backup <asset id>        backup control center (default: waiau_cc;\n"
      "                             analyze/downtime only)\n"
      "  --dc <asset id>            data center (default: drfortress_dc;\n"
      "                             analyze/downtime only)\n"
      "  --realizations <n>         hurricane realizations (default: 1000)\n"
      "  --slr <meters>             sea-level-rise offset\n"
      "  --jobs <n>                 worker threads (0 = all cores, 1 =\n"
      "                             serial, at most 256; default 0; local\n"
      "                             only)\n"
      "  --no-cache                 recompute everything: disable the result\n"
      "                             cache (default: on-disk cache under\n"
      "                             CT_CACHE_DIR or ~/.cache/ct)\n"
      "  --max-retries <n>          re-runs of a failed realization (same\n"
      "                             seed) before it is quarantined\n"
      "                             (default 2)\n"
      "  --best-effort              degraded runs (quarantined realizations)\n"
      "                             report partial results and exit 0\n"
      "                             (default)\n"
      "  --strict                   degraded runs exit 3 after printing the\n"
      "                             failure summary\n"
      "  --connect <addr>           run on a ctserved instance instead of\n"
      "                             in-process; <addr> is unix:<path> or\n"
      "                             [tcp:]<host>:<port>\n"
      "  --deadline-ms <n>          give up after n milliseconds (remote:\n"
      "                             enforced server-side at sweep slice\n"
      "                             boundaries)\n"
      "  --trace-out <file.json>    enable span tracing and write a Chrome-\n"
      "                             trace JSON after the run (local only;\n"
      "                             load in chrome://tracing or Perfetto)\n"
      "\n"
      "checkpoint options (analyze, downtime, siting; local only):\n"
      "  --checkpoint-dir <dir>     journal completed work under <dir> so a\n"
      "                             killed or interrupted command can\n"
      "                             continue instead of restarting; the\n"
      "                             report then starts with a checkpoint:\n"
      "                             line (realizations restored, computed,\n"
      "                             checkpoint writes)\n"
      "  --checkpoint-interval <n>  realizations per checkpoint record\n"
      "                             (default 128): the most work a crash can\n"
      "                             lose\n"
      "  --resume                   continue from the checkpoint state under\n"
      "                             --checkpoint-dir; stale or corrupt state\n"
      "                             falls back to a cold start, loudly\n"
      "\n"
      "stats options:\n"
      "  --connect <addr>           the server to query (required unless\n"
      "                             --metrics renders the local registry)\n"
      "  --metrics                  full metrics-registry snapshot instead\n"
      "                             of the server counter table\n"
      "  --json                     machine-readable output\n"
      "\n"
      "exit codes: 0 success, 1 runtime error, 2 usage, 3 degraded under\n"
      "--strict, 4 no realization completed, 5 interrupted/deadline (rerun\n"
      "with --resume where applicable), 6 server overloaded or draining\n";
  return 2;
}

/// Flags that take no value.
bool is_boolean_flag(const std::string& name) {
  return name == "no-cache" || name == "strict" || name == "best-effort" ||
         name == "resume" || name == "json" || name == "metrics";
}

/// Cooperative-interrupt plumbing: the signal handler only flips the
/// token's atomic flag (async-signal-safe); the sweep polls it at
/// checkpoint boundaries, flushes, and unwinds normally. The pointer is
/// retargeted (before handlers are installed) at a deadline-bearing token
/// when --deadline-ms is given.
runtime::CancellationToken g_default_interrupt;
runtime::CancellationToken* g_interrupt = &g_default_interrupt;
std::atomic<int> g_interrupt_signal{0};

extern "C" void handle_interrupt_signal(int sig) {
  g_interrupt_signal.store(sig, std::memory_order_relaxed);
  g_interrupt->request_cancel();
}

void install_interrupt_handlers() {
  std::signal(SIGINT, handle_interrupt_signal);
  std::signal(SIGTERM, handle_interrupt_signal);
}

// Per-subcommand flag vocabularies. An unknown flag is a hard usage error
// with a "did you mean" hint — silently ignoring a typo like `--job 8`
// means answering a non-default question with default parameters, the
// worst failure mode an analysis tool can have.
const std::vector<std::string> kAnalysisFlags = {
    "topology",     "primary",     "backup",         "dc",
    "realizations", "slr",         "jobs",           "no-cache",
    "max-retries",  "best-effort", "strict",         "connect",
    "deadline-ms",  "trace-out",   "checkpoint-dir", "checkpoint-interval",
    "resume"};

std::vector<std::string> flags_for(const std::string& command) {
  if (command == "analyze" || command == "downtime") return kAnalysisFlags;
  if (command == "siting") {
    std::vector<std::string> flags;
    for (const std::string& f : kAnalysisFlags) {
      if (f != "backup" && f != "dc") flags.push_back(f);
    }
    return flags;
  }
  if (command == "stats") return {"connect", "json", "metrics"};
  return {};
}

std::map<std::string, std::string> parse_flags(
    int argc, char** argv, int first, const std::vector<std::string>& allowed) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (!util::starts_with(key, "--")) {
      throw UsageError("expected --flag, got: " + key);
    }
    const std::string name = key.substr(2);
    if (std::find(allowed.begin(), allowed.end(), name) == allowed.end()) {
      std::string message = "unknown flag " + key + " for this command";
      const std::string hint = util::closest_match(name, allowed);
      if (!hint.empty()) message += " (did you mean --" + hint + "?)";
      throw UsageError(message);
    }
    if (is_boolean_flag(name)) {
      // A built string, not a literal: assigning a literal here trips a
      // GCC 12 -Wrestrict false positive at -O3.
      flags[name] = std::string("1");
      continue;
    }
    if (i + 1 >= argc) {
      // A trailing flag with no value used to be dropped silently — the
      // worst possible failure mode for an analysis tool (you get a
      // default-parameter answer to a non-default question).
      throw UsageError("flag " + key + " expects a value");
    }
    flags[name] = argv[++i];
  }
  return flags;
}

/// Strict value of a count flag: the whole token, digits only, at most
/// `max`. Anything else ("4x", "-3", "") is a UsageError (exit 2).
std::uint64_t count_flag(
    const std::map<std::string, std::string>::const_iterator& flag,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  if (const auto value = util::parse_u64(flag->second, max)) return *value;
  std::string message = "--" + flag->first + " expects a whole number";
  if (max != std::numeric_limits<std::uint64_t>::max()) {
    message += " up to " + std::to_string(max);
  }
  throw UsageError(message + ", got '" + flag->second + "'");
}

/// Builds the wire request a flag set describes (shared by the local and
/// --connect paths, so a flag can never mean two different things).
service::Request build_request(service::RequestKind kind,
                               const std::map<std::string, std::string>& flags) {
  service::Request request;
  request.kind = kind;
  constexpr std::uint32_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();
  if (const auto it = flags.find("realizations"); it != flags.end()) {
    request.realizations = count_flag(it);
    if (request.realizations == 0) {
      throw UsageError("--realizations must be >= 1");
    }
  }
  if (const auto it = flags.find("slr"); it != flags.end()) {
    const std::optional<double> slr = util::parse_double(it->second);
    if (!slr || !std::isfinite(*slr)) {
      throw UsageError("--slr expects a finite number of meters, got '" +
                       it->second + "'");
    }
    request.sea_level_offset_m = *slr;
  }
  if (const auto it = flags.find("max-retries"); it != flags.end()) {
    request.max_retries = static_cast<std::uint32_t>(count_flag(it, kMaxU32));
  }
  if (const auto it = flags.find("deadline-ms"); it != flags.end()) {
    request.deadline_ms = static_cast<std::uint32_t>(count_flag(it, kMaxU32));
  }
  request.no_cache = flags.count("no-cache") != 0;
  if (flags.count("strict") != 0 && flags.count("best-effort") != 0) {
    throw UsageError("--strict and --best-effort are exclusive");
  }
  request.strict = flags.count("strict") != 0;
  request.json = flags.count("json") != 0;
  if (const auto it = flags.find("primary"); it != flags.end()) {
    request.primary = it->second;
  }
  if (const auto it = flags.find("backup"); it != flags.end()) {
    request.backup = it->second;
  }
  if (const auto it = flags.find("dc"); it != flags.end()) {
    request.dc = it->second;
  }
  if (const auto it = flags.find("topology"); it != flags.end()) {
    // The file is client-local; the CSV travels by value either way so the
    // local and remote paths parse identical bytes.
    std::ifstream in(it->second);
    if (!in) throw std::runtime_error("cannot open " + it->second);
    std::ostringstream content;
    content << in.rdbuf();
    request.topology_csv = content.str();
  }
  return request;
}

runtime::CheckpointOptions build_checkpoint(
    const std::map<std::string, std::string>& flags) {
  runtime::CheckpointOptions ckpt;
  if (const auto it = flags.find("checkpoint-dir"); it != flags.end()) {
    ckpt.dir = it->second;
  }
  if (const auto it = flags.find("checkpoint-interval"); it != flags.end()) {
    ckpt.interval = count_flag(it);
    if (ckpt.interval == 0) {
      throw UsageError("--checkpoint-interval must be >= 1");
    }
  }
  ckpt.resume = flags.count("resume") != 0;
  if (ckpt.resume && ckpt.dir.empty()) {
    throw UsageError("--resume requires --checkpoint-dir");
  }
  return ckpt;
}

/// Exit-code-driven stderr notes shared by the local and remote paths
/// (the report itself is already on stdout).
void explain_exit_code(int code) {
  if (code == 3) {
    std::cerr << "ctctl: degraded run under --strict (exit 3)\n";
  } else if (code == 4) {
    std::cerr << "ctctl: no realization completed (exit 4)\n";
  }
}

int run_local(service::RequestKind kind,
              const std::map<std::string, std::string>& flags) {
  const service::Request request = build_request(kind, flags);
  runtime::CheckpointOptions ckpt = build_checkpoint(flags);
  const auto trace_out = flags.find("trace-out");
  if (trace_out != flags.end()) obs::set_trace_enabled(true);
  core::CaseStudyOptions defaults;
  // Parallel by default, with the cross-process disk cache so a repeated
  // run of identical inputs skips the whole sweep.
  defaults.runtime.disk_cache = true;
  if (const auto it = flags.find("jobs"); it != flags.end()) {
    defaults.runtime.jobs = static_cast<unsigned>(
        count_flag(it, runtime::TaskPool::kMaxJobs));
  }
  std::optional<runtime::CancellationToken> deadline_token;
  if (request.deadline_ms != 0) {
    deadline_token.emplace(std::chrono::milliseconds(request.deadline_ms));
    g_interrupt = &*deadline_token;
  }
  install_interrupt_handlers();

  const std::unique_ptr<core::CaseStudyRunner> runner =
      service::make_case_study(request, defaults, nullptr);
  const service::ExecOutcome outcome =
      service::execute_request(request, *runner, ckpt, g_interrupt);

  std::cout << outcome.output;
  std::cerr << outcome.cache_line << "\n";
  if (trace_out != flags.end()) {
    // Diagnostics on stderr: stdout stays byte-identical to an untraced run.
    std::ofstream trace_file(trace_out->second);
    if (!trace_file) {
      std::cerr << "ctctl: cannot write trace to " << trace_out->second
                << "\n";
    } else {
      obs::write_chrome_trace(trace_file, obs::collect_trace());
      std::cerr << "ctctl: trace written to " << trace_out->second << "\n";
    }
  }

  if (outcome.interrupted) {
    const int sig = g_interrupt_signal.load(std::memory_order_relaxed);
    std::cerr << "ctctl: interrupted"
              << (sig == SIGTERM ? " (SIGTERM)"
                                 : sig == SIGINT ? " (SIGINT)" : "")
              << "; ";
    if (!ckpt.dir.empty()) {
      std::cerr << "progress saved under " << ckpt.dir
                << " — rerun with --resume to continue";
    } else {
      std::cerr << "no --checkpoint-dir, so progress was NOT saved";
    }
    std::cerr << " (exit 5)\n";
    return outcome.exit_code;
  }
  explain_exit_code(outcome.exit_code);
  return outcome.exit_code;
}

int run_remote(service::RequestKind kind,
               const std::map<std::string, std::string>& flags,
               const std::string& address) {
  // Server-side execution knobs cannot be set per-request: the pool and
  // the checkpoint journal belong to the server (results are
  // jobs-independent by the determinism contract, so --jobs could only
  // ever be a no-op anyway).
  for (const char* local_only :
       {"jobs", "checkpoint-dir", "checkpoint-interval", "resume",
        "trace-out"}) {
    if (flags.count(local_only) != 0) {
      throw UsageError(std::string("--") + local_only +
                       " is local-only and cannot be combined with --connect");
    }
  }
  const service::Request request = build_request(kind, flags);
  service::Client client(address);
  client.connect();
  const service::CallResult result = client.call(request);
  if (result.ok) {
    std::cout << result.response.output;
    // Diagnostics stay on stderr so stdout remains byte-identical to a
    // local run (the CI smoke greps this line for the cache-warm check).
    if (result.response.all_from_cache) {
      std::cerr << "ctctl: served entirely from the server's result cache\n";
    }
    explain_exit_code(result.response.exit_code);
    return result.response.exit_code;
  }
  std::cerr << "ctctl: server error ("
            << service::status_name(result.error.status)
            << "): " << result.error.message << "\n";
  switch (result.error.status) {
    case service::Status::kOverloaded:
      std::cerr << "ctctl: queue depth " << result.error.queue_depth
                << ", retry after " << result.error.retry_after_ms
                << " ms (exit 6)\n";
      return 6;
    case service::Status::kShuttingDown:
      return 6;
    case service::Status::kDeadlineExceeded:
      return 5;
    case service::Status::kMalformedRequest:
    case service::Status::kUnsupportedVersion:
    case service::Status::kExecutionFailed:
      break;
  }
  return 1;
}

int cmd_analysis(const std::string& command, service::RequestKind kind,
                 int argc, char** argv) {
  const auto flags = parse_flags(argc, argv, 2, flags_for(command));
  if (const auto it = flags.find("connect"); it != flags.end()) {
    return run_remote(kind, flags, it->second);
  }
  return run_local(kind, flags);
}

int cmd_stats(int argc, char** argv) {
  const auto flags = parse_flags(argc, argv, 2, flags_for("stats"));
  const bool metrics = flags.count("metrics") != 0;
  const auto it = flags.find("connect");
  if (it != flags.end()) {
    return run_remote(metrics ? service::RequestKind::kMetrics
                              : service::RequestKind::kStats,
                      flags, it->second);
  }
  if (!metrics) {
    throw UsageError("stats requires --connect <addr> (the counters live on "
                     "the server); add --metrics to render this process's "
                     "registry locally");
  }
  // Local registry snapshot via the SAME formatter the server's kMetrics
  // reply uses, so local and remote metrics output cannot diverge.
  std::cout << obs::format_metrics(obs::capture_metrics(),
                                   flags.count("json") != 0);
  return 0;
}

int cmd_topology(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string sub = argv[2];
  const std::string path = argv[3];
  if (sub == "export") {
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot write " << path << "\n";
      return 1;
    }
    scada::save_topology_csv(out, scada::oahu_topology());
    std::cout << "wrote built-in Oahu topology to " << path << "\n";
    return 0;
  }
  if (sub == "validate") {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "cannot open " << path << "\n";
      return 1;
    }
    const scada::ScadaTopology topo = scada::load_topology_csv(in, path);
    std::cout << path << ": " << topo.size() << " assets (";
    std::cout << topo.of_type(scada::AssetType::kControlCenter).size()
              << " control centers, "
              << topo.of_type(scada::AssetType::kDataCenter).size()
              << " data centers, "
              << topo.of_type(scada::AssetType::kPowerPlant).size()
              << " power plants, "
              << topo.of_type(scada::AssetType::kSubstation).size()
              << " substations)\n";
    return 0;
  }
  return usage();
}

int cmd_map(int argc, char** argv) {
  const auto terrain = terrain::make_oahu_terrain();
  const scada::ScadaTopology topo = scada::oahu_topology();
  if (argc > 2) {
    const std::optional<std::uint64_t> index = util::parse_u64(argv[2]);
    if (!index) {
      throw UsageError(std::string("map expects a realization index, got '") +
                       argv[2] + "'");
    }
    const surge::RealizationEngine engine(terrain::make_oahu_terrain(),
                                          topo.exposed_assets(), {});
    const surge::HurricaneRealization r = engine.run(*index);
    std::cout << core::render_region_map(*terrain, topo, &r);
  } else {
    std::cout << core::render_region_map(*terrain, topo);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "topology") return cmd_topology(argc, argv);
    if (command == "map") return cmd_map(argc, argv);
    if (command == "analyze") {
      return cmd_analysis(command, service::RequestKind::kAnalyze, argc, argv);
    }
    if (command == "downtime") {
      return cmd_analysis(command, service::RequestKind::kDowntime, argc, argv);
    }
    if (command == "siting") {
      return cmd_analysis(command, service::RequestKind::kSiting, argc, argv);
    }
    if (command == "stats") return cmd_stats(argc, argv);
  } catch (const UsageError& e) {
    std::cerr << "ctctl: " << e.what() << "\n";
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "ctctl: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
