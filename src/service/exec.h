// Request execution shared by local ctctl and the ct_service server.
//
// Byte-identity is the load-bearing contract of the serving stack: a
// `ctctl --connect` analyze must print EXACTLY what a local `ctctl
// analyze` of the same inputs prints. Instead of asserting that two
// implementations agree, there is only one — ctctl's subcommand bodies
// live here, render into a string, and both the CLI (which writes it to
// stdout) and the server (which ships it in a kResponse frame) consume
// the same bytes. Anything that is operational diagnostics rather than
// analysis output (the result-cache stats line) is returned separately
// and routed to stderr / server logs, so it never taints the comparison.
#pragma once

#include <memory>
#include <string>

#include "core/case_study.h"
#include "runtime/checkpoint.h"
#include "service/protocol.h"

namespace ct::service {

/// Result of executing one Request.
struct ExecOutcome {
  /// ctctl exit-code policy (0 ok, 3 strict-degraded, 4 no data, 5
  /// interrupted; 1/2 are assigned by the CLI layer).
  int exit_code = 0;
  bool interrupted = false;
  bool degraded = false;
  /// No sweep ran: the mask table came from the session's memo or the
  /// result cache.
  bool all_from_cache = false;
  // Cell-summed quarantine accounting (a realization that quarantines in
  // several (config, scenario) cells counts once per cell, matching the
  // failure-summary table).
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t retries = 0;
  /// The report, byte-for-byte what ctctl prints to stdout.
  std::string output;
  /// Result-cache stats line for THIS execution (delta over the runner's
  /// counters) — diagnostics, bound for stderr or the server log.
  std::string cache_line;
};

/// Content key of the case-study session a request needs: requests with
/// equal keys can share one CaseStudyRunner (same topology, ensemble and
/// runtime-behavior knobs), which is how the server keeps realization
/// batches and in-memory cache entries warm across requests.
/// Throws ct::Error{kInvalidInput} for a request of 0 realizations.
std::string session_key(const Request& request,
                        const core::CaseStudyOptions& defaults);

/// Builds the case study a request describes. `defaults` supplies the
/// server-side execution knobs (jobs, cache placement, fault spec); the
/// request overlays everything result-affecting (realizations, SLR,
/// retries, cache bypass, topology CSV). When `shared_runtime` is
/// non-null and the derived runtime knobs are behavior-compatible with
/// it, the runner BORROWS it (one pool + one result cache across all
/// sessions) and its storm stage; otherwise the runner owns a private
/// runtime and builds its stage privately.
/// Throws ct::Error{kParse} for a malformed topology CSV and
/// ct::Error{kInvalidInput} for a request of 0 realizations.
std::unique_ptr<core::CaseStudyRunner> make_case_study(
    const Request& request, const core::CaseStudyOptions& defaults,
    runtime::EnsembleRunner* shared_runtime);

/// Executes an analyze / downtime / siting / ping request against the
/// runner and renders the report. `ckpt` is the options of the request's
/// sweep: the CLI's checkpoint flags (a dir puts a "checkpoint:" line
/// first), or the server's stream interval and progress observer with an
/// empty dir; `interrupt` is the cooperative cancellation handle (SIGINT
/// locally, deadline/disconnect/drain on the server), honored at sweep
/// slice boundaries by every command.
/// Throws ct::Error{kInvalidInput} for unknown asset ids or a kStats
/// request (stats are answered by the server, not by execution).
ExecOutcome execute_request(const Request& request,
                            core::CaseStudyRunner& runner,
                            const runtime::CheckpointOptions& ckpt = {},
                            runtime::CancellationToken* interrupt = nullptr);

}  // namespace ct::service
