#include "service/exec.h"

#include <sstream>
#include <utility>
#include <vector>

#include "core/report.h"
#include "core/restoration.h"
#include "core/siting.h"
#include "scada/oahu.h"
#include "scada/topology_io.h"
#include "terrain/oahu.h"
#include "threat/scenario.h"
#include "util/digest.h"
#include "util/strings.h"
#include "util/table.h"

namespace ct::service {

namespace {

using util::Error;
using util::ErrorCode;

/// Resolves an asset-id flag against the topology (empty picks the Oahu
/// default), with the same failure text the CLI always printed.
std::string pick_asset(const scada::ScadaTopology& topology,
                       const std::string& requested, const char* fallback) {
  const std::string id = requested.empty() ? fallback : requested;
  if (!topology.contains(id)) {
    throw Error(ErrorCode::kInvalidInput, "service",
                "no asset with id '" + id + "' in the topology");
  }
  return id;
}

std::vector<scada::Configuration> request_configs(
    const Request& request, const scada::ScadaTopology& topology) {
  return scada::paper_configurations(
      pick_asset(topology, request.primary, scada::oahu_ids::kHonoluluCc),
      pick_asset(topology, request.backup, scada::oahu_ids::kWaiauCc),
      pick_asset(topology, request.dc, scada::oahu_ids::kDrFortress));
}

/// The realization-affecting and runtime-behavior-affecting knobs a
/// request derives from the defaults (shared between make_case_study and
/// session_key so the LRU key can never drift from the construction).
/// Throws ct::Error{kInvalidInput} for a request of no realizations: an
/// analysis of no samples has no answer.
core::CaseStudyOptions request_options(const Request& request,
                                       const core::CaseStudyOptions& defaults) {
  if (request.realizations == 0) {
    throw Error(ErrorCode::kInvalidInput, "service",
                "a request needs at least 1 realization");
  }
  core::CaseStudyOptions options = defaults;
  options.realizations = static_cast<std::size_t>(request.realizations);
  options.realization.sea_level_offset_m = request.sea_level_offset_m;
  if (request.max_retries != kUseServerDefault) {
    options.runtime.max_retries = request.max_retries;
  }
  if (request.no_cache) {
    options.runtime.cache = false;
    options.runtime.disk_cache = false;
  }
  return options;
}

/// A borrowed runtime must behave exactly like a request-private one
/// would; only knobs the request can change need comparing (the rest are
/// the defaults the shared runner was built from).
bool runtime_compatible(const runtime::EnsembleOptions& derived,
                        const runtime::EnsembleOptions& shared) {
  return derived.cache == shared.cache &&
         derived.disk_cache == shared.disk_cache &&
         derived.max_retries == shared.max_retries;
}

/// Quarantine summary + exit code, shared verbatim by every subcommand
/// (this is ctctl's old finish_analysis with the stream made explicit).
int finish_analysis(std::ostream& os,
                    const std::vector<core::ScenarioResult>& all_results,
                    bool strict) {
  bool degraded = false;
  std::uint64_t retries = 0;
  for (const core::ScenarioResult& r : all_results) {
    degraded = degraded || r.degraded();
    retries += r.retries;
  }
  if (degraded) {
    os << "=== degraded run: quarantined realizations ===\n";
    core::failure_summary_table(all_results).render(os);
    os << "(" << retries << " retry attempt(s) spent; partial "
       << "distributions above cover completed realizations only)\n\n";
  }
  return core::analysis_exit_code(all_results, strict);
}

/// A checkpointed command's first line: how its sweep used the journal.
void print_checkpoint(std::ostream& os, const runtime::CheckpointOptions& ckpt,
                      const runtime::SweepStats& sweep) {
  if (ckpt.dir.empty()) return;
  os << "checkpoint: " << runtime::resume_status_name(sweep.resume.status)
     << ", restored " << sweep.restored << " and computed " << sweep.executed
     << " realization(s), " << sweep.checkpoints << " checkpoint write(s)\n\n";
}

void accumulate(ExecOutcome& out,
                const std::vector<core::ScenarioResult>& results) {
  for (const core::ScenarioResult& r : results) {
    out.degraded = out.degraded || r.degraded();
    out.attempted += r.attempted;
    out.completed += r.completed;
    out.quarantined += r.failures.size();
    out.retries += r.retries;
  }
}

ExecOutcome run_analyze(const Request& request, core::CaseStudyRunner& runner,
                        const runtime::CheckpointOptions& ckpt,
                        runtime::CancellationToken* interrupt) {
  ExecOutcome out;
  const std::vector<scada::Configuration> configs =
      request_configs(request, runner.topology());
  const auto all = threat::all_scenarios();
  const std::vector<threat::ThreatScenario> scenarios(all.begin(), all.end());

  const core::ResumableAnalysis analysis =
      runner.run_all_resumable(configs, scenarios, ckpt, interrupt);

  std::ostringstream os;
  print_checkpoint(os, ckpt, analysis);

  std::vector<core::ScenarioResult> all_results;
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    // run_all_resumable returns row-major cells: configs within scenario.
    const auto begin = analysis.results.begin() +
                       static_cast<std::ptrdiff_t>(s * configs.size());
    std::vector<core::ScenarioResult> results(
        begin, begin + static_cast<std::ptrdiff_t>(configs.size()));
    os << "=== " << threat::scenario_name(scenarios[s]) << " ===";
    if (analysis.interrupted) os << " (partial)";
    os << "\n";
    core::profile_table(results).render(os);
    os << "\n";
    for (core::ScenarioResult& r : results) {
      all_results.push_back(std::move(r));
    }
  }

  out.interrupted = analysis.interrupted;
  out.all_from_cache = !analysis.swept;
  accumulate(out, all_results);
  const int code = finish_analysis(os, all_results, request.strict);
  out.exit_code = analysis.interrupted
                      ? core::sweep_exit_code(analysis, request.strict)
                      : code;
  out.output = os.str();
  return out;
}

/// Downtime's and siting's ending: the "(generation)" row through which
/// they surface the mask table's quarantines.
ExecOutcome finish_fold(std::ostringstream& os, core::CaseStudyRunner& runner,
                        const runtime::FailureMasks& masks, bool strict) {
  core::ScenarioResult generation;
  generation.config_name = "(generation)";
  generation.attempted = runner.options().realizations;
  generation.failures = masks.ledger.failures;
  generation.retries = masks.ledger.retries;
  generation.completed = generation.attempted - generation.failures.size();
  const std::vector<core::ScenarioResult> results = {std::move(generation)};
  ExecOutcome out;
  accumulate(out, results);
  out.exit_code = finish_analysis(os, results, strict);
  out.output = os.str();
  return out;
}

/// Downtime and siting print no table once their sweep was interrupted.
ExecOutcome stopped() {
  ExecOutcome out;
  out.interrupted = true;
  out.exit_code = 5;
  return out;
}

ExecOutcome run_downtime(const Request& request, core::CaseStudyRunner& runner,
                         const runtime::CheckpointOptions& ckpt,
                         runtime::CancellationToken* interrupt) {
  const std::vector<scada::Configuration> configs =
      request_configs(request, runner.topology());
  core::ResumableAnalysis sweep;
  const auto masks = runner.table(ckpt, interrupt, sweep);
  if (sweep.interrupted) return stopped();

  const core::RestorationModel model;
  std::ostringstream os;
  print_checkpoint(os, ckpt, sweep);
  for (const threat::ThreatScenario scenario : threat::all_scenarios()) {
    util::TextTable table;
    table.set_columns({"config", "E[downtime] h", "E[incorrect] h"},
                      {util::Align::kLeft, util::Align::kRight,
                       util::Align::kRight});
    for (const auto& config : configs) {
      const core::RestorationResult r =
          core::analyze_restoration(config, scenario, *masks, model, 0);
      table.add_row({config.name,
                     util::format_fixed(r.expected_downtime_hours, 2),
                     util::format_fixed(r.expected_incorrect_hours, 2)});
    }
    os << "=== " << threat::scenario_name(scenario) << " ===\n";
    table.render(os);
    os << "\n";
  }
  return finish_fold(os, runner, *masks, request.strict);
}

/// Backup-site candidates of a siting request: the paper's curated list
/// for the built-in topology, every siteable asset (control centers,
/// data centers, power plants, in topology order) for an uploaded one.
std::vector<std::string> siting_candidates(
    const Request& request, const scada::ScadaTopology& topology) {
  if (request.topology_csv.empty()) {
    return scada::oahu_control_site_candidates();
  }
  std::vector<std::string> candidates;
  for (const scada::Asset& asset : topology.assets()) {
    if (asset.type == scada::AssetType::kControlCenter ||
        asset.type == scada::AssetType::kDataCenter ||
        asset.type == scada::AssetType::kPowerPlant) {
      candidates.push_back(asset.id);
    }
  }
  return candidates;
}

ExecOutcome run_siting(const Request& request, core::CaseStudyRunner& runner,
                       const runtime::CheckpointOptions& ckpt,
                       runtime::CancellationToken* interrupt) {
  const std::string primary = pick_asset(runner.topology(), request.primary,
                                         scada::oahu_ids::kHonoluluCc);
  const std::vector<std::string> candidates =
      siting_candidates(request, runner.topology());
  core::ResumableAnalysis sweep;
  const auto masks = runner.table(ckpt, interrupt, sweep);
  if (sweep.interrupted) return stopped();
  core::SitingOptimizer optimizer(runner);

  std::ostringstream os;
  print_checkpoint(os, ckpt, sweep);
  os << "backup-site ranking for \"6-6\" (primary " << primary << ", "
     << runner.options().realizations << " realizations)\n\n";
  for (const threat::ThreatScenario scenario : threat::all_scenarios()) {
    util::TextTable table;
    table.set_columns({"rank", "backup site", "green", "E[badness]"},
                      {util::Align::kRight, util::Align::kLeft,
                       util::Align::kRight, util::Align::kRight});
    std::size_t rank = 1;
    for (const core::SitingScore& score :
         optimizer.rank_backup_sites(primary, candidates, scenario)) {
      table.add_row({std::to_string(rank++), score.chosen[0],
                     util::format_percent(score.green_probability, 1),
                     util::format_fixed(score.expected_badness, 3)});
    }
    os << "=== " << threat::scenario_name(scenario) << " ===\n";
    table.render(os);
    os << "\n";
  }
  return finish_fold(os, runner, *masks, request.strict);
}

/// The stats line print_cache_stats always produced, computed over the
/// delta of this execution so shared-runner server sessions report their
/// own traffic rather than the process lifetime's.
std::string cache_stats_line(const runtime::ResultStore::Stats& before,
                             const runtime::ResultStore::Stats& after) {
  const std::uint64_t lookups = after.lookups - before.lookups;
  const std::uint64_t hits = after.hits - before.hits;
  const double rate =
      lookups == 0 ? 0.0
                   : static_cast<double>(hits) / static_cast<double>(lookups);
  std::ostringstream os;
  os << "result cache: " << hits << "/" << lookups << " hits ("
     << util::format_fixed(rate * 100.0, 1) << "%), "
     << (after.disk_hits - before.disk_hits) << " from disk";
  if (after.corrupt_discarded > before.corrupt_discarded) {
    os << ", " << (after.corrupt_discarded - before.corrupt_discarded)
       << " corrupt record(s) discarded";
  }
  if (after.write_failures > before.write_failures) {
    os << ", " << (after.write_failures - before.write_failures)
       << " disk write failure(s) (memory-only fallback)";
  }
  return os.str();
}

}  // namespace

std::string session_key(const Request& request,
                        const core::CaseStudyOptions& defaults) {
  const core::CaseStudyOptions options = request_options(request, defaults);
  util::Digest d;
  d.str("ct-service-session");
  d.str(request.topology_csv);
  d.u64(options.realizations);
  d.f64(options.realization.sea_level_offset_m);
  d.u64(options.runtime.max_retries);
  d.boolean(options.runtime.cache);
  d.boolean(options.runtime.disk_cache);
  return d.hex();
}

std::unique_ptr<core::CaseStudyRunner> make_case_study(
    const Request& request, const core::CaseStudyOptions& defaults,
    runtime::EnsembleRunner* shared_runtime) {
  const core::CaseStudyOptions options = request_options(request, defaults);
  scada::ScadaTopology topology;
  if (request.topology_csv.empty()) {
    topology = scada::oahu_topology();
  } else {
    std::istringstream in(request.topology_csv);
    topology = scada::load_topology_csv(in, "request-topology.csv");
  }
  runtime::EnsembleRunner* borrowed =
      (shared_runtime != nullptr &&
       runtime_compatible(options.runtime, shared_runtime->options()))
          ? shared_runtime
          : nullptr;
  return std::make_unique<core::CaseStudyRunner>(
      std::move(topology), terrain::make_oahu_terrain(), options, borrowed);
}

ExecOutcome execute_request(const Request& request,
                            core::CaseStudyRunner& runner,
                            const runtime::CheckpointOptions& ckpt,
                            runtime::CancellationToken* interrupt) {
  const runtime::ResultStore::Stats before = runner.runtime().cache_stats();
  ExecOutcome out;
  switch (request.kind) {
    case RequestKind::kPing:
      break;  // liveness only: empty report, exit 0
    case RequestKind::kAnalyze:
      out = run_analyze(request, runner, ckpt, interrupt);
      break;
    case RequestKind::kDowntime:
      out = run_downtime(request, runner, ckpt, interrupt);
      break;
    case RequestKind::kSiting:
      out = run_siting(request, runner, ckpt, interrupt);
      break;
    case RequestKind::kStats:
    case RequestKind::kMetrics:
      throw Error(ErrorCode::kInvalidInput, "service",
                  "stats/metrics requests are answered by the server, "
                  "not executed");
  }
  out.cache_line = cache_stats_line(before, runner.runtime().cache_stats());
  return out;
}

}  // namespace ct::service
