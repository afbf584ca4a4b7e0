#include "core/pipeline.h"

#include <cmath>
#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "core/evaluator.h"
#include "obs/trace.h"
#include "util/csv.h"
#include "util/digest.h"
#include "util/log.h"
#include "util/strings.h"

namespace ct::core {

namespace {

/// EnsembleReport -> ScenarioResult (histogram + quarantine accounting).
ScenarioResult result_from_report(const scada::Configuration& config,
                                  threat::ThreatScenario scenario,
                                  runtime::EnsembleReport report) {
  ScenarioResult result;
  result.config_name = config.name;
  result.scenario = scenario;
  for (std::size_t i = 0; i < report.counts.counts.size(); ++i) {
    result.outcomes.add(static_cast<threat::OperationalState>(i),
                        static_cast<std::size_t>(report.counts.counts[i]));
  }
  result.from_cache = report.counts.from_cache;
  result.failures = std::move(report.failures);
  result.retries = report.retries;
  result.attempted = report.attempted;
  result.completed = report.completed;
  return result;
}

}  // namespace

util::Interval ScenarioResult::mass_bound(threat::OperationalState s,
                                          double confidence) const noexcept {
  // Rebuild the runtime report so both layers share ONE bound formula. A
  // result that never went through the guarded path (serial analyze) has
  // attempted == 0; treat it as a clean full run.
  runtime::EnsembleReport report;
  for (std::size_t i = 0; i < report.counts.counts.size(); ++i) {
    report.counts.counts[i] = static_cast<std::uint64_t>(
        outcomes.count(static_cast<threat::OperationalState>(i)));
  }
  report.counts.total = outcomes.total();
  report.attempted = attempted == 0 ? outcomes.total() : attempted;
  report.completed = attempted == 0 ? outcomes.total() : completed;
  return report.mass_bound(static_cast<std::size_t>(s), confidence);
}

void OutcomeDistribution::add(threat::OperationalState s) noexcept {
  ++counts_[static_cast<std::size_t>(s)];
  ++total_;
}

void OutcomeDistribution::add(threat::OperationalState s,
                              std::size_t n) noexcept {
  counts_[static_cast<std::size_t>(s)] += n;
  total_ += n;
}

std::size_t OutcomeDistribution::count(threat::OperationalState s) const noexcept {
  return counts_[static_cast<std::size_t>(s)];
}

double OutcomeDistribution::probability(threat::OperationalState s) const noexcept {
  if (total_ == 0) return 0.0;
  return static_cast<double>(count(s)) / static_cast<double>(total_);
}

double OutcomeDistribution::expected_badness() const noexcept {
  if (total_ == 0) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    sum += static_cast<double>(i) * static_cast<double>(counts_[i]);
  }
  return sum / static_cast<double>(total_);
}

threat::OperationalState AnalysisPipeline::outcome_for(
    const scada::Configuration& config, threat::ThreatScenario scenario,
    const surge::HurricaneRealization& realization) const {
  // Stage 1 (Fig. 5): apply the natural-disaster impact.
  const threat::SystemState post_disaster = threat::post_disaster_state(
      config, [&realization](std::string_view asset_id) {
        return realization.asset_failed(std::string(asset_id));
      });

  // Stage 2: apply the worst-case cyberattack for the scenario.
  const threat::AttackerCapability capability =
      threat::capability_for(scenario);
  threat::SystemState final_state = post_disaster;
  if (model_ == AttackerModel::kGreedy) {
    final_state = threat::GreedyWorstCaseAttacker{}.attack(
        config, post_disaster, capability);
  } else {
    threat::ExhaustiveAttacker exhaustive(
        [&config](const threat::SystemState& s) { return evaluate(config, s); });
    final_state = exhaustive.attack(config, post_disaster, capability);
  }

  // Stage 3: evaluate the final system state (Table I).
  return evaluate(config, final_state);
}

ScenarioResult AnalysisPipeline::analyze(
    const scada::Configuration& config, threat::ThreatScenario scenario,
    const std::vector<surge::HurricaneRealization>& realizations) const {
  obs::Span span("pipeline.analyze");
  ScenarioResult result;
  result.config_name = config.name;
  result.scenario = scenario;
  for (const surge::HurricaneRealization& r : realizations) {
    result.outcomes.add(outcome_for(config, scenario, r));
  }
  return result;
}

std::string_view AnalysisPipeline::attacker_tag() const noexcept {
  return model_ == AttackerModel::kGreedy ? "greedy" : "exhaustive";
}

ScenarioResult AnalysisPipeline::analyze_lazy(
    const scada::Configuration& config, threat::ThreatScenario scenario,
    const runtime::EnsembleRunner::BatchFn& batch,
    runtime::EnsembleRunner& runtime, std::string_view batch_digest) const {
  obs::Span span("pipeline.analyze");
  const std::string key =
      batch_digest.empty()
          ? std::string()  // unidentified set: skip the cache, stay correct
          : runtime::EnsembleRunner::job_key(config, scenario, attacker_tag(),
                                             batch_digest);
  runtime::EnsembleReport report = runtime.count_outcomes_guarded(
      batch,
      [&](const surge::HurricaneRealization& r) {
        return static_cast<int>(outcome_for(config, scenario, r));
      },
      key);
  return result_from_report(config, scenario, std::move(report));
}

ResumableAnalysis AnalysisPipeline::analyze_resumable(
    const std::vector<SweepCell>& cells,
    const surge::RealizationEngine& engine, std::size_t count,
    runtime::EnsembleRunner& runtime, std::string_view batch_digest,
    const runtime::CheckpointOptions& ckpt,
    runtime::CancellationToken* interrupt) const {
  obs::Span span("pipeline.analyze_resumable");
  ResumableAnalysis out;
  out.results.resize(cells.size());

  // Pass 1 — cache: a cell whose full distribution is already stored needs
  // no realizations at all. Only the remaining LIVE cells join the sweep.
  std::vector<std::size_t> live;      // cell index per live series
  std::vector<std::string> live_keys; // job key per live series
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const SweepCell& cell = cells[i];
    const std::string key = runtime::EnsembleRunner::job_key(
        *cell.config, cell.scenario, attacker_tag(), batch_digest);
    if (auto hit = runtime.cached_report(key)) {
      out.results[i] =
          result_from_report(*cell.config, cell.scenario, *std::move(hit));
      ++out.cached_cells;
      continue;
    }
    live.push_back(i);
    live_keys.push_back(key);
  }
  if (live.empty()) return out;

  // Pass 2 — one fused sweep over the live cells. The journal is keyed by
  // the engine-batch digest AND the live-series keys, so a checkpoint
  // taken under different knobs, a different attacker, or a different
  // set of outstanding cells can never resume.
  runtime::SweepSpec spec;
  {
    util::Digest d;
    d.str("ct-sweep").str(batch_digest).str(attacker_tag());
    spec.digest = d.hex();
  }
  spec.count = count;
  spec.series = live_keys;

  runtime::ResumableReport report = runtime.run_resumable(
      engine, spec,
      [&](std::size_t series, const surge::HurricaneRealization& r) {
        const SweepCell& cell = cells[live[series]];
        return static_cast<int>(outcome_for(*cell.config, cell.scenario, r));
      },
      ckpt, interrupt);

  out.resume = report.resume;
  out.interrupted = report.interrupted;
  out.restored = report.restored;
  out.executed = report.executed;
  out.checkpoints = report.checkpoints;

  for (std::size_t s = 0; s < live.size(); ++s) {
    const SweepCell& cell = cells[live[s]];
    // Cache only a COMPLETE clean distribution (cache_report drops
    // degraded ones): interrupted series stay out too.
    if (!report.interrupted && report.series[s].attempted == count) {
      runtime.cache_report(live_keys[s], report.series[s]);
    }
    out.results[live[s]] = result_from_report(*cell.config, cell.scenario,
                                              std::move(report.series[s]));
  }
  return out;
}

ScenarioResult AnalysisPipeline::analyze_csv(
    const scada::Configuration& config, threat::ThreatScenario scenario,
    std::istream& in, std::string_view source_name) const {
  const LoadedRealizations loaded = load_realizations_csv(in, source_name);
  ScenarioResult result = analyze(config, scenario, loaded.realizations);
  result.skipped_realizations = loaded.skipped_rows;
  return result;
}

LoadedRealizations load_realizations_csv(std::istream& in,
                                         std::string_view source_name) {
  LoadedRealizations out;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view trimmed = util::trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;

    std::vector<std::string> fields;
    std::string why;
    try {
      fields = util::parse_csv_line(trimmed);
    } catch (const std::invalid_argument& e) {
      why = e.what();
    }
    if (why.empty() && !fields.empty() && fields[0] == "realization") {
      continue;  // header row
    }
    surge::HurricaneRealization r;
    if (why.empty() && fields.size() != 4) {
      why = "expected 4 fields, got " + std::to_string(fields.size());
    }
    if (why.empty()) {
      const auto index = util::parse_u64(util::trim(fields[0]));
      const auto peak_wind = util::parse_double(util::trim(fields[2]));
      const auto max_wse = util::parse_double(util::trim(fields[3]));
      if (!index) {
        why = "bad realization index '" + fields[0] + "'";
      } else if (!peak_wind) {
        why = "bad peak_wind_ms '" + fields[2] + "'";
      } else if (!max_wse) {
        why = "bad max_wse_m '" + fields[3] + "'";
      } else {
        r.index = *index;
        r.peak_wind_ms = *peak_wind;
        r.max_shoreline_wse_m = *max_wse;
      }
    }
    // A NaN/Inf that slips in here would survive every downstream guard
    // (the engine validates only what IT computes), so the boundary where
    // the value enters the process is where it must be rejected.
    if (why.empty() && !std::isfinite(r.peak_wind_ms)) {
      why = "non-finite peak_wind_ms '" + fields[2] + "'";
    }
    if (why.empty() && !std::isfinite(r.max_shoreline_wse_m)) {
      why = "non-finite max_wse_m '" + fields[3] + "'";
    }
    if (!why.empty()) {
      ++out.skipped_rows;
      out.errors.emplace_back(util::ErrorCode::kParse, "realizations-csv",
                              std::string(source_name) + ":" +
                                  std::to_string(line_no) + ": " + why);
      CT_LOG(kWarn, "pipeline") << "skipping malformed realization row: "
                                << out.errors.back().message();
      continue;
    }
    for (const std::string& asset : util::split(fields[1], ';')) {
      const std::string_view id = util::trim(asset);
      if (id.empty()) continue;
      surge::AssetImpact impact;
      impact.asset_id = std::string(id);
      impact.failed = true;
      r.impacts.push_back(std::move(impact));
    }
    out.realizations.push_back(std::move(r));
  }
  return out;
}

void write_realizations_csv(
    std::ostream& out,
    const std::vector<surge::HurricaneRealization>& realizations) {
  util::CsvWriter writer(out);
  writer.header({"realization", "flooded_assets", "peak_wind_ms", "max_wse_m"});
  for (const surge::HurricaneRealization& r : realizations) {
    std::vector<std::string> flooded;
    for (const surge::AssetImpact& impact : r.impacts) {
      if (impact.failed) flooded.push_back(impact.asset_id);
    }
    writer.field(static_cast<std::size_t>(r.index))
        .field(util::join(flooded, ";"))
        .field(r.peak_wind_ms)
        .field(r.max_shoreline_wse_m);
    writer.end_row();
  }
}

}  // namespace ct::core
