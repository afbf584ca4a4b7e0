#include "core/pipeline.h"

#include <cmath>
#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/evaluator.h"
#include "obs/trace.h"
#include "util/csv.h"
#include "util/digest.h"
#include "util/log.h"
#include "util/strings.h"

namespace ct::core {

namespace {

/// A cached full distribution as a clean result with from_cache set.
ScenarioResult result_from_cache(const scada::Configuration& config,
                                 threat::ThreatScenario scenario,
                                 const runtime::CachedCounts& cached) {
  ScenarioResult result;
  result.config_name = config.name;
  result.scenario = scenario;
  for (std::size_t i = 0; i < cached.counts.size(); ++i) {
    result.outcomes.add(static_cast<threat::OperationalState>(i),
                        static_cast<std::size_t>(cached.counts[i]));
  }
  result.from_cache = true;
  // Only fully clean runs are ever stored, so a hit means every
  // realization completed.
  result.attempted = result.completed = result.outcomes.total();
  return result;
}

/// The histogram of `outcomes` as the result cache stores it.
runtime::CachedCounts counts_of(const OutcomeDistribution& outcomes) {
  runtime::CachedCounts cached;
  for (std::size_t i = 0; i < cached.counts.size(); ++i) {
    cached.counts[i] = static_cast<std::uint64_t>(
        outcomes.count(static_cast<threat::OperationalState>(i)));
  }
  cached.total = outcomes.total();
  return cached;
}

}  // namespace

util::Interval ScenarioResult::mass_bound(threat::OperationalState s,
                                          double confidence) const noexcept {
  // Rebuild the runtime report so both layers share ONE bound formula. A
  // result that never went through a sweep (serial analyze) has
  // attempted == 0; treat it as a clean full run.
  runtime::EnsembleReport report;
  report.counts = counts_of(outcomes).counts;
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

MaskClasses::MaskClasses(const runtime::FailureMasks& masks) {
  std::unordered_map<std::string, std::size_t> seen;
  class_of.reserve(masks.size());
  for (std::size_t k = 0; k < masks.size(); ++k) {
    const std::span<const std::uint64_t> mask = masks.mask(k);
    std::string key(reinterpret_cast<const char*>(mask.data()),
                    mask.size_bytes());
    const auto [it, fresh] =
        seen.try_emplace(std::move(key), representative.size());
    if (fresh) {
      representative.push_back(k);
      count.push_back(0);
    }
    class_of.push_back(it->second);
    ++count[it->second];
  }
}

runtime::SweepSpec mask_sweep_spec(std::string_view batch_digest,
                                   std::size_t count) {
  runtime::SweepSpec spec;
  util::Digest d;
  d.str("ct-sweep").str(batch_digest);
  spec.digest = d.hex();
  spec.count = count;
  return spec;
}

threat::OperationalState AnalysisPipeline::outcome_for(
    const scada::Configuration& config, threat::ThreatScenario scenario,
    const surge::HurricaneRealization& realization) const {
  return classify(config, scenario, [&realization](std::string_view asset_id) {
    return realization.asset_failed(std::string(asset_id));
  });
}

threat::OperationalState AnalysisPipeline::classify(
    const scada::Configuration& config, threat::ThreatScenario scenario,
    const std::function<bool(std::string_view)>& flooded) const {
  // Stage 1 (Fig. 5): apply the natural-disaster impact.
  const threat::SystemState post_disaster =
      threat::post_disaster_state(config, flooded);

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

ScenarioResult AnalysisPipeline::fold(const scada::Configuration& config,
                                      threat::ThreatScenario scenario,
                                      const runtime::FailureMasks& masks,
                                      const MaskClasses& classes) const {
  ScenarioResult result;
  result.config_name = config.name;
  result.scenario = scenario;
  for (std::size_t c = 0; c < classes.representative.size(); ++c) {
    const std::size_t k = classes.representative[c];
    result.outcomes.add(
        classify(config, scenario,
                 [&](std::string_view id) { return masks.flooded(k, id); }),
        classes.count[c]);
  }
  result.failures = masks.ledger.failures;
  result.retries = masks.ledger.retries;
  result.attempted = masks.attempted;
  result.completed = masks.attempted - masks.ledger.failures.size();
  return result;
}

ResumableAnalysis AnalysisPipeline::analyze_resumable(
    const std::vector<SweepCell>& cells,
    const surge::RealizationEngine& engine, std::size_t count,
    runtime::EnsembleRunner& runtime, std::string_view batch_digest,
    const runtime::CheckpointOptions& ckpt,
    runtime::CancellationToken* interrupt,
    std::optional<runtime::FailureMasks>& memo) const {
  obs::Span span("pipeline.analyze_resumable");
  ResumableAnalysis out;
  out.results.resize(cells.size());

  // Pass 1 — cache: a cell whose full distribution is already stored needs
  // no realizations at all. Only the remaining LIVE cells fold.
  std::vector<std::size_t> live;      // index of each live cell
  std::vector<std::string> live_keys; // job key of each live cell
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const SweepCell& cell = cells[i];
    const std::string key = runtime::EnsembleRunner::job_key(
        *cell.config, cell.scenario, attacker_tag(), batch_digest);
    if (const auto hit = runtime.cached_counts(key)) {
      out.results[i] = result_from_cache(*cell.config, cell.scenario, *hit);
      ++out.cached_cells;
      continue;
    }
    live.push_back(i);
    live_keys.push_back(key);
  }
  if (live.empty()) return out;

  // Pass 2 — the live cells fold over the memo's table or a sweep's, whose
  // journal key names the engine batch only (any cell set resumes it).
  runtime::ResumableReport report;
  if (!memo) {
    report = runtime.run_resumable(engine, mask_sweep_spec(batch_digest, count),
                                   ckpt, interrupt);
    static_cast<runtime::SweepStats&>(out) = report;
  }
  const runtime::FailureMasks& masks = memo ? *memo : report.masks;
  const MaskClasses classes(masks);
  for (std::size_t s = 0; s < live.size(); ++s) {
    const SweepCell& cell = cells[live[s]];
    ScenarioResult& result = out.results[live[s]];
    result = fold(*cell.config, cell.scenario, masks, classes);
    // Cache only a COMPLETE clean distribution: a partial one would
    // poison every warm rerun.
    if (!out.interrupted && !result.degraded() && masks.attempted == count) {
      runtime.cache_counts(live_keys[s], counts_of(result.outcomes));
    }
  }
  if (!memo && !out.interrupted) memo = std::move(report.masks);
  return out;
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
