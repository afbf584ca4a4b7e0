#include "core/pipeline.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "core/evaluator.h"
#include "obs/trace.h"
#include "threat/attacker.h"
#include "util/csv.h"
#include "util/digest.h"
#include "util/log.h"
#include "util/strings.h"

namespace ct::core {

util::Interval ScenarioResult::mass_bound(threat::OperationalState s,
                                          double confidence) const noexcept {
  // A result that never went through a sweep (serial analyze) has
  // attempted == 0; treat it as a clean full run.
  const std::size_t n = attempted == 0 ? outcomes.total() : attempted;
  const std::size_t m = attempted == 0 ? outcomes.total() : completed;
  if (n == 0) return {0.0, 1.0};
  // Exact CI for the state's probability among the COMPLETED samples...
  const util::Interval cp =
      util::clopper_pearson_interval(outcomes.count(s), m, confidence);
  // ...then account for the quarantined mass: at one extreme none of the
  // quarantined realizations are in this state, at the other all are.
  const double total = static_cast<double>(n);
  const double done = static_cast<double>(m);
  const double quarantined = static_cast<double>(n - m);
  return {std::max(0.0, cp.lo * done / total),
          std::min(1.0, (cp.hi * done + quarantined) / total)};
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

namespace {

/// `config`'s site count; throws past what a flood pattern covers.
std::size_t pattern_sites(const scada::Configuration& config) {
  if (config.sites.size() > kMaxPatternSites) {
    throw std::invalid_argument("configuration '" + config.name +
                                "' has more sites than a flood pattern covers");
  }
  return config.sites.size();
}

}  // namespace

SitePatterns::SitePatterns(const scada::Configuration& config,
                           const runtime::FailureMasks& masks)
    : masks_(masks), sites_(pattern_sites(config)) {
  for (std::size_t i = 0; masks.assets && i < sites_; ++i) {
    const auto it = masks.assets->find(config.sites[i].asset_id);
    if (it != masks.assets->end()) bits_[i] = it->second;
  }
}

std::uint32_t SitePatterns::of(std::size_t k) const noexcept {
  std::uint32_t pattern = 0;
  for (std::size_t i = 0; i < sites_; ++i) {
    if (bits_[i] && masks_.test(k, *bits_[i])) pattern |= 1u << i;
  }
  return pattern;
}

std::vector<std::size_t> SitePatterns::counts() const {
  std::vector<std::size_t> counts(std::size_t{1} << sites_, 0);
  for (std::size_t k = 0; k < masks_.size(); ++k) ++counts[of(k)];
  return counts;
}

std::uint32_t flood_pattern(const scada::Configuration& config,
                            const surge::HurricaneRealization& realization) {
  std::uint32_t pattern = 0;
  for (std::size_t i = 0, n = pattern_sites(config); i < n; ++i) {
    if (realization.asset_failed(config.sites[i].asset_id)) pattern |= 1u << i;
  }
  return pattern;
}

threat::SystemState attacked_state(const scada::Configuration& config,
                                   threat::ThreatScenario scenario,
                                   std::uint32_t pattern) {
  // Stage 1 (Fig. 5): the floods of `pattern`.
  const std::size_t n = pattern_sites(config);
  threat::SystemState state;
  state.site_status.assign(n, threat::SiteStatus::kUp);
  state.intrusions.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if ((pattern >> i) & 1u) {
      state.site_status[i] = threat::SiteStatus::kFlooded;
    }
  }
  // Stage 2: the worst-case attack, which the state moves through uncopied.
  return threat::GreedyWorstCaseAttacker{}.attack(
      config, std::move(state), threat::capability_for(scenario));
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
  return classify(config, scenario, flood_pattern(config, realization));
}

threat::OperationalState AnalysisPipeline::classify(
    const scada::Configuration& config, threat::ThreatScenario scenario,
    std::uint32_t pattern) const {
  // Stage 3: evaluate the final system state (Table I).
  return evaluate(config, attacked_state(config, scenario, pattern));
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

ScenarioResult AnalysisPipeline::fold(
    const scada::Configuration& config, threat::ThreatScenario scenario,
    const runtime::FailureMasks& masks,
    std::span<const std::size_t> counts) const {
  ScenarioResult result;
  result.config_name = config.name;
  result.scenario = scenario;
  for (std::size_t pattern = 0; pattern < counts.size(); ++pattern) {
    if (counts[pattern] == 0) continue;
    result.outcomes.add(
        classify(config, scenario, static_cast<std::uint32_t>(pattern)),
        counts[pattern]);
  }
  result.failures = masks.ledger.failures;
  result.retries = masks.ledger.retries;
  result.attempted = masks.attempted;
  result.completed = masks.attempted - masks.ledger.failures.size();
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
