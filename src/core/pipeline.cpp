#include "core/pipeline.h"

#include <algorithm>
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
  threat::SystemState state = threat::post_disaster_state(config, flooded);

  // Stage 2: apply the worst-case cyberattack for the scenario. The state
  // moves through the attacker uncopied: a request's folds classify many
  // times, and every copy is a heap allocation.
  const threat::AttackerCapability capability =
      threat::capability_for(scenario);
  if (model_ == AttackerModel::kGreedy) {
    state = threat::GreedyWorstCaseAttacker{}.attack(config, std::move(state),
                                                     capability);
  } else {
    threat::ExhaustiveAttacker exhaustive(
        [&config](const threat::SystemState& s) { return evaluate(config, s); });
    state = exhaustive.attack(config, std::move(state), capability);
  }

  // Stage 3: evaluate the final system state (Table I).
  return evaluate(config, state);
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
