#include "core/case_study.h"

#include "obs/trace.h"
#include "scada/oahu.h"
#include "terrain/oahu.h"

namespace ct::core {

namespace {

/// A borrowed runtime's shared stage, else a private one.
std::shared_ptr<const surge::StormStage> storm_stage(
    std::shared_ptr<const terrain::Terrain> terrain,
    const surge::RealizationConfig& config,
    runtime::EnsembleRunner* shared_runtime) {
  if (shared_runtime == nullptr) {
    return std::make_shared<const surge::StormStage>(std::move(terrain),
                                                     config);
  }
  return shared_runtime->storm_stage(std::move(terrain), config);
}

}  // namespace

CaseStudyRunner::CaseStudyRunner(scada::ScadaTopology topology,
                                 std::shared_ptr<const terrain::Terrain> terrain,
                                 CaseStudyOptions options,
                                 runtime::EnsembleRunner* shared_runtime)
    : topology_(std::move(topology)), options_(options),
      engine_(storm_stage(std::move(terrain), options_.realization,
                          shared_runtime),
              topology_.exposed_assets(), options_.realization),
      owned_runtime_(shared_runtime == nullptr
                         ? std::make_unique<runtime::EnsembleRunner>(
                               options_.runtime)
                         : nullptr),
      runtime_(shared_runtime == nullptr ? owned_runtime_.get()
                                         : shared_runtime) {}

std::shared_ptr<const runtime::FailureMasks> CaseStudyRunner::table(
    const runtime::CheckpointOptions& ckpt,
    runtime::CancellationToken* interrupt, ResumableAnalysis& how) {
  if (masks_) return masks_;
  // Only the result cache and a journal read the digest, whose probe
  // realization costs a run.
  const bool cache = runtime_->options().cache;
  runtime::SweepSpec spec =
      mask_sweep_spec(cache || !ckpt.dir.empty() ? batch_digest() : "",
                      options_.realizations);
  spec.words = runtime::mask_words(engine_);
  if (cache) {
    masks_ = runtime_->store().lookup(spec, engine_.bindings().asset_index());
    if (masks_) return masks_;
  }
  runtime::ResumableReport report =
      runtime_->run_resumable(engine_, spec, ckpt, interrupt);
  static_cast<runtime::SweepStats&>(how) = report;
  how.swept = true;
  auto swept =
      std::make_shared<const runtime::FailureMasks>(std::move(report.masks));
  if (report.interrupted) return swept;
  if (cache) runtime_->store().store(spec, *swept);
  masks_ = std::move(swept);
  return masks_;
}

const runtime::FailureMasks* CaseStudyRunner::masks() {
  ResumableAnalysis how;
  table({}, nullptr, how);
  return masks_.get();
}

const std::string& CaseStudyRunner::batch_digest() {
  if (batch_digest_.empty()) {
    batch_digest_ =
        runtime_->digest_engine_batch(engine_, options_.realizations);
  }
  return batch_digest_;
}

ScenarioResult CaseStudyRunner::run(const scada::Configuration& config,
                                    threat::ThreatScenario scenario,
                                    const runtime::CheckpointOptions& sweep,
                                    runtime::CancellationToken* interrupt) {
  ResumableAnalysis how;
  const std::shared_ptr<const runtime::FailureMasks> masks =
      table(sweep, interrupt, how);
  return pipeline_.fold(config, scenario, *masks,
                        SitePatterns(config, *masks).counts());
}

std::vector<ScenarioResult> CaseStudyRunner::run_configs(
    const std::vector<scada::Configuration>& configs,
    threat::ThreatScenario scenario) {
  std::vector<ScenarioResult> out;
  out.reserve(configs.size());
  for (const scada::Configuration& config : configs) {
    out.push_back(run(config, scenario));
  }
  return out;
}

ResumableAnalysis CaseStudyRunner::run_all_resumable(
    const std::vector<scada::Configuration>& configs,
    const std::vector<threat::ThreatScenario>& scenarios,
    const runtime::CheckpointOptions& ckpt,
    runtime::CancellationToken* interrupt) {
  obs::Span span("case_study.run_all_resumable");
  ResumableAnalysis out;
  const std::shared_ptr<const runtime::FailureMasks> masks =
      table(ckpt, interrupt, out);
  // One projection per configuration serves all its scenarios' cells.
  out.results.resize(configs.size() * scenarios.size());
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const std::vector<std::size_t> counts =
        SitePatterns(configs[c], *masks).counts();
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
      out.results[s * configs.size() + c] =
          pipeline_.fold(configs[c], scenarios[s], *masks, counts);
    }
  }
  return out;
}

double CaseStudyRunner::asset_flood_probability(std::string_view asset_id) {
  const runtime::FailureMasks& table = *masks();
  if (table.size() == 0) return 0.0;
  scada::Configuration site;
  site.sites = {{.asset_id = std::string(asset_id)}};
  const std::vector<std::size_t> counts = SitePatterns(site, table).counts();
  return static_cast<double>(counts[1]) / static_cast<double>(table.size());
}

double CaseStudyRunner::conditional_flood_probability(std::string_view a,
                                                      std::string_view b) {
  // Pattern bit 0 is `a`'s, bit 1 `b`'s.
  scada::Configuration pair;
  pair.sites = {{.asset_id = std::string(a)}, {.asset_id = std::string(b)}};
  const std::vector<std::size_t> counts = SitePatterns(pair, *masks()).counts();
  const std::size_t b_failures = counts[0b10] + counts[0b11];
  if (b_failures == 0) return 0.0;
  return static_cast<double>(counts[0b11]) / static_cast<double>(b_failures);
}

CaseStudyRunner make_oahu_case_study(CaseStudyOptions options) {
  return CaseStudyRunner(scada::oahu_topology(), terrain::make_oahu_terrain(),
                         options);
}

}  // namespace ct::core
