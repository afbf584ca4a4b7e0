#include "core/case_study.h"

#include "scada/oahu.h"
#include "terrain/oahu.h"

namespace ct::core {

CaseStudyRunner::CaseStudyRunner(scada::ScadaTopology topology,
                                 std::shared_ptr<const terrain::Terrain> terrain,
                                 CaseStudyOptions options,
                                 runtime::EnsembleRunner* shared_runtime)
    : topology_(std::move(topology)), options_(options),
      engine_(std::move(terrain), topology_.exposed_assets(),
              options_.realization),
      pipeline_(options_.attacker),
      owned_runtime_(shared_runtime == nullptr
                         ? std::make_unique<runtime::EnsembleRunner>(
                               options_.runtime)
                         : nullptr),
      runtime_(shared_runtime == nullptr ? owned_runtime_.get()
                                         : shared_runtime) {}

const runtime::FailureMasks* CaseStudyRunner::masks(
    const runtime::CheckpointOptions& ckpt,
    runtime::CancellationToken* interrupt) {
  if (!masks_) {
    // Only a journal reads the digest, whose probe realization costs a run.
    runtime::ResumableReport report = runtime_->run_resumable(
        engine_,
        mask_sweep_spec(ckpt.dir.empty() ? "" : batch_digest(),
                        options_.realizations),
        ckpt, interrupt);
    if (report.interrupted) return nullptr;
    masks_ = std::move(report.masks);
  }
  return &*masks_;
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
  // Lazy: a result-cache hit (same topology, configuration, scenario,
  // ensemble, attacker — possibly from a previous process via the disk
  // layer) never sweeps; on a miss the table's ledger reaches the result.
  return pipeline_
      .analyze_resumable({SweepCell{&config, scenario}}, engine_,
                         options_.realizations, *runtime_, batch_digest(),
                         sweep, interrupt, masks_)
      .results.front();
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
  std::vector<SweepCell> cells;
  cells.reserve(configs.size() * scenarios.size());
  for (const threat::ThreatScenario scenario : scenarios) {
    for (const scada::Configuration& config : configs) {
      cells.push_back(SweepCell{&config, scenario});
    }
  }
  return pipeline_.analyze_resumable(cells, engine_, options_.realizations,
                                     *runtime_, batch_digest(), ckpt,
                                     interrupt, masks_);
}

double CaseStudyRunner::asset_flood_probability(std::string_view asset_id) {
  const runtime::FailureMasks& table = *masks();
  if (table.size() == 0) return 0.0;
  std::size_t failures = 0;
  for (std::size_t k = 0; k < table.size(); ++k) {
    if (table.flooded(k, asset_id)) ++failures;
  }
  return static_cast<double>(failures) / static_cast<double>(table.size());
}

double CaseStudyRunner::conditional_flood_probability(std::string_view a,
                                                      std::string_view b) {
  const runtime::FailureMasks& table = *masks();
  std::size_t b_failures = 0;
  std::size_t joint = 0;
  for (std::size_t k = 0; k < table.size(); ++k) {
    if (table.flooded(k, b)) {
      ++b_failures;
      if (table.flooded(k, a)) ++joint;
    }
  }
  if (b_failures == 0) return 0.0;
  return static_cast<double>(joint) / static_cast<double>(b_failures);
}

CaseStudyRunner make_oahu_case_study(CaseStudyOptions options) {
  return CaseStudyRunner(scada::oahu_topology(), terrain::make_oahu_terrain(),
                         options);
}

}  // namespace ct::core
