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

const runtime::GeneratedBatch& CaseStudyRunner::generated() {
  if (!cached_) {
    batch_ = runtime_->generate_guarded(engine_, options_.realizations);
    cached_ = true;
  }
  return batch_;
}

const std::vector<surge::HurricaneRealization>& CaseStudyRunner::realizations() {
  return generated().realizations;
}

const runtime::FailureLedger& CaseStudyRunner::generation_failures() {
  return batch_.ledger;
}

const std::string& CaseStudyRunner::batch_digest() {
  if (batch_digest_.empty()) {
    batch_digest_ =
        runtime_->digest_engine_batch(engine_, options_.realizations);
  }
  return batch_digest_;
}

ScenarioResult CaseStudyRunner::run(const scada::Configuration& config,
                                    threat::ThreatScenario scenario) {
  // Lazy: a result-cache hit (same topology, configuration, scenario,
  // ensemble, attacker — possibly from a previous process via the disk
  // layer) never generates the realization batch at all. On a miss the
  // guarded batch's quarantine ledger flows into the ScenarioResult.
  return pipeline_.analyze_lazy(
      config, scenario, [this] { return &generated(); }, *runtime_,
      batch_digest());
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
                                     interrupt);
}

double CaseStudyRunner::asset_flood_probability(std::string_view asset_id) {
  const auto& batch = realizations();
  if (batch.empty()) return 0.0;
  std::size_t failures = 0;
  const std::string id(asset_id);
  for (const surge::HurricaneRealization& r : batch) {
    if (r.asset_failed(id)) ++failures;
  }
  return static_cast<double>(failures) / static_cast<double>(batch.size());
}

double CaseStudyRunner::conditional_flood_probability(std::string_view a,
                                                      std::string_view b) {
  const auto& batch = realizations();
  const std::string id_a(a);
  const std::string id_b(b);
  std::size_t b_failures = 0;
  std::size_t joint = 0;
  for (const surge::HurricaneRealization& r : batch) {
    if (r.asset_failed(id_b)) {
      ++b_failures;
      if (r.asset_failed(id_a)) ++joint;
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
