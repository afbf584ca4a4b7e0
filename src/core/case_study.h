// Case-study runner: binds a terrain, a SCADA topology, and the hurricane
// realization engine together and caches the (expensive) realization batch
// so many configurations/scenarios/sitings can be analyzed against the
// same natural-disaster input — exactly how the paper's §VI evaluation is
// structured.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "core/pipeline.h"
#include "runtime/ensemble_runner.h"
#include "scada/asset.h"
#include "surge/realization.h"
#include "terrain/terrain.h"

namespace ct::core {

/// Knobs of a case study.
struct CaseStudyOptions {
  /// Number of hurricane realizations (paper: 1000).
  std::size_t realizations = 1000;
  /// Natural-disaster pipeline parameters.
  surge::RealizationConfig realization{};
  /// Attacker model for the cyberattack stage.
  AttackerModel attacker = AttackerModel::kGreedy;
  /// Execution runtime: --jobs, chunking, result cache (in-memory by
  /// default; enable disk_cache to share results across processes).
  runtime::EnsembleOptions runtime{};
};

class CaseStudyRunner {
 public:
  /// With `shared_runtime == nullptr` (every pre-service caller) the
  /// runner owns a private EnsembleRunner built from options.runtime.
  /// A non-null `shared_runtime` is BORROWED: several case studies — the
  /// ct_service request sessions — then multiplex onto one work-stealing
  /// pool and one content-addressed result cache, which is what keeps the
  /// cache warm across requests. The borrowed runner must outlive this
  /// object, and options.runtime is ignored in that mode (execution knobs
  /// belong to the runner's owner).
  CaseStudyRunner(scada::ScadaTopology topology,
                  std::shared_ptr<const terrain::Terrain> terrain,
                  CaseStudyOptions options = {},
                  runtime::EnsembleRunner* shared_runtime = nullptr);

  /// The cached realization batch (computed on first use). Contains the
  /// SURVIVORS when generation quarantined realizations — see
  /// generation_failures() for the ledger.
  const std::vector<surge::HurricaneRealization>& realizations();

  /// Quarantine ledger of the generation stage (empty until the batch has
  /// been generated, and on every clean run).
  const runtime::FailureLedger& generation_failures();

  /// Analyzes one configuration under one scenario.
  ScenarioResult run(const scada::Configuration& config,
                     threat::ThreatScenario scenario);

  /// Analyzes several configurations under one scenario.
  std::vector<ScenarioResult> run_configs(
      const std::vector<scada::Configuration>& configs,
      threat::ThreatScenario scenario);

  /// Crash-consistent (configurations x scenarios) sweep matrix: every
  /// realization is generated once and classified into every live cell,
  /// with completed slices journaled under `ckpt` so a killed or
  /// interrupted run resumes from where it stopped (bit-identical to an
  /// uninterrupted run). Results come back in row-major order (config
  /// varies fastest within a scenario). See AnalysisPipeline::
  /// analyze_resumable and runtime/checkpoint.h.
  ResumableAnalysis run_all_resumable(
      const std::vector<scada::Configuration>& configs,
      const std::vector<threat::ThreatScenario>& scenarios,
      const runtime::CheckpointOptions& ckpt,
      runtime::CancellationToken* interrupt = nullptr);

  /// Empirical probability that the asset flooded across realizations.
  double asset_flood_probability(std::string_view asset_id);

  /// P(asset `a` flooded | asset `b` flooded); 0 when `b` never floods.
  double conditional_flood_probability(std::string_view a, std::string_view b);

  const scada::ScadaTopology& topology() const noexcept { return topology_; }
  const surge::RealizationEngine& engine() const noexcept { return engine_; }
  const CaseStudyOptions& options() const noexcept { return options_; }
  /// The shared execution runtime (pool + result cache) every analysis of
  /// this case study routes through.
  runtime::EnsembleRunner& runtime() noexcept { return *runtime_; }
  /// True when the runtime is borrowed from an external owner (service
  /// mode) rather than owned by this runner.
  bool shares_runtime() const noexcept { return owned_runtime_ == nullptr; }

 private:
  /// Content address of the (engine, realization count) ensemble; computed
  /// once per runner (its probe realization included) and shared by run()
  /// and run_all_resumable(), so warm runs hit the result cache without
  /// running a realization.
  /// Safe even under quarantine: a degraded run is never stored, so the
  /// full-ensemble address can only ever resolve to full-ensemble results.
  const std::string& batch_digest();
  /// The guarded batch (generated on first use).
  const runtime::GeneratedBatch& generated();

  scada::ScadaTopology topology_;
  CaseStudyOptions options_;
  surge::RealizationEngine engine_;
  AnalysisPipeline pipeline_;
  /// Null when borrowing; runtime_ then points at the external runner.
  std::unique_ptr<runtime::EnsembleRunner> owned_runtime_;
  runtime::EnsembleRunner* runtime_;
  std::string batch_digest_;
  runtime::GeneratedBatch batch_;
  bool cached_ = false;
};

/// Builds the paper's Oahu case study: synthetic Oahu terrain + the Fig. 4
/// topology.
CaseStudyRunner make_oahu_case_study(CaseStudyOptions options = {});

}  // namespace ct::core
