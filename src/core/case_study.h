// Case-study runner: binds a terrain, a SCADA topology, and the hurricane
// realization engine together and memoizes the ensemble's flood-mask table
// so many configurations/scenarios/sitings can be analyzed against the
// same natural-disaster input — exactly how the paper's §VI evaluation is
// structured.
#pragma once

#include <memory>
#include <optional>
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

  /// The ensemble's mask table (DESIGN.md §9): the one an earlier complete
  /// sweep memoized, else a sweep under `ckpt` and `interrupt`, memoized
  /// when it completes; nullptr when it was interrupted.
  const runtime::FailureMasks* masks(
      const runtime::CheckpointOptions& ckpt = {},
      runtime::CancellationToken* interrupt = nullptr);

  /// The memoized table, or nullptr while no sweep has completed.
  const runtime::FailureMasks* memoized_masks() const noexcept {
    return masks_ ? &*masks_ : nullptr;
  }

  /// Analyzes one configuration under one scenario: the result cache, else
  /// a fold over masks(sweep, interrupt), partial if it was interrupted.
  ScenarioResult run(const scada::Configuration& config,
                     threat::ThreatScenario scenario,
                     const runtime::CheckpointOptions& sweep = {},
                     runtime::CancellationToken* interrupt = nullptr);

  /// Analyzes several configurations under one scenario.
  std::vector<ScenarioResult> run_configs(
      const std::vector<scada::Configuration>& configs,
      threat::ThreatScenario scenario);

  /// Crash-consistent (configurations x scenarios) sweep matrix: the live
  /// cells fold over the memoized table, or over one mask sweep whose
  /// completed slices are journaled under `ckpt` so a killed or
  /// interrupted run resumes from where it stopped (bit-identical to an
  /// uninterrupted run). Results come back in row-major order (config
  /// varies fastest within a scenario). See AnalysisPipeline::
  /// analyze_resumable and runtime/checkpoint.h.
  ResumableAnalysis run_all_resumable(
      const std::vector<scada::Configuration>& configs,
      const std::vector<threat::ThreatScenario>& scenarios,
      const runtime::CheckpointOptions& ckpt,
      runtime::CancellationToken* interrupt = nullptr);

  /// Fraction of the surviving realizations that flooded the asset.
  double asset_flood_probability(std::string_view asset_id);

  /// P(asset `a` flooded | asset `b` flooded); 0 when `b` never floods.
  double conditional_flood_probability(std::string_view a, std::string_view b);

  const scada::ScadaTopology& topology() const noexcept { return topology_; }
  const surge::RealizationEngine& engine() const noexcept { return engine_; }
  const CaseStudyOptions& options() const noexcept { return options_; }
  /// The shared execution runtime (pool + result cache) every analysis of
  /// this case study routes through.
  runtime::EnsembleRunner& runtime() noexcept { return *runtime_; }

 private:
  /// Content address of the (engine, realization count) ensemble; computed
  /// once per runner (its probe realization included) and shared by run()
  /// and run_all_resumable(), so warm runs hit the result cache without
  /// running a realization.
  /// Safe even under quarantine: a degraded run is never stored, so the
  /// full-ensemble address can only ever resolve to full-ensemble results.
  const std::string& batch_digest();

  scada::ScadaTopology topology_;
  CaseStudyOptions options_;
  surge::RealizationEngine engine_;
  AnalysisPipeline pipeline_;
  /// Null when borrowing; runtime_ then points at the external runner.
  std::unique_ptr<runtime::EnsembleRunner> owned_runtime_;
  runtime::EnsembleRunner* runtime_;
  std::string batch_digest_;
  /// The table of the first sweep that completed.
  std::optional<runtime::FailureMasks> masks_;
};

/// Builds the paper's Oahu case study: synthetic Oahu terrain + the Fig. 4
/// topology.
CaseStudyRunner make_oahu_case_study(CaseStudyOptions options = {});

}  // namespace ct::core
