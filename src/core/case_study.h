// Case-study runner: binds a terrain, a SCADA topology, and the hurricane
// realization engine together, obtains the ensemble's flood-mask table once
// and folds every configuration/scenario/siting/downtime question over it
// against the same natural-disaster input — exactly how the paper's §VI
// evaluation is structured.
//
// The table comes from one step (DESIGN.md §9): the runner's memo; else,
// with the cache on, the result cache under the engine-batch digest
// (memory, then disk, so another session or process may have swept it);
// else the checkpointed sweep, whose table is stored when complete and
// clean. A live-session request is a fold over the memo, a hit from another
// session or process one lookup and a fold.
#pragma once

#include <memory>
#include <string>
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
  /// Execution runtime: --jobs, result cache (in-memory by default; enable
  /// disk_cache to share results across processes).
  runtime::EnsembleOptions runtime{};
};

class CaseStudyRunner {
 public:
  /// With `shared_runtime == nullptr` (every pre-service caller) the
  /// runner owns a private EnsembleRunner built from options.runtime, and
  /// its engine a private storm stage, which keeps no storm record.
  /// A non-null `shared_runtime` is BORROWED: several case studies — the
  /// ct_service request sessions — then multiplex onto one work-stealing
  /// pool and one content-addressed result cache, which is what keeps the
  /// cache warm across requests, and take their storm stage from it, so
  /// sessions that differ only in bind-side knobs share one mesh and one
  /// set of harbor rays. The borrowed runner must outlive this object, and
  /// options.runtime is ignored in that mode (execution knobs belong to
  /// the runner's owner).
  CaseStudyRunner(scada::ScadaTopology topology,
                  std::shared_ptr<const terrain::Terrain> terrain,
                  CaseStudyOptions options = {},
                  runtime::EnsembleRunner* shared_runtime = nullptr);

  /// The table step: the memo; else, with the cache on, the result cache
  /// under the batch digest; else a sweep under `ckpt` and `interrupt`,
  /// stored when complete and clean, and memoized when complete (a
  /// degraded table serves the rest of the session). An interrupted
  /// sweep's partial table is returned, not kept. `how` records the sweep,
  /// when one ran.
  std::shared_ptr<const runtime::FailureMasks> table(
      const runtime::CheckpointOptions& ckpt,
      runtime::CancellationToken* interrupt, ResumableAnalysis& how);

  /// The ensemble's mask table from the table step, swept without a
  /// journal if no step before the sweep has it.
  const runtime::FailureMasks* masks();

  /// The memoized table, or nullptr while none is memoized.
  const runtime::FailureMasks* memoized_masks() const noexcept {
    return masks_.get();
  }

  /// Analyzes one configuration under one scenario: a fold over the table
  /// step's table, partial if its sweep was interrupted.
  ScenarioResult run(const scada::Configuration& config,
                     threat::ThreatScenario scenario,
                     const runtime::CheckpointOptions& sweep = {},
                     runtime::CancellationToken* interrupt = nullptr);

  /// Analyzes several configurations under one scenario.
  std::vector<ScenarioResult> run_configs(
      const std::vector<scada::Configuration>& configs,
      threat::ThreatScenario scenario);

  /// Crash-consistent (configurations x scenarios) sweep matrix: every
  /// cell folds over the table step's table, whose sweep (if one runs)
  /// journals its completed slices under `ckpt` so a killed or interrupted
  /// run resumes from where it stopped (bit-identical to an uninterrupted
  /// run; see runtime/checkpoint.h). An interrupted sweep's partial table
  /// is folded too. Results come back in row-major order (config varies
  /// fastest within a scenario).
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
  /// once per runner (its probe realization included), and only when the
  /// result cache or a journal reads it, so a warm run costs no
  /// realization. Safe even under quarantine: a degraded table is never
  /// stored, so the full-ensemble address only resolves to full tables.
  const std::string& batch_digest();

  scada::ScadaTopology topology_;
  CaseStudyOptions options_;
  surge::RealizationEngine engine_;
  AnalysisPipeline pipeline_;
  /// Null when borrowing; runtime_ then points at the external runner.
  std::unique_ptr<runtime::EnsembleRunner> owned_runtime_;
  runtime::EnsembleRunner* runtime_;
  std::string batch_digest_;
  /// The first complete table: a cache hit's or a sweep's.
  std::shared_ptr<const runtime::FailureMasks> masks_;
};

/// Builds the paper's Oahu case study: synthetic Oahu terrain + the Fig. 4
/// topology.
CaseStudyRunner make_oahu_case_study(CaseStudyOptions options = {});

}  // namespace ct::core
