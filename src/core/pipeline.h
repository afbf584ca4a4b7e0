// The analysis pipeline of the paper's Fig. 5:
//
//   geospatial SCADA topology + hurricane realizations
//     -> post-natural-disaster system states
//     -> worst-case cyberattack
//     -> operational-state classification (Table I)
//     -> outcome probabilities.
#pragma once

#include <array>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/ensemble_runner.h"
#include "scada/configuration.h"
#include "surge/realization.h"
#include "threat/attacker.h"
#include "threat/scenario.h"
#include "threat/system_state.h"
#include "util/stats.h"

namespace ct::core {

/// Empirical distribution over the four operational states.
class OutcomeDistribution {
 public:
  void add(threat::OperationalState s) noexcept;
  /// Bulk insert: `n` outcomes in state `s` (a mask class's multiplicity).
  void add(threat::OperationalState s, std::size_t n) noexcept;

  std::size_t count(threat::OperationalState s) const noexcept;
  std::size_t total() const noexcept { return total_; }
  /// Fraction of outcomes in state `s` (0 when empty).
  double probability(threat::OperationalState s) const noexcept;
  /// Expected badness (0=green .. 3=gray) under this distribution.
  double expected_badness() const noexcept;

 private:
  std::array<std::size_t, 4> counts_{};
  std::size_t total_ = 0;
};

/// Result of analyzing one configuration under one threat scenario.
struct ScenarioResult {
  std::string config_name;
  threat::ThreatScenario scenario{};
  /// PARTIAL distribution when degraded(): only completed realizations.
  OutcomeDistribution outcomes;

  // Fault-isolation accounting (folds over a sweep's mask table; serial
  // analyze() is batch-fatal and always reports a clean run).
  /// Quarantined realizations, ascending by realization index.
  std::vector<runtime::FailureRecord> failures;
  /// Extra attempts spent on retries (healed and exhausted).
  std::uint64_t retries = 0;
  /// Realizations requested / completed (equal on a clean run).
  std::size_t attempted = 0;
  std::size_t completed = 0;

  bool degraded() const noexcept { return !failures.empty(); }
  /// Conservative bounds on the true probability of state `s` had every
  /// quarantined realization completed: a Clopper-Pearson interval on
  /// (count, completed) widened by the quarantined mass, which might all
  /// have landed in `s` (upper) or none of it (lower). Exact-method
  /// coverage >= `confidence`.
  util::Interval mass_bound(threat::OperationalState s,
                            double confidence = 0.95) const noexcept;
};

/// Realizations parsed from a CSV stream, plus the malformed rows that
/// were skipped instead of aborting the sweep.
struct LoadedRealizations {
  std::vector<surge::HurricaneRealization> realizations;
  std::size_t skipped_rows = 0;
  /// One typed record per skipped row: code kParse, message carrying
  /// "<source>:<line>: <why>" so the operator can fix the exact row.
  std::vector<util::Error> errors;
};

/// Parses the realization interchange CSV
///
///   realization,flooded_assets,peak_wind_ms,max_wse_m
///   17,sub-honolulu;cc-waiau,43.1,1.82
///
/// (`flooded_assets` is ';'-separated, possibly empty). A malformed row —
/// wrong field count, unparsable or non-finite number — is skipped,
/// counted, recorded as a ct::Error (with `source_name` and the 1-based
/// line number), and logged as a warning; the rest of the sweep proceeds.
LoadedRealizations load_realizations_csv(
    std::istream& in, std::string_view source_name = "realizations.csv");

/// Writes the same interchange format (round-trips through
/// load_realizations_csv for the fields the analysis consumes).
void write_realizations_csv(
    std::ostream& out,
    const std::vector<surge::HurricaneRealization>& realizations);

/// The distinct masks of a table, numbered in first-seen (index) order: a
/// fold classifies one representative per class, not every survivor.
struct MaskClasses {
  explicit MaskClasses(const runtime::FailureMasks& masks);
  std::vector<std::size_t> class_of;        ///< class of each survivor
  std::vector<std::size_t> representative;  ///< first survivor of each class
  std::vector<std::size_t> count;           ///< survivors of each class
};

/// The journal identity of the mask sweep over one engine batch:
/// H("ct-sweep", batch digest) and the count. No cell and no attacker
/// enters it, so a checkpoint taken for one cell set resumes another.
runtime::SweepSpec mask_sweep_spec(std::string_view batch_digest,
                                   std::size_t count);

/// Output of CaseStudyRunner::run_all_resumable: per-cell results plus how
/// its sweep went (all zero when the memo or the result cache answered).
struct ResumableAnalysis : runtime::SweepStats {
  std::vector<ScenarioResult> results;  ///< one per cell, in cell order
  /// The table came from a sweep, not from the memo or the result cache.
  bool swept = false;

  bool complete() const noexcept { return !interrupted; }
};

/// Which attacker model drives the cyberattack stage.
enum class AttackerModel {
  kGreedy,      ///< The paper's 3-rule worst-case algorithm (default).
  kExhaustive,  ///< Brute-force worst case (validation / novel configs).
};

/// Stateless analysis engine. Thread-compatible: all methods are const.
class AnalysisPipeline {
 public:
  explicit AnalysisPipeline(AttackerModel model = AttackerModel::kGreedy)
      : model_(model) {}

  /// Classifies one (configuration, scenario, realization) triple: derives
  /// the post-disaster state, applies the worst-case attack, evaluates the
  /// final state.
  threat::OperationalState outcome_for(
      const scada::Configuration& config, threat::ThreatScenario scenario,
      const surge::HurricaneRealization& realization) const;

  /// outcome_for over a flood predicate: the routine the mask fold shares.
  threat::OperationalState classify(
      const scada::Configuration& config, threat::ThreatScenario scenario,
      const std::function<bool(std::string_view asset_id)>& flooded) const;

  /// Aggregates outcome probabilities over a realization set: the serial
  /// reference the mask fold is tested against.
  ScenarioResult analyze(
      const scada::Configuration& config, threat::ThreatScenario scenario,
      const std::vector<surge::HurricaneRealization>& realizations) const;

  /// The fold: one cell over a mask table, one classification per
  /// distinct mask added with its multiplicity, and the table's quarantine
  /// accounting. Equal to analyze() over the table's realizations.
  ScenarioResult fold(const scada::Configuration& config,
                      threat::ThreatScenario scenario,
                      const runtime::FailureMasks& masks,
                      const MaskClasses& classes) const;

 private:
  AttackerModel model_;
};

}  // namespace ct::core
