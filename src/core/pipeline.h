// The analysis pipeline of the paper's Fig. 5:
//
//   geospatial SCADA topology + hurricane realizations
//     -> post-natural-disaster system states
//     -> worst-case cyberattack
//     -> operational-state classification (Table I)
//     -> outcome probabilities.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/ensemble_runner.h"
#include "scada/configuration.h"
#include "surge/realization.h"
#include "threat/scenario.h"
#include "threat/system_state.h"
#include "util/stats.h"

namespace ct::core {

/// Empirical distribution over the four operational states.
class OutcomeDistribution {
 public:
  void add(threat::OperationalState s) noexcept;
  /// Bulk insert: `n` outcomes in state `s` (a flood pattern's count).
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

/// The most sites a site flood pattern covers: SitePatterns, flood_pattern
/// and attacked_state throw std::invalid_argument past it.
inline constexpr std::size_t kMaxPatternSites = 16;

/// A configuration's site flood patterns over a mask table (DESIGN.md §9):
/// bit i of a survivor's pattern is set when config.sites[i]'s asset
/// flooded, and an id the table does not expose never floods. Each site's
/// bit is resolved once; `masks` must outlive the projection.
class SitePatterns {
 public:
  SitePatterns(const scada::Configuration& config,
               const runtime::FailureMasks& masks);

  /// Survivor `k`'s pattern.
  std::uint32_t of(std::size_t k) const noexcept;
  /// Survivors per pattern: 2^sites entries.
  std::vector<std::size_t> counts() const;

 private:
  const runtime::FailureMasks& masks_;
  std::size_t sites_;
  std::array<std::optional<std::size_t>, kMaxPatternSites> bits_{};
};

/// The site flood pattern of `config` in one realization, through
/// asset_failed: the serial references' projection.
std::uint32_t flood_pattern(const scada::Configuration& config,
                            const surge::HurricaneRealization& realization);

/// Stages 1-2 of Fig. 5: the post-disaster state of `pattern` after the
/// scenario's worst-case (greedy, §V-B) attack.
threat::SystemState attacked_state(const scada::Configuration& config,
                                   threat::ThreatScenario scenario,
                                   std::uint32_t pattern);

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

/// Stateless analysis engine. Thread-compatible: all methods are const.
class AnalysisPipeline {
 public:
  /// Classifies one (configuration, scenario, realization) triple.
  threat::OperationalState outcome_for(
      const scada::Configuration& config, threat::ThreatScenario scenario,
      const surge::HurricaneRealization& realization) const;

  /// Stages 1-3: attacked_state, then Table I. Every fold and outcome_for
  /// classify through it.
  threat::OperationalState classify(const scada::Configuration& config,
                                    threat::ThreatScenario scenario,
                                    std::uint32_t pattern) const;

  /// Aggregates outcome probabilities over a realization set: the serial
  /// reference the pattern fold is tested against.
  ScenarioResult analyze(
      const scada::Configuration& config, threat::ThreatScenario scenario,
      const std::vector<surge::HurricaneRealization>& realizations) const;

  /// The fold: one cell over a table's SitePatterns::counts, one
  /// classification per pattern that occurs, and the table's quarantine
  /// accounting. Equal to analyze() over the table's realizations.
  ScenarioResult fold(const scada::Configuration& config,
                      threat::ThreatScenario scenario,
                      const runtime::FailureMasks& masks,
                      std::span<const std::size_t> counts) const;
};

}  // namespace ct::core
