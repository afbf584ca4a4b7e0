// Siting optimizer: answers the paper's §VII open question — "How should
// we choose additional control site locations to maximize availability
// when increasing redundancy for compound threat scenarios?" — by
// exhaustively scoring candidate site assignments against the realization
// set.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/case_study.h"
#include "core/pipeline.h"

namespace ct::core {

/// Score of one candidate site assignment under one scenario.
struct SitingScore {
  /// Site ids filling the open slots, in the order the builder consumed
  /// them.
  std::vector<std::string> chosen;
  scada::Configuration config;
  double green_probability = 0.0;
  double orange_probability = 0.0;
  double red_probability = 0.0;
  double gray_probability = 0.0;
  /// Expected badness (0 green .. 3 gray); the ranking key (lower wins).
  double expected_badness = 0.0;
};

/// Builds a configuration from a choice of site ids (e.g. chosen = {backup}
/// for "6-6", or {second control center, data center} for "6+6+6").
using ConfigBuilder =
    std::function<scada::Configuration(const std::vector<std::string>&)>;

class SitingOptimizer {
 public:
  /// Scores every candidate through CaseStudyRunner::run, a fold over the
  /// runner's mask table (the runner must outlive the optimizer).
  explicit SitingOptimizer(CaseStudyRunner& runner) : runner_(runner) {}

  /// Scores every `slots`-combination of `candidates` (no repetition,
  /// order-insensitive) and returns results sorted best-first (lowest
  /// expected badness; green probability breaks ties).
  std::vector<SitingScore> rank(const ConfigBuilder& builder,
                                const std::vector<std::string>& candidates,
                                int slots, threat::ThreatScenario scenario);

  /// Convenience: ranks backup-site choices for a "6-6" architecture with
  /// the given fixed primary.
  std::vector<SitingScore> rank_backup_sites(
      const std::string& primary, const std::vector<std::string>& candidates,
      threat::ThreatScenario scenario);

  /// Convenience: ranks (second control center, data center) pairs for a
  /// "6+6+6" architecture with the given fixed primary.
  std::vector<SitingScore> rank_site_pairs(
      const std::string& primary, const std::vector<std::string>& candidates,
      threat::ThreatScenario scenario);

 private:
  CaseStudyRunner& runner_;
};

}  // namespace ct::core
