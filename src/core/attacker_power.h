// Analysis under probabilistic attacker power (extends the paper's
// worst-case-only evaluation; §VII names this as open future work).
//
// Rather than sampling attacker dice per realization, the analysis
// computes the EXACT mixture: for every hurricane realization the final
// operational state is evaluated for every realizable capability (i
// intrusions, s isolations), weighted by its binomial probability. The
// result is deterministic and noise-free in the attacker dimension; Monte
// Carlo noise remains only in the hurricane ensemble.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "scada/configuration.h"
#include "surge/realization.h"
#include "threat/probabilistic_attacker.h"

namespace ct::core {

/// A real-weighted distribution over the four operational states.
class OutcomeMixture {
 public:
  void add(threat::OperationalState s, double weight) noexcept;

  double mass(threat::OperationalState s) const noexcept;
  double total() const noexcept { return total_; }
  /// Normalized probability (0 when empty).
  double probability(threat::OperationalState s) const noexcept;

 private:
  std::array<double, 4> mass_{};
  double total_ = 0.0;
};

/// Result of analyzing one configuration under one attacker-power model.
struct PowerScenarioResult {
  std::string config_name;
  threat::AttackerPower power;
  OutcomeMixture outcomes;
};

/// Exact-mixture analysis of `config` under `power` across the realization
/// set (hurricane stage identical to the worst-case pipeline).
PowerScenarioResult analyze_with_power(
    const scada::Configuration& config, const threat::AttackerPower& power,
    const std::vector<surge::HurricaneRealization>& realizations);

}  // namespace ct::core
