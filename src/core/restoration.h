// Restoration analysis: converts the paper's color-coded operational
// states into time costs. The paper defines orange as "downtime until the
// cold-backup control center is activated", red as "not operational until
// some system components are repaired, or an attack ends", and gray as
// incorrect operation — this module quantifies each.
//
// Mechanics: every non-functional site carries a restore time (flooded ->
// repair; isolated -> attack ends). Downtime is the earliest instant at
// which, with the returned sites, the Table-I evaluator stops reporting
// red — computed by replaying the evaluator over the sorted restore
// times. Gray contributes "incorrect-operation hours" (until the
// compromise is detected) plus a cleanup outage.
#pragma once

#include <string>
#include <vector>

#include "core/pipeline.h"
#include "runtime/ensemble_runner.h"
#include "scada/configuration.h"
#include "surge/realization.h"
#include "threat/scenario.h"
#include "threat/system_state.h"
#include "util/rng.h"

namespace ct::core {

/// Mean time parameters (hours unless noted).
struct RestorationModel {
  /// Cold-backup activation (the orange state), minutes.
  double activation_minutes = 10.0;
  /// Repairing/reoccupying a flooded control site after the hurricane.
  double flood_repair_hours = 96.0;
  /// Duration a site-isolation (resource-intensive DoS) can be sustained.
  double isolation_duration_hours = 18.0;
  /// Time to detect a compromised SCADA master (gray incorrect period).
  double compromise_detection_hours = 24.0;
  /// Outage while rebuilding compromised servers after detection.
  double compromise_cleanup_hours = 6.0;
};

/// Time costs of one incident (one realization + attack on one config).
struct IncidentCosts {
  double downtime_hours = 0.0;   ///< Service unavailable.
  double incorrect_hours = 0.0;  ///< Operating on corrupted control (gray).
};

/// Deterministic expected costs for a final system state, using the model
/// means as point values.
IncidentCosts expected_incident_costs(const scada::Configuration& config,
                                      const threat::SystemState& state,
                                      const RestorationModel& model);

/// Stochastic variant: restore times drawn from exponential distributions
/// around the model means (activation time is deterministic).
IncidentCosts sample_incident_costs(const scada::Configuration& config,
                                    const threat::SystemState& state,
                                    const RestorationModel& model,
                                    util::Rng& rng);

/// Aggregated restoration profile of one configuration under one scenario.
struct RestorationResult {
  std::string config_name;
  threat::ThreatScenario scenario{};
  double expected_downtime_hours = 0.0;
  double expected_incorrect_hours = 0.0;
  /// 95th-percentile sampled downtime across realizations x repair draws.
  double p95_downtime_hours = 0.0;
  /// Fraction of realizations with any downtime at all.
  double p_any_downtime = 0.0;
};

/// Runs the compound-threat pipeline per realization and aggregates
/// restoration costs. `samples_per_realization` controls the stochastic
/// percentile estimate (0 disables sampling; p95 falls back to the
/// deterministic value distribution). The serial reference the mask fold
/// is tested against.
RestorationResult analyze_restoration(
    const scada::Configuration& config, threat::ThreatScenario scenario,
    const std::vector<surge::HurricaneRealization>& realizations,
    const RestorationModel& model, std::size_t samples_per_realization = 8,
    std::uint64_t seed = 7);

/// The fold over a mask table: attacked state and expected costs memoized
/// per flood pattern, folded in realization order with each survivor's own
/// draws, so it equals the serial overload over the same realizations.
RestorationResult analyze_restoration(
    const scada::Configuration& config, threat::ThreatScenario scenario,
    const runtime::FailureMasks& masks, const RestorationModel& model,
    std::size_t samples_per_realization = 8, std::uint64_t seed = 7);

}  // namespace ct::core
