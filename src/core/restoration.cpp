#include "core/restoration.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "core/evaluator.h"
#include "util/stats.h"

namespace ct::core {

namespace {

using threat::OperationalState;
using threat::SiteStatus;
using threat::SystemState;

/// Computes incident costs given concrete per-site restore times (hours).
IncidentCosts costs_with_restore_times(const scada::Configuration& config,
                                       const SystemState& state,
                                       const std::vector<double>& restore_at,
                                       const RestorationModel& model,
                                       double detection_hours) {
  IncidentCosts costs;
  const OperationalState now = evaluate(config, state);

  if (now == OperationalState::kGray) {
    // Incorrect operation until the compromise is detected, then a cleanup
    // outage while the affected masters are rebuilt.
    costs.incorrect_hours = detection_hours;
    costs.downtime_hours = model.compromise_cleanup_hours;
    return costs;
  }
  if (now == OperationalState::kGreen) return costs;
  if (now == OperationalState::kOrange) {
    costs.downtime_hours = model.activation_minutes / 60.0;
    return costs;
  }

  // Red: replay site restorations in time order until the evaluator stops
  // reporting red. Restored sites come back kUp (their intrusions were
  // never effective while the site was down; the compromised-site case is
  // the gray branch above).
  std::vector<std::size_t> order(restore_at.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return restore_at[a] < restore_at[b];
  });

  SystemState future = state;
  for (const std::size_t site : order) {
    if (future.site_status[site] == SiteStatus::kUp) continue;
    future.site_status[site] = SiteStatus::kUp;
    const OperationalState then = evaluate(config, future);
    if (then != OperationalState::kRed) {
      double downtime = restore_at[site];
      if (then == OperationalState::kOrange) {
        // The restored path still needs the cold backup brought online.
        downtime += model.activation_minutes / 60.0;
      }
      costs.downtime_hours = downtime;
      return costs;
    }
  }
  // No restoration path (should not happen: every site eventually
  // restores); treat as the slowest restore.
  costs.downtime_hours =
      restore_at.empty() ? 0.0
                         : *std::max_element(restore_at.begin(),
                                             restore_at.end());
  return costs;
}

std::vector<double> mean_restore_times(const SystemState& state,
                                       const RestorationModel& model) {
  std::vector<double> out(state.site_status.size(), 0.0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    switch (state.site_status[i]) {
      case SiteStatus::kUp: out[i] = 0.0; break;
      case SiteStatus::kFlooded: out[i] = model.flood_repair_hours; break;
      case SiteStatus::kIsolated: out[i] = model.isolation_duration_hours; break;
    }
  }
  return out;
}

}  // namespace

IncidentCosts expected_incident_costs(const scada::Configuration& config,
                                      const SystemState& state,
                                      const RestorationModel& model) {
  return costs_with_restore_times(config, state,
                                  mean_restore_times(state, model), model,
                                  model.compromise_detection_hours);
}

IncidentCosts sample_incident_costs(const scada::Configuration& config,
                                    const SystemState& state,
                                    const RestorationModel& model,
                                    util::Rng& rng) {
  std::vector<double> restore(state.site_status.size(), 0.0);
  for (std::size_t i = 0; i < restore.size(); ++i) {
    switch (state.site_status[i]) {
      case SiteStatus::kUp: restore[i] = 0.0; break;
      case SiteStatus::kFlooded:
        restore[i] = rng.exponential(model.flood_repair_hours);
        break;
      case SiteStatus::kIsolated:
        restore[i] = rng.exponential(model.isolation_duration_hours);
        break;
    }
  }
  const double detection = rng.exponential(model.compromise_detection_hours);
  return costs_with_restore_times(config, state, restore, model, detection);
}

namespace {

/// Folds per-realization costs in realization order, whether the attacked
/// states came from realizations or a mask table: each expectation, and
/// the downtime draws from each realization's own stream.
class CostFold {
 public:
  CostFold(const scada::Configuration& config, const RestorationModel& model,
           std::size_t samples_per_realization, std::uint64_t seed)
      : config_(config), model_(model), samples_(samples_per_realization),
        base_(seed, "restoration") {}

  void add(const SystemState& attacked, const IncidentCosts& expected,
           std::uint64_t index) {
    downtime_.add(expected.downtime_hours);
    incorrect_.add(expected.incorrect_hours);
    if (expected.downtime_hours > 0.0) ++with_downtime_;
    ++realizations_;
    if (samples_ == 0) {
      sampled_downtimes_.push_back(expected.downtime_hours);
      return;
    }
    util::Rng rng = base_.child("realization", index);
    for (std::size_t s = 0; s < samples_; ++s) {
      sampled_downtimes_.push_back(
          sample_incident_costs(config_, attacked, model_, rng).downtime_hours);
    }
  }

  RestorationResult result(threat::ThreatScenario scenario) const {
    RestorationResult result;
    result.config_name = config_.name;
    result.scenario = scenario;
    result.expected_downtime_hours = downtime_.mean();
    result.expected_incorrect_hours = incorrect_.mean();
    result.p95_downtime_hours =
        sampled_downtimes_.empty()
            ? 0.0
            : util::exact_quantile(sampled_downtimes_, 0.95);
    result.p_any_downtime =
        realizations_ == 0 ? 0.0
                           : static_cast<double>(with_downtime_) /
                                 static_cast<double>(realizations_);
    return result;
  }

 private:
  const scada::Configuration& config_;
  const RestorationModel& model_;
  std::size_t samples_;
  util::Rng base_;
  util::RunningStats downtime_;
  util::RunningStats incorrect_;
  std::vector<double> sampled_downtimes_;
  std::size_t with_downtime_ = 0;
  std::size_t realizations_ = 0;
};

}  // namespace

RestorationResult analyze_restoration(
    const scada::Configuration& config, threat::ThreatScenario scenario,
    const std::vector<surge::HurricaneRealization>& realizations,
    const RestorationModel& model, std::size_t samples_per_realization,
    std::uint64_t seed) {
  CostFold fold(config, model, samples_per_realization, seed);
  for (const surge::HurricaneRealization& r : realizations) {
    const SystemState attacked =
        attacked_state(config, scenario, flood_pattern(config, r));
    fold.add(attacked, expected_incident_costs(config, attacked, model),
             r.index);
  }
  return fold.result(scenario);
}

RestorationResult analyze_restoration(
    const scada::Configuration& config, threat::ThreatScenario scenario,
    const runtime::FailureMasks& masks, const RestorationModel& model,
    std::size_t samples_per_realization, std::uint64_t seed) {
  const SitePatterns patterns(config, masks);
  const std::vector<std::size_t> counts = patterns.counts();
  // Attacked state and expected costs once per pattern that occurs.
  std::vector<std::pair<SystemState, IncidentCosts>> memo(counts.size());
  for (std::uint32_t p = 0; p < counts.size(); ++p) {
    if (counts[p] == 0) continue;
    memo[p].first = attacked_state(config, scenario, p);
    memo[p].second = expected_incident_costs(config, memo[p].first, model);
  }
  CostFold fold(config, model, samples_per_realization, seed);
  for (std::size_t k = 0; k < masks.size(); ++k) {
    const auto& [attacked, expected] = memo[patterns.of(k)];
    fold.add(attacked, expected, masks.indices[k]);
  }
  return fold.result(scenario);
}

}  // namespace ct::core
