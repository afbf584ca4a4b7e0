#include "core/attacker_power.h"

#include "core/evaluator.h"
#include "threat/attacker.h"

namespace ct::core {

void OutcomeMixture::add(threat::OperationalState s, double weight) noexcept {
  mass_[static_cast<std::size_t>(s)] += weight;
  total_ += weight;
}

double OutcomeMixture::mass(threat::OperationalState s) const noexcept {
  return mass_[static_cast<std::size_t>(s)];
}

double OutcomeMixture::probability(threat::OperationalState s) const noexcept {
  return total_ > 0.0 ? mass(s) / total_ : 0.0;
}

PowerScenarioResult analyze_with_power(
    const scada::Configuration& config, const threat::AttackerPower& power,
    const std::vector<surge::HurricaneRealization>& realizations) {
  threat::validate(power);
  PowerScenarioResult result;
  result.config_name = config.name;
  result.power = power;

  const threat::GreedyWorstCaseAttacker greedy;
  for (const surge::HurricaneRealization& realization : realizations) {
    const threat::SystemState post_disaster = threat::post_disaster_state(
        config, [&realization](std::string_view asset_id) {
          return realization.asset_failed(std::string(asset_id));
        });
    for (int i = 0; i <= power.intrusion_attempts; ++i) {
      for (int s = 0; s <= power.isolation_attempts; ++s) {
        const double weight = threat::capability_probability(power, i, s);
        if (weight <= 0.0) continue;
        const threat::SystemState attacked =
            greedy.attack(config, post_disaster, {i, s});
        result.outcomes.add(evaluate(config, attacked), weight);
      }
    }
  }
  return result;
}

}  // namespace ct::core
