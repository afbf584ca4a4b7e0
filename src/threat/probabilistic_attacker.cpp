#include "threat/probabilistic_attacker.h"

#include <cmath>
#include <stdexcept>

namespace ct::threat {

void validate(const AttackerPower& power) {
  if (power.intrusion_attempts < 0 || power.isolation_attempts < 0) {
    throw std::invalid_argument("AttackerPower: negative attempt budget");
  }
  const auto ok = [](double p) { return p >= 0.0 && p <= 1.0; };
  if (!ok(power.intrusion_success) || !ok(power.isolation_success)) {
    throw std::invalid_argument(
        "AttackerPower: success probabilities must be in [0, 1]");
  }
}

double binomial_pmf(int n, int k, double p) {
  if (k < 0 || k > n) return 0.0;
  if (p <= 0.0) return k == 0 ? 1.0 : 0.0;
  if (p >= 1.0) return k == n ? 1.0 : 0.0;
  // Multiplicative form: prod_{i=1..k} ((n-k+i)/i) * p^k * (1-p)^(n-k),
  // interleaved to avoid overflow/underflow for moderate n.
  double result = 1.0;
  for (int i = 1; i <= k; ++i) {
    result *= static_cast<double>(n - k + i) / static_cast<double>(i);
    result *= p;
  }
  for (int i = 0; i < n - k; ++i) result *= (1.0 - p);
  return result;
}

double capability_probability(const AttackerPower& power, int intrusions,
                              int isolations) {
  validate(power);
  return binomial_pmf(power.intrusion_attempts, intrusions,
                      power.intrusion_success) *
         binomial_pmf(power.isolation_attempts, isolations,
                      power.isolation_success);
}

}  // namespace ct::threat
