// Probabilistic attacker power — the paper's §VII open question: "we
// assume a worst-case attacker model ... it may give the attacker more
// power than they are likely to have in practice. How to model realistic
// attacker power ... are still open questions."
//
// Model: the attacker ATTEMPTS a bounded number of intrusions and site
// isolations; each attempt independently succeeds with a probability
// (intrusions are hard — they need an implant in a hardened control
// network; isolations need a sustained coremelt/crossfire-style DoS). The
// realized capability is then spent optimally via the paper's greedy
// worst-case targeting, so the model isolates *power* from *skill*: the
// attacker is as smart as the worst case but only as strong as the dice
// allow. p = 1 recovers the paper's deterministic scenarios exactly.
#pragma once

#include "threat/attacker.h"
#include "threat/scenario.h"

namespace ct::threat {

/// Attempt budget and per-attempt success probabilities.
struct AttackerPower {
  int intrusion_attempts = 1;
  int isolation_attempts = 1;
  double intrusion_success = 1.0;
  double isolation_success = 1.0;
};

/// Validates the power model (probabilities in [0,1], attempts >= 0);
/// throws std::invalid_argument otherwise.
void validate(const AttackerPower& power);

/// Exact probability that the realized capability equals {i, s}.
double capability_probability(const AttackerPower& power, int intrusions,
                              int isolations);

/// Exact binomial pmf helper (n up to ~60; uses the multiplicative form to
/// stay stable).
double binomial_pmf(int n, int k, double p);

}  // namespace ct::threat
