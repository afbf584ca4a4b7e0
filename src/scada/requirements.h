// Replication sizing rules from the intrusion-tolerant SCADA literature
// ([15] Kirsch et al., [16] Babay et al., [23] Sousa et al.): how many
// replicas an architecture needs to tolerate f intrusions, k concurrent
// proactive recoveries, and (for multi-site active replication) the loss of
// one site. These derive the paper's "6" and "6+6+6" configurations from
// first principles, and let users size novel configurations.
#pragma once

#include <string>

namespace ct::scada {

/// Minimum replicas for a single-site BFT system tolerating f intrusions
/// while k replicas are concurrently in proactive recovery:
///   n = 3f + 2k + 1   (Sousa et al. [23]; yields 6 for f=1, k=1).
int min_replicas_single_site(int f, int k);

/// For S equally sized hot sites forming one replication group that must
/// keep a quorum after losing any single site (disconnection or disaster):
/// the surviving replicas must form a quorum of the FULL group,
///   n - m >= ceil((n + 3f + 2k + 1) / 2)   with n = S * m,
/// which solves to m >= (3f + 2k + 1) / (S - 2). Returns the minimal
/// per-site replica count m (yields 6 per site for S=3, f=1, k=1 — the
/// paper's "6+6+6"). Requires S >= 3.
int min_replicas_per_site_active(int sites, int f, int k);

/// BFT quorum of an n-replica group tolerating f intrusions: the smallest
/// q with quorum intersection in at least f+1 replicas,
///   q = ceil((n + f + 1) / 2)    (4 of 6 for f=1).
int bft_quorum(int n, int f);

/// Human-readable derivation (used by the quickstart example and docs).
std::string explain_single_site(int f, int k);
std::string explain_active_multisite(int sites, int f, int k);

}  // namespace ct::scada
