#include "scada/requirements.h"

#include <stdexcept>

namespace ct::scada {

namespace {
void check_fk(int f, int k) {
  if (f < 0 || k < 0) {
    throw std::invalid_argument("replication sizing: f and k must be >= 0");
  }
}
}  // namespace

int min_replicas_single_site(int f, int k) {
  check_fk(f, k);
  return 3 * f + 2 * k + 1;
}

int min_replicas_per_site_active(int sites, int f, int k) {
  check_fk(f, k);
  if (sites < 3) {
    throw std::invalid_argument(
        "active multisite replication needs >= 3 sites to survive a site "
        "loss without downtime");
  }
  // Losing one of S sites of size m must leave a live system:
  //   (S-1)m - f - k >= ceil((Sm + f + 1) / 2),
  // which solves to m >= (3f + 2k + 1) / (S - 2).
  const int base = 3 * f + 2 * k + 1;
  return (base + sites - 3) / (sites - 2);  // ceiling division by (S - 2)
}

int bft_quorum(int n, int f) {
  check_fk(f, 0);
  if (n < 3 * f + 1) {
    throw std::invalid_argument("bft_quorum: n below 3f + 1");
  }
  return (n + f + 2) / 2;  // ceil((n + f + 1) / 2)
}

std::string explain_single_site(int f, int k) {
  const int n = min_replicas_single_site(f, k);
  return "tolerating f=" + std::to_string(f) + " intrusions with k=" +
         std::to_string(k) + " replicas in proactive recovery requires n = " +
         "3f + 2k + 1 = " + std::to_string(n) + " replicas";
}

std::string explain_active_multisite(int sites, int f, int k) {
  const int m = min_replicas_per_site_active(sites, f, k);
  return "an active " + std::to_string(sites) +
         "-site group surviving one site loss with f=" + std::to_string(f) +
         ", k=" + std::to_string(k) + " requires m >= (3f + 2k + 1)/(S - 2) = " +
         std::to_string(m) + " replicas per site (" +
         std::to_string(m * sites) + " total)";
}

}  // namespace ct::scada
