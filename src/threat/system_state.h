// System state under a compound threat: per-site availability (after the
// natural disaster and any site-isolation attack) plus server intrusions,
// and the color-coded operational states of the paper's evaluation
// (green / orange / red / gray, §V).
#pragma once

#include <functional>
#include <string_view>
#include <vector>

#include "scada/configuration.h"

namespace ct::threat {

/// Why a site is or is not reachable/operational.
enum class SiteStatus {
  kUp,        ///< Operational and connected.
  kFlooded,   ///< Destroyed/disabled by the natural disaster.
  kIsolated,  ///< Cut off from the network by a site-isolation attack.
};

/// Operational state of the whole system (paper's color scheme, from [16]).
/// Order matters: later enumerators are strictly worse outcomes.
enum class OperationalState {
  kGreen,   ///< Fully operational.
  kOrange,  ///< Downtime while a cold-backup control center activates.
  kRed,     ///< Not operational until repair / attack ends.
  kGray,    ///< Safety compromised: the system can behave incorrectly.
};

std::string_view state_name(OperationalState s) noexcept;

/// Badness ranking used by the worst-case attacker: green < orange < red <
/// gray.
int badness(OperationalState s) noexcept;

/// The state of one configuration instance after disaster and/or attack.
/// Vectors are aligned with Configuration::sites.
struct SystemState {
  std::vector<SiteStatus> site_status;
  std::vector<int> intrusions;  ///< Compromised replicas per site.

  /// True when the site is operational and connected.
  bool site_functional(std::size_t i) const { return site_status.at(i) == SiteStatus::kUp; }
  int functional_site_count() const noexcept;
  /// Total compromised replicas at functional sites. (Replicas at flooded
  /// or isolated sites cannot participate in — or corrupt — operations.)
  int effective_intrusions() const noexcept;
  int total_intrusions() const noexcept;

  bool operator==(const SystemState&) const = default;
};

/// Site indices of `config` ordered by attack/operation priority: primary
/// control centers first, then backups, then data centers (declaration
/// order within a role). This is both the isolation-target order of the
/// worst-case attacker (§V-B rule 2) and the takeover order of
/// primary-backup architectures.
std::vector<std::size_t> site_priority_order(const scada::Configuration& config);

/// Derives the post-natural-disaster state of a configuration: each site is
/// kFlooded when its hosting asset failed in the realization, else kUp; no
/// intrusions yet. `asset_flooded` is queried once per site.
SystemState post_disaster_state(
    const scada::Configuration& config,
    const std::function<bool(std::string_view asset_id)>& asset_flooded);

}  // namespace ct::threat
