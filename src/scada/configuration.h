// SCADA architecture configurations: the five architectures the paper
// assesses ("2", "2-2", "6", "6-6", "6+6+6") plus a generic descriptor so
// new architectures can be analyzed without touching the framework.
#pragma once

#include <string>
#include <vector>

namespace ct::scada {

/// Role of a control site within a configuration. Priority for the
/// worst-case attacker's site-isolation rule follows this order
/// (paper §V-B rule 2: primary, then backup, then data centers).
enum class SiteRole {
  kPrimary,     ///< Primary control center.
  kBackup,      ///< Backup control center (cold in "2-2"/"6-6", hot in "6+6+6").
  kDataCenter,  ///< Additional active replication site ("6+6+6").
};

/// One control site of a configuration.
struct ControlSite {
  std::string asset_id;  ///< Physical asset hosting the site.
  SiteRole role = SiteRole::kPrimary;
  int replicas = 2;      ///< SCADA masters at this site.
  /// Hot sites participate in (replicated) operation immediately; a cold
  /// site requires activation (minutes of downtime => orange state).
  bool hot = true;
};

/// Replication style of the SCADA masters.
enum class ReplicationStyle {
  /// Primary + hot-standby within a site; no Byzantine tolerance (f = 0).
  kPrimaryBackup,
  /// BFT replication (Prime-style): tolerates f intrusions with k replicas
  /// concurrently undergoing proactive recovery.
  kIntrusionTolerant,
};

/// A SCADA system architecture instance, bound to physical sites.
struct Configuration {
  std::string name;
  ReplicationStyle style = ReplicationStyle::kPrimaryBackup;
  /// Maximum intrusions the active replication group survives (0 for
  /// primary-backup architectures).
  int intrusion_tolerance_f = 0;
  /// Replicas simultaneously in proactive recovery (Prime-style "k").
  int proactive_recovery_k = 0;
  /// When true, all hot sites form ONE active replication group that keeps
  /// operating while at least `min_active_sites` sites are connected
  /// ("6+6+6"). When false, one site operates at a time with cold failover.
  bool active_multisite = false;
  /// Minimum connected sites for the active-multisite group to have a
  /// quorum (2 of 3 for "6+6+6").
  int min_active_sites = 2;
  std::vector<ControlSite> sites;

  /// Intrusions required to violate safety (f + 1).
  int safety_threshold() const noexcept { return intrusion_tolerance_f + 1; }
  int total_replicas() const noexcept;
  /// Sites with the given role, in declaration order.
  std::vector<std::size_t> sites_with_role(SiteRole r) const;
};

/// Factories for the paper's five architectures. Arguments are the asset
/// ids of the hosting sites.
Configuration make_config_2(std::string primary);
Configuration make_config_2_2(std::string primary, std::string backup);
Configuration make_config_6(std::string primary);
Configuration make_config_6_6(std::string primary, std::string backup);
Configuration make_config_6_6_6(std::string primary, std::string second_cc,
                                std::string data_center);

/// All five, in the paper's order, for a given siting choice.
std::vector<Configuration> paper_configurations(const std::string& primary,
                                                const std::string& backup,
                                                const std::string& data_center);

}  // namespace ct::scada
