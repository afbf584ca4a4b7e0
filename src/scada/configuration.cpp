#include "scada/configuration.h"

namespace ct::scada {

int Configuration::total_replicas() const noexcept {
  int total = 0;
  for (const ControlSite& s : sites) total += s.replicas;
  return total;
}

std::vector<std::size_t> Configuration::sites_with_role(SiteRole r) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    if (sites[i].role == r) out.push_back(i);
  }
  return out;
}

// Each factory initializes the name instead of assigning a literal to it:
// GCC 12 at -O3 reports a false -Wrestrict on that assignment.

Configuration make_config_2(std::string primary) {
  return {.name = "2",
          .style = ReplicationStyle::kPrimaryBackup,
          .sites = {{std::move(primary), SiteRole::kPrimary, 2, true}}};
}

Configuration make_config_2_2(std::string primary, std::string backup) {
  return {.name = "2-2",
          .style = ReplicationStyle::kPrimaryBackup,
          .sites = {{std::move(primary), SiteRole::kPrimary, 2, true},
                    {std::move(backup), SiteRole::kBackup, 2, false}}};
}

Configuration make_config_6(std::string primary) {
  return {.name = "6",
          .style = ReplicationStyle::kIntrusionTolerant,
          .intrusion_tolerance_f = 1,
          .proactive_recovery_k = 1,
          .sites = {{std::move(primary), SiteRole::kPrimary, 6, true}}};
}

Configuration make_config_6_6(std::string primary, std::string backup) {
  return {.name = "6-6",
          .style = ReplicationStyle::kIntrusionTolerant,
          .intrusion_tolerance_f = 1,
          .proactive_recovery_k = 1,
          .sites = {{std::move(primary), SiteRole::kPrimary, 6, true},
                    {std::move(backup), SiteRole::kBackup, 6, false}}};
}

Configuration make_config_6_6_6(std::string primary, std::string second_cc,
                                std::string data_center) {
  return {.name = "6+6+6",
          .style = ReplicationStyle::kIntrusionTolerant,
          .intrusion_tolerance_f = 1,
          .proactive_recovery_k = 1,
          .active_multisite = true,
          .min_active_sites = 2,
          .sites = {{std::move(primary), SiteRole::kPrimary, 6, true},
                    {std::move(second_cc), SiteRole::kBackup, 6, true},
                    {std::move(data_center), SiteRole::kDataCenter, 6, true}}};
}

std::vector<Configuration> paper_configurations(const std::string& primary,
                                                const std::string& backup,
                                                const std::string& data_center) {
  return {make_config_2(primary), make_config_2_2(primary, backup),
          make_config_6(primary), make_config_6_6(primary, backup),
          make_config_6_6_6(primary, backup, data_center)};
}

}  // namespace ct::scada
