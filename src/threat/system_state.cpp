#include "threat/system_state.h"

#include <stdexcept>

namespace ct::threat {

std::string_view state_name(OperationalState s) noexcept {
  switch (s) {
    case OperationalState::kGreen: return "green";
    case OperationalState::kOrange: return "orange";
    case OperationalState::kRed: return "red";
    case OperationalState::kGray: return "gray";
  }
  return "?";
}

int badness(OperationalState s) noexcept { return static_cast<int>(s); }

int SystemState::functional_site_count() const noexcept {
  int count = 0;
  for (const SiteStatus s : site_status) {
    if (s == SiteStatus::kUp) ++count;
  }
  return count;
}

int SystemState::effective_intrusions() const noexcept {
  int count = 0;
  for (std::size_t i = 0; i < site_status.size(); ++i) {
    if (site_status[i] == SiteStatus::kUp && i < intrusions.size()) {
      count += intrusions[i];
    }
  }
  return count;
}

int SystemState::total_intrusions() const noexcept {
  int count = 0;
  for (const int n : intrusions) count += n;
  return count;
}

std::vector<std::size_t> site_priority_order(
    const scada::Configuration& config) {
  std::vector<std::size_t> order;
  order.reserve(config.sites.size());
  for (const scada::SiteRole role :
       {scada::SiteRole::kPrimary, scada::SiteRole::kBackup,
        scada::SiteRole::kDataCenter}) {
    for (const std::size_t i : config.sites_with_role(role)) {
      order.push_back(i);
    }
  }
  return order;
}

SystemState post_disaster_state(
    const scada::Configuration& config,
    const std::function<bool(std::string_view asset_id)>& asset_flooded) {
  if (!asset_flooded) {
    throw std::invalid_argument("post_disaster_state: null flood predicate");
  }
  SystemState state;
  state.site_status.reserve(config.sites.size());
  state.intrusions.assign(config.sites.size(), 0);
  for (const scada::ControlSite& site : config.sites) {
    state.site_status.push_back(asset_flooded(site.asset_id)
                                    ? SiteStatus::kFlooded
                                    : SiteStatus::kUp);
  }
  return state;
}

}  // namespace ct::threat
