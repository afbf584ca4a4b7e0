// Focused coverage for behaviours not exercised elsewhere: degenerate
// geometry, vortex parameter interpolation, harbor amplification, table
// rendering corners, and restoration of hot-backup architectures.
#include <sstream>

#include <gtest/gtest.h>

#include "core/restoration.h"
#include "geo/polygon.h"
#include "storm/track.h"
#include "surge/harbor.h"
#include "util/csv.h"
#include "util/table.h"

namespace ct {
namespace {

TEST(PolygonDegenerate, CollinearCentroidFallsBackToVertexMean) {
  // Zero-area polygon: area-weighted centroid is undefined; the vertex
  // mean is returned instead.
  const geo::Polygon line({{0, 0}, {1, 1}, {2, 2}});
  const geo::Vec2 c = line.centroid();
  EXPECT_NEAR(c.x, 1.0, 1e-9);
  EXPECT_NEAR(c.y, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(line.abs_area(), 0.0);
}

TEST(StormTrack, VortexParametersInterpolateLinearly) {
  storm::TrackPoint a;
  a.time_s = 0.0;
  a.center = {20.0, -158.0};
  a.vortex.rmax_m = 30000.0;
  a.vortex.holland_b = 1.2;
  a.vortex.central_pressure_pa = 97000.0;
  storm::TrackPoint b = a;
  b.time_s = 100.0;
  b.center = {21.0, -158.0};
  b.vortex.rmax_m = 50000.0;
  b.vortex.holland_b = 1.6;
  b.vortex.central_pressure_pa = 96000.0;
  const storm::StormTrack track({a, b});
  const geo::EnuProjection proj({20.5, -158.0});
  const storm::StormState mid = track.state_at(50.0, proj);
  EXPECT_NEAR(mid.vortex.rmax_m, 40000.0, 1e-6);
  EXPECT_NEAR(mid.vortex.holland_b, 1.4, 1e-9);
  EXPECT_NEAR(mid.vortex.central_pressure_pa, 96500.0, 1e-6);
  // Latitude used for Coriolis follows the interpolated center.
  EXPECT_NEAR(mid.vortex.latitude_deg, 20.5, 1e-9);
}

TEST(Harbor, AmplificationScalesInheritedLevel) {
  std::vector<double> low = {2.0, 0.0};
  std::vector<double> high = low;
  const std::vector<bool> sheltered = {false, true};
  const std::vector<std::size_t> sources = {0, 0};
  surge::apply_harbor_transfer(low, sheltered, sources, 1.0);
  surge::apply_harbor_transfer(high, sheltered, sources, 1.25);
  EXPECT_DOUBLE_EQ(low[1], 2.0);
  EXPECT_DOUBLE_EQ(high[1], 2.5);
}

TEST(TextTable, EmptyTableRendersNothing) {
  util::TextTable table;
  EXPECT_TRUE(table.to_string().empty());
}

TEST(TextTable, HeaderOnlyRenders) {
  util::TextTable table;
  table.set_columns({"a", "bb"});
  const std::string s = table.to_string();
  EXPECT_NE(s.find("| a | bb |"), std::string::npos);
  EXPECT_EQ(table.row_count(), 0u);
}

TEST(CsvWriter, PrecisionControlsDigits) {
  std::ostringstream out;
  util::CsvWriter csv(out);
  csv.field(3.14159265, 3).end_row();
  EXPECT_EQ(out.str(), "3.14\n");  // 3 significant digits
}

TEST(Restoration, HotBackupFailoverCostsNothing) {
  scada::Configuration hot = scada::make_config_2_2("p", "b");
  hot.name = "2-2hot";
  hot.sites[1].hot = true;
  threat::SystemState state;
  state.site_status = {threat::SiteStatus::kFlooded, threat::SiteStatus::kUp};
  state.intrusions = {0, 0};
  const core::IncidentCosts costs =
      core::expected_incident_costs(hot, state, core::RestorationModel{});
  EXPECT_DOUBLE_EQ(costs.downtime_hours, 0.0);  // green: instant takeover
}

TEST(Restoration, IsolatedPrimaryRestoresWithoutActivationWhenHot) {
  // Single-site "6" isolated: when the isolation ends, the (hot) site
  // serves again with no activation penalty.
  const scada::Configuration c = scada::make_config_6("p");
  threat::SystemState state;
  state.site_status = {threat::SiteStatus::kIsolated};
  state.intrusions = {0};
  const core::RestorationModel model;
  const core::IncidentCosts costs =
      core::expected_incident_costs(c, state, model);
  EXPECT_DOUBLE_EQ(costs.downtime_hours, model.isolation_duration_hours);
}

TEST(Restoration, GrayDominatesEvenWithSitesDown) {
  // "2-2": backup compromised while the primary is flooded: the incident
  // is a safety problem first (gray branch), not an availability one.
  const scada::Configuration c = scada::make_config_2_2("p", "b");
  threat::SystemState state;
  state.site_status = {threat::SiteStatus::kFlooded, threat::SiteStatus::kUp};
  state.intrusions = {0, 1};
  const core::RestorationModel model;
  const core::IncidentCosts costs =
      core::expected_incident_costs(c, state, model);
  EXPECT_DOUBLE_EQ(costs.incorrect_hours, model.compromise_detection_hours);
  EXPECT_DOUBLE_EQ(costs.downtime_hours, model.compromise_cleanup_hours);
}

TEST(GridIndexCoverage, NearestWithClusteredPoints) {
  // Many points in one cell plus a distant outlier: ring expansion must
  // not stop early.
  std::vector<geo::Vec2> pts;
  for (int i = 0; i < 20; ++i) {
    pts.push_back({1000.0 + i * 0.1, 1000.0});
  }
  pts.push_back({0.0, 0.0});
  const geo::GridIndex index(pts, 10.0);
  EXPECT_EQ(index.nearest({1.0, 1.0}), pts.size() - 1);
  EXPECT_EQ(index.nearest({1000.05, 1000.0}), 0u);
}

}  // namespace
}  // namespace ct
