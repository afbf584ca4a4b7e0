// Tests for the SCADA asset/topology model, the five paper configurations,
// and the replication sizing rules.
#include <gtest/gtest.h>

#include "scada/asset.h"
#include "scada/configuration.h"
#include "scada/oahu.h"
#include "scada/requirements.h"
#include "terrain/oahu.h"

namespace ct::scada {
namespace {

// ---------------------------------------------------------------- topology

TEST(Topology, AddFindAt) {
  ScadaTopology topo;
  topo.add({"a", "Asset A", AssetType::kSubstation, {21.0, -158.0}, 2.0});
  EXPECT_TRUE(topo.contains("a"));
  EXPECT_EQ(topo.find("a")->name, "Asset A");
  EXPECT_EQ(topo.find("nope"), nullptr);
  EXPECT_EQ(topo.at("a").id, "a");
  EXPECT_THROW(topo.at("nope"), std::out_of_range);
}

TEST(Topology, RejectsDuplicatesAndEmptyIds) {
  ScadaTopology topo;
  topo.add({"a", "A", AssetType::kSubstation, {21.0, -158.0}, 2.0});
  EXPECT_THROW(
      topo.add({"a", "A2", AssetType::kSubstation, {21.0, -158.0}, 2.0}),
      std::invalid_argument);
  EXPECT_THROW(
      topo.add({"", "B", AssetType::kSubstation, {21.0, -158.0}, 2.0}),
      std::invalid_argument);
}

TEST(Topology, OfTypeAndExposedAssets) {
  ScadaTopology topo;
  topo.add({"cc", "CC", AssetType::kControlCenter, {21.3, -157.9}, 1.0});
  topo.add({"ss", "SS", AssetType::kSubstation, {21.4, -158.0}, 2.0});
  EXPECT_EQ(topo.of_type(AssetType::kControlCenter).size(), 1u);
  EXPECT_EQ(topo.of_type(AssetType::kPowerPlant).size(), 0u);
  const auto exposed = topo.exposed_assets();
  ASSERT_EQ(exposed.size(), 2u);
  EXPECT_EQ(exposed[0].id, "cc");
  EXPECT_DOUBLE_EQ(exposed[1].ground_elevation_m, 2.0);
}

TEST(Topology, AssetTypeNames) {
  EXPECT_EQ(asset_type_name(AssetType::kControlCenter), "control center");
  EXPECT_EQ(asset_type_name(AssetType::kDataCenter), "data center");
  EXPECT_EQ(asset_type_name(AssetType::kPowerPlant), "power plant");
  EXPECT_EQ(asset_type_name(AssetType::kSubstation), "substation");
}

// ---------------------------------------------------------------- configs

TEST(Configuration, TwoIsSingleSitePrimaryBackup) {
  const Configuration c = make_config_2("hon");
  EXPECT_EQ(c.name, "2");
  EXPECT_EQ(c.style, ReplicationStyle::kPrimaryBackup);
  EXPECT_EQ(c.intrusion_tolerance_f, 0);
  EXPECT_EQ(c.safety_threshold(), 1);
  ASSERT_EQ(c.sites.size(), 1u);
  EXPECT_EQ(c.sites[0].replicas, 2);
  EXPECT_TRUE(c.sites[0].hot);
  EXPECT_FALSE(c.active_multisite);
  EXPECT_EQ(c.total_replicas(), 2);
}

TEST(Configuration, TwoTwoHasColdBackup) {
  const Configuration c = make_config_2_2("hon", "waiau");
  EXPECT_EQ(c.name, "2-2");
  ASSERT_EQ(c.sites.size(), 2u);
  EXPECT_EQ(c.sites[0].role, SiteRole::kPrimary);
  EXPECT_EQ(c.sites[1].role, SiteRole::kBackup);
  EXPECT_TRUE(c.sites[0].hot);
  EXPECT_FALSE(c.sites[1].hot);
  EXPECT_EQ(c.total_replicas(), 4);
}

TEST(Configuration, SixToleratesOneIntrusion) {
  const Configuration c = make_config_6("hon");
  EXPECT_EQ(c.style, ReplicationStyle::kIntrusionTolerant);
  EXPECT_EQ(c.intrusion_tolerance_f, 1);
  EXPECT_EQ(c.proactive_recovery_k, 1);
  EXPECT_EQ(c.safety_threshold(), 2);
  EXPECT_EQ(c.total_replicas(), 6);
  // 6 = 3f + 2k + 1 exactly: the architecture is minimally sized.
  EXPECT_EQ(c.sites[0].replicas,
            min_replicas_single_site(c.intrusion_tolerance_f,
                                     c.proactive_recovery_k));
}

TEST(Configuration, SixSixMirrorsTwoTwo) {
  const Configuration c = make_config_6_6("hon", "waiau");
  EXPECT_EQ(c.name, "6-6");
  ASSERT_EQ(c.sites.size(), 2u);
  EXPECT_FALSE(c.sites[1].hot);
  EXPECT_EQ(c.total_replicas(), 12);
  EXPECT_EQ(c.safety_threshold(), 2);
}

TEST(Configuration, SixSixSixIsActiveMultisite) {
  const Configuration c = make_config_6_6_6("hon", "waiau", "dc");
  EXPECT_EQ(c.name, "6+6+6");
  EXPECT_TRUE(c.active_multisite);
  EXPECT_EQ(c.min_active_sites, 2);
  ASSERT_EQ(c.sites.size(), 3u);
  for (const ControlSite& s : c.sites) EXPECT_TRUE(s.hot);
  EXPECT_EQ(c.sites[2].role, SiteRole::kDataCenter);
  EXPECT_EQ(c.total_replicas(), 18);
  // Per-site replica count matches the sizing rule for 3 sites, f=k=1.
  EXPECT_EQ(c.sites[0].replicas, min_replicas_per_site_active(3, 1, 1));
}

TEST(Configuration, PaperConfigurationsInOrder) {
  const auto configs = paper_configurations("p", "b", "d");
  ASSERT_EQ(configs.size(), 5u);
  EXPECT_EQ(configs[0].name, "2");
  EXPECT_EQ(configs[1].name, "2-2");
  EXPECT_EQ(configs[2].name, "6");
  EXPECT_EQ(configs[3].name, "6-6");
  EXPECT_EQ(configs[4].name, "6+6+6");
  EXPECT_EQ(configs[4].sites[2].asset_id, "d");
}

TEST(Configuration, SitesWithRole) {
  const Configuration c = make_config_6_6_6("p", "b", "d");
  EXPECT_EQ(c.sites_with_role(SiteRole::kPrimary),
            (std::vector<std::size_t>{0}));
  EXPECT_EQ(c.sites_with_role(SiteRole::kDataCenter),
            (std::vector<std::size_t>{2}));
}

// ---------------------------------------------------------------- sizing

TEST(Requirements, SingleSiteFormula) {
  EXPECT_EQ(min_replicas_single_site(0, 0), 1);
  EXPECT_EQ(min_replicas_single_site(1, 0), 4);   // classic 3f+1
  EXPECT_EQ(min_replicas_single_site(1, 1), 6);   // the paper's "6"
  EXPECT_EQ(min_replicas_single_site(2, 1), 9);
  EXPECT_THROW(min_replicas_single_site(-1, 0), std::invalid_argument);
}

TEST(Requirements, ActiveMultisiteFormula) {
  EXPECT_EQ(min_replicas_per_site_active(3, 1, 1), 6);  // "6+6+6"
  EXPECT_EQ(min_replicas_per_site_active(4, 1, 1), 3);
  EXPECT_EQ(min_replicas_per_site_active(3, 2, 1), 9);
  EXPECT_THROW(min_replicas_per_site_active(2, 1, 1), std::invalid_argument);
}

TEST(Requirements, QuorumFormula) {
  EXPECT_EQ(bft_quorum(4, 1), 3);    // PBFT: 2f+1 of 3f+1
  EXPECT_EQ(bft_quorum(6, 1), 4);    // the paper's "6"
  EXPECT_EQ(bft_quorum(18, 1), 10);  // the paper's "6+6+6"
  EXPECT_THROW(bft_quorum(3, 1), std::invalid_argument);
}

TEST(Requirements, Explanations) {
  EXPECT_NE(explain_single_site(1, 1).find("6"), std::string::npos);
  EXPECT_NE(explain_active_multisite(3, 1, 1).find("18"), std::string::npos);
}

// ---------------------------------------------------------------- oahu

TEST(OahuTopology, ContainsCaseStudySites) {
  const ScadaTopology topo = oahu_topology();
  for (const char* id :
       {oahu_ids::kHonoluluCc, oahu_ids::kWaiauCc, oahu_ids::kKaheCc,
        oahu_ids::kDrFortress, oahu_ids::kAlohaNap}) {
    EXPECT_TRUE(topo.contains(id)) << id;
  }
  EXPECT_EQ(topo.of_type(AssetType::kControlCenter).size(), 3u);
  EXPECT_EQ(topo.of_type(AssetType::kDataCenter).size(), 2u);
  EXPECT_GE(topo.of_type(AssetType::kPowerPlant).size(), 4u);
  EXPECT_GE(topo.of_type(AssetType::kSubstation).size(), 8u);
}

TEST(OahuTopology, ElevationsEncodeTheGeographicStory) {
  const ScadaTopology topo = oahu_topology();
  // Kahe sits on an elevated bench; Honolulu and Waiau on the low plain.
  EXPECT_GT(topo.at(oahu_ids::kKaheCc).ground_elevation_m, 5.0);
  EXPECT_LT(topo.at(oahu_ids::kHonoluluCc).ground_elevation_m, 2.0);
  EXPECT_LT(topo.at(oahu_ids::kWaiauCc).ground_elevation_m, 2.0);
}

TEST(OahuTopology, AllAssetsAreOnLand) {
  const ScadaTopology topo = oahu_topology();
  const auto oahu = terrain::make_oahu_terrain();
  for (const Asset& a : topo.assets()) {
    EXPECT_TRUE(oahu->is_land(oahu->projection().to_enu(a.location)))
        << a.id;
  }
}

TEST(OahuTopology, CandidateListCoversControlSites) {
  const auto candidates = oahu_control_site_candidates();
  EXPECT_EQ(candidates.size(), 5u);
  const ScadaTopology topo = oahu_topology();
  for (const std::string& id : candidates) {
    EXPECT_TRUE(topo.contains(id)) << id;
  }
}

}  // namespace
}  // namespace ct::scada
