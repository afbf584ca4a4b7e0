// Tests for the unstructured mesh, the coastal band builder, and field
// operations (including the paper's shoreline averaging + extension).
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mesh/coastal_builder.h"
#include "mesh/field.h"
#include "mesh/trimesh.h"
#include "terrain/oahu.h"
#include "util/rng.h"

namespace ct::mesh {
namespace {

/// Two triangles forming the unit square: (0,0)-(1,0)-(1,1)-(0,1).
TriMesh square_mesh() {
  std::vector<Node> nodes(4);
  nodes[0].position = {0, 0};
  nodes[1].position = {1, 0};
  nodes[2].position = {1, 1};
  nodes[3].position = {0, 1};
  std::vector<Element> elements = {{{0, 1, 2}}, {{0, 2, 3}}};
  return TriMesh(std::move(nodes), std::move(elements));
}

TEST(TriMesh, AdjacencyIsSymmetric) {
  const TriMesh mesh = square_mesh();
  for (NodeId n = 0; n < mesh.node_count(); ++n) {
    for (const NodeId m : mesh.neighbors(n)) {
      const auto& back = mesh.neighbors(m);
      EXPECT_NE(std::find(back.begin(), back.end(), n), back.end());
    }
  }
  // Diagonal 0-2 is shared; corners 1 and 3 are not adjacent.
  const auto& n1 = mesh.neighbors(1);
  EXPECT_EQ(std::find(n1.begin(), n1.end(), NodeId{3}), n1.end());
}

TEST(TriMesh, Validation) {
  EXPECT_THROW(TriMesh({}, {}), std::invalid_argument);
  std::vector<Node> one(1);
  EXPECT_THROW(TriMesh(std::move(one), {{{0, 1, 2}}}), std::out_of_range);
  EXPECT_THROW(square_mesh().neighbors(99), std::out_of_range);
}

// ------------------------------------------------------------- coastal band

class CoastalMeshTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    terrain_ = terrain::make_oahu_terrain().release();
    CoastalMeshConfig config;
    config.shore_spacing_m = 4000.0;  // coarse: fast tests
    config.cross_shore_spacing_m = 1500.0;
    config.offshore_extent_m = 6000.0;
    config.inland_extent_m = 3000.0;
    cm_ = new CoastalMesh(build_coastal_mesh(*terrain_, config));
  }
  static void TearDownTestSuite() {
    delete cm_;
    delete terrain_;
  }

  static const terrain::Terrain* terrain_;
  static const CoastalMesh* cm_;
};

const terrain::Terrain* CoastalMeshTest::terrain_ = nullptr;
const CoastalMesh* CoastalMeshTest::cm_ = nullptr;

TEST_F(CoastalMeshTest, LatticeDimensions) {
  const std::size_t stations = cm_->stations.size();
  ASSERT_GT(stations, 10u);
  EXPECT_EQ(cm_->mesh.node_count() % stations, 0u);
  const std::size_t offsets = cm_->mesh.node_count() / stations;
  // offshore 6000/1500 = 4 rows + shoreline + inland 3000/1500 = 2 rows.
  EXPECT_EQ(offsets, 7u);
  EXPECT_EQ(cm_->mesh.element_count(), 2 * stations * (offsets - 1));
}

TEST_F(CoastalMeshTest, ShoreNodesAreAtOffsetZero) {
  ASSERT_EQ(cm_->shore_nodes.size(), cm_->stations.size());
  for (std::size_t s = 0; s < cm_->stations.size(); ++s) {
    const NodeId shore = cm_->shore_nodes[s];
    EXPECT_EQ(cm_->offset_of_node[shore], 0.0);
    EXPECT_EQ(cm_->station_of_node[shore], s);
    EXPECT_EQ(cm_->mesh.node(shore).kind, NodeKind::kShore);
    EXPECT_NEAR(geo::distance(cm_->mesh.node(shore).position,
                              cm_->stations[s].position),
                0.0, 1e-9);
  }
}

TEST_F(CoastalMeshTest, OffsetSignsMatchNodeKind) {
  for (NodeId n = 0; n < cm_->mesh.node_count(); ++n) {
    const double offset = cm_->offset_of_node[n];
    const NodeKind kind = cm_->mesh.node(n).kind;
    if (offset < 0.0) {
      EXPECT_EQ(kind, NodeKind::kOcean);
    } else if (offset == 0.0) {
      EXPECT_EQ(kind, NodeKind::kShore);
    } else {
      EXPECT_EQ(kind, NodeKind::kLand);
    }
  }
}

TEST_F(CoastalMeshTest, OceanNodesAreMostlyBelowSeaLevel) {
  std::size_t ocean = 0;
  std::size_t below = 0;
  for (NodeId n = 0; n < cm_->mesh.node_count(); ++n) {
    if (cm_->offset_of_node[n] < -2000.0) {
      ++ocean;
      if (cm_->mesh.node(n).elevation_m < 0.0) ++below;
    }
  }
  ASSERT_GT(ocean, 0u);
  // Concave stretches (bays, the harbor) can put a far "offshore" node over
  // the opposite shore; the vast majority must still be wet.
  EXPECT_GT(static_cast<double>(below) / static_cast<double>(ocean), 0.85);
}

TEST_F(CoastalMeshTest, BandWrapsAroundTheIsland) {
  // The first and last station columns must be connected through elements.
  const NodeId first_shore = cm_->shore_nodes.front();
  const NodeId last_shore = cm_->shore_nodes.back();
  const auto& nbrs = cm_->mesh.neighbors(last_shore);
  EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), first_shore), nbrs.end());
}

TEST(CoastalBuilder, Validation) {
  const auto oahu = terrain::make_oahu_terrain();
  CoastalMeshConfig bad;
  bad.shore_spacing_m = -1.0;
  EXPECT_THROW(build_coastal_mesh(*oahu, bad), std::invalid_argument);
  CoastalMeshConfig bad2;
  bad2.offshore_extent_m = 0.0;
  EXPECT_THROW(build_coastal_mesh(*oahu, bad2), std::invalid_argument);
}

// ---------------------------------------------------------------- fields

TEST(Field, SmoothPassIsConservativeAndBounded) {
  const TriMesh mesh = square_mesh();
  const NodeField f = {0.0, 10.0, 0.0, 10.0};
  const NodeField smoothed =
      smooth_pass(mesh, f, [](NodeId) { return true; });
  for (const double v : smoothed) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 10.0);
  }
}

TEST(Field, SmoothPassConstantFieldIsFixedPoint) {
  const TriMesh mesh = square_mesh();
  const NodeField f(mesh.node_count(), 4.2);
  const NodeField smoothed =
      smooth_pass(mesh, f, [](NodeId) { return true; });
  for (const double v : smoothed) EXPECT_DOUBLE_EQ(v, 4.2);
}

TEST(Field, SmoothPassRespectsPredicate) {
  const TriMesh mesh = square_mesh();
  const NodeField f = {0.0, 10.0, 0.0, 10.0};
  const NodeField smoothed =
      smooth_pass(mesh, f, [](NodeId n) { return n == 0; });
  EXPECT_NE(smoothed[0], f[0]);
  EXPECT_EQ(smoothed[1], f[1]);
  EXPECT_EQ(smoothed[2], f[2]);
  EXPECT_EQ(smoothed[3], f[3]);
}

TEST_F(CoastalMeshTest, AverageAndExtendCopiesShoreValuesInland) {
  NodeField wse(cm_->mesh.node_count(), 0.0);
  // Seed a nontrivial field: value depends on station index.
  for (NodeId n = 0; n < cm_->mesh.node_count(); ++n) {
    wse[n] = static_cast<double>(cm_->station_of_node[n] % 7);
  }
  const NodeField fixed = shoreline_average_and_extend(*cm_, wse, 0.0, 0);
  // With zero passes, onshore nodes must exactly equal their station's
  // shoreline value.
  for (NodeId n = 0; n < cm_->mesh.node_count(); ++n) {
    if (cm_->offset_of_node[n] > 0.0) {
      const NodeId shore = cm_->shore_nodes[cm_->station_of_node[n]];
      EXPECT_DOUBLE_EQ(fixed[n], fixed[shore]);
    } else {
      EXPECT_DOUBLE_EQ(fixed[n], wse[n]);
    }
  }
}

TEST_F(CoastalMeshTest, AverageAndExtendSmoothsCoarseArtifacts) {
  // The paper's motivating artifact: 1.5 m next to 0 m on a coarse mesh.
  NodeField wse(cm_->mesh.node_count(), 0.0);
  for (std::size_t s = 0; s < cm_->stations.size(); ++s) {
    wse[cm_->shore_nodes[s]] = (s % 2 == 0) ? 1.5 : 0.0;
  }
  const NodeField fixed = shoreline_average_and_extend(*cm_, wse, 100.0, 3);
  double max_jump = 0.0;
  for (std::size_t s = 1; s < cm_->stations.size(); ++s) {
    max_jump = std::max(max_jump, std::abs(fixed[cm_->shore_nodes[s]] -
                                           fixed[cm_->shore_nodes[s - 1]]));
  }
  EXPECT_LT(max_jump, 0.75);  // raw alternation jumps by 1.5
}

TEST(Field, Validation) {
  const TriMesh mesh = square_mesh();
  NodeField wrong(2);
  EXPECT_THROW(smooth_pass(mesh, wrong, [](NodeId) { return true; }),
               std::invalid_argument);
  EXPECT_THROW(field_min({}), std::invalid_argument);
  EXPECT_DOUBLE_EQ(field_min({3.0, 1.0, 2.0}), 1.0);
  EXPECT_DOUBLE_EQ(field_max({3.0, 1.0, 2.0}), 3.0);
}

// --------------------------------------------------- hot-path kernels

TEST_F(CoastalMeshTest, SmoothPassKernelBitEqualToPredicateForm) {
  util::Rng rng(7, "smooth-kernel");
  NodeField field(cm_->mesh.node_count());
  for (double& v : field) v = rng.uniform(-1.0, 3.0);

  const double band = 2000.0;
  const auto near_shore = [&](NodeId n) {
    return std::abs(cm_->offset_of_node[n]) <= band;
  };
  std::vector<NodeId> affected;
  for (NodeId n = 0; n < cm_->mesh.node_count(); ++n) {
    if (near_shore(n)) affected.push_back(n);
  }

  const NodeField legacy = smooth_pass(cm_->mesh, field, near_shore);
  NodeField kernel;
  smooth_pass(cm_->mesh, field, kernel, affected);
  ASSERT_EQ(kernel.size(), legacy.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(kernel[i], legacy[i]) << "node " << i;
  }

  EXPECT_THROW(smooth_pass(cm_->mesh, field, field, affected),
               std::invalid_argument);
}

TEST_F(CoastalMeshTest, ShorelinePlanInPlaceBitEqualToAllocatingForm) {
  util::Rng rng(11, "plan");
  NodeField field(cm_->mesh.node_count());
  for (double& v : field) v = rng.uniform(0.0, 2.5);

  for (const int passes : {0, 1, 3}) {
    const NodeField expected =
        shoreline_average_and_extend(*cm_, field, 2000.0, passes);
    const ShorelinePlan plan = make_shoreline_plan(*cm_, 2000.0, passes);
    EXPECT_EQ(plan.passes, passes);
    NodeField in_place = field;
    NodeField scratch;
    shoreline_average_and_extend(*cm_, plan, in_place, scratch);
    ASSERT_EQ(in_place.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(in_place[i], expected[i]) << "passes " << passes
                                          << " node " << i;
    }
  }
  EXPECT_THROW(make_shoreline_plan(*cm_, 1000.0, -1), std::invalid_argument);
}

// ------------------------------------- CSR rows vs per-node-vector reference

/// Neighbor rows built the straightforward way: one growing vector per
/// node, appended in element order with the same six edge insertions and
/// per-row de-duplication as TriMesh. The CSR rows must hold the same ids
/// in the same order (smoothing sums in row order).
struct ReferenceRows {
  std::vector<std::vector<NodeId>> neighbors;
};

ReferenceRows reference_rows(const TriMesh& mesh) {
  ReferenceRows rows;
  rows.neighbors.resize(mesh.node_count());
  const auto add_edge = [&](NodeId a, NodeId b) {
    auto& adj = rows.neighbors[a];
    if (std::find(adj.begin(), adj.end(), b) == adj.end()) adj.push_back(b);
  };
  for (ElementId e = 0; e < mesh.element_count(); ++e) {
    const auto& el = mesh.element(e).nodes;
    add_edge(el[0], el[1]);
    add_edge(el[1], el[0]);
    add_edge(el[1], el[2]);
    add_edge(el[2], el[1]);
    add_edge(el[2], el[0]);
    add_edge(el[0], el[2]);
  }
  return rows;
}

void expect_rows_match_reference(const TriMesh& mesh, const std::string& tag) {
  const ReferenceRows want = reference_rows(mesh);
  for (NodeId n = 0; n < mesh.node_count(); ++n) {
    const auto neighbors = mesh.neighbors(n);
    ASSERT_EQ(std::vector<NodeId>(neighbors.begin(), neighbors.end()),
              want.neighbors[n])
        << tag << " neighbors of node " << n;
  }
}

TEST(TriMesh, CsrRowsMatchPerNodeReferenceOnOahuMesh) {
  const auto terrain = terrain::make_oahu_terrain();
  const CoastalMesh cm = build_coastal_mesh(*terrain, CoastalMeshConfig{});
  expect_rows_match_reference(cm.mesh, "oahu");
}

TEST(TriMesh, CsrRowsMatchPerNodeReferenceOnRandomMesh) {
  // Random triangles over few nodes share many edges; some repeat an
  // element (in the same or another node order) and some are degenerate,
  // naming a node twice or three times.
  util::Rng rng(18, "random-mesh");
  constexpr int kNodes = 60;
  std::vector<Node> nodes(kNodes);
  for (Node& n : nodes) {
    n.position = {rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
  }
  const auto pick = [&] {
    return static_cast<NodeId>(rng.uniform_int(0, kNodes - 1));
  };
  std::vector<Element> elements;
  for (int e = 0; e < 400; ++e) {
    const NodeId a = pick();
    const NodeId b = pick();
    const NodeId c = pick();
    switch (e % 8) {
      case 0: elements.push_back({{a, a, b}}); break;
      case 1: elements.push_back({{a, b, a}}); break;
      case 2: elements.push_back({{a, a, a}}); break;
      case 3:
        if (!elements.empty()) {
          const auto& prev = elements[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(elements.size()) -
                                     1))].nodes;
          elements.push_back({{prev[2], prev[0], prev[1]}});
        }
        break;
      case 4:
        if (!elements.empty()) elements.push_back(elements.back());
        break;
      default: elements.push_back({{a, b, c}}); break;
    }
  }
  const TriMesh mesh(std::move(nodes), std::move(elements));
  expect_rows_match_reference(mesh, "random");
}

}  // namespace
}  // namespace ct::mesh
