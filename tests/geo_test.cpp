// Unit and property tests for the geo substrate.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numbers>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "geo/geopoint.h"
#include "geo/grid_index.h"
#include "geo/polygon.h"
#include "geo/vec2.h"
#include "terrain/oahu.h"
#include "util/rng.h"

namespace ct::geo {
namespace {

// ---------------------------------------------------------------- vec2

TEST(Vec2, Arithmetic) {
  const Vec2 a{1.0, 2.0};
  const Vec2 b{3.0, -1.0};
  EXPECT_EQ(a + b, (Vec2{4.0, 1.0}));
  EXPECT_EQ(a - b, (Vec2{-2.0, 3.0}));
  EXPECT_EQ(a * 2.0, (Vec2{2.0, 4.0}));
  EXPECT_EQ(2.0 * a, a * 2.0);
  EXPECT_DOUBLE_EQ(a.dot(b), 1.0);
  EXPECT_DOUBLE_EQ(a.cross(b), -7.0);
  EXPECT_DOUBLE_EQ((Vec2{3.0, 4.0}).norm(), 5.0);
}

TEST(Vec2, NormalizedAndPerp) {
  const Vec2 v{3.0, 4.0};
  const Vec2 n = v.normalized();
  EXPECT_NEAR(n.norm(), 1.0, 1e-12);
  EXPECT_EQ(Vec2{}.normalized(), (Vec2{0.0, 0.0}));
  // perp is a CCW quarter turn: cross(v, perp) > 0, dot == 0.
  EXPECT_DOUBLE_EQ(v.dot(v.perp()), 0.0);
  EXPECT_GT(v.cross(v.perp()), 0.0);
}

// ---------------------------------------------------------------- geodesy

/// Great-circle distance and initial bearing (degrees clockwise from
/// north), the references `destination` and the ENU projection are
/// checked against.
double great_circle_m(GeoPoint a, GeoPoint b) {
  const double lat1 = deg_to_rad(a.lat_deg);
  const double lat2 = deg_to_rad(b.lat_deg);
  const double s1 = std::sin((lat2 - lat1) / 2.0);
  const double s2 = std::sin(deg_to_rad(b.lon_deg - a.lon_deg) / 2.0);
  const double h = s1 * s1 + std::cos(lat1) * std::cos(lat2) * s2 * s2;
  return 2.0 * kEarthRadiusM * std::asin(std::min(1.0, std::sqrt(h)));
}

double bearing_deg(GeoPoint a, GeoPoint b) {
  const double lat1 = deg_to_rad(a.lat_deg);
  const double lat2 = deg_to_rad(b.lat_deg);
  const double dlon = deg_to_rad(b.lon_deg - a.lon_deg);
  const double y = std::sin(dlon) * std::cos(lat2);
  const double x = std::cos(lat1) * std::sin(lat2) -
                   std::sin(lat1) * std::cos(lat2) * std::cos(dlon);
  return std::fmod(rad_to_deg(std::atan2(y, x)) + 360.0, 360.0);
}

TEST(Geodesy, DestinationRoundTrip) {
  util::Rng rng(31);
  for (int i = 0; i < 50; ++i) {
    const GeoPoint start{rng.uniform(20.0, 23.0), rng.uniform(-159.0, -156.0)};
    const double bearing = rng.uniform(0.0, 360.0);
    const double dist = rng.uniform(100.0, 300000.0);
    const GeoPoint end = destination(start, bearing, dist);
    EXPECT_NEAR(great_circle_m(start, end), dist, dist * 1e-9 + 0.01);
    EXPECT_NEAR(bearing_deg(start, end), bearing, 0.5);
  }
}

TEST(EnuProjection, RoundTrip) {
  const EnuProjection proj({21.45, -157.95});
  util::Rng rng(32);
  for (int i = 0; i < 100; ++i) {
    const GeoPoint p{rng.uniform(21.0, 22.0), rng.uniform(-158.5, -157.3)};
    const GeoPoint back = proj.to_geo(proj.to_enu(p));
    EXPECT_NEAR(back.lat_deg, p.lat_deg, 1e-9);
    EXPECT_NEAR(back.lon_deg, p.lon_deg, 1e-9);
  }
}

TEST(EnuProjection, MatchesHaversineLocally) {
  const EnuProjection proj({21.45, -157.95});
  util::Rng rng(33);
  for (int i = 0; i < 50; ++i) {
    const GeoPoint a{rng.uniform(21.2, 21.7), rng.uniform(-158.3, -157.6)};
    const GeoPoint b{rng.uniform(21.2, 21.7), rng.uniform(-158.3, -157.6)};
    const double planar = distance(proj.to_enu(a), proj.to_enu(b));
    const double spherical = great_circle_m(a, b);
    if (spherical > 1000.0) {
      EXPECT_NEAR(planar / spherical, 1.0, 0.005);
    }
  }
}

// ---------------------------------------------------------------- bbox

TEST(BBox, ExpandAndContains) {
  BBox box;
  EXPECT_FALSE(box.valid());
  box.expand(Vec2{0.0, 0.0});
  box.expand(Vec2{2.0, 3.0});
  EXPECT_TRUE(box.valid());
  EXPECT_TRUE(box.contains({1.0, 1.0}));
  EXPECT_TRUE(box.contains({0.0, 3.0}));
  EXPECT_FALSE(box.contains({-0.1, 1.0}));
  EXPECT_EQ(box.center(), (Vec2{1.0, 1.5}));
  const BBox bigger = box.inflated(1.0);
  EXPECT_TRUE(bigger.contains({-0.5, -0.5}));
}

// ---------------------------------------------------------------- polygon

Polygon unit_square() {
  return Polygon({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
}

TEST(Polygon, ContainsSquare) {
  const Polygon sq = unit_square();
  EXPECT_TRUE(sq.contains({0.5, 0.5}));
  EXPECT_TRUE(sq.contains({0.01, 0.99}));
  EXPECT_FALSE(sq.contains({1.5, 0.5}));
  EXPECT_FALSE(sq.contains({-0.1, 0.5}));
}

TEST(Polygon, ContainsConcave) {
  // A "U" shape: the notch interior is outside.
  const Polygon u({{0, 0}, {4, 0}, {4, 4}, {3, 4}, {3, 1}, {1, 1}, {1, 4},
                   {0, 4}});
  EXPECT_TRUE(u.contains({0.5, 2.0}));   // left arm
  EXPECT_TRUE(u.contains({3.5, 2.0}));   // right arm
  EXPECT_FALSE(u.contains({2.0, 2.0}));  // notch
  EXPECT_TRUE(u.contains({2.0, 0.5}));   // base
}

TEST(Polygon, AreaAndWinding) {
  EXPECT_DOUBLE_EQ(unit_square().area(), 1.0);  // CCW positive
  const Polygon cw({{0, 0}, {0, 1}, {1, 1}, {1, 0}});
  EXPECT_DOUBLE_EQ(cw.area(), -1.0);
  EXPECT_DOUBLE_EQ(cw.abs_area(), 1.0);
}

TEST(Polygon, Centroid) {
  const Vec2 c = unit_square().centroid();
  EXPECT_NEAR(c.x, 0.5, 1e-12);
  EXPECT_NEAR(c.y, 0.5, 1e-12);
}

TEST(Polygon, DistanceToBoundary) {
  const Polygon sq = unit_square();
  EXPECT_NEAR(sq.distance_to_boundary({0.5, 0.5}), 0.5, 1e-12);
  EXPECT_NEAR(sq.distance_to_boundary({2.0, 0.5}), 1.0, 1e-12);
  EXPECT_NEAR(sq.distance_to_boundary({0.5, 0.1}), 0.1, 1e-12);
}

TEST(Polygon, RequiresThreeVertices) {
  EXPECT_THROW(Polygon({{0, 0}, {1, 1}}), std::invalid_argument);
}

TEST(Polygon, ContainsMatchesWindingIndependence) {
  const Polygon ccw({{0, 0}, {2, 0}, {2, 2}, {0, 2}});
  const Polygon cw({{0, 0}, {0, 2}, {2, 2}, {2, 0}});
  util::Rng rng(34);
  for (int i = 0; i < 200; ++i) {
    const Vec2 p{rng.uniform(-1.0, 3.0), rng.uniform(-1.0, 3.0)};
    EXPECT_EQ(ccw.contains(p), cw.contains(p));
  }
}

// ------------------------------------- polygon: index vs plain-scan reference

/// The plain even-odd scan over every edge, the contains() the y-bucket
/// index must reproduce: same bbox test, straddle predicate, a/b roles and
/// x_cross expression.
bool contains_reference(const Polygon& poly, Vec2 p) {
  if (!poly.bbox().contains(p)) return false;
  bool inside = false;
  const std::vector<Vec2>& v = poly.vertices();
  const std::size_t n = v.size();
  for (std::size_t i = 0, j = n - 1; i < n; j = i++) {
    const Vec2 a = v[i];
    const Vec2 b = v[j];
    if ((a.y > p.y) != (b.y > p.y)) {
      const double x_cross = (b.x - a.x) * (p.y - a.y) / (b.y - a.y) + a.x;
      if (p.x < x_cross) inside = !inside;
    }
  }
  return inside;
}

/// The least of the per-edge distances, one sqrt per edge.
double distance_reference(const Polygon& poly, Vec2 p) {
  double best = std::numeric_limits<double>::infinity();
  const std::vector<Vec2>& v = poly.vertices();
  const std::size_t n = v.size();
  for (std::size_t i = 0, j = n - 1; i < n; j = i++) {
    best = std::min(best, distance(p, closest_point_on_segment(v[j], v[i], p)));
  }
  return best;
}

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

/// Both queries bit-equal to their references at `p`; false (with a
/// gtest failure) on the first mismatch.
bool matches_reference(const Polygon& poly, Vec2 p, const std::string& tag) {
  const bool in = poly.contains(p);
  const double d = poly.distance_to_boundary(p);
  if (in == contains_reference(poly, p) &&
      bits(d) == bits(distance_reference(poly, p))) {
    return true;
  }
  ADD_FAILURE() << tag << ": contains " << in << ", distance " << d
                << " differ from the plain scan at (" << p.x << ", " << p.y
                << ")";
  return false;
}

/// Teeth of `teeth` unit-wide, 10-high bars on a spine 1 high, pointing +y.
/// Long vertical edges span most buckets; the tops and notch floors are
/// horizontal edges.
std::vector<Vec2> comb_outline(int teeth) {
  std::vector<Vec2> v = {{0, 0}, {2.0 * teeth - 1, 0}};
  for (int k = teeth - 1; k >= 0; --k) {
    v.push_back({2.0 * k + 1, 10});
    v.push_back({2.0 * k, 10});
    if (k > 0) {
      v.push_back({2.0 * k, 1});
      v.push_back({2.0 * k - 1, 1});
    }
  }
  return v;
}

/// A star-shaped (simple, non-convex) outline with random radii; every
/// fifth vertex copies its predecessor's y, so some edges are horizontal.
std::vector<Vec2> random_star(util::Rng& rng, int n) {
  std::vector<Vec2> v;
  for (int k = 0; k < n; ++k) {
    const double angle = 2.0 * std::numbers::pi * k / n;
    const double r = rng.uniform(300.0, 1000.0);
    Vec2 p{r * std::cos(angle), r * std::sin(angle)};
    if (k % 5 == 4) p.y = v.back().y;
    v.push_back(p);
  }
  return v;
}

struct OutlineCase {
  std::string name;
  std::vector<Vec2> vertices;
};

/// The outlines checked against the references, each in both windings.
std::vector<OutlineCase> outline_cases() {
  std::vector<OutlineCase> cases;
  const auto oahu = terrain::make_oahu_terrain();
  cases.push_back({"oahu", oahu->coastline().vertices()});
  cases.push_back({"comb", comb_outline(12)});
  std::vector<Vec2> sideways = comb_outline(7);
  for (Vec2& p : sideways) p = {p.y, p.x};
  cases.push_back({"sideways-comb", sideways});
  util::Rng rng(18, "star");
  cases.push_back({"star", random_star(rng, 60)});
  cases.push_back({"square", unit_square().vertices()});
  const std::size_t base = cases.size();
  for (std::size_t c = 0; c < base; ++c) {
    std::vector<Vec2> reversed(cases[c].vertices.rbegin(),
                               cases[c].vertices.rend());
    cases.push_back({cases[c].name + "-reversed", std::move(reversed)});
  }
  return cases;
}

TEST(PolygonIndex, RandomPointsMatchPlainScan) {
  for (const OutlineCase& c : outline_cases()) {
    const Polygon poly(c.vertices);
    const BBox box = poly.bbox().inflated(
        0.1 * std::max(poly.bbox().width(), poly.bbox().height()));
    util::Rng rng(41, c.name);
    int inside = 0;
    for (int q = 0; q < 100000; ++q) {
      const Vec2 p{rng.uniform(box.lo.x, box.hi.x),
                   rng.uniform(box.lo.y, box.hi.y)};
      if (!matches_reference(poly, p, c.name)) return;
      inside += poly.contains(p) ? 1 : 0;
    }
    EXPECT_GT(inside, 1000) << c.name;  // both answers are exercised
  }
}

TEST(PolygonIndex, VertexAndHorizontalEdgeRowsMatchPlainScan) {
  // Queries at every vertex's exact y (bucket edges and straddle ties),
  // at the vertices themselves and along every horizontal edge.
  for (const OutlineCase& c : outline_cases()) {
    const Polygon poly(c.vertices);
    const BBox& box = poly.bbox();
    util::Rng rng(42, c.name);
    const std::vector<Vec2>& v = poly.vertices();
    for (std::size_t i = 0, j = v.size() - 1; i < v.size(); j = i++) {
      if (!matches_reference(poly, v[i], c.name)) return;
      for (int q = 0; q < 64; ++q) {
        const Vec2 p{rng.uniform(box.lo.x - 1.0, box.hi.x + 1.0), v[i].y};
        if (!matches_reference(poly, p, c.name)) return;
      }
      if (v[i].y == v[j].y) {
        for (int q = 0; q <= 16; ++q) {
          const Vec2 p = v[j] + (v[i] - v[j]) * (q / 16.0);
          if (!matches_reference(poly, p, c.name + " horizontal")) return;
        }
      }
    }
  }
}

TEST(PolygonIndex, NonFiniteQueriesMatchPlainScan) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const OutlineCase& c : outline_cases()) {
    const Polygon poly(c.vertices);
    const Vec2 mid = poly.bbox().center();
    for (const double bad : {kNan, kInf, -kInf}) {
      for (const Vec2 p : {Vec2{bad, mid.y}, Vec2{mid.x, bad}, Vec2{bad, bad},
                           Vec2{bad, -bad}}) {
        EXPECT_FALSE(poly.contains(p)) << c.name;
        matches_reference(poly, p, c.name);
      }
    }
  }
}

TEST(PolygonIndex, NonFiniteOutlinesMatchPlainScan) {
  // A non-finite vertex y leaves one bucket holding every edge.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {kNan, kInf, -kInf}) {
    const Polygon poly({{0, 0}, {4, 0}, {4, 4}, {2, bad}, {0, 4}});
    util::Rng rng(43, "non-finite-outline");
    for (int q = 0; q < 2000; ++q) {
      const Vec2 p{rng.uniform(-1.0, 5.0), rng.uniform(-1.0, 5.0)};
      if (!matches_reference(poly, p, "non-finite outline")) return;
    }
  }
}

TEST(ClosestPointOnSegment, ClampsToEndpoints) {
  EXPECT_EQ(closest_point_on_segment({0, 0}, {10, 0}, {5, 5}), (Vec2{5, 0}));
  EXPECT_EQ(closest_point_on_segment({0, 0}, {10, 0}, {-5, 5}), (Vec2{0, 0}));
  EXPECT_EQ(closest_point_on_segment({0, 0}, {10, 0}, {15, 5}), (Vec2{10, 0}));
  EXPECT_EQ(closest_point_on_segment({2, 2}, {2, 2}, {0, 0}), (Vec2{2, 2}));
}

// ---------------------------------------------------------------- grid index

TEST(GridIndex, NearestMatchesBruteForce) {
  util::Rng rng(36);
  std::vector<Vec2> pts;
  for (int i = 0; i < 500; ++i) {
    pts.push_back({rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)});
  }
  const GridIndex index(pts, 50.0);
  for (int q = 0; q < 200; ++q) {
    const Vec2 query{rng.uniform(-100.0, 1100.0), rng.uniform(-100.0, 1100.0)};
    const std::size_t got = index.nearest(query);
    std::size_t want = 0;
    double best = 1e300;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const double d = (pts[i] - query).norm2();
      if (d < best) {
        best = d;
        want = i;
      }
    }
    ASSERT_NE(got, GridIndex::npos);
    // Ties allowed: got may differ from want if distances are equal.
    EXPECT_DOUBLE_EQ((pts[got] - query).norm2(), (pts[want] - query).norm2())
        << "query " << q;
  }
}

TEST(GridIndex, WithinMatchesBruteForce) {
  util::Rng rng(37);
  std::vector<Vec2> pts;
  for (int i = 0; i < 300; ++i) {
    pts.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
  }
  const GridIndex index(pts, 10.0);
  std::vector<std::size_t> got{999, 999, 999};  // must be cleared per call
  for (int q = 0; q < 50; ++q) {
    const Vec2 query{rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
    const double radius = rng.uniform(1.0, 30.0);
    index.within(query, radius, got);
    std::sort(got.begin(), got.end());
    std::vector<std::size_t> want;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if ((pts[i] - query).norm() <= radius) want.push_back(i);
    }
    EXPECT_EQ(got, want);
  }
  index.within({50.0, 50.0}, -1.0, got);
  EXPECT_TRUE(got.empty());
}

TEST(GridIndex, NearestTiesResolveInVisitOrder) {
  // An integer lattice queried at lattice, half- and quarter-lattice
  // points: most queries tie between 2 or 4 points, often inside one cell.
  // nearest() walks rings of cells (dy-major, then dx), each cell's points
  // in ascending index, and keeps the first strictly closer point, so among
  // the closest points it returns the least (ring, dy, dx, index). The
  // point indices are shuffled so index order is not lattice order.
  constexpr int kSide = 20;
  constexpr double kCell = 3.0;
  std::vector<Vec2> pts;
  for (int y = 0; y < kSide; ++y) {
    for (int x = 0; x < kSide; ++x) {
      pts.push_back({static_cast<double>(x), static_cast<double>(y)});
    }
  }
  util::Rng rng(44, "lattice");
  rng.shuffle(pts);
  const GridIndex index(pts, kCell);

  // The index's box is [0, 19]^2: ceil(19 / 3) + 1 = 8 cells a side.
  constexpr std::ptrdiff_t kCells = 8;
  const auto cell = [](double v) {
    return std::clamp<std::ptrdiff_t>(
        static_cast<std::ptrdiff_t>(std::floor(v / kCell)), 0, kCells - 1);
  };
  for (double qy = -1.0; qy <= kSide; qy += 0.25) {
    for (double qx = -1.0; qx <= kSide; qx += 0.25) {
      const Vec2 query{qx, qy};
      double best_d2 = std::numeric_limits<double>::infinity();
      for (const Vec2 p : pts) best_d2 = std::min(best_d2, (p - query).norm2());
      std::tuple<std::ptrdiff_t, std::ptrdiff_t, std::ptrdiff_t, std::size_t>
          best_key{kCells, 0, 0, 0};
      for (std::size_t i = 0; i < pts.size(); ++i) {
        if ((pts[i] - query).norm2() != best_d2) continue;
        const std::ptrdiff_t dx = cell(pts[i].x) - cell(qx);
        const std::ptrdiff_t dy = cell(pts[i].y) - cell(qy);
        best_key = std::min(
            best_key, {std::max(std::abs(dx), std::abs(dy)), dy, dx, i});
      }
      ASSERT_EQ(index.nearest(query), std::get<3>(best_key))
          << "query (" << qx << ", " << qy << ")";
    }
  }
}

TEST(GridIndex, EmptyAndDegenerate) {
  const GridIndex empty({}, 10.0);
  EXPECT_EQ(empty.nearest({0, 0}), GridIndex::npos);
  std::vector<std::size_t> found{7};
  empty.within({0, 0}, 5.0, found);
  EXPECT_TRUE(found.empty());
  const GridIndex one({{3.0, 4.0}}, 10.0);
  EXPECT_EQ(one.nearest({100.0, 100.0}), 0u);
  EXPECT_THROW(GridIndex({{0, 0}}, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace ct::geo
