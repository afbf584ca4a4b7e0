// Planar polygon and polyline geometry: containment, area, distance.
// Used for the island outline (land mask) and the shoreline polyline.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "geo/vec2.h"

namespace ct::geo {

/// Axis-aligned bounding box.
struct BBox {
  Vec2 lo{1e300, 1e300};
  Vec2 hi{-1e300, -1e300};

  void expand(Vec2 p) noexcept;
  void expand(const BBox& other) noexcept;
  bool contains(Vec2 p) const noexcept;
  bool valid() const noexcept { return lo.x <= hi.x && lo.y <= hi.y; }
  Vec2 center() const noexcept { return (lo + hi) * 0.5; }
  double width() const noexcept { return hi.x - lo.x; }
  double height() const noexcept { return hi.y - lo.y; }
  /// Grows the box by `margin` on every side.
  BBox inflated(double margin) const noexcept;
};

/// Simple polygon (implicitly closed: last vertex connects to first).
/// Vertices may be in either winding order; `area()` is signed,
/// `abs_area()` and `contains()` are orientation-independent.
class Polygon {
 public:
  Polygon() = default;
  explicit Polygon(std::vector<Vec2> vertices);

  const std::vector<Vec2>& vertices() const noexcept { return vertices_; }
  std::size_t size() const noexcept { return vertices_.size(); }
  bool empty() const noexcept { return vertices_.empty(); }

  /// Even-odd (ray casting) point-in-polygon test. Points exactly on an
  /// edge may fall on either side; the terrain substrate never relies on
  /// boundary-exact classification. Tests only the edges of the query's
  /// y-bucket: the same answer as testing every edge.
  bool contains(Vec2 p) const noexcept;

  /// Signed area (positive for counter-clockwise winding).
  double area() const noexcept;
  double abs_area() const noexcept;
  Vec2 centroid() const noexcept;
  const BBox& bbox() const noexcept { return bbox_; }

  /// Minimum distance from `p` to the polygon boundary (0 inside is NOT
  /// implied — this is the distance to the outline in both directions).
  double distance_to_boundary(Vec2 p) const noexcept;

 private:
  /// Bucket of the y-band holding `y`; monotone in y, so an edge whose
  /// y-range straddles y lies in the buckets from edge_bucket(min y) to
  /// edge_bucket(max y), which include y's.
  std::size_t edge_bucket(double y) const noexcept;

  std::vector<Vec2> vertices_;
  BBox bbox_;
  // y-buckets of height bucket_height_ from bucket_lo_, as CSR: bucket k
  // lists, in bucket_edges_[bucket_offsets_[k] .. bucket_offsets_[k+1]),
  // the index i of every non-horizontal edge vertices_[i-1] -> vertices_[i]
  // whose y-range reaches into it.
  double bucket_lo_ = 0.0;
  double bucket_height_ = 1.0;
  std::vector<std::size_t> bucket_offsets_;
  std::vector<std::size_t> bucket_edges_;
};

/// Open polyline.
class LineString {
 public:
  LineString() = default;
  explicit LineString(std::vector<Vec2> points);

  const std::vector<Vec2>& points() const noexcept { return points_; }
  std::size_t size() const noexcept { return points_.size(); }
  bool empty() const noexcept { return points_.empty(); }
  double length() const noexcept;

  /// Closest point on the polyline to `p` (nullopt when empty).
  std::optional<Vec2> nearest_point(Vec2 p) const noexcept;
  /// Distance from `p` to the polyline (+inf when empty).
  double distance(Vec2 p) const noexcept;

  /// Point at arc-length `s` from the start, clamped to [0, length].
  Vec2 at_arclength(double s) const;

 private:
  std::vector<Vec2> points_;
};

/// Closest point on segment [a,b] to p.
Vec2 closest_point_on_segment(Vec2 a, Vec2 b, Vec2 p) noexcept;

/// Convex hull of a point set (Andrew's monotone chain), counter-clockwise,
/// without the closing duplicate. Returns the input for fewer than 3
/// points. Collinear boundary points are dropped.
std::vector<Vec2> convex_hull(std::vector<Vec2> points);

}  // namespace ct::geo
