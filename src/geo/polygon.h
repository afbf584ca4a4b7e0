// Planar polygon geometry: containment, area, distance. Used for the
// island outline (land mask).
#pragma once

#include <cstddef>
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

/// Closest point on segment [a,b] to p.
Vec2 closest_point_on_segment(Vec2 a, Vec2 b, Vec2 p) noexcept;

}  // namespace ct::geo
