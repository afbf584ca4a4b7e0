#include "geo/polygon.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace ct::geo {

void BBox::expand(Vec2 p) noexcept {
  lo.x = std::min(lo.x, p.x);
  lo.y = std::min(lo.y, p.y);
  hi.x = std::max(hi.x, p.x);
  hi.y = std::max(hi.y, p.y);
}

void BBox::expand(const BBox& other) noexcept {
  if (!other.valid()) return;
  expand(other.lo);
  expand(other.hi);
}

bool BBox::contains(Vec2 p) const noexcept {
  return p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y;
}

BBox BBox::inflated(double margin) const noexcept {
  BBox out = *this;
  out.lo.x -= margin;
  out.lo.y -= margin;
  out.hi.x += margin;
  out.hi.y += margin;
  return out;
}

Polygon::Polygon(std::vector<Vec2> vertices) : vertices_(std::move(vertices)) {
  if (vertices_.size() < 3) {
    throw std::invalid_argument("Polygon requires >= 3 vertices");
  }
  for (const Vec2 v : vertices_) bbox_.expand(v);

  // Up to one bucket per edge, fewer when the edges are long, so the index
  // holds at most about four entries per edge. An outline with a non-finite
  // y (the span is then not finite) or no height gets one bucket: every
  // non-horizontal edge, the plain scan.
  const std::size_t n = vertices_.size();
  double span = 0.0;  // summed y-extent of the edges
  for (std::size_t i = 0, j = n - 1; i < n; j = i++) {
    span += std::abs(vertices_[i].y - vertices_[j].y);
  }
  std::size_t buckets = 1;
  const double height = bbox_.height();
  if (std::isfinite(span) && std::isfinite(height) && height > 0.0) {
    const double fit = 2.0 * static_cast<double>(n) * (height / span);
    const auto count = static_cast<std::size_t>(
        std::clamp(fit, 1.0, static_cast<double>(n)));
    const double band = height / static_cast<double>(count);
    if (band > 0.0) {
      buckets = count;
      bucket_lo_ = bbox_.lo.y;
      bucket_height_ = band;
    }
  }
  bucket_offsets_.assign(buckets + 1, 0);

  // Two passes over the edges: count each bucket's entries, then fill.
  // A horizontal edge never straddles a query's y, so none is listed.
  const auto for_each_entry = [&](const auto& visit) {
    for (std::size_t i = 0, j = n - 1; i < n; j = i++) {
      const double ya = vertices_[i].y;
      const double yb = vertices_[j].y;
      if (ya == yb) continue;
      const std::size_t last = edge_bucket(std::max(ya, yb));
      for (std::size_t k = edge_bucket(std::min(ya, yb)); k <= last; ++k) {
        visit(k, i);
      }
    }
  };
  for_each_entry([&](std::size_t k, std::size_t) { ++bucket_offsets_[k + 1]; });
  for (std::size_t k = 0; k < buckets; ++k) {
    bucket_offsets_[k + 1] += bucket_offsets_[k];
  }
  bucket_edges_.resize(bucket_offsets_[buckets]);
  std::vector<std::size_t> next(bucket_offsets_.begin(),
                                bucket_offsets_.end() - 1);
  for_each_entry(
      [&](std::size_t k, std::size_t i) { bucket_edges_[next[k]++] = i; });
}

std::size_t Polygon::edge_bucket(double y) const noexcept {
  const std::size_t last = bucket_offsets_.size() - 2;
  const double t = (y - bucket_lo_) / bucket_height_;
  if (!(t > 0.0)) return 0;  // also NaN
  if (t >= static_cast<double>(last)) return last;
  return static_cast<std::size_t>(t);  // floor: t is positive
}

bool Polygon::contains(Vec2 p) const noexcept {
  if (!bbox_.contains(p)) return false;
  bool inside = false;
  const std::size_t n = vertices_.size();
  // The parity is an XOR over the straddling edges, and every straddling
  // edge is in p.y's bucket, so visiting only that bucket is exact.
  const std::size_t k = edge_bucket(p.y);
  for (std::size_t e = bucket_offsets_[k]; e < bucket_offsets_[k + 1]; ++e) {
    const std::size_t i = bucket_edges_[e];
    const Vec2 a = vertices_[i];
    const Vec2 b = vertices_[i == 0 ? n - 1 : i - 1];
    const bool straddles = (a.y > p.y) != (b.y > p.y);
    if (straddles) {
      const double x_cross = (b.x - a.x) * (p.y - a.y) / (b.y - a.y) + a.x;
      if (p.x < x_cross) inside = !inside;
    }
  }
  return inside;
}

double Polygon::area() const noexcept {
  double twice_area = 0.0;
  const std::size_t n = vertices_.size();
  for (std::size_t i = 0, j = n - 1; i < n; j = i++) {
    twice_area += vertices_[j].cross(vertices_[i]);
  }
  return twice_area / 2.0;
}

double Polygon::abs_area() const noexcept { return std::abs(area()); }

Vec2 Polygon::centroid() const noexcept {
  // Area-weighted centroid; falls back to vertex mean for degenerate area.
  double twice_area = 0.0;
  Vec2 acc{};
  const std::size_t n = vertices_.size();
  for (std::size_t i = 0, j = n - 1; i < n; j = i++) {
    const double w = vertices_[j].cross(vertices_[i]);
    twice_area += w;
    acc += (vertices_[j] + vertices_[i]) * w;
  }
  if (std::abs(twice_area) < 1e-12) {
    Vec2 mean{};
    for (const Vec2 v : vertices_) mean += v;
    return mean / static_cast<double>(n);
  }
  return acc / (3.0 * twice_area);
}

double Polygon::distance_to_boundary(Vec2 p) const noexcept {
  // sqrt is correctly rounded and monotone, so the root of the least
  // squared distance equals the least of the per-edge distances.
  double best2 = std::numeric_limits<double>::infinity();
  const std::size_t n = vertices_.size();
  for (std::size_t i = 0, j = n - 1; i < n; j = i++) {
    const Vec2 q = closest_point_on_segment(vertices_[j], vertices_[i], p);
    best2 = std::min(best2, (p - q).norm2());
  }
  return std::sqrt(best2);
}

Vec2 closest_point_on_segment(Vec2 a, Vec2 b, Vec2 p) noexcept {
  const Vec2 ab = b - a;
  const double len2 = ab.norm2();
  if (len2 <= 0.0) return a;
  const double t = std::clamp((p - a).dot(ab) / len2, 0.0, 1.0);
  return a + ab * t;
}

}  // namespace ct::geo
