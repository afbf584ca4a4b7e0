// Unstructured triangular mesh, the discretization the surge solver runs
// on (the stand-in for the paper's ADCIRC mesh). Stores nodes with
// elevation, triangle elements, node adjacency, and supports point
// location + barycentric interpolation of node fields.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "geo/grid_index.h"
#include "geo/vec2.h"

namespace ct::mesh {

using NodeId = std::uint32_t;
using ElementId = std::uint32_t;

/// Classification of a node relative to the coastline.
enum class NodeKind : std::uint8_t {
  kOcean,  ///< below mean sea level, offshore
  kShore,  ///< on the shoreline (offset 0 in the coastal band)
  kLand,   ///< onshore
};

/// Mesh node: planar position plus ground/seafloor elevation.
struct Node {
  geo::Vec2 position;
  double elevation_m = 0.0;
  NodeKind kind = NodeKind::kOcean;
};

/// Triangle element (indices into the node array, counter-clockwise).
struct Element {
  std::array<NodeId, 3> nodes{};
};

/// A scalar field sampled at mesh nodes (e.g. water surface elevation).
using NodeField = std::vector<double>;

/// Barycentric coordinates of a point within an element.
struct Barycentric {
  ElementId element = 0;
  std::array<double, 3> weights{};
};

/// Contiguous read-only view over one CSR row (a node's neighbor or
/// incident-element list). Cheap to copy; valid while the mesh lives.
template <typename T>
class CsrRow {
 public:
  constexpr CsrRow(const T* begin, const T* end) noexcept
      : begin_(begin), end_(end) {}
  const T* begin() const noexcept { return begin_; }
  const T* end() const noexcept { return end_; }
  std::size_t size() const noexcept {
    return static_cast<std::size_t>(end_ - begin_);
  }
  bool empty() const noexcept { return begin_ == end_; }
  T operator[](std::size_t i) const noexcept { return begin_[i]; }

 private:
  const T* begin_;
  const T* end_;
};

class TriMesh {
 public:
  TriMesh(std::vector<Node> nodes, std::vector<Element> elements);

  const std::vector<Node>& nodes() const noexcept { return nodes_; }
  const std::vector<Element>& elements() const noexcept { return elements_; }
  std::size_t node_count() const noexcept { return nodes_.size(); }
  std::size_t element_count() const noexcept { return elements_.size(); }

  const Node& node(NodeId id) const { return nodes_.at(id); }
  const Element& element(ElementId id) const { return elements_.at(id); }

  /// Node ids adjacent to `id` (sharing an element edge). CSR row over a
  /// flat array: iterating neighbors in the smoothing kernels touches
  /// contiguous memory instead of chasing per-node heap vectors.
  CsrRow<NodeId> neighbors(NodeId id) const {
    check_node(id);
    return {adjacency_.data() + adj_offsets_[id],
            adjacency_.data() + adj_offsets_[id + 1]};
  }

  /// Element ids incident to node `id` (CSR row).
  CsrRow<ElementId> node_elements(NodeId id) const {
    check_node(id);
    return {node_elements_.data() + elem_offsets_[id],
            node_elements_.data() + elem_offsets_[id + 1]};
  }

  /// Nearest mesh node to a planar point.
  NodeId nearest_node(geo::Vec2 p) const noexcept;

  /// Locates the element containing `p`, if any; checks elements incident
  /// to nodes near `p` (sufficient for points inside the meshed band).
  std::optional<Barycentric> locate(geo::Vec2 p) const noexcept;

  /// Interpolates a node field at `p`: barycentric inside the mesh, nearest
  /// node value when `p` falls outside all elements. `field` must have one
  /// value per node.
  double interpolate(const NodeField& field, geo::Vec2 p) const;

 private:
  void check_node(NodeId id) const;

  std::vector<Node> nodes_;
  std::vector<Element> elements_;
  // CSR adjacency: neighbors of node n live in
  // adjacency_[adj_offsets_[n] .. adj_offsets_[n+1]) in first-seen element
  // order. The smoothing kernels sum neighbors in row order, so this order
  // is part of every surge result's bits.
  std::vector<std::uint32_t> adj_offsets_;
  std::vector<NodeId> adjacency_;
  std::vector<std::uint32_t> elem_offsets_;
  std::vector<ElementId> node_elements_;
  std::unique_ptr<geo::GridIndex> index_;
};

}  // namespace ct::mesh
