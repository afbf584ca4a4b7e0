// Unstructured triangular mesh, the discretization the surge solver runs
// on (the stand-in for the paper's ADCIRC mesh). Stores nodes with
// elevation, triangle elements and node adjacency.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

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

/// Contiguous read-only view over one CSR row (a node's neighbor list).
/// Cheap to copy; valid while the mesh lives.
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
};

}  // namespace ct::mesh
