#include "mesh/trimesh.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ct::mesh {

TriMesh::TriMesh(std::vector<Node> nodes, std::vector<Element> elements)
    : nodes_(std::move(nodes)), elements_(std::move(elements)) {
  if (nodes_.empty()) throw std::invalid_argument("TriMesh: no nodes");

  // One counting pass sizes the incident-element rows (and checks every
  // node id), then one pass over the elements fills both CSR arrays.
  const std::size_t n_nodes = nodes_.size();
  elem_offsets_.assign(n_nodes + 1, 0);
  for (const Element& el : elements_) {
    for (const NodeId n : el.nodes) {
      if (n >= n_nodes) {
        throw std::out_of_range("TriMesh: element references missing node");
      }
      ++elem_offsets_[n + 1];
    }
  }
  for (std::size_t n = 0; n < n_nodes; ++n) {
    elem_offsets_[n + 1] += elem_offsets_[n];
  }
  node_elements_.resize(elem_offsets_[n_nodes]);
  std::vector<std::uint32_t> next(elem_offsets_.begin(),
                                  elem_offsets_.end() - 1);

  // Node n is the source of two add_edge calls per entry of its incident
  // row, so a slot of twice the row's length holds its distinct neighbors.
  // Each slot keeps them in first-seen order, the order smoothing sums them.
  std::vector<NodeId> slots(2 * node_elements_.size());
  std::vector<std::uint32_t> degree(n_nodes, 0);
  const auto add_edge = [&](NodeId a, NodeId b) {
    NodeId* const row = slots.data() + 2 * std::size_t{elem_offsets_[a]};
    NodeId* const end = row + degree[a];
    if (std::find(row, end, b) == end) {
      *end = b;
      ++degree[a];
    }
  };

  for (ElementId e = 0; e < elements_.size(); ++e) {
    const auto& el = elements_[e];
    for (const NodeId n : el.nodes) node_elements_[next[n]++] = e;
    add_edge(el.nodes[0], el.nodes[1]);
    add_edge(el.nodes[1], el.nodes[0]);
    add_edge(el.nodes[1], el.nodes[2]);
    add_edge(el.nodes[2], el.nodes[1]);
    add_edge(el.nodes[2], el.nodes[0]);
    add_edge(el.nodes[0], el.nodes[2]);
  }

  adj_offsets_.assign(n_nodes + 1, 0);
  for (std::size_t n = 0; n < n_nodes; ++n) {
    adj_offsets_[n + 1] = adj_offsets_[n] + degree[n];
  }
  adjacency_.resize(adj_offsets_[n_nodes]);
  for (std::size_t n = 0; n < n_nodes; ++n) {
    std::copy_n(slots.data() + 2 * std::size_t{elem_offsets_[n]}, degree[n],
                adjacency_.data() + adj_offsets_[n]);
  }

  std::vector<geo::Vec2> positions;
  positions.reserve(nodes_.size());
  for (const Node& n : nodes_) positions.push_back(n.position);

  // Cell size ~ typical node spacing: sqrt(bounding area / node count).
  geo::BBox box;
  for (const geo::Vec2 p : positions) box.expand(p);
  const double area = std::max(1.0, box.width() * box.height());
  const double cell =
      std::max(1.0, std::sqrt(area / static_cast<double>(nodes_.size())));
  index_ = std::make_unique<geo::GridIndex>(positions, cell);
}

void TriMesh::check_node(NodeId id) const {
  if (id >= nodes_.size()) {
    throw std::out_of_range("TriMesh: node id out of range");
  }
}

NodeId TriMesh::nearest_node(geo::Vec2 p) const noexcept {
  return static_cast<NodeId>(index_->nearest(p));
}

std::optional<Barycentric> TriMesh::locate(geo::Vec2 p) const noexcept {
  // Candidate elements: those incident to the few nodes nearest p. For a
  // band mesh with bounded aspect ratio this covers the containing element
  // whenever p lies inside the mesh.
  const NodeId seed = nearest_node(p);
  // Breadth: seed's elements plus elements of its neighbors.
  const auto try_element = [&](ElementId e) -> std::optional<Barycentric> {
    const auto& el = elements_[e];
    const geo::Vec2 a = nodes_[el.nodes[0]].position;
    const geo::Vec2 b = nodes_[el.nodes[1]].position;
    const geo::Vec2 c = nodes_[el.nodes[2]].position;
    const double denom = (b - a).cross(c - a);
    if (std::abs(denom) < 1e-12) return std::nullopt;
    const double w0 = (b - p).cross(c - p) / denom;
    const double w1 = (c - p).cross(a - p) / denom;
    const double w2 = 1.0 - w0 - w1;
    constexpr double kTol = -1e-9;
    if (w0 >= kTol && w1 >= kTol && w2 >= kTol) {
      return Barycentric{e, {std::max(0.0, w0), std::max(0.0, w1),
                             std::max(0.0, w2)}};
    }
    return std::nullopt;
  };

  for (const ElementId e : node_elements(seed)) {
    if (auto hit = try_element(e)) return hit;
  }
  for (const NodeId n : neighbors(seed)) {
    for (const ElementId e : node_elements(n)) {
      if (auto hit = try_element(e)) return hit;
    }
  }
  return std::nullopt;
}

double TriMesh::interpolate(const NodeField& field, geo::Vec2 p) const {
  if (field.size() != nodes_.size()) {
    throw std::invalid_argument("TriMesh::interpolate: field size mismatch");
  }
  if (const auto bary = locate(p)) {
    const auto& el = elements_[bary->element];
    double v = 0.0;
    for (int i = 0; i < 3; ++i) v += bary->weights[i] * field[el.nodes[i]];
    return v;
  }
  return field[nearest_node(p)];
}

}  // namespace ct::mesh
