#include "mesh/trimesh.h"

#include <algorithm>
#include <stdexcept>

namespace ct::mesh {

TriMesh::TriMesh(std::vector<Node> nodes, std::vector<Element> elements)
    : nodes_(std::move(nodes)), elements_(std::move(elements)) {
  if (nodes_.empty()) throw std::invalid_argument("TriMesh: no nodes");

  // One counting pass checks every node id and sizes each node's slot:
  // node n is the source of two add_edge calls per element naming it, so a
  // slot of twice that count holds its distinct neighbors.
  const std::size_t n_nodes = nodes_.size();
  std::vector<std::size_t> slot_start(n_nodes + 1, 0);
  for (const Element& el : elements_) {
    for (const NodeId n : el.nodes) {
      if (n >= n_nodes) {
        throw std::out_of_range("TriMesh: element references missing node");
      }
      slot_start[n + 1] += 2;
    }
  }
  for (std::size_t n = 0; n < n_nodes; ++n) {
    slot_start[n + 1] += slot_start[n];
  }

  // Each slot keeps its node's neighbors in first-seen order, the order
  // smoothing sums them.
  std::vector<NodeId> slots(slot_start[n_nodes]);
  std::vector<std::uint32_t> degree(n_nodes, 0);
  const auto add_edge = [&](NodeId a, NodeId b) {
    NodeId* const row = slots.data() + slot_start[a];
    NodeId* const end = row + degree[a];
    if (std::find(row, end, b) == end) {
      *end = b;
      ++degree[a];
    }
  };

  for (const Element& el : elements_) {
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
    std::copy_n(slots.data() + slot_start[n], degree[n],
                adjacency_.data() + adj_offsets_[n]);
  }
}

void TriMesh::check_node(NodeId id) const {
  if (id >= nodes_.size()) {
    throw std::out_of_range("TriMesh: node id out of range");
  }
}

}  // namespace ct::mesh
