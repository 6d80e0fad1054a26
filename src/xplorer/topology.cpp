#include "xplorer/topology.hpp"

#include <limits>
#include <stdexcept>

namespace chk::xplorer {

/// rows x cols grid with rows = 2 when n is even and >= 4 (the Xplorer's
/// 2x4 arrangement), otherwise a single row (pipeline).
Topology Topology::build(std::size_t num_nodes) {
  if (num_nodes == 0) throw std::invalid_argument("topology: need at least one node");
  // Node and link ids must fit a LinkId; a mesh has fewer than 3n links.
  if (num_nodes > std::numeric_limits<LinkId>::max() / 3) {
    throw std::length_error("topology: too many nodes");
  }
  const std::size_t rows = (num_nodes >= 4 && num_nodes % 2 == 0) ? 2 : 1;
  const std::size_t cols = num_nodes / rows;
  Topology topo;
  topo.nodes_.resize(num_nodes);
  auto add_bidi = [&topo](NodeId a, NodeId b, Direction a_to_b, Direction b_to_a) {
    topo.nodes_[a].out[a_to_b] = static_cast<LinkId>(topo.edges_.size());
    topo.edges_.push_back({a, b});
    topo.nodes_[b].out[b_to_a] = static_cast<LinkId>(topo.edges_.size());
    topo.edges_.push_back({b, a});
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const NodeId at = r * cols + c;
      topo.nodes_[at].row = static_cast<std::uint32_t>(r);
      topo.nodes_[at].col = static_cast<std::uint32_t>(c);
      if (c + 1 < cols) add_bidi(at, at + 1, kRight, kLeft);
      if (r + 1 < rows) add_bidi(at, at + cols, kDown, kUp);
    }
  }
  return topo;
}

void Topology::route(NodeId src, NodeId dst, std::vector<LinkId>& out) const {
  out.clear();
  for (NodeId at = src; at != dst; at = edges_[out.back()].to) out.push_back(next_link(at, dst));
}

std::size_t Topology::distance(NodeId src, NodeId dst) const noexcept {
  std::size_t hops = 0;
  for (NodeId at = src; at != dst; at = edges_[next_link(at, dst)].to) ++hops;
  return hops;
}

}  // namespace chk::xplorer
