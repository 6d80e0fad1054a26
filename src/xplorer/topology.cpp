#include "xplorer/topology.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace chk::xplorer {

namespace {

void add_bidi(std::vector<Topology::Edge>& edges, NodeId a, NodeId b) {
  edges.push_back({a, b});
  edges.push_back({b, a});
}

/// rows x cols grid with rows = 2 when n is even and >= 4 (the Xplorer's
/// 2x4 arrangement), otherwise a single row (pipeline).
std::vector<Topology::Edge> mesh_edges(std::size_t n) {
  std::vector<Topology::Edge> edges;
  const std::size_t rows = (n >= 4 && n % 2 == 0) ? 2 : 1;
  const std::size_t cols = n / rows;
  auto id = [cols](std::size_t r, std::size_t c) { return r * cols + c; };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) add_bidi(edges, id(r, c), id(r, c + 1));
      if (r + 1 < rows) add_bidi(edges, id(r, c), id(r + 1, c));
    }
  }
  return edges;
}

}  // namespace

Topology::Topology(std::size_t num_nodes, std::vector<Edge> edges)
    : num_nodes_(num_nodes), edges_(std::move(edges)) {
  compute_trees();
}

Topology Topology::build(std::size_t num_nodes) {
  if (num_nodes == 0) throw std::invalid_argument("topology: need at least one node");
  return Topology{num_nodes, mesh_edges(num_nodes)};
}

void Topology::compute_trees() {
  constexpr auto kNoLink = std::numeric_limits<LinkId>::max();
  if (edges_.size() >= kNoLink) throw std::length_error("topology: too many links");
  const std::size_t n = num_nodes_;
  // adjacency: for each node, outgoing (neighbour, link) sorted by neighbour
  std::vector<std::vector<std::pair<NodeId, LinkId>>> adjacency(n);
  for (std::size_t link = 0; link < edges_.size(); ++link) {
    adjacency[edges_[link].from].emplace_back(edges_[link].to, static_cast<LinkId>(link));
  }
  for (auto& out : adjacency) std::sort(out.begin(), out.end());

  // The mesh is connected, so every BFS reaches all n nodes.
  parent_.assign(n * n, kNoLink);
  std::vector<NodeId> frontier(n);  // BFS queue: every node enters once
  std::vector<NodeId> reached_from(n, n);  // last source whose BFS reached v
  for (NodeId src = 0; src < n; ++src) {
    // BFS from src with deterministic neighbour order.
    std::size_t head = 0;
    std::size_t tail = 0;
    frontier[tail++] = src;
    reached_from[src] = src;
    while (head < tail) {
      const NodeId u = frontier[head++];
      for (const auto& [v, link] : adjacency[u]) {
        if (reached_from[v] != src) {
          reached_from[v] = src;
          parent_[src * n + v] = link;
          frontier[tail++] = v;
        }
      }
    }
  }
}

void Topology::route(NodeId src, NodeId dst, std::vector<LinkId>& out) const {
  out.clear();
  for (NodeId v = dst; v != src; v = edges_[out.back()].from) out.push_back(parent(src, v));
  std::reverse(out.begin(), out.end());
}

std::size_t Topology::distance(NodeId src, NodeId dst) const noexcept {
  std::size_t hops = 0;
  for (NodeId v = dst; v != src; v = edges_[parent(src, v)].from) ++hops;
  return hops;
}

}  // namespace chk::xplorer
