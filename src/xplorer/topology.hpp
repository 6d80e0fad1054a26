// Interconnect topology and static routing.
//
// The nodes form the Xplorer's mesh: 2 x (n/2) when n is even and at least
// 4 (the 2x4 arrangement at 8 nodes), otherwise a single row. Links are
// directed (a transputer link is a pair of opposite simplex channels, each
// with its own bandwidth). Routes are shortest paths with deterministic
// tie-breaking (lowest-numbered neighbour first), which on this mesh
// coincides with XY routing.
//
// Route storage is one BFS tree per source: for every (src, node) pair the
// link that enters node on src's tree, one uint32 each, N^2 entries in one
// array (4 MiB at 1 024 nodes). A route is written on demand by walking
// those parent links back from dst into a caller's buffer, so a reused
// buffer allocates nothing. A vector per (src, dst) pair would grow with
// N^2 x diameter, ~2 GB at 1 024 nodes.
// Every trace hash pins the links a route takes: BFS must visit neighbours
// in ascending id, and xplorer_test checks every route against a reference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "xplorer/config.hpp"

namespace chk::xplorer {

/// Index of a directed link (Topology::edge).
using LinkId = std::uint32_t;

class Topology {
 public:
  struct Edge {
    NodeId from;
    NodeId to;
  };

  static Topology build(std::size_t num_nodes);

  [[nodiscard]] std::size_t num_nodes() const noexcept { return num_nodes_; }
  [[nodiscard]] std::size_t num_links() const noexcept { return edges_.size(); }
  [[nodiscard]] const Edge& edge(std::size_t link) const noexcept { return edges_[link]; }

  /// Writes the link indices from src to dst into `out`, replacing its
  /// contents (empty iff src == dst).
  void route(NodeId src, NodeId dst, std::vector<LinkId>& out) const;

  /// Number of hops between src and dst.
  [[nodiscard]] std::size_t distance(NodeId src, NodeId dst) const noexcept;

 private:
  Topology(std::size_t num_nodes, std::vector<Edge> edges);
  void compute_trees();
  [[nodiscard]] LinkId parent(NodeId src, NodeId node) const noexcept {
    return parent_[src * num_nodes_ + node];
  }

  std::size_t num_nodes_;
  std::vector<Edge> edges_;
  // parent_[src * num_nodes_ + v] = link entering v on the BFS tree rooted
  // at src (unset at v == src)
  std::vector<LinkId> parent_;
};

}  // namespace chk::xplorer
