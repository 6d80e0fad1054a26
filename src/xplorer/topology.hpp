// Interconnect topology and static routing.
//
// The nodes form the Xplorer's mesh: 2 x (n/2) when n is even and at least
// 4 (the 2x4 arrangement at 8 nodes), otherwise a single row. Node ids run
// row-major. Links are directed (a transputer link is a pair of opposite
// simplex channels, each with its own bandwidth).
//
// Routes are the shortest paths a breadth-first search picks when it visits
// neighbours in ascending id. On this mesh that comes to one rule per hop:
//   - a packet in row 1 bound for row 0 climbs first;
//   - a packet in row 0 bound for row 1 moves along row 0 and descends at
//     the destination column;
//   - a packet bound for its own row moves along it.
// So no route table is kept: next_link reads one small per-node record
// (row, column, four outgoing links) for the current node and the
// destination. Every trace hash pins the links a route takes, and
// xplorer_test checks every route against a breadth-first reference.
#pragma once

#include <array>
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

  [[nodiscard]] std::size_t num_nodes() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t num_links() const noexcept { return edges_.size(); }
  [[nodiscard]] const Edge& edge(std::size_t link) const noexcept { return edges_[link]; }

  /// The link a packet at `at` bound for `dst` takes next (at != dst).
  [[nodiscard]] LinkId next_link(NodeId at, NodeId dst) const noexcept {
    const Node& here = nodes_[at];
    const Node& there = nodes_[dst];
    if (here.row > there.row) return here.out[kUp];
    if (here.col != there.col) return here.out[here.col < there.col ? kRight : kLeft];
    return here.out[kDown];
  }

  /// Writes the link indices from src to dst into `out`, replacing its
  /// contents (empty iff src == dst).
  void route(NodeId src, NodeId dst, std::vector<LinkId>& out) const;

  /// Number of hops between src and dst.
  [[nodiscard]] std::size_t distance(NodeId src, NodeId dst) const noexcept;

 private:
  enum Direction : std::uint8_t { kLeft, kRight, kUp, kDown };
  struct Node {
    std::uint32_t row;
    std::uint32_t col;
    std::array<LinkId, 4> out;  ///< outgoing link per Direction
  };

  Topology() = default;

  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
};

}  // namespace chk::xplorer
