// Per-node CPU model.
//
// Converts application work (flops), memory copies, and message staging
// into simulated time, and models the CPU interference caused by a
// checkpointer thread streaming a background write to stable storage
// (main-memory checkpointing variants). Compute time and the interference
// share of it are accounted for the harness's overhead breakdown.
#pragma once

#include <cstddef>
#include <cstdint>

#include "des/process.hpp"
#include "des/simulator.hpp"
#include "xplorer/config.hpp"

namespace chk::xplorer {

class Node {
 public:
  Node(des::Simulator& sim, NodeId id, const NodeConfig& config)
      : sim_(&sim), id_(id), config_(config) {}
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] NodeId id() const noexcept { return id_; }

  /// Execute `flops` of application work on the calling process. Runs
  /// slower while a background checkpoint write is in flight on this node.
  void compute(des::Process& self, double flops);

  /// Block for a main-memory copy of `bytes` (checkpoint buffering).
  void mem_copy(des::Process& self, std::size_t bytes);

  /// CPU cost of staging an outgoing or incoming message of `bytes`.
  void message_overhead(des::Process& self, std::size_t bytes);

  [[nodiscard]] des::Duration message_overhead_time(std::size_t bytes) const noexcept;
  [[nodiscard]] des::Duration mem_copy_time(std::size_t bytes) const noexcept;

  /// Background-I/O interference window: open while a buffered scheme's
  /// checkpointer thread streams an image to stable storage.
  void begin_background_io() noexcept { ++background_io_; }
  void end_background_io() noexcept { --background_io_; }

  // -- accounting ------------------------------------------------------------
  [[nodiscard]] des::Duration compute_time() const noexcept { return compute_time_; }
  [[nodiscard]] des::Duration interference_time() const noexcept { return interference_time_; }

 private:
  des::Simulator* sim_;
  NodeId id_;
  NodeConfig config_;
  int background_io_ = 0;
  des::Duration compute_time_;
  des::Duration interference_time_;
};

}  // namespace chk::xplorer
