// The assembled machine: nodes + interconnect + stable storage.
#pragma once

#include <memory>
#include <vector>

#include "des/simulator.hpp"
#include "xplorer/config.hpp"
#include "xplorer/network.hpp"
#include "xplorer/node.hpp"
#include "xplorer/storage.hpp"

namespace chk::xplorer {

class Machine {
 public:
  Machine(des::Simulator& sim, MachineConfig config)
      : sim_(&sim),
        config_(std::move(config)),
        network_(sim, config_),
        storage_(sim, network_, config_) {
    nodes_.reserve(config_.num_nodes);
    for (NodeId i = 0; i < config_.num_nodes; ++i) {
      nodes_.push_back(std::make_unique<Node>(sim, i, config_.node));
    }
  }
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  [[nodiscard]] des::Simulator& sim() noexcept { return *sim_; }
  [[nodiscard]] std::size_t num_nodes() const noexcept { return config_.num_nodes; }
  [[nodiscard]] Node& node(NodeId id) noexcept { return *nodes_[id]; }
  [[nodiscard]] Network& network() noexcept { return network_; }
  [[nodiscard]] StableStorage& storage() noexcept { return storage_; }

 private:
  des::Simulator* sim_;
  MachineConfig config_;
  Network network_;
  StableStorage storage_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace chk::xplorer
