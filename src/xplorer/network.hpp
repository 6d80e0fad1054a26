// Packet-switched interconnect model.
//
// A transfer is split into fixed-size packets that traverse the route
// store-and-forward; every link is a FIFO queueing server, so checkpoint
// traffic and application traffic contend for the same links — the central
// mechanism behind the paper's results. Per-channel FIFO delivery order is
// guaranteed (packets of earlier transfers between the same pair enter
// every shared queue first).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "des/simulator.hpp"
#include "xplorer/config.hpp"
#include "xplorer/fifo_server.hpp"
#include "xplorer/topology.hpp"

namespace chk::xplorer {

/// Traffic accounting classes.
enum class Traffic : std::uint8_t { kApplication = 0, kCheckpoint = 1, kControl = 2 };
inline constexpr std::size_t kTrafficClasses = 3;

class Network {
 public:
  Network(des::Simulator& sim, const MachineConfig& config);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Move `bytes` from src to dst; `on_delivered` runs in kernel context
  /// when the last packet arrives. src == dst delivers after a small local
  /// loopback latency, consuming no link.
  void transfer(NodeId src, NodeId dst, std::size_t bytes, Traffic traffic,
                std::function<void()> on_delivered);

  /// Duration the same transfer would take on an otherwise idle machine:
  /// packets pipelined store-and-forward over the route with empty queues.
  /// Pure model arithmetic (no events, no state change) — the obs layer
  /// uses it to split observed write times into service vs contention.
  [[nodiscard]] des::Duration min_transfer_time(NodeId src, NodeId dst,
                                                std::size_t bytes) const noexcept;

  [[nodiscard]] const Topology& topology() const noexcept { return topology_; }
  [[nodiscard]] FifoServer& link(std::size_t index) noexcept { return *links_[index]; }
  [[nodiscard]] std::size_t num_links() const noexcept { return links_.size(); }

  [[nodiscard]] std::uint64_t bytes_sent(Traffic traffic) const noexcept {
    return bytes_sent_[static_cast<std::size_t>(traffic)];
  }
  [[nodiscard]] std::uint64_t transfers(Traffic traffic) const noexcept {
    return transfers_[static_cast<std::size_t>(traffic)];
  }
  /// Sum of busy time over all links.
  [[nodiscard]] des::Duration total_link_busy() const noexcept;

 private:
  struct Pending {
    std::size_t packets_remaining;
    std::function<void()> on_delivered;
  };

  void forward(std::span<const std::size_t> route, std::size_t hop, std::size_t bytes,
               const std::shared_ptr<Pending>& pending);

  des::Simulator* sim_;
  MachineConfig config_;
  Topology topology_;
  std::vector<std::unique_ptr<FifoServer>> links_;
  std::uint64_t bytes_sent_[kTrafficClasses] = {};
  std::uint64_t transfers_[kTrafficClasses] = {};
};

}  // namespace chk::xplorer
