// Packet-switched interconnect model.
//
// A transfer is split into fixed-size packets that traverse the route
// store-and-forward; every link is a FIFO queueing server, so checkpoint
// traffic and application traffic contend for the same links — the central
// mechanism behind the paper's results. Per-channel FIFO delivery order is
// guaranteed (packets of earlier transfers between the same pair enter
// every shared queue first).
//
// Hot path (most events of a large run are packet hops): each in-flight
// transfer is a pooled record (index plus free list) that holds only its
// packet count and its delivery callback. A hop's callback captures (this,
// record, node, destination, bytes) and asks Topology::next_link for the
// next link, so it keeps no route and stays inside des::InlineFn's inline
// buffer; once the pool has grown to the peak load, a hop through an idle
// link allocates nothing, and the record is read only when a packet
// reaches its destination. A record is released before its delivery
// callback runs, so the callback may start a transfer that reuses it.
//
// The trace hash pins the schedule: every packet is submitted to its first
// link when the transfer starts, each hop is submitted when the previous
// one completes, and the delivery callback runs at the last packet's
// arrival. A change here must keep every schedule_* call in that order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
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
                des::InlineFn on_delivered);

  /// Duration the same transfer would take on an otherwise idle machine:
  /// packets pipelined store-and-forward over the route with empty queues.
  /// Pure model arithmetic (no events, no state change) — the obs layer
  /// uses it to split observed write times into service vs contention.
  [[nodiscard]] des::Duration min_transfer_time(NodeId src, NodeId dst,
                                                std::size_t bytes) const noexcept;

  [[nodiscard]] std::uint64_t bytes_sent(Traffic traffic) const noexcept {
    return bytes_sent_[static_cast<std::size_t>(traffic)];
  }
  [[nodiscard]] std::uint64_t transfers(Traffic traffic) const noexcept {
    return transfers_[static_cast<std::size_t>(traffic)];
  }
  /// Sum of busy time over all links.
  [[nodiscard]] des::Duration total_link_busy() const noexcept;

 private:
  /// One in-flight transfer. Records are recycled.
  struct InFlight {
    std::size_t packets_remaining = 0;
    des::InlineFn on_delivered;
    std::uint32_t next_free = 0;
  };

  static constexpr std::uint32_t kNoRecord = ~std::uint32_t{0};

  [[nodiscard]] std::uint32_t acquire();
  void release(std::uint32_t id) noexcept;
  /// One packet of transfer `id`, bound for `dst`, is at node `at`.
  void forward(std::uint32_t id, std::uint32_t at, std::uint32_t dst, std::size_t bytes);

  des::Simulator* sim_;
  MachineConfig config_;
  Topology topology_;
  std::vector<std::unique_ptr<FifoServer>> links_;
  // A deque grows in small blocks and never moves a record. A 256-rank
  // all-to-all keeps ~65 k transfers in flight; a vector pool would double
  // into multi-MB buffers, and glibc's dynamic mmap threshold then keeps
  // each freed one in the heap, raising peak RSS run after run.
  std::deque<InFlight> in_flight_;
  std::uint32_t free_head_ = kNoRecord;
  std::uint64_t bytes_sent_[kTrafficClasses] = {};
  std::uint64_t transfers_[kTrafficClasses] = {};
};

}  // namespace chk::xplorer
