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
// packet count and its delivery callback. The mesh links queue packets
// themselves: a packet is a 16-byte record (transfer, destination, bytes,
// next), every link's queue is an intrusive FIFO through one shared pool
// with a free list, and a link's completion event captures only (this,
// link). A hop copies one record and asks Topology::next_link for the
// next link, so it keeps no route and builds no callback; once the pools
// have grown to the peak load, nothing allocates, and the transfer's
// record is read only when a packet reaches its destination. A record is
// released before its delivery callback runs, so the callback may start a
// transfer that reuses it.
//
// The trace hash pins the schedule: every packet is submitted to its first
// link when the transfer starts, a link schedules a packet's completion
// when the packet starts service, a completion starts the link's next
// packet before it forwards the finished one, and the delivery callback
// runs at the last packet's arrival. A change here must keep every
// schedule_* call in that order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "des/simulator.hpp"
#include "des/time.hpp"
#include "xplorer/config.hpp"
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
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  /// One in-flight transfer. Records are recycled.
  struct InFlight {
    std::size_t packets_remaining = 0;
    des::InlineFn on_delivered;
    std::uint32_t next_free = 0;
  };

  /// One packet of transfer `transfer`, bound for node `dst`. While it
  /// waits for a link, `next` chains it to the packet queued behind it.
  struct Packet {
    std::uint32_t transfer = 0;
    std::uint32_t dst = 0;
    std::uint32_t bytes = 0;
    std::uint32_t next = kNone;
  };

  /// One mesh link: serves one packet at a time, in arrival order. Its
  /// queue runs from `head` to `tail` through the packet pool.
  struct Link {
    bool busy = false;
    Packet in_service;
    std::uint32_t head = kNone;
    std::uint32_t tail = kNone;
    des::Duration busy_time;
  };

  /// A mesh link's service time for one packet of `bytes`.
  [[nodiscard]] static des::Duration link_service_time(std::size_t bytes) noexcept;

  [[nodiscard]] std::uint32_t acquire();
  void release(std::uint32_t id) noexcept;
  /// One packet of transfer `id`, bound for `dst`, is at node `at`.
  void forward(std::uint32_t id, std::uint32_t at, std::uint32_t dst, std::uint32_t bytes);
  /// Serve `packet` on `link` now, or queue it behind the link's others.
  void submit(LinkId link, Packet packet);
  /// Put `packet` into service on `link` and schedule its completion.
  void start(LinkId link, Packet packet);
  /// The packet in service on `link` is through: start the next queued
  /// one, then forward the finished one from the link's far end.
  void complete(LinkId link);

  des::Simulator* sim_;
  MachineConfig config_;
  Topology topology_;
  std::vector<Link> links_;
  // Queued packets of every link, recycled through `free_packet_`. At 16
  // bytes a packet, even a 512-rank cell's peak (254 k queued) is 4 MiB,
  // so unlike the transfer pool below this one can be a vector.
  std::vector<Packet> packets_;
  std::uint32_t free_packet_ = kNone;
  // A deque grows in small blocks and never moves a record. A 256-rank
  // all-to-all keeps ~65 k transfers in flight; a vector pool would double
  // into multi-MB buffers, and glibc's dynamic mmap threshold then keeps
  // each freed one in the heap, raising peak RSS run after run.
  std::deque<InFlight> in_flight_;
  std::uint32_t free_head_ = kNone;
  std::uint64_t bytes_sent_[kTrafficClasses] = {};
  std::uint64_t transfers_[kTrafficClasses] = {};
};

}  // namespace chk::xplorer
