#include "xplorer/network.hpp"

#include <algorithm>
#include <utility>

namespace chk::xplorer {

Network::Network(des::Simulator& sim, const MachineConfig& config)
    : sim_(&sim),
      config_(config),
      topology_(Topology::build(config.num_nodes)),
      links_(topology_.num_links()) {}

des::Duration Network::link_service_time(std::size_t bytes) noexcept {
  return kMeshLinkLatency + des::Duration::seconds(static_cast<double>(bytes) / kMeshLinkBandwidth);
}

void Network::transfer(NodeId src, NodeId dst, std::size_t bytes, Traffic traffic,
                       des::InlineFn on_delivered) {
  bytes_sent_[static_cast<std::size_t>(traffic)] += bytes;
  ++transfers_[static_cast<std::size_t>(traffic)];
  if (src == dst) {
    // Local loopback: software copy only; keep a tiny latency so ordering
    // through the event queue matches remote sends' asynchrony.
    const auto local = des::Duration::seconds(
        static_cast<double>(bytes) / config_.node.mem_copy_bw);
    sim_->schedule_after(local + des::Duration::micros(5), std::move(on_delivered));
    return;
  }
  const std::size_t packets = bytes == 0 ? 1 : (bytes + kPacketBytes - 1) / kPacketBytes;
  const std::uint32_t id = acquire();
  InFlight& record = in_flight_[id];
  record.packets_remaining = packets;
  record.on_delivered = std::move(on_delivered);
  std::size_t remaining = bytes;
  for (std::size_t p = 0; p < packets; ++p) {
    const std::size_t chunk = (bytes == 0) ? 0 : std::min(kPacketBytes, remaining);
    remaining -= chunk;
    forward(id, static_cast<std::uint32_t>(src), static_cast<std::uint32_t>(dst),
            static_cast<std::uint32_t>(chunk));
  }
}

std::uint32_t Network::acquire() {
  if (free_head_ == kNone) {
    in_flight_.emplace_back();
    return static_cast<std::uint32_t>(in_flight_.size() - 1);
  }
  const std::uint32_t id = free_head_;
  free_head_ = in_flight_[id].next_free;
  return id;
}

void Network::release(std::uint32_t id) noexcept {
  in_flight_[id].next_free = free_head_;
  free_head_ = id;
}

void Network::forward(std::uint32_t id, std::uint32_t at, std::uint32_t dst,
                      std::uint32_t bytes) {
  if (at != dst) {
    submit(topology_.next_link(at, dst), Packet{id, dst, bytes});
    return;
  }
  InFlight& record = in_flight_[id];
  if (--record.packets_remaining > 0) return;
  // The callback may start a transfer that takes this very record, so
  // release it first and touch it no more.
  des::InlineFn done = std::move(record.on_delivered);
  release(id);
  if (done) done();
}

void Network::submit(LinkId link, Packet packet) {
  if (!links_[link].busy) {
    start(link, packet);
    return;
  }
  std::uint32_t slot = free_packet_;
  if (slot == kNone) {
    slot = static_cast<std::uint32_t>(packets_.size());
    packets_.push_back(packet);
  } else {
    free_packet_ = packets_[slot].next;
    packets_[slot] = packet;
  }
  Link& server = links_[link];
  if (server.tail == kNone) {
    server.head = slot;
  } else {
    packets_[server.tail].next = slot;
  }
  server.tail = slot;
}

void Network::start(LinkId link, Packet packet) {
  Link& server = links_[link];
  server.busy = true;
  server.in_service = packet;
  const des::Duration service = link_service_time(packet.bytes);
  server.busy_time += service;
  sim_->schedule_after(service, [this, link] { complete(link); });
}

void Network::complete(LinkId link) {
  Link& server = links_[link];
  const Packet done = server.in_service;
  if (server.head == kNone) {
    server.busy = false;
  } else {
    const std::uint32_t slot = server.head;
    const Packet queued = packets_[slot];
    server.head = queued.next;
    if (server.head == kNone) server.tail = kNone;
    packets_[slot].next = free_packet_;
    free_packet_ = slot;
    start(link, queued);
  }
  forward(done.transfer, static_cast<std::uint32_t>(topology_.edge(link).to), done.dst,
          done.bytes);
}

des::Duration Network::min_transfer_time(NodeId src, NodeId dst,
                                         std::size_t bytes) const noexcept {
  if (src == dst) {
    return des::Duration::seconds(static_cast<double>(bytes) / config_.node.mem_copy_bw) +
           des::Duration::micros(5);
  }
  std::vector<LinkId> route;
  topology_.route(src, dst, route);
  const std::size_t packets = bytes == 0 ? 1 : (bytes + kPacketBytes - 1) / kPacketBytes;
  // Store-and-forward pipeline with empty queues:
  //   finish[p][hop] = max(finish[p][hop-1], finish[p-1][hop]) + svc_hop
  // rolled over packets, keeping one finish time per hop.
  std::vector<des::Duration> hop_finish(route.size());
  des::Duration last;
  std::size_t remaining = bytes;
  for (std::size_t p = 0; p < packets; ++p) {
    const std::size_t chunk = (bytes == 0) ? 0 : std::min(kPacketBytes, remaining);
    remaining -= chunk;
    des::Duration prev;  // this packet's finish at the previous hop
    for (std::size_t hop = 0; hop < route.size(); ++hop) {
      const des::Duration start = std::max(prev, hop_finish[hop]);
      prev = start + link_service_time(chunk);
      hop_finish[hop] = prev;
    }
    last = prev;
  }
  return last;
}

des::Duration Network::total_link_busy() const noexcept {
  des::Duration total;
  for (const Link& link : links_) total += link.busy_time;
  return total;
}

}  // namespace chk::xplorer
