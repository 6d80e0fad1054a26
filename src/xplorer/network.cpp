#include "xplorer/network.hpp"

#include "util/format.hpp"

namespace chk::xplorer {

Network::Network(des::Simulator& sim, const MachineConfig& config)
    : sim_(&sim),
      config_(config),
      topology_(Topology::build(config.topology, config.num_nodes)) {
  links_.reserve(topology_.num_links());
  for (std::size_t i = 0; i < topology_.num_links(); ++i) {
    const auto& edge = topology_.edge(i);
    links_.push_back(std::make_unique<FifoServer>(
        sim, util::format("link{}->{}", edge.from, edge.to), config_.link.bandwidth,
        config_.link.latency));
  }
}

void Network::transfer(NodeId src, NodeId dst, std::size_t bytes, Traffic traffic,
                       std::function<void()> on_delivered) {
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
  const auto route = topology_.route(src, dst);
  const std::size_t packet = config_.packet_bytes;
  const std::size_t packets = bytes == 0 ? 1 : (bytes + packet - 1) / packet;
  auto pending = std::make_shared<Pending>(Pending{packets, std::move(on_delivered)});
  std::size_t remaining = bytes;
  for (std::size_t p = 0; p < packets; ++p) {
    const std::size_t chunk = (bytes == 0) ? 0 : std::min(packet, remaining);
    remaining -= chunk;
    forward(route, 0, chunk, pending);
  }
}

void Network::forward(std::span<const std::size_t> route, std::size_t hop, std::size_t bytes,
                      const std::shared_ptr<Pending>& pending) {
  if (hop == route.size()) {
    if (--pending->packets_remaining == 0 && pending->on_delivered) {
      pending->on_delivered();
    }
    return;
  }
  links_[route[hop]]->submit(bytes, [this, route, hop, bytes, pending] {
    forward(route, hop + 1, bytes, pending);
  });
}

des::Duration Network::min_transfer_time(NodeId src, NodeId dst,
                                         std::size_t bytes) const noexcept {
  if (src == dst) {
    return des::Duration::seconds(static_cast<double>(bytes) / config_.node.mem_copy_bw) +
           des::Duration::micros(5);
  }
  const auto route = topology_.route(src, dst);
  const std::size_t packet = config_.packet_bytes;
  const std::size_t packets = bytes == 0 ? 1 : (bytes + packet - 1) / packet;
  // Store-and-forward pipeline with empty queues:
  //   finish[p][hop] = max(finish[p][hop-1], finish[p-1][hop]) + svc_hop
  // rolled over packets, keeping one finish time per hop.
  std::vector<des::Duration> hop_finish(route.size());
  des::Duration last;
  std::size_t remaining = bytes;
  for (std::size_t p = 0; p < packets; ++p) {
    const std::size_t chunk = (bytes == 0) ? 0 : std::min(packet, remaining);
    remaining -= chunk;
    des::Duration prev;  // this packet's finish at the previous hop
    for (std::size_t hop = 0; hop < route.size(); ++hop) {
      const des::Duration start = std::max(prev, hop_finish[hop]);
      prev = start + links_[route[hop]]->service_time(chunk);
      hop_finish[hop] = prev;
    }
    last = prev;
  }
  return last;
}

des::Duration Network::total_link_busy() const noexcept {
  des::Duration total;
  for (const auto& link : links_) total += link->busy_time();
  return total;
}

}  // namespace chk::xplorer
