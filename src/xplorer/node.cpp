#include "xplorer/node.hpp"

namespace chk::xplorer {

void Node::compute(des::Process& self, double flops) {
  const auto base = des::Duration::seconds(flops / config_.cpu_flop_rate);
  auto total = base;
  if (background_io_ > 0) {
    // The checkpointer thread steals a fixed CPU share while streaming.
    total = base.scaled(1.0 / (1.0 - config_.background_io_cpu_steal));
    interference_time_ += total - base;
    if (tracer_) {
      const auto t0 = sim_->now().to_nanos();
      tracer_->span(obs::EventKind::kInterference, static_cast<std::uint16_t>(id_), t0,
                    t0 + total.to_nanos(),
                    static_cast<std::uint64_t>((total - base).to_nanos()));
    }
  }
  compute_time_ += base;
  self.delay(total);
}

void Node::mem_copy(des::Process& self, std::size_t bytes) {
  const auto cost = mem_copy_time(bytes);
  if (tracer_) {
    const auto t0 = sim_->now().to_nanos();
    tracer_->span(obs::EventKind::kMemCopy, static_cast<std::uint16_t>(id_), t0,
                  t0 + cost.to_nanos(), bytes);
  }
  self.delay(cost);
}

void Node::message_overhead(des::Process& self, std::size_t bytes) {
  self.delay(message_overhead_time(bytes));
}

des::Duration Node::message_overhead_time(std::size_t bytes) const noexcept {
  return config_.msg_sw_overhead +
         des::Duration::seconds(static_cast<double>(bytes) / config_.msg_cpu_byte_rate);
}

des::Duration Node::mem_copy_time(std::size_t bytes) const noexcept {
  return des::Duration::seconds(static_cast<double>(bytes) / config_.mem_copy_bw);
}

}  // namespace chk::xplorer
