#include "chklib/comm/comm_system.hpp"

#include <memory>
#include <utility>

#include "chklib/membership/service.hpp"
#include "chklib/verify/monitor.hpp"
#include "obs/tracer.hpp"

namespace chk::chklib {

CommSystem::CommSystem(xplorer::Machine& machine) : machine_(&machine) {
  endpoints_.reserve(machine.num_nodes());
  for (Rank rank = 0; rank < machine.num_nodes(); ++rank) {
    endpoints_.push_back(
        std::make_unique<Endpoint>(*this, rank, machine.node(rank), machine.sim()));
  }
}

void CommSystem::set_link_faults(const LinkFaultConfig& config, util::Rng rng) {
  faults_ = std::make_unique<LinkFaultModel>(config, rng);
  if (transport_ == nullptr) enable_transport();
  transport_->set_fault_model(faults_.get());
}

void CommSystem::enable_transport() {
  transport_ = std::make_unique<Transport>(machine_->sim(), machine_->network());
  transport_->set_fault_model(faults_.get());
  transport_->set_deliver_app([this](Envelope env) { deliver_app(std::move(env)); });
  transport_->set_deliver_control(
      [this](Rank dst, const ControlMsg& msg) { deliver_control(dst, msg); });
}

bool CommSystem::rank_down(Rank rank) const noexcept {
  return membership_ != nullptr && membership_->is_down(rank);
}

void CommSystem::bump_incarnation() noexcept {
  ++incarnation_;
  if (monitor_ != nullptr) monitor_->on_incarnation_bump();
}

void CommSystem::deliver_app(Envelope env) {
  if (env.incarnation != incarnation_) {
    ++dropped_stale_;  // message from a rolled-back execution
    return;
  }
  // Crash gate: a down rank neither receives nor has its in-flight frames
  // (transport retransmissions of pre-crash sends) delivered.
  if (rank_down(env.src) || rank_down(env.dst)) return;
  endpoint(env.dst).deliver(std::move(env));
}

void CommSystem::deliver_control(Rank dst, const ControlMsg& msg) {
  if (msg.incarnation != incarnation_) {
    ++dropped_stale_;
    return;
  }
  if (rank_down(msg.src) || rank_down(dst)) return;
  if (monitor_ != nullptr) monitor_->on_control_delivered(dst, msg);
  if (is_membership_kind(msg.kind)) {
    // Event-driven hand-off to the membership service; never a daemon
    // mailbox message (no daemon knows these kinds).
    if (membership_ != nullptr) membership_->on_control(dst, msg);
    return;
  }
  endpoint(dst).control_mailbox().send(msg);
}

void CommSystem::transmit(des::Process& self, Envelope env) {
  if (rank_down(env.src)) return;  // zombie sender: nothing leaves the node
  if (hooks_ != nullptr) hooks_->on_send(env.src, env);
  env.incarnation = incarnation_;
  if (monitor_ != nullptr) monitor_->on_transmit(env);
  ++app_messages_;
  app_bytes_ += env.payload.size();
  // Sender-side CPU staging cost (software overhead + copy to link buffer).
  machine_->node(env.src).message_overhead(self, env.payload.size());
  if (transport_ != nullptr) {
    transport_->send_app(std::move(env));
    return;
  }
  const Rank src = env.src;
  const Rank dst = env.dst;
  const std::size_t wire_bytes = env.payload.size() + kHeaderWireBytes;
  machine_->network().transfer(src, dst, wire_bytes, xplorer::Traffic::kApplication,
                               [this, env = std::move(env)]() mutable {
                                 deliver_app(std::move(env));
                               });
}

void CommSystem::send_control(Rank src, Rank dst, ControlMsg msg) {
  send_control_msg(src, dst, msg, /*datagram=*/false);
}

void CommSystem::send_control_datagram(Rank src, Rank dst, ControlMsg msg) {
  send_control_msg(src, dst, msg, /*datagram=*/true);
}

void CommSystem::send_control_msg(Rank src, Rank dst, ControlMsg msg, bool datagram) {
  if (rank_down(src)) return;  // zombie background writer / stale timer
  msg.incarnation = incarnation_;
  if (obs::Tracer* tracer = machine_->sim().tracer()) {
    tracer->instant(obs::EventKind::kControlSend, static_cast<std::uint16_t>(src),
                    machine_->sim().now().to_nanos(), 0, static_cast<std::uint32_t>(dst));
  }
  ++control_messages_;
  control_bytes_ += kControlWireBytes;
  if (transport_ != nullptr) {
    if (datagram) {
      transport_->send_datagram(src, dst, msg);
    } else {
      transport_->send_control(src, dst, msg);
    }
    return;
  }
  machine_->network().transfer(src, dst, kControlWireBytes, xplorer::Traffic::kControl,
                               [this, dst, msg] { deliver_control(dst, msg); });
}

void CommSystem::flush_all() {
  for (auto& ep : endpoints_) {
    ep->flush();
    ep->reset_seq();
  }
}

}  // namespace chk::chklib
