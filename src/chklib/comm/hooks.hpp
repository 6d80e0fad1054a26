// Interposition interface the checkpointing protocols implement.
#pragma once

#include "chklib/comm/envelope.hpp"
#include "des/process.hpp"

namespace chk::chklib {

/// The communication layer calls these around every application message so
/// a protocol can piggyback metadata, track dependencies, log channel
/// contents and induce checkpoints; the application's safe points reach
/// the protocol through the same interface. A null hooks pointer disables
/// all checkpointing (the "NORMAL" baseline).
class ProtocolHooks {
 public:
  virtual ~ProtocolHooks() = default;

  /// Sender context, before the message enters the network: stamp epoch /
  /// interval metadata and record the send.
  virtual void on_send(Rank src, Envelope& env) = 0;

  /// Kernel context, when the message arrives at the destination endpoint
  /// (before the application consumes it): channel logging for coordinated
  /// checkpointing keys off arrival order, which FIFO channels preserve.
  virtual void on_arrival(Rank dst, const Envelope& env) = 0;

  /// Receiving application's context, immediately before the message is
  /// handed to the application: induced (communication-triggered)
  /// checkpoints and receive-dependency tracking happen here.
  virtual void on_deliver(des::Process& self, Rank dst, const Envelope& env) = 0;

  /// Application `rank`'s context, at every safe point it declares
  /// (AppContext::checkpoint_here): a pending checkpoint is taken here.
  virtual void on_safe_point(des::Process& self, Rank rank) = 0;
};

}  // namespace chk::chklib
