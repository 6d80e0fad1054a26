// Per-node application freeze gate.
//
// Checkpointing schemes block the application process for some window (the
// whole stable-storage write for Coord_NB/Indep; only the main-memory copy
// for the *_M variants; until global commit for the blocking ablation).
// The gate implements that window: while frozen, every application-level
// operation (compute, send, recv, collective) parks at its entry point.
// Time spent parked is accounted as checkpoint-induced blocking.
#pragma once

#include <deque>

#include "des/process.hpp"
#include "des/simulator.hpp"
#include "des/time.hpp"
#include "obs/tracer.hpp"

namespace chk::chklib {

class FreezeGate {
 public:
  explicit FreezeGate(des::Simulator& sim) : sim_(&sim) {}
  FreezeGate(const FreezeGate&) = delete;
  FreezeGate& operator=(const FreezeGate&) = delete;
  ~FreezeGate() {
    for (des::Process* proc : waiting_) proc->detach_cancel();
  }

  /// Application operations call this first; blocks while frozen.
  void enter(des::Process& self) {
    while (frozen_) {
      const des::TimePoint parked_at = sim_->now();
      waiting_.push_back(&self);
      self.suspend([this, &self] { std::erase(waiting_, &self); });
      blocked_time_ += sim_->now() - parked_at;
      if (tracer_) {
        tracer_->span(obs::EventKind::kFrozenStall, rank_, parked_at.to_nanos(),
                      sim_->now().to_nanos());
      }
    }
  }

  void freeze() noexcept {
    ++freeze_depth_;
    frozen_ = true;
  }

  void unfreeze() {
    if (freeze_depth_ > 0) --freeze_depth_;
    if (freeze_depth_ > 0) return;
    frozen_ = false;
    auto waiting = std::move(waiting_);
    waiting_.clear();
    for (des::Process* proc : waiting) sim_->wake(*proc);
  }

  [[nodiscard]] bool frozen() const noexcept { return frozen_; }

  /// Recovery: clear any freeze left over from a round in flight when the
  /// failure struck. Waiters have already been killed with their processes.
  void reset() noexcept {
    freeze_depth_ = 0;
    frozen_ = false;
    waiting_.clear();
  }
  /// Total time application processes spent parked at this gate.
  [[nodiscard]] des::Duration blocked_time() const noexcept { return blocked_time_; }

  void set_tracer(obs::Tracer* tracer, std::uint16_t rank) noexcept {
    tracer_ = tracer;
    rank_ = rank;
  }

 private:
  des::Simulator* sim_;
  obs::Tracer* tracer_ = nullptr;
  std::uint16_t rank_ = obs::kMetaRank;
  bool frozen_ = false;
  int freeze_depth_ = 0;
  std::deque<des::Process*> waiting_;
  des::Duration blocked_time_;
};

}  // namespace chk::chklib
