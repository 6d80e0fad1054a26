#include "chklib/proto/independent.hpp"

#include <utility>

#include "util/format.hpp"

namespace chk::chklib {

namespace {

/// Indep_MS stagger-grant arbiter node.
constexpr Rank kArbiter = 0;

}  // namespace

std::vector<ProcessHistory> collect_histories(const CheckpointStore& store,
                                              std::size_t num_ranks) {
  std::vector<ProcessHistory> histories(num_ranks);
  for (Rank r = 0; r < num_ranks; ++r) {
    ProcessHistory& history = histories[r];
    history.rank = r;
    for (std::uint32_t index : store.saved_indices(r)) {
      const auto image = store.try_peek_image(r, index);
      // A rotted image is unusable itself, and its dependency records are
      // unreadable — so no newer cut at this rank can be consistency-checked
      // either. Truncate the usable history at the first corrupt image;
      // the line algorithms then fall back to an older generation. (A plain
      // *gap* in the indices is different and fine: a terminally failed
      // write skips its interval but migrates the records forward.)
      if (!image) break;
      history.saved.push_back(index);
      history.sends.insert(history.sends.end(), image->sends.begin(), image->sends.end());
      history.recvs.insert(history.recvs.end(), image->recvs.begin(), image->recvs.end());
    }
  }
  return histories;
}

IndependentProtocol::IndependentProtocol(Runtime& runtime, Config config)
    : Protocol(runtime, config.scheme), cfg_(config) {
  if (!is_independent(cfg_.scheme)) {
    throw des::SimError("IndependentProtocol: scheme is not an independent variant");
  }
  agents_.reserve(rt_->num_ranks());
  for (Rank r = 0; r < rt_->num_ranks(); ++r) {
    agents_.push_back(std::make_unique<Agent>());
  }
}

void IndependentProtocol::start() {
  rt_->comm().set_hooks(this);
  install_safe_points();
  spawn_daemons();
}

void IndependentProtocol::install_safe_points() {
  for (Rank r = 0; r < rt_->num_ranks(); ++r) {
    rt_->rank(r).on_safe_point = [this, r](des::Process& self) { safe_point(r, self); };
  }
}

void IndependentProtocol::safe_point(Rank r, des::Process& self) {
  Agent& agent = *agents_[r];
  if (!agent.pending) return;
  agent.pending = false;
  do_local_checkpoint(self, r);
  agent.captured.release();
}

void IndependentProtocol::spawn_daemons() {
  for (Rank r = 0; r < rt_->num_ranks(); ++r) {
    track(rt_->sim().spawn(util::format("ichkd-r{}", r), [this, r](des::Process& self) {
      timer_main(r, self);
    }));
    if (is_staggered(cfg_.scheme)) {
      track(rt_->sim().spawn(util::format("idisp-r{}", r), [this, r](des::Process& self) {
        dispatcher_main(r, self);
      }));
    }
  }
}

void IndependentProtocol::timer_main(Rank r, des::Process& self) {
  // Deterministic per-rank jitter stream; restarts reproduce the schedule.
  util::Rng rng = rt_->fork_rng(0x6000 + r).fork(rt_->rank(r).restarts);
  Agent& agent = *agents_[r];
  while (cfg_.count == 0 || agent.intervals < cfg_.count) {
    const double factor = 1.0 + cfg_.jitter * (2.0 * rng.uniform() - 1.0);
    self.delay(cfg_.interval.scaled(factor));
    if (rt_->rank(r).app_process == nullptr) {
      // Application finished: its final state is stable; capture directly.
      do_local_checkpoint(self, r);
      continue;
    }
    agent.pending = true;
    agent.captured.acquire(self);  // wait for the safe-point capture
  }
}

void IndependentProtocol::dispatcher_main(Rank r, des::Process& self) {
  for (;;) {
    const ControlMsg msg = rt_->comm().endpoint(r).recv_control(self);
    switch (msg.kind) {
      case ControlKind::kToken:
        if (auto* tracer = rt_->tracer()) {
          tracer->instant(obs::EventKind::kTokenPass, static_cast<std::uint16_t>(r),
                          rt_->sim().now().to_nanos(), 0, msg.epoch);
        }
        agents_[r]->token.release();
        break;
      case ControlKind::kTokenRequest:
      case ControlKind::kTokenRelease:
        // Arbiter role: FIFO grant, one writer at a time. Grants carry no
        // epoch.
        if (const auto grant = grants_.handle(msg)) {
          rt_->comm().send_control(r, grant->holder, ControlMsg{ControlKind::kToken, r, 0, 0});
        }
        break;
      default:
        break;  // not ours
    }
  }
}

void IndependentProtocol::on_send(Rank src, Envelope& env) {
  Agent& agent = *agents_[src];
  env.epoch = agent.intervals;
  agent.sends.push_back(SendRecord{env.dst, env.seq, agent.intervals});
  if (cfg_.message_logging) agent.sent_log.messages.push_back(env);
}

void IndependentProtocol::on_arrival(Rank, const Envelope&) {}

void IndependentProtocol::on_deliver(des::Process&, Rank dst, const Envelope& env) {
  Agent& agent = *agents_[dst];
  agent.recvs.push_back(RecvRecord{env.src, env.seq, env.epoch, agent.intervals});
}

void IndependentProtocol::do_local_checkpoint(des::Process& carrier, Rank r) {
  Agent& agent = *agents_[r];
  const std::uint32_t index = agent.intervals + 1;
  agent.intervals = index;  // a new interval starts at the cut

  RankRuntime& rank = rt_->rank(r);
  CheckpointImage image;
  image.rank = r;
  image.index = index;
  image.captured_at_ns = rt_->sim().now().to_nanos();
  image.state = rank.ready ? rank.registry.capture() : std::vector<std::byte>{};
  image.seq = rt_->comm().endpoint(r).seq_snapshot();
  image.sends = std::exchange(agent.sends, {});
  image.recvs = std::exchange(agent.recvs, {});
  if (cfg_.message_logging) image.sent_log = std::exchange(agent.sent_log, {});
  save_image(carrier, r, std::move(image), /*delta=*/false);
}

std::uint32_t IndependentProtocol::acquire_write(Rank r, des::Process& writer,
                                                 std::uint32_t index) {
  if (is_staggered(cfg_.scheme)) {
    rt_->comm().send_control(r, kArbiter, ControlMsg{ControlKind::kTokenRequest, r, index, 0});
    agents_[r]->token.acquire(writer);
  }
  return index;
}

void IndependentProtocol::release_write(Rank r, std::uint32_t index) {
  if (is_staggered(cfg_.scheme)) {
    rt_->comm().send_control(r, kArbiter, ControlMsg{ControlKind::kTokenRelease, r, index, 0});
  }
}

void IndependentProtocol::image_written(Rank r, des::Process&, xplorer::IoStatus status,
                                        WriteContext, CheckpointImage& image) {
  if (status == xplorer::IoStatus::kOk) {
    if (cfg_.gc) run_gc();
    return;
  }
  // The interval is skipped: stable storage keeps the previous generation
  // as this rank's newest restorable cut. The failed image's dependency
  // records (and logged payloads) were exchanged out at the cut, so splice
  // them back at the *front* of the live accumulators — the next image
  // then carries both intervals' records in chronological order and later
  // cuts remain fully characterized for the line algorithms.
  Agent& agent = *agents_[r];
  agent.sends.insert(agent.sends.begin(), image.sends.begin(), image.sends.end());
  agent.recvs.insert(agent.recvs.begin(), image.recvs.begin(), image.recvs.end());
  if (cfg_.message_logging) {
    agent.sent_log.messages.insert(agent.sent_log.messages.begin(),
                                   image.sent_log.messages.begin(),
                                   image.sent_log.messages.end());
  }
}

std::string IndependentProtocol::writer_name(Rank r, std::uint32_t index) const {
  return util::format("ickwr-r{}-v{}", r, index);
}

std::uint64_t IndependentProtocol::run_gc() {
  // Corruption pre-pass: a rotted image and everything newer at that rank
  // are discarded — without the rotted image's dependency records those
  // cuts can never be restored consistently (see collect_histories).
  for (Rank r = 0; r < rt_->num_ranks(); ++r) {
    bool rotted = false;
    for (std::uint32_t index : rt_->store().saved_indices(r)) {
      if (!rotted && !rt_->store().verify_image(r, index)) rotted = true;
      if (rotted) {
        rt_->store().erase(r, index);
        ++stats_.corrupt_discarded;
      }
    }
  }
  const auto histories = collect_histories(rt_->store(), rt_->num_ranks());
  // With message logging, older images' sent logs stay replay-relevant for
  // any send a receiver has not yet covered with a checkpoint: the strict
  // line is exactly the boundary below which no log can be needed.
  const LineMode mode = cfg_.message_logging ? LineMode::kStrict : cfg_.gc_mode;
  const auto result = compute_recovery_line(histories, mode);
  const auto to_delete = reclaimable(histories, result.line);
  std::uint64_t reclaimed = 0;
  const std::size_t keep = std::max<std::uint32_t>(1, cfg_.keep_depth);
  for (Rank r = 0; r < rt_->num_ranks(); ++r) {
    // Keep-depth retention floor: the newest `keep` generations survive
    // even when the line marks them reclaimable, so restore-time failures
    // still have an older generation to fall back to.
    const auto& saved = histories[r].saved;
    std::uint32_t floor_index = 0;
    if (!saved.empty()) {
      floor_index = saved.size() >= keep ? saved[saved.size() - keep] : saved.front();
    }
    for (std::uint32_t index : to_delete[r]) {
      if (index >= floor_index) continue;
      rt_->store().erase(r, index);
      ++reclaimed;
    }
  }
  stats_.gc_reclaimed += reclaimed;
  return reclaimed;
}

RecoveryLine IndependentProtocol::recovery_line() const {
  if (cfg_.message_logging) {
    // With pessimistic sender logging every combination of per-rank cuts is
    // consistent: orphan consumptions are neutralized by the restored
    // sequence state (duplicate drop) and lost messages are replayed from
    // the logs. Recover to the newest checkpoints — no rollback
    // propagation, no domino.
    RecoveryLine line;
    line.index.resize(rt_->num_ranks());
    for (Rank r = 0; r < rt_->num_ranks(); ++r) {
      // Newest index of the verified prefix: a rotted image's sent log is
      // unreplayable, so the rank must roll below it and re-execute (and
      // thus re-send) those intervals itself.
      std::uint32_t newest = 0;
      for (std::uint32_t index : rt_->store().saved_indices(r)) {
        if (!rt_->store().verify_image(r, index)) break;
        newest = index;
      }
      line.index[r] = newest;
    }
    return line;
  }
  const auto histories = collect_histories(rt_->store(), rt_->num_ranks());
  return compute_recovery_line(histories, LineMode::kStrict).line;
}

void IndependentProtocol::prepare_recovery(const RecoveryLine& line) {
  for (Rank r = 0; r < rt_->num_ranks(); ++r) {
    Agent& agent = *agents_[r];
    agent.intervals = line.index[r];
    agent.pending = false;
    agent.sends.clear();
    agent.recvs.clear();
    agent.sent_log.messages.clear();
    while (agent.token.try_acquire()) {}
    while (agent.captured.try_acquire()) {}
  }
  grants_.reset();
}

void IndependentProtocol::resume_after_recovery() {
  install_safe_points();
  spawn_daemons();
}

}  // namespace chk::chklib
