#include "chklib/proto/coordinated.hpp"

#include <algorithm>
#include <utility>

#include "chklib/membership/service.hpp"
#include "util/format.hpp"

namespace chk::chklib {

namespace {

/// The coordinator without membership; also view 0's elected one (0 % N).
constexpr Rank kFixedCoordinator = 0;

}  // namespace

CoordinatedProtocol::CoordinatedProtocol(Runtime& runtime, Config config)
    : Protocol(runtime, config.scheme), cfg_(config) {
  if (!is_coordinated(cfg_.scheme)) {
    throw des::SimError("CoordinatedProtocol: scheme is not a coordinated variant");
  }
  agents_.reserve(rt_->num_ranks());
  for (Rank r = 0; r < rt_->num_ranks(); ++r) {
    agents_.push_back(std::make_unique<Agent>());
  }
}

void CoordinatedProtocol::start() {
  rt_->comm().set_hooks(this);
  install_safe_points();
  spawn_daemons();
  schedule_next_round(cfg_.interval);
}

Rank CoordinatedProtocol::coordinator() const noexcept {
  return membership_ != nullptr ? membership_->coordinator() : kFixedCoordinator;
}

std::uint64_t CoordinatedProtocol::current_view() const noexcept {
  return membership_ != nullptr ? membership_->view() : 0;
}

void CoordinatedProtocol::set_membership(membership::MembershipService* membership) {
  membership_ = membership;
  if (membership_ != nullptr) {
    membership_->set_view_established_callback(
        [this](std::uint64_t) { on_view_established(); });
    membership_->set_fence_callback(
        [this](Rank r, bool fenced) { on_rank_fenced(r, fenced); });
  }
}

void CoordinatedProtocol::on_view_established() {
  // Coord_NBS: a write grant parked at a crashed holder would wedge the
  // FIFO arbiter forever — advance it. A *fenced* (live) holder keeps the
  // grant: its release is still coming.
  if (const auto held = grants_.held();
      held && membership_ != nullptr && membership_->is_down(held->holder)) {
    if (const auto next = grants_.release(held->epoch)) send_grant(coordinator(), *next);
  }
  if (!round_in_progress_) return;
  // The round in flight was initiated under the previous view: its
  // outstanding acks are unmatchable now (they carry the old view stamp).
  // Abort it and let the new view's coordinator re-initiate at the next
  // epoch — this is how the schemes survive coordinator death mid-round.
  note_round_abort(round_epoch_);
  round_watchdog_.cancel();
  token_watchdog_.cancel();
  round_in_progress_ = false;
  begin_round(round_epoch_ + 1);
}

void CoordinatedProtocol::on_rank_fenced(Rank r, bool fenced) {
  if (!fenced) return;  // a rejoining rank participates cleanly from the next round
  Agent& agent = *agents_[r];
  // Discard the rank's in-flight round state: no capture at the next safe
  // point, no open channel log, no ack. Its token semaphore is left alone —
  // a staggered write may be blocked in acquire, and the arbiter still owes
  // it the grant.
  agent.pending_epoch = agent.epoch;
  agent.logging = false;
  agent.finishing = false;
  agent.log.messages.clear();
}

void CoordinatedProtocol::install_safe_points() {
  for (Rank r = 0; r < rt_->num_ranks(); ++r) {
    rt_->rank(r).on_safe_point = [this, r](des::Process& self) { safe_point(r, self); };
  }
}

void CoordinatedProtocol::spawn_daemons() {
  for (Rank r = 0; r < rt_->num_ranks(); ++r) {
    track(rt_->sim().spawn(util::format("chkd-r{}", r), [this, r](des::Process& self) {
      daemon_main(r, self);
    }));
  }
}

void CoordinatedProtocol::schedule_next_round(des::Duration delay) {
  const std::uint32_t next_epoch = rt_->store().committed_epoch() + 1;
  if (cfg_.rounds != 0 && rt_->store().committed_epoch() >= cfg_.rounds) return;
  track_timer(rt_->sim().schedule_after(delay, [this, next_epoch] { begin_round(next_epoch); }));
}

void CoordinatedProtocol::begin_round(std::uint32_t epoch) {
  if (round_in_progress_) return;
  round_in_progress_ = true;
  round_epoch_ = epoch;
  round_view_ = current_view();
  acked_.clear();
  if (auto* tracer = rt_->tracer()) {
    tracer->instant(obs::EventKind::kRoundBegin, static_cast<std::uint16_t>(coordinator()),
                    rt_->sim().now().to_nanos(), 0, epoch);
  }
  for (Rank r = 0; r < rt_->num_ranks(); ++r) {
    rt_->comm().send_control(
        coordinator(), r,
        ControlMsg{ControlKind::kCkptRequest, coordinator(), epoch, 0, round_view_});
  }
  if (cfg_.scheme == Scheme::kCoordNBMS) {
    // Inject the stagger token at the head of the virtual ring (the
    // paper's token protocol; safe here because background writers never
    // block the applications).
    rt_->comm().send_control(
        coordinator(), 0,
        ControlMsg{ControlKind::kToken, coordinator(), epoch, 0, round_view_});
  }
  if (cfg_.round_timeout.to_nanos() > 0) {
    round_watchdog_.cancel();
    round_watchdog_ = rt_->sim().schedule_after(
        cfg_.round_timeout, [this, epoch] { on_round_timeout(epoch); });
    track_timer(round_watchdog_);
  }
  if (cfg_.scheme == Scheme::kCoordNBMS && cfg_.token_timeout.to_nanos() > 0) {
    token_pos_ = 0;
    token_progress_ = false;
    ring_done_ = false;
    token_watchdog_.cancel();
    arm_token_watchdog();
  }
}

void CoordinatedProtocol::on_round_timeout(std::uint32_t epoch) {
  if (!round_in_progress_ || round_epoch_ != epoch) return;
  note_round_abort(epoch);
  token_watchdog_.cancel();
  round_in_progress_ = false;
  if (const auto held = grants_.held()) {
    // A lost Coord_NBS write grant leaves its holder's application blocked
    // in the acquire forever; re-issue it. Grants are lost even over the
    // transport: under membership the down gate drops a grant still in
    // flight when its sender, the arbiter, crashes. If the original did
    // arrive, the holder's grant_outstanding check drops this copy.
    send_grant(coordinator(), *held);
  }
  begin_round(epoch + 1);
}

void CoordinatedProtocol::note_round_abort(std::uint32_t epoch) {
  ++stats_.aborted_rounds;
  ring_abort_floor_ = std::max(ring_abort_floor_, epoch);
  if (auto* iobs = rt_->store().observer()) iobs->on_round_abort(epoch);
  if (auto* tracer = rt_->tracer()) {
    tracer->instant(obs::EventKind::kRoundAbort,
                    static_cast<std::uint16_t>(coordinator()),
                    rt_->sim().now().to_nanos(), 0, epoch);
  }
}

void CoordinatedProtocol::arm_token_watchdog() {
  token_watchdog_ = rt_->sim().schedule_after(
      cfg_.token_timeout,
      [this, epoch = round_epoch_] { on_token_timeout(epoch); });
  track_timer(token_watchdog_);
}

void CoordinatedProtocol::on_token_timeout(std::uint32_t epoch) {
  if (!round_in_progress_ || round_epoch_ != epoch || ring_done_) return;
  if (!token_progress_) {
    // A whole period with no beacon: the token (or its carrier's beacon)
    // is held back on a lossy link by retransmission backoff, or went down
    // with a crashed sender. Re-issue it toward the next expected holder;
    // a rank that does receive the original drops the duplicate.
    ++stats_.tokens_regenerated;
    if (auto* iobs = rt_->store().observer()) iobs->on_token_regenerated(epoch);
    if (auto* tracer = rt_->tracer()) {
      tracer->instant(obs::EventKind::kTokenRegen,
                      static_cast<std::uint16_t>(coordinator()),
                      rt_->sim().now().to_nanos(), 0,
                      static_cast<std::uint32_t>(token_pos_));
    }
    rt_->comm().send_control(
        coordinator(), token_pos_,
        ControlMsg{ControlKind::kToken, coordinator(), epoch, 0});
  }
  token_progress_ = false;
  arm_token_watchdog();
}

void CoordinatedProtocol::on_send(Rank src, Envelope& env) {
  env.epoch = agents_[src]->epoch;
}

void CoordinatedProtocol::on_arrival(Rank dst, const Envelope& env) {
  // A message from the previous epoch arriving after our cut is in-transit
  // state of the consistent cut: log it for replay on recovery.
  Agent& agent = *agents_[dst];
  if (agent.logging && env.epoch < agent.epoch) agent.log.messages.push_back(env);
}

void CoordinatedProtocol::on_deliver(des::Process&, Rank, const Envelope&) {
  // Nothing to do: consuming a post-cut message before our own cut makes
  // it an orphan of the recovery line, which the restored channel sequence
  // state neutralizes by dropping the re-sent duplicate (see endpoint.hpp).
}

void CoordinatedProtocol::daemon_main(Rank r, des::Process& self) {
  for (;;) {
    const ControlMsg msg = rt_->comm().endpoint(r).recv_control(self);
    handle_control(r, self, msg);
  }
}

void CoordinatedProtocol::handle_control(Rank r, des::Process& self, const ControlMsg& msg) {
  Agent& agent = *agents_[r];
  switch (msg.kind) {
    case ControlKind::kCkptRequest:
      agent.pending_epoch = std::max(agent.pending_epoch, msg.epoch);
      // If the application already finished, any instant is a safe point;
      // the daemon captures the final state on its behalf.
      if (rt_->rank(r).app_process == nullptr && agent.pending_epoch > agent.epoch) {
        do_local_checkpoint(self, r, agent.pending_epoch);
      }
      break;
    case ControlKind::kChannelMarker:
      // A marker proves the peer checkpointed `epoch`; make sure we will
      // catch up at our next safe point even if the request is still in
      // flight.
      agent.pending_epoch = std::max(agent.pending_epoch, msg.epoch);
      if (rt_->rank(r).app_process == nullptr && agent.pending_epoch > agent.epoch) {
        do_local_checkpoint(self, r, agent.pending_epoch);
      }
      agent.markers[msg.epoch].insert(msg.src);
      try_finish(r, self);
      break;
    case ControlKind::kToken:
      // Duplicate suppression — the watchdogs re-issue possibly-lost tokens
      // (the round watchdog a Coord_NBS grant, the token watchdog a ring
      // token), and the original may still arrive; honouring a duplicate
      // makes the stagger semaphore creep and staggering silently degrade.
      // Coord_NBS grants answer an explicit request (exact test);
      // Coord_NBMS ring tokens carry strictly increasing epochs at any
      // given rank (exact floor test).
      if (cfg_.scheme == Scheme::kCoordNBS) {
        if (!agent.grant_outstanding) break;
        agent.grant_outstanding = false;
      } else {
        if (msg.epoch <= agent.last_token_epoch) break;
        // An aborted round's token may still be in transit when the
        // re-initiated round injects a fresh one at the ring head.
        // Honouring it would put two live tokens in the ring — and the
        // writer it admits would forward it relabelled with its own (live)
        // epoch. Dead rounds' tokens die at their next hop.
        if (msg.epoch <= ring_abort_floor_) break;
        agent.last_token_epoch = msg.epoch;
        agent.ring_tokens.push_back(msg.epoch);
      }
      if (auto* tracer = rt_->tracer()) {
        tracer->instant(obs::EventKind::kTokenPass, static_cast<std::uint16_t>(r),
                        rt_->sim().now().to_nanos(), 0, msg.epoch);
      }
      agent.token.release();
      break;
    case ControlKind::kTokenBeacon:
      // Coord_NBMS ring progress report for the token watchdog.
      if (r != coordinator()) break;
      if (!round_in_progress_ || msg.epoch != round_epoch_) break;
      token_progress_ = true;
      if (static_cast<std::size_t>(msg.src) + 1 >= rt_->num_ranks()) {
        ring_done_ = true;
      } else if (msg.src + 1 > token_pos_) {
        token_pos_ = msg.src + 1;
      }
      break;
    case ControlKind::kCkptAck: {
      if (r != coordinator()) break;
      if (!round_in_progress_ || msg.epoch != round_epoch_) break;
      // Membership fencing: an ack from outside the round's view (an old
      // round's straggler, or a rank evicted since the round began) must
      // never count toward this commit.
      if (membership_ != nullptr &&
          (msg.view != round_view_ || !membership_->is_member(msg.src))) {
        break;
      }
      acked_.insert(msg.src);
      if (acked_.size() == rt_->num_ranks()) {
        round_watchdog_.cancel();
        token_watchdog_.cancel();
        // The view moved since this round began: its membership no longer
        // backs the commit. Abort — the established-view callback normally
        // gets here first, so this is the last line of defence.
        if (membership_ != nullptr && membership_->view() != round_view_) {
          note_round_abort(round_epoch_);
          round_in_progress_ = false;
          begin_round(round_epoch_ + 1);
          break;
        }
        // Phase 2: make the global checkpoint permanent, then tell everyone.
        if (rt_->store().write_commit_blocking(self, coordinator(), round_epoch_) !=
            xplorer::IoStatus::kOk) {
          // The commit record never achieved durability: epoch e stays
          // tentative (the committed epoch did not advance). Abort the
          // round and re-initiate at a higher epoch — the same path the
          // round watchdog takes.
          ++stats_.commit_write_failures;
          note_round_abort(round_epoch_);
          round_in_progress_ = false;
          begin_round(round_epoch_ + 1);
          break;
        }
        ++stats_.committed_rounds;
        if (auto* tracer = rt_->tracer()) {
          tracer->instant(obs::EventKind::kCommit, static_cast<std::uint16_t>(coordinator()),
                          rt_->sim().now().to_nanos(), 0, round_epoch_);
        }
        for (Rank q = 0; q < rt_->num_ranks(); ++q) {
          rt_->comm().send_control(coordinator(), q,
                                   ControlMsg{ControlKind::kCommit, coordinator(),
                                              round_epoch_, 0, round_view_});
        }
        round_in_progress_ = false;
        schedule_next_round(cfg_.interval);
      }
      break;
    }
    case ControlKind::kCommit:
      handle_commit(r, msg.epoch);
      break;
    case ControlKind::kTokenRequest:
    case ControlKind::kTokenRelease:
      // Coord_NBS: FIFO write-grant arbitration at the coordinator. A
      // fixed ring order would deadlock here — a rank blocked in its
      // (staggered) write stops sending, which can prevent the ring head
      // from ever reaching its safe point.
      if (r != coordinator()) break;
      if (const auto grant = grants_.handle(msg)) send_grant(r, *grant);
      break;
    default:
      // Membership kinds are routed to the membership sink by the comm
      // system and never reach a protocol daemon's mailbox.
      break;
  }
}

void CoordinatedProtocol::safe_point(Rank r, des::Process& self) {
  Agent& agent = *agents_[r];
  if (agent.pending_epoch > agent.epoch) do_local_checkpoint(self, r, agent.pending_epoch);
}

void CoordinatedProtocol::do_local_checkpoint(des::Process& carrier, Rank r,
                                              std::uint32_t epoch) {
  Agent& agent = *agents_[r];
  if (agent.epoch >= epoch) return;
  agent.epoch = epoch;  // from here on, sends are tagged `epoch`

  Endpoint& endpoint = rt_->comm().endpoint(r);
  RankRuntime& rank = rt_->rank(r);

  CheckpointImage image;
  image.rank = r;
  image.index = epoch;
  image.captured_at_ns = rt_->sim().now().to_nanos();
  std::vector<std::byte> full_blob = (rank.ready && !cfg_.ablate_discard_state)
                                         ? rank.registry.capture()
                                         : std::vector<std::byte>{};
  // Incremental mode: epochs off the full-image schedule store only the
  // chunks dirtied since the previous checkpoint.
  bool is_delta = false;
  if (cfg_.incremental && !full_blob.empty() && !is_full_epoch(epoch) &&
      agent.tracker.has_baseline()) {
    if (auto delta = agent.tracker.capture_delta(full_blob)) {
      image.state = delta->serialize();
      image.delta_base = agent.last_ckpt_epoch;
      is_delta = true;
    }
  }
  if (!is_delta) {
    agent.tracker.rebase(full_blob);
    image.state = std::move(full_blob);
    image.delta_base = 0;
  }
  agent.last_ckpt_epoch = epoch;
  image.seq = endpoint.seq_snapshot();
  // Channel state, part 1: pre-cut messages that arrived but were not yet
  // consumed. Post-cut (epoch >= e) messages are excluded — their senders
  // regenerate them after a rollback. Part 2 (late messages) accumulates
  // via on_arrival until the markers close the channels.
  agent.log.messages = endpoint.pending_snapshot();
  std::erase_if(agent.log.messages,
                [epoch](const Envelope& env) { return env.epoch >= epoch; });
  agent.logging = true;
  agent.durable = false;
  agent.finishing = false;

  // Tell every peer that no more pre-`epoch` messages will come from us.
  for (Rank q = 0; q < rt_->num_ranks(); ++q) {
    if (q != r) {
      rt_->comm().send_control(r, q, ControlMsg{ControlKind::kChannelMarker, r, epoch, 0});
    }
  }
  save_image(carrier, r, std::move(image), is_delta);
}

std::uint32_t CoordinatedProtocol::acquire_write(Rank r, des::Process& writer,
                                                 std::uint32_t epoch) {
  Agent& agent = *agents_[r];
  if (cfg_.scheme == Scheme::kCoordNBS) {
    // Staggered write-through: a FIFO grant serializes the *blocking*
    // writes — which is why the paper found staggering useless without
    // memory buffering: the stalls simply queue up instead of overlapping.
    agent.grant_outstanding = true;
    rt_->comm().send_control(r, coordinator(),
                             ControlMsg{ControlKind::kTokenRequest, r, epoch, 0});
    agent.token.acquire(writer);
  } else if (cfg_.scheme == Scheme::kCoordNBMS) {
    agent.token.acquire(writer);
    // The epoch of the token whose permit admits this writer. Usually the
    // writer's own image index, but a straggler from a coalesced round may
    // ride a newer token — the ring's identity belongs to the token, so
    // that is the epoch this writer must forward.
    if (!agent.ring_tokens.empty()) {
      const std::uint32_t ring_epoch = agent.ring_tokens.front();
      agent.ring_tokens.pop_front();
      return ring_epoch;
    }
  }
  return epoch;
}

void CoordinatedProtocol::release_write(Rank r, std::uint32_t tag) {
  if (cfg_.scheme == Scheme::kCoordNBS) {
    rt_->comm().send_control(r, coordinator(),
                             ControlMsg{ControlKind::kTokenRelease, r, tag, 0});
  } else if (cfg_.scheme == Scheme::kCoordNBMS) {
    // The stagger ring keeps moving even past a failed write — the token
    // arbitrates pipeline occupancy, not success.
    if (r + 1 < rt_->num_ranks()) {
      rt_->comm().send_control(r, r + 1, ControlMsg{ControlKind::kToken, r, tag, 0});
    }
    if (cfg_.token_timeout.to_nanos() > 0) {
      rt_->comm().send_control(r, coordinator(),
                               ControlMsg{ControlKind::kTokenBeacon, r, tag, 0});
    }
  }
}

void CoordinatedProtocol::image_written(Rank r, des::Process& writer, xplorer::IoStatus status,
                                        WriteContext context, CheckpointImage&) {
  // A terminally failed image leaves the rank never durable: it never acks,
  // and the round watchdog aborts the round — the retry at the next epoch
  // re-captures everything.
  if (status != xplorer::IoStatus::kOk) return;
  agents_[r]->durable = true;
  try_finish(r, writer, context);
}

std::string CoordinatedProtocol::writer_name(Rank r, std::uint32_t epoch) const {
  return util::format("ckwr-r{}-e{}", r, epoch);
}

void CoordinatedProtocol::send_grant(Rank from, const GrantArbiter::Grant& grant) {
  rt_->comm().send_control(from, grant.holder,
                           ControlMsg{ControlKind::kToken, from, grant.epoch, 0});
}

void CoordinatedProtocol::try_finish(Rank r, des::Process& proc, WriteContext log_ctx) {
  Agent& agent = *agents_[r];
  // A fenced/evicted rank never contributes an ack: its cut may predate
  // the view the round now runs under.
  if (membership_ != nullptr && !membership_->is_member(r)) return;
  if (!agent.logging || agent.finishing || !agent.durable) return;
  const std::size_t needed = rt_->num_ranks() - 1;
  std::size_t have = 0;
  if (const auto it = agent.markers.find(agent.epoch); it != agent.markers.end()) {
    have = it->second.size();
  }
  if (have != needed) return;
  agent.finishing = true;
  agent.logging = false;
  if (!agent.log.messages.empty()) {
    if (rt_->store().write_log_blocking(proc, r, agent.epoch, agent.log, log_ctx) !=
        xplorer::IoStatus::kOk) {
      // Without a durable channel log the cut is not consistent; withhold
      // the ack so the round watchdog aborts and re-initiates.
      ++stats_.ckpt_write_failures;
      agent.finishing = false;
      agent.logging = true;
      return;
    }
  }
  rt_->comm().send_control(
      r, coordinator(),
      ControlMsg{ControlKind::kCkptAck, r, agent.epoch, 0, current_view()});
}

void CoordinatedProtocol::handle_commit(Rank r, std::uint32_t epoch) {
  // Bounded storage footprint: everything older than the delta chains of
  // the newest keep_depth committed generations is obsolete. Without
  // incremental mode a chain is the single image itself.
  Agent& agent = *agents_[r];
  if (!agent.commit_history.empty() && agent.commit_history.back() >= epoch) {
    // A commit for an epoch already seen. Still reachable with the
    // transport on: a view change that lands while the coordinator's daemon
    // is blocked in the commit write re-initiates the round at e + 1, and
    // the daemon then broadcasts Commit(e + 1), which the re-run round can
    // commit a second time.
    return;
  }
  agent.commit_history.push_back(epoch);
  // Prune only when the just-committed generation verifies here: a rotted
  // newest image must not retire the older generation recovery would fall
  // back to. (The image may legitimately be a delta; verification checks
  // the blob checksum, not the chain.)
  if (!rt_->store().verify_image(r, epoch)) return;
  const std::size_t keep = std::max<std::uint32_t>(1, cfg_.keep_depth);
  const std::size_t have = agent.commit_history.size();
  // Retain the newest `keep` committed generations with their delta
  // chains; everything else at or below the new commit goes — including
  // tentative images from aborted rounds, which must never masquerade as
  // a fallback generation (their channel logs may be incomplete).
  std::set<std::uint32_t> retained;
  for (std::size_t i = have - std::min(keep, have); i < have; ++i) {
    std::uint32_t link = agent.commit_history[i];
    retained.insert(link);
    if (cfg_.incremental) {
      while (link != 0 && rt_->store().has_image(r, link)) {
        const auto image = rt_->store().try_peek_image(r, link);
        if (!image) return;  // corrupt chain element: keep everything for now
        if (image->delta_base == 0) break;
        link = image->delta_base;
        retained.insert(link);
      }
    }
  }
  for (std::uint32_t index : rt_->store().saved_indices(r)) {
    if (index <= epoch && !retained.contains(index)) {
      rt_->store().erase(r, index);
      ++stats_.gc_reclaimed;
    }
  }
}

RecoveryLine CoordinatedProtocol::recovery_line() const {
  // The newest epoch <= the committed epoch at which EVERY rank still
  // holds an image. Fault-free that is the committed epoch itself;
  // verified recovery may have retired a rotted committed image, in which
  // case the previous retained generation (keep_depth >= 2) is the newest
  // cut that can still be restored. Every committed epoch is a consistent
  // cut (images + channel logs were all durable before its commit), so
  // restoring an older one is safe — just more rollback.
  RecoveryLine line;
  const std::uint32_t committed = rt_->store().committed_epoch();
  std::uint32_t epoch = 0;
  if (committed != 0) {
    std::vector<std::uint32_t> common;
    for (std::uint32_t index : rt_->store().saved_indices(0)) {
      if (index <= committed) common.push_back(index);
    }
    for (Rank r = 1; r < rt_->num_ranks() && !common.empty(); ++r) {
      const auto saved = rt_->store().saved_indices(r);
      std::erase_if(common, [&saved](std::uint32_t index) {
        return std::find(saved.begin(), saved.end(), index) == saved.end();
      });
    }
    if (!common.empty()) epoch = common.back();
  }
  line.index.assign(rt_->num_ranks(), epoch);
  return line;
}

void CoordinatedProtocol::prepare_recovery(const RecoveryLine& line) {
  for (Rank r = 0; r < rt_->num_ranks(); ++r) {
    Agent& agent = *agents_[r];
    agent.epoch = line.index[r];
    agent.pending_epoch = line.index[r];
    agent.logging = false;
    agent.durable = false;
    agent.finishing = false;
    agent.log.messages.clear();
    agent.markers.clear();
    while (agent.token.try_acquire()) {}
    agent.ring_tokens.clear();  // permits drained, their identities with them
    agent.tracker.reset();  // next capture is forced full
    agent.last_ckpt_epoch = line.index[r];
    // Post-recovery rounds run at epochs above the line, so re-seeding the
    // dedup floor here keeps their tokens acceptable.
    agent.last_token_epoch = line.index[r];
    agent.grant_outstanding = false;
    // Commits above the line no longer exist on storage (a fallback line
    // means the newer generation was discarded as unrecoverable).
    std::erase_if(agent.commit_history,
                  [&line, r](std::uint32_t e) { return e > line.index[r]; });
  }
  acked_.clear();
  round_in_progress_ = false;
  grants_.reset();
  round_watchdog_.cancel();
  token_watchdog_.cancel();
  ring_done_ = true;
  // Post-recovery rounds restart just above the line — aborts of the dead
  // incarnation must not swallow their tokens (mirrors the monitor reset).
  ring_abort_floor_ = 0;
}

void CoordinatedProtocol::resume_after_recovery() {
  install_safe_points();
  spawn_daemons();
  schedule_next_round(cfg_.interval);
}

}  // namespace chk::chklib
