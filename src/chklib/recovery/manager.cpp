#include "chklib/recovery/manager.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "chklib/ckpt/incremental.hpp"

#include "util/format.hpp"

namespace chk::chklib {

void RecoveryManager::inject_failure_at(des::TimePoint when, Rank rank) {
  rt_->sim().schedule_at(when, [this, rank] {
    if (rt_->apps_done()) return;
    // Timed failures are crashes like any other: with a membership service
    // installed the victim goes silent and the cluster must detect it.
    if (interceptor_ && interceptor_(rank)) return;
    on_failure(rank);
  });
}

void RecoveryManager::fail_now(Rank rank) {
  if (rt_->apps_done()) return;
  if (rt_->sim().current() != nullptr) {
    // Called from a process body (e.g. off a storage write hook fired inside
    // write_blocking). Both the interceptor (it may kill the caller's own
    // rank) and on_failure (it kills every application process — including,
    // possibly, the caller) must run in kernel context, so defer one event.
    rt_->sim().schedule_now([this, rank] {
      if (rt_->apps_done()) return;
      if (interceptor_ && interceptor_(rank)) return;
      on_failure(rank);
    });
    return;
  }
  if (interceptor_ && interceptor_(rank)) return;
  on_failure(rank);
}

void RecoveryManager::recover_now(Rank rank) {
  if (rt_->apps_done()) return;
  if (rt_->sim().current() != nullptr) {
    rt_->sim().schedule_now([this, rank] {
      if (rt_->apps_done()) return;
      on_failure(rank);
    });
    return;
  }
  on_failure(rank);
}

void RecoveryManager::add_observer(RecoveryObserver* observer) {
  if (observer == nullptr) return;
  if (std::find(observers_.begin(), observers_.end(), observer) != observers_.end()) {
    return;
  }
  observers_.push_back(observer);
}

void RecoveryManager::remove_observer(RecoveryObserver* observer) noexcept {
  observers_.erase(std::remove(observers_.begin(), observers_.end(), observer),
                   observers_.end());
}

void RecoveryManager::abort_active_recovery() {
  ActiveRecovery aborted = std::move(*active_);
  active_.reset();
  // The crash takes the loader processes down with everything else; a loader
  // that never started never runs. None of them can reach the completion
  // block, so the coalesced recovery below owns all shared state.
  for (des::Process* loader : aborted.loaders) {
    if (!loader->finished()) rt_->sim().kill(*loader);
  }
  RecoveryReport& report = *aborted.report;
  report.interrupted = true;
  report.recovery_latency = rt_->sim().now() - report.failed_at;
  report.logged_sends.clear();  // replay scratch; contract: empty when published
  reports_.push_back(report);
}

void RecoveryManager::on_failure(Rank failed) {
  des::Simulator& sim = rt_->sim();
  if (auto* tracer = rt_->tracer()) {
    tracer->instant(obs::EventKind::kFailure, static_cast<std::uint16_t>(failed),
                    sim.now().to_nanos());
  }

  // Overlapping failure: abort the in-flight restore first so the two
  // recoveries never interleave over shared rank/store/endpoint state.
  if (active_) abort_active_recovery();

  RecoveryReport report;
  report.failed_at = sim.now();
  report.failed_rank = failed;
  report.mid_write = rt_->store().storage().inflight_writes() > 0;

  // Latest saved index per rank, for the domino-depth metric (before
  // planning erases post-line images).
  std::vector<std::uint32_t> newest(rt_->num_ranks(), 0);
  for (Rank r = 0; r < rt_->num_ranks(); ++r) {
    const auto saved = rt_->store().saved_indices(r);
    if (!saved.empty()) newest[r] = saved.back();
  }

  // 1. The whole application goes down: every in-flight message dies with
  //    it, every process stops, and stable-storage writes still in the
  //    pipeline never become durable (no partial/stale image may surface
  //    after the crash, nor count as bytes written).
  rt_->comm().bump_incarnation();
  rt_->kill_apps();
  protocol_->halt();
  rt_->comm().flush_all();
  report.inflight_discarded = rt_->store().storage().discard_inflight_writes();

  // 2+3. Plan the rollback and spawn the loaders. Re-planned from scratch
  //      if a loader finds its generation unreadable.
  active_.emplace();
  active_->report = std::make_shared<RecoveryReport>(std::move(report));
  active_->newest = std::move(newest);
  plan_and_spawn();
}

void RecoveryManager::plan_and_spawn() {
  des::Simulator& sim = rt_->sim();
  auto shared_report = active_->report;
  RecoveryReport& report = *shared_report;

  // Plan the rollback (metadata only, free) against what stable storage
  // still holds — on a re-plan attempt the discarded generation is gone and
  // the line falls back to the newest surviving consistent cut.
  report.line = protocol_->recovery_line();
  report.rolled_to_origin = report.line.at_origin();
  report.domino_depth.assign(rt_->num_ranks(), 0);
  for (Rank r = 0; r < rt_->num_ranks(); ++r) {
    report.domino_depth[r] = domino_depth(active_->newest[r], report.line.index[r]);
  }
  report.rollback_distance.assign(rt_->num_ranks(), des::Duration());
  // Checkpoints above the line are garbage: tentative (uncommitted) images,
  // or rolled-back intervals the re-execution regenerates.
  for (Rank r = 0; r < rt_->num_ranks(); ++r) {
    for (std::uint32_t index : rt_->store().saved_indices(r)) {
      if (index > report.line.index[r]) rt_->store().erase(r, index);
    }
  }
  protocol_->prepare_recovery(report.line);
  if (active_->attempt == 0) {
    for (RecoveryObserver* obs : observers_) obs->on_recovery_begin(report.failed_rank);
  }

  // Restore: one loader process per rank issues the timed stable-storage
  // reads (they contend at the disk exactly like the writes did).
  active_->pending = std::make_shared<std::size_t>(rt_->num_ranks());
  active_->loaders.clear();
  auto pending = active_->pending;
  const std::uint32_t attempt = active_->attempt;
  for (Rank r = 0; r < rt_->num_ranks(); ++r) {
    des::Process& loader = sim.spawn(
        util::format("recover-r{}", r),
        [this, r, pending, shared_report, attempt](des::Process& self) {
      RankRuntime& rank = rt_->rank(r);
      const std::uint32_t index = shared_report->line.index[r];
      des::TimePoint restored_from = des::TimePoint::origin();
      if (index == 0) {
        // Initial state: nothing to read; the body reinitializes.
        rank.pending_restore.reset();
        rank.fresh = true;
      } else {
        std::uint64_t blob_bytes = 0;
        auto loaded = rt_->store().try_load_image_blocking(self, r, index, &blob_bytes);
        shared_report->bytes_read += blob_bytes;
        if (!loaded) {
          replan_after_bad_generation(shared_report, attempt, r, {index});
          return;
        }
        CheckpointImage image = std::move(*loaded);
        restored_from = des::TimePoint::from_nanos(image.captured_at_ns);
        std::vector<std::byte> state;
        if (image.delta_base == 0) {
          state = std::move(image.state);
        } else {
          // Incremental chain: read back to the last full image (each read
          // is timed and contends at the disk), then apply the deltas
          // oldest-first. These chain reads are the re-read cost of
          // incremental checkpointing — counted separately as bytes_reread.
          std::vector<CheckpointImage> chain;
          chain.push_back(std::move(image));
          while (chain.back().delta_base != 0) {
            const std::uint32_t pred_index = chain.back().delta_base;
            auto pred =
                rt_->store().try_load_image_blocking(self, r, pred_index, &blob_bytes);
            shared_report->bytes_read += blob_bytes;
            shared_report->bytes_reread += blob_bytes;
            if (!pred) {
              // The whole generation is unusable without its chain: discard
              // the line image together with the unreadable predecessor.
              replan_after_bad_generation(shared_report, attempt, r, {index, pred_index});
              return;
            }
            chain.push_back(std::move(*pred));
          }
          state = std::move(chain.back().state);
          for (auto it = chain.rbegin() + 1; it != chain.rend(); ++it) {
            StateDelta::deserialize(it->state).apply(state);
          }
          image = std::move(chain.front());
        }
        rank.pending_restore = std::move(state);
        rank.fresh = false;
        // Channel counters at the cut: re-sent post-cut messages keep their
        // original sequence numbers and consumed duplicates are dropped.
        rt_->comm().endpoint(r).restore_seq(image.seq);
        // Pessimistic message logging (independent + logging): stash the
        // line's sent payloads; lost ones are replayed once every rank's
        // sequence state is restored (see the completion block below).
        if (!image.sent_log.messages.empty()) {
          auto& logged = shared_report->logged_sends;
          logged.insert(logged.end(),
                        std::make_move_iterator(image.sent_log.messages.begin()),
                        std::make_move_iterator(image.sent_log.messages.end()));
        }
        // Pre-line images also carry payload logs that may be needed
        // (earlier intervals whose receives the line forgot). Collect
        // them from metadata; their bytes were paid for when written.
        // A rotted pre-line image contributes nothing — the line planner
        // already rolled the sender below any unreadable log it may need.
        for (std::uint32_t older : rt_->store().saved_indices(r)) {
          if (older >= index) continue;
          const auto meta = rt_->store().try_peek_image(r, older);
          if (!meta) continue;
          auto& logged = shared_report->logged_sends;
          logged.insert(logged.end(), meta->sent_log.messages.begin(),
                        meta->sent_log.messages.end());
        }
        // Coordinated: replay the in-transit messages of the cut.
        bool log_failed = false;
        if (auto log = rt_->store().try_load_log_blocking(self, r, index, &log_failed)) {
          shared_report->channel_messages_replayed += log->messages.size();
          rt_->comm().endpoint(r).reinject(std::move(log->messages));
        } else if (log_failed) {
          // A cut whose channel log cannot be restored is not executable.
          replan_after_bad_generation(shared_report, attempt, r, {index});
          return;
        }
      }
      shared_report->rollback_distance[r] = shared_report->failed_at - restored_from;
      const std::size_t remaining = --*pending;
      for (RecoveryObserver* obs : observers_) obs->on_restore_progress(r, remaining);
      if (remaining == 0) finish_recovery(shared_report);
    });
    active_->loaders.push_back(&loader);
  }
}

void RecoveryManager::replan_after_bad_generation(std::shared_ptr<RecoveryReport> report,
                                                  std::uint32_t attempt, Rank r,
                                                  std::vector<std::uint32_t> bad) {
  // Called from a loader's own context: defer one event so the re-plan can
  // kill the sibling loaders (and let the caller finish) in kernel context
  // without unwinding anyone mid-body.
  rt_->sim().schedule_now([this, report = std::move(report), attempt, r,
                           bad = std::move(bad)] {
    // Stale trigger: a sibling loader already re-planned this attempt, or a
    // new failure superseded the whole recovery.
    if (!active_ || active_->report != report || active_->attempt != attempt) return;
    for (des::Process* loader : active_->loaders) {
      if (!loader->finished()) rt_->sim().kill(*loader);
    }
    active_->loaders.clear();
    for (std::uint32_t index : bad) rt_->store().erase(r, index);
    ++report->generations_skipped;
    // Partial restore state from this attempt is rolled back: reinjected
    // replays and restored sequence counters are flushed, the replay
    // scratch restarts empty. bytes_read keeps accumulating — the failed
    // reads did real, timed work.
    report->logged_sends.clear();
    report->channel_messages_replayed = 0;
    rt_->comm().flush_all();
    ++active_->attempt;
    plan_and_spawn();
  });
}

void RecoveryManager::finish_recovery(const std::shared_ptr<RecoveryReport>& shared_report) {
  // 4a. Message-log replay: a logged pre-line send whose consumption
  // is not part of the receiver's restored state was lost with the
  // crash (its sender will not re-send it); re-inject it. This is
  // what makes the orphan-free line executable.
  if (!shared_report->logged_sends.empty()) {
    std::vector<std::vector<Envelope>> by_dst(rt_->num_ranks());
    for (Envelope& env : shared_report->logged_sends) {
      Endpoint& dst = rt_->comm().endpoint(env.dst);
      if (!dst.already_consumed(env.src, env.seq)) {
        by_dst[env.dst].push_back(std::move(env));
      }
    }
    for (Rank q = 0; q < rt_->num_ranks(); ++q) {
      if (by_dst[q].empty()) continue;
      // FIFO per channel: replay in sequence order.
      std::sort(by_dst[q].begin(), by_dst[q].end(),
                [](const Envelope& a, const Envelope& b) {
                  return a.src != b.src ? a.src < b.src : a.seq < b.seq;
                });
      shared_report->channel_messages_replayed += by_dst[q].size();
      rt_->comm().endpoint(q).reinject(std::move(by_dst[q]));
    }
  }
  // The replay scratch must not leak into the published report —
  // "empty in finished reports" is part of its contract (and the
  // moved-from envelopes above would be garbage anyway).
  shared_report->logged_sends.clear();
  // 4b. Everything restored: restart the protocol and the application.
  shared_report->recovery_latency = rt_->sim().now() - shared_report->failed_at;
  active_.reset();
  protocol_->resume_after_recovery();
  rt_->restart_apps();
  reports_.push_back(*shared_report);
  if (auto* tracer = rt_->tracer()) {
    tracer->instant(obs::EventKind::kRecoveryDone,
                    static_cast<std::uint16_t>(shared_report->failed_rank),
                    rt_->sim().now().to_nanos());
  }
  for (RecoveryObserver* obs : observers_) obs->on_recovery_end(reports_.back());
}

}  // namespace chk::chklib
