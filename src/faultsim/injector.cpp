#include "faultsim/injector.hpp"

#include <algorithm>
#include <cmath>


namespace chk::faultsim {

namespace {

// Child-stream tag for the injector's RNG ('FAIL' spelled sideways); the
// plan's stream index forks once more below it.
constexpr std::uint64_t kInjectorRngTag = 0xFA11;

// Where inside the write's uncontended service time the targeted mid-write
// strike lands; the observed write takes at least that long, so the strike
// is guaranteed to catch the write in flight.
constexpr double kMidwriteFrac = 0.5;

des::Duration duration_from_seconds(double seconds) {
  constexpr double kMaxNs = 9.0e18;  // stay clear of int64 overflow
  const double ns = std::min(seconds * 1e9, kMaxNs);
  return des::Duration::nanos(static_cast<std::int64_t>(ns));
}

}  // namespace

FaultInjector::FaultInjector(chklib::Runtime& runtime, chklib::RecoveryManager& recovery,
                             FaultPlan plan)
    : rt_(&runtime),
      recovery_(&recovery),
      plan_(plan),
      // chklint:allow(unique-fork-tags): plan.stream is a per-run campaign
      // index, not a domain tag — the literal kInjectorRngTag parent already
      // decorrelates this family from every other fault stream.
      rng_(runtime.fork_rng(kInjectorRngTag).fork(plan.stream)) {}

FaultInjector::~FaultInjector() {
  // Detach the hooks: the runtime may outlive the injector.
  rt_->store().storage().set_write_hook(nullptr);
  recovery_->remove_observer(this);
}

void FaultInjector::arm() {
  if (plan_.max_failures == 0) return;
  recovery_->add_observer(this);
  if (plan_.ensure_midwrite) {
    rt_->store().storage().set_write_hook(
        [this](chklib::Rank from, const std::string& key, std::size_t bytes) {
          // Target checkpoint *image* writes; the commit record (a few
          // bytes under "ckpt/commit") makes for a near-degenerate window.
          if (!key.starts_with("ckpt/p") || bytes == 0) return;
          const bool restorable = recovery_->restore_would_read();
          if (restorable) seen_restorable_ = true;
          if (midwrite_done_ || midwrite_armed_ || exhausted()) return;
          // Prefer a write whose failure rolls back to a non-origin line:
          // that recovery has timed reads, which is both the interesting
          // mid-write case and the window the during-recovery strike needs.
          // If the line never leaves the origin (independent domino), stop
          // waiting after 2*num_ranks gate misses.
          if (!restorable &&
              ++origin_image_writes_ <= 2 * rt_->num_ranks()) {
            return;
          }
          midwrite_armed_ = true;
          const auto pure = rt_->store().storage().pure_write_time(from, bytes);
          rt_->sim().schedule_after(pure.scaled(kMidwriteFrac), [this, from] {
            midwrite_armed_ = false;
            strike(from, Require::kMidWrite);
          });
        });
  }
  schedule_arrival();
}

void FaultInjector::schedule_arrival() {
  // Draw gap and victim up front so the stream consumption per arrival is
  // fixed regardless of what the strike finds.
  const double gap_s = rng_.exponential(plan_.mtbf.to_seconds());
  const chklib::Rank victim = draw_victim();
  rt_->sim().schedule_after(duration_from_seconds(gap_s), [this, victim] {
    strike(victim, Require::kNothing);
    if (!exhausted() && !rt_->apps_done()) schedule_arrival();
  });
}

void FaultInjector::on_recovery_begin(chklib::Rank /*failed*/) {
  if (!plan_.ensure_during_recovery) return;
  if (overlap_done_ || overlap_armed_ || exhausted()) return;
  // A restore with timed reads gives on_restore_progress a guaranteed
  // mid-restore window below — the richer scenario; leave it to that path.
  if (recovery_->restore_would_read()) return;
  // Origin-line restore: it completes instantaneously, so the only way to
  // overlap it is to strike before its loaders run. Do so only when the run
  // has never shown a real restore window (or keeps producing degenerate
  // ones) — otherwise hold out for the mid-restore abort.
  ++origin_recovery_begins_;
  if (seen_restorable_ && origin_recovery_begins_ < 2) return;
  // This callback runs inside on_failure, before the loader processes are
  // spawned: the schedule_now event below therefore runs before any loader
  // starts, while the restore is formally in flight.
  overlap_armed_ = true;
  const chklib::Rank victim = draw_victim();
  rt_->sim().schedule_now([this, victim] {
    overlap_armed_ = false;
    strike(victim, Require::kDuringRecovery);
  });
}

void FaultInjector::on_restore_progress(chklib::Rank /*restored*/, std::size_t remaining) {
  if (!plan_.ensure_during_recovery) return;
  if (overlap_done_ || overlap_armed_ || exhausted()) return;
  if (remaining == 0) return;
  // At least one loader rank is still restoring; strike at this same
  // instant (deferred into kernel context — this callback runs inside a
  // loader process). If the remaining loaders nonetheless finish first
  // (origin-index loaders do no timed reads and drain at this same
  // timestamp), the strike finds its window closed, skips, and the
  // targeting re-arms on the next recovery.
  overlap_armed_ = true;
  const chklib::Rank victim = draw_victim();
  rt_->sim().schedule_now([this, victim] {
    overlap_armed_ = false;
    strike(victim, Require::kDuringRecovery);
  });
}

void FaultInjector::strike(chklib::Rank victim, Require require) {
  if (exhausted() || rt_->apps_done()) return;
  const bool mid_write = rt_->store().storage().inflight_writes() > 0;
  const bool during_recovery = recovery_->recovering();
  // A targeted strike only fires inside the window it was armed for; a
  // skipped strike costs nothing and the targeting re-arms. A Poisson
  // strike skips while only the reserved targeted budget remains (arrivals
  // keep being drawn, so the stream consumption stays schedule-independent).
  if (require == Require::kMidWrite && !mid_write) return;
  if (require == Require::kDuringRecovery && !during_recovery) return;
  if (require == Require::kNothing && poisson_exhausted()) return;
  ++stats_.injected;
  if (mid_write) {
    ++stats_.mid_write;
    midwrite_done_ = true;
  }
  if (during_recovery) {
    ++stats_.during_recovery;
    overlap_done_ = true;
  }
  recovery_->fail_now(victim);
}

}  // namespace chk::faultsim
