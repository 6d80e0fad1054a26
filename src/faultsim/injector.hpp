// Stochastic fault injection for one experiment run.
//
// The injector drives RecoveryManager::fail_now under an exponential
// (MTBF-parameterized) failure arrival process: inter-failure gaps are
// Exp(mtbf) draws and the victim rank is uniform, both from a child stream
// of the experiment's seeded RNG — same seed, same failure schedule, same
// trace. On top of the Poisson arrivals two *targeted* strikes can be
// armed, because the interesting recovery bugs live in narrow windows the
// arrival process rarely hits:
//
//   ensure_midwrite         strike a checkpoint image or channel-log write
//                           mid-pipeline (a fraction of its uncontended
//                           service time after submission, which is always
//                           strictly before its completion). Prefers a write
//                           whose failure would roll back to a non-origin
//                           line — that recovery then has a real restore
//                           window for the during-recovery target to compose
//                           with. If no such write shows up within
//                           2*num_ranks such writes (independent
//                           checkpointing can domino every line to the
//                           origin), the next one is struck ungated.
//   ensure_during_recovery  strike again while a restore is in flight. A
//                           restore with timed reads is struck as soon as
//                           the first loader rank finishes — the remaining
//                           loaders are still reading, so the strike lands
//                           mid-restore. Degenerate origin-line restores
//                           complete instantaneously and leave no such
//                           window; those are struck right at recovery
//                           begin (before their loaders run), but only when
//                           a non-degenerate window has never been observed
//                           or origin restores keep repeating — schemes
//                           with real restore windows get the interesting
//                           mid-restore abort, schemes without still get an
//                           overlapping failure.
//
// Budget is reserved for unmet targets: Poisson arrivals stop consuming
// `max_failures` once only the reserved strikes remain.
//
// A targeted strike whose window has closed by the time its event runs (a
// restore can finish degenerately fast when the line is at the origin, and
// loaders with no timed reads complete at the strike's own timestamp) is
// skipped — no failure is injected, no budget is spent — and the targeting
// re-arms for the next opportunity; it disarms only once it actually lands
// inside its window. Every strike that does land — targeted or Poisson —
// counts against `max_failures`.
//
// With `target_coordinator`, every victim is instead the elected
// coordinator of the membership service on the runtime's comm system.
#pragma once

#include <cstdint>

#include "chklib/recovery/manager.hpp"
#include "chklib/runtime.hpp"
#include "util/rng.hpp"

namespace chk::faultsim {

struct FaultPlan {
  /// Mean of the exponential inter-failure gap (simulated time).
  des::Duration mtbf = des::Duration::secs(60);
  /// Hard cap on injected failures per run; 0 disarms the injector.
  std::uint32_t max_failures = 6;
  /// Stream selector forked off the experiment seed: one experiment config
  /// can host many campaign runs that differ only in the failure schedule.
  std::uint64_t stream = 0;
  bool ensure_midwrite = false;
  bool ensure_during_recovery = false;
  /// Redirect every strike at the current coordinator (membership runs:
  /// coordinator death mid-round is the interesting election scenario). The
  /// victim draw still happens — the stream consumption per arrival stays
  /// fixed — but the drawn rank is overridden by the membership service's
  /// coordinator(), read when the strike is scheduled, so an elected
  /// successor becomes the next target.
  bool target_coordinator = false;
};

struct InjectionStats {
  std::uint32_t injected = 0;
  std::uint32_t mid_write = 0;        ///< strikes with storage writes in flight
  std::uint32_t during_recovery = 0;  ///< strikes with a restore in flight
};

class FaultInjector final : public chklib::RecoveryObserver {
 public:
  FaultInjector(chklib::Runtime& runtime, chklib::RecoveryManager& recovery,
                FaultPlan plan);
  ~FaultInjector() override;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Install the hooks and schedule the first Poisson arrival. Call once,
  /// before Runtime::run_to_completion.
  void arm();

  [[nodiscard]] const InjectionStats& stats() const noexcept { return stats_; }

  // RecoveryObserver (targeted during-recovery strike).
  void on_recovery_begin(chklib::Rank failed) override;
  void on_restore_progress(chklib::Rank restored, std::size_t remaining) override;

 private:
  /// What a targeted strike insists on finding; if the window has closed by
  /// the time the strike event runs, it is skipped (not counted) and the
  /// targeting re-arms.
  enum class Require : std::uint8_t { kNothing, kMidWrite, kDuringRecovery };

  void schedule_arrival();
  void strike(chklib::Rank victim, Require require);
  /// Hard cap, applies to every strike.
  [[nodiscard]] bool exhausted() const noexcept {
    return stats_.injected >= plan_.max_failures;
  }
  /// Budget still earmarked for targeted strikes that have not landed yet.
  [[nodiscard]] std::uint32_t reserved() const noexcept {
    return (plan_.ensure_midwrite && !midwrite_done_ ? 1u : 0u) +
           (plan_.ensure_during_recovery && !overlap_done_ ? 1u : 0u);
  }
  /// Poisson arrivals may not eat into the reserved targeted budget.
  [[nodiscard]] bool poisson_exhausted() const noexcept {
    return stats_.injected + reserved() >= plan_.max_failures;
  }
  /// Always consumes the draw (schedule-independent stream), then applies
  /// the coordinator override if configured.
  [[nodiscard]] chklib::Rank draw_victim() noexcept;

  chklib::Runtime* rt_;
  chklib::RecoveryManager* recovery_;
  FaultPlan plan_;
  util::Rng rng_;
  InjectionStats stats_;
  bool midwrite_armed_ = false;  ///< a targeted mid-write strike is scheduled
  bool midwrite_done_ = false;   ///< a strike landed mid-write; stop targeting
  bool overlap_armed_ = false;
  bool overlap_done_ = false;
  /// Some image write was observed whose failure would have rolled back to
  /// a non-origin line — i.e. a real restore window exists in this run.
  bool seen_restorable_ = false;
  /// Image writes observed while the planned line sat at the origin; past
  /// 2*num_ranks of these the mid-write targeting stops waiting for a
  /// restorable line.
  std::uint32_t origin_image_writes_ = 0;
  /// Recoveries that began with an origin line (no restore window).
  std::uint32_t origin_recovery_begins_ = 0;
};

}  // namespace chk::faultsim
