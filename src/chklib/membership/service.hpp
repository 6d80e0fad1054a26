// Cluster membership: heartbeat failure detection, quorum-tracked views,
// deterministic coordinator election, and fencing.
//
// Until now every failure in the simulator was oracle-driven: the faultsim
// injector *told* the runtime a rank died and recovery started instantly,
// and the coordinator was immortal by construction. This service closes
// that gap with the architecture of pacemaker's heartbeat/crmd/fencing
// split, scaled to the simulator:
//
//   detector   every rank broadcasts a periodic kHeartbeat beacon as an
//              unsequenced datagram (fire-and-forget — the lossy-link model
//              can starve it, but a stalled FIFO stream cannot head-of-line
//              block it); a per-rank sweep timer suspects any member whose
//              silence the configured detector (binary timeout or
//              phi-accrual) deems improbable.
//   election   suspicion reports flow to the current *candidate* (the
//              lowest member the reporter does not suspect). Once two
//              distinct members (one if only two are left) suspect the
//              same rank, the candidate proposes a new view excluding it:
//              a kViewChange broadcast carrying a strictly increasing view
//              id and the member bitmap. View ids encode their proposer
//              (view % num_ranks == proposer), so the elected coordinator
//              of a view is a pure function of its id — at most one live
//              coordinator per membership epoch, by construction. Members
//              ack; a majority of the proposed membership establishes the
//              view (quorum tracking).
//   fencing    a live rank excluded from an adopted view is *fenced*: the
//              protocol layer discards its in-flight round state (via the
//              fence callback) and its acks stop counting toward commits.
//              A fenced rank petitions the coordinator with kJoinRequest
//              each sweep until a re-adding view is established.
//   crash      RecoveryManager::fail_now strikes are intercepted: instead
//              of the oracle rollback, the victim merely goes silent (its
//              application process dies and the comm down-gate swallows
//              its traffic). The cluster must *detect* the death; rollback
//              recovery starts only when the crashed rank is evicted from
//              the view (with a deadman fallback in case the eviction
//              quorum never assembles).
//
// Determinism: the only RNG draws are the per-rank timer phases, taken
// once at start() in rank order from a dedicated schedule-independent
// stream (tag 0xBEA7 in the harness), so the membership machinery never
// perturbs any other fault domain. With no service constructed the
// simulation is bit-identical to pre-membership builds.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "chklib/membership/accrual.hpp"
#include "chklib/recovery/manager.hpp"
#include "chklib/runtime.hpp"
#include "util/rng.hpp"

namespace chk::chklib::membership {

/// How an observer decides a member is suspect.
///
///   kBinaryTimeout  silent longer than detect_timeout => suspect. Simple
///                   and fast on clean links, but the knob is global: under
///                   the lossy-link model (see BENCH_membership.json) a
///                   0.6 s timeout at 20% loss wrongly evicts 12-17 *live*
///                   ranks per run, each one a fence + discarded round +
///                   rejoin.
///   kPhiAccrual     suspicion accrues from the observed heartbeat
///                   inter-arrival distribution (accrual.hpp): suspect when
///                   phi crosses accrual.threshold_milli. Links slowed by
///                   retransmission storms widen their own windows, so loss
///                   stops looking like death. Suspicion is also
///                   *hysteretic* in both modes: a suspect whose evidence
///                   recedes (heartbeat arrives / phi drops back below
///                   threshold) before the eviction quorum assembles is
///                   quietly un-suspected — no fence, no view change
///                   (counted in stats.suspicions_cleared).
enum class Detector : std::uint8_t { kBinaryTimeout, kPhiAccrual };

/// Parse a CLI detector name ("binary" | "phi"). Throws
/// std::invalid_argument naming the accepted spellings otherwise.
[[nodiscard]] Detector parse_detector(const std::string& text);
[[nodiscard]] const char* to_string(Detector d) noexcept;

struct MembershipConfig {
  /// Heartbeat broadcast period per rank (phase-jittered at start).
  des::Duration hb_period = des::Duration::millis(250);
  /// kBinaryTimeout: a member silent for longer than this is suspected.
  /// The default (2 s) is deliberately lax — BENCH_membership.json measures
  /// the storm regime starting around 0.6 s at 20% link loss, where the
  /// binary detector evicts live ranks every run. kPhiAccrual uses this
  /// only as the warm-up bootstrap timeout (accrual.bootstrap = 0) and as
  /// the base of the pre-warm-up deadman.
  des::Duration detect_timeout = des::Duration::seconds(2);
  /// Stream selector forked off the experiment seed (campaign runs differ
  /// only in membership timer phases).
  std::uint64_t stream = 0;
  /// Which failure detector drives suspicion. Binary is the default so
  /// every pre-accrual baseline stays bit-identical.
  Detector detector = Detector::kBinaryTimeout;
  /// Phi-accrual tuning; consulted only when detector == kPhiAccrual.
  /// Zero-valued min_stddev / bootstrap resolve to hb_period / 4 and
  /// detect_timeout at start().
  AccrualConfig accrual;

  /// Throws std::invalid_argument on nonsense values (num_ranks > 64,
  /// non-positive periods, detect_timeout <= hb_period, malformed accrual
  /// config in phi mode).
  void validate(std::size_t num_ranks) const;
};

struct MembershipStats {
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t suspicions = 0;        ///< fresh (observer, subject) suspicions
  std::uint64_t proposals = 0;         ///< kViewChange broadcasts (elections initiated)
  std::uint64_t views_established = 0; ///< proposals that gathered their ack majority
  std::uint64_t evictions = 0;         ///< members removed by an adopted view
  std::uint64_t wrongful_evictions = 0;///< ... of which were actually alive (fenced)
  std::uint64_t rejoins = 0;           ///< fenced ranks re-admitted by a view
  std::uint64_t crashes = 0;           ///< fail_now strikes absorbed as silent crashes
  std::uint64_t forced_recoveries = 0; ///< deadman fallback fired (eviction stalled)
  std::uint64_t suspicions_cleared = 0;///< suspicions retracted without a view change
  std::uint64_t detections = 0;        ///< real crashes evicted by a quorum view
  /// Per-detection latency (crash strike -> evicting view), in order.
  std::vector<std::int64_t> detection_latency_ns;
};

class MembershipService final : public RecoveryObserver {
 public:
  MembershipService(Runtime& runtime, RecoveryManager& recovery,
                    MembershipConfig config, util::Rng rng);
  MembershipService(const MembershipService&) = delete;
  MembershipService& operator=(const MembershipService&) = delete;
  ~MembershipService() override;

  /// Install the comm sink/gate and the recovery interceptor, draw the
  /// timer phases (the stream's only draws, in rank order), and arm the
  /// heartbeat + sweep timers. Call once, before traffic starts.
  void start();

  /// Close any membership-exclusion episode still open (emits the final
  /// kMembershipWait spans). Call after the simulation stops.
  void finalize();

  // ---- view / protocol integration -----------------------------------------
  [[nodiscard]] std::uint64_t view() const noexcept { return view_; }
  /// The elected coordinator: a pure function of the current view id.
  [[nodiscard]] Rank coordinator() const noexcept {
    return static_cast<Rank>(view_ % num_ranks_);
  }
  [[nodiscard]] bool is_member(Rank r) const noexcept {
    return ((members_ >> r) & 1u) != 0;
  }
  /// Ground truth (simulator-side) — the cluster itself only sees views.
  [[nodiscard]] bool is_down(Rank r) const noexcept { return down_.contains(r); }

  /// Invoked in kernel context when a proposed view gathered its ack
  /// majority — the protocol aborts an in-flight round and re-initiates it
  /// under the new coordinator at a higher epoch.
  void set_view_established_callback(std::function<void(std::uint64_t)> cb) {
    on_view_established_ = std::move(cb);
  }
  /// Invoked in kernel context when a live rank is fenced (true) or
  /// rejoins (false) — the protocol discards the rank's in-flight round
  /// state so a wrongly-evicted rank cannot corrupt a commit.
  void set_fence_callback(std::function<void(Rank, bool)> cb) {
    on_fence_ = std::move(cb);
  }

  [[nodiscard]] const MembershipStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const MembershipConfig& config() const noexcept { return cfg_; }

  /// RecoveryManager failure-interceptor target: absorb a strike as a
  /// silent crash the cluster must detect. Returns false (declining the
  /// interception, so the oracle overlap path runs) while a rollback
  /// restore is already in flight.
  bool crash(Rank r);

  // ---- RecoveryObserver ------------------------------------------------------
  void on_recovery_begin(Rank failed) override;
  void on_recovery_end(const RecoveryReport& report) override;

 private:
  void on_control(Rank dst, const ControlMsg& msg);
  /// Beacon chains are epoch-guarded: a rejoin re-phases the rank's beacon
  /// by bumping its epoch (orphaning the old chain) and scheduling a fresh
  /// one, so post-rejoin heartbeats never alias the pre-eviction schedule.
  void heartbeat_tick(Rank r, std::uint32_t epoch);
  void sweep_tick(Rank r);
  /// Re-phase `r`'s beacon after a rejoin. Deterministic and draw-free:
  /// the new phase is a splitmix64 hash of the start()-drawn phase and the
  /// rank's rejoin ordinal, so the RNG stream stays schedule-independent.
  void rephase_beacon(Rank r);
  /// True iff observer `r` should currently suspect member `m`.
  [[nodiscard]] bool suspicious(Rank r, Rank m, des::TimePoint now) const;
  /// Sweep re-arm period: hb_period for binary; for phi, tracks the
  /// tightest implied timeout so the scan keeps pace with the detector.
  [[nodiscard]] des::Duration sweep_period(Rank r) const;
  /// Deadman delay for a crash of `r`: binary uses the fixed
  /// 2 x detect_timeout + grace; phi derives it from the widest observer's
  /// phi-implied timeout so a lax learned distribution still has a floor.
  [[nodiscard]] des::Duration deadman_delay(Rank r) const;
  /// Quorum scan triggered at `at` (a suspicion report arrived there, or
  /// its own sweep found one); proposes iff `at` is the current candidate.
  void maybe_propose(Rank at);
  void propose(Rank proposer, std::uint64_t new_members);
  void adopt(const ControlMsg& msg);
  /// Flip the shared view state and run the transition side effects
  /// (fencing, rejoin, crash-eviction recovery hand-off).
  void apply_view(std::uint64_t view, std::uint64_t members);
  void establish();
  /// The election candidate from `r`'s point of view: the lowest member
  /// `r` does not currently suspect.
  [[nodiscard]] Rank candidate_of(Rank r) const;
  [[nodiscard]] std::uint32_t effective_quorum() const noexcept;
  /// Extra slack the deadman grants a crashed rank's eviction before
  /// forcing the rollback: 2 x detect_timeout.
  [[nodiscard]] des::Duration grace() const noexcept;
  void begin_exclusion(Rank r);
  void end_exclusion(Rank r);

  Runtime* rt_;
  RecoveryManager* recovery_;
  MembershipConfig cfg_;
  std::size_t num_ranks_;
  util::Rng rng_;
  MembershipStats stats_;
  std::function<void(std::uint64_t)> on_view_established_;
  std::function<void(Rank, bool)> on_fence_;
  bool started_ = false;

  // View state. view 0 = the initial full-membership view (coordinator 0).
  std::uint64_t view_ = 0;
  std::uint64_t members_ = 0;  ///< rank bitmap of the current view
  std::uint64_t proposed_view_ = 0;     ///< 0 = no proposal in flight
  std::uint64_t proposed_members_ = 0;
  std::set<Rank> view_acks_;

  // Detector state.
  std::vector<std::int64_t> phase_ns_;  ///< per-rank timer phase (the init draws)
  std::vector<std::vector<des::TimePoint>> last_heard_;  ///< [observer][subject]
  std::vector<std::vector<bool>> suspects_;              ///< [observer][subject]
  bool detection_paused_ = false;  ///< while a rollback restore is in flight
  AccrualConfig acc_;              ///< cfg_.accrual with autos resolved
  std::vector<std::vector<AccrualWindow>> accrual_;      ///< [observer][subject]
  std::vector<std::uint32_t> beacon_epoch_;  ///< guards heartbeat timer chains
  std::vector<std::uint32_t> rejoin_seq_;    ///< re-phase ordinal per rank
  std::vector<des::TimePoint> crash_at_;     ///< strike time (valid while down)

  // Ground truth + attribution episodes.
  std::set<Rank> down_;
  std::set<Rank> fenced_;
  std::vector<des::TimePoint> excluded_since_;
  std::vector<bool> episode_open_;
};

}  // namespace chk::chklib::membership
