#include "chklib/membership/service.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "obs/tracer.hpp"

namespace chk::chklib::membership {

namespace {

/// Distinct members (including the candidate itself) that must suspect a
/// rank before its eviction is proposed; clamped to the member count - 1.
constexpr std::uint32_t kSuspectQuorum = 2;

[[nodiscard]] constexpr std::uint64_t full_bitmap(std::size_t n) noexcept {
  return n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

}  // namespace

Detector parse_detector(const std::string& text) {
  if (text == "binary") return Detector::kBinaryTimeout;
  if (text == "phi") return Detector::kPhiAccrual;
  throw std::invalid_argument("--detector: expected \"binary\" or \"phi\", got \"" +
                              text + "\"");
}

const char* to_string(Detector d) noexcept {
  return d == Detector::kPhiAccrual ? "phi" : "binary";
}

void MembershipConfig::validate(std::size_t num_ranks) const {
  if (num_ranks == 0 || num_ranks > 64) {
    throw std::invalid_argument("membership: member bitmaps support 1..64 ranks");
  }
  if (hb_period <= des::Duration::zero()) {
    throw std::invalid_argument("membership: hb_period must be positive");
  }
  if (detect_timeout <= hb_period) {
    throw std::invalid_argument("membership: detect_timeout must exceed hb_period");
  }
  if (detector == Detector::kPhiAccrual) accrual.validate();
}

MembershipService::MembershipService(Runtime& runtime, RecoveryManager& recovery,
                                     MembershipConfig config, util::Rng rng)
    : rt_(&runtime),
      recovery_(&recovery),
      cfg_(config),
      num_ranks_(runtime.num_ranks()),
      rng_(rng) {
  cfg_.validate(num_ranks_);
  members_ = full_bitmap(num_ranks_);
}

MembershipService::~MembershipService() {
  // Detach every seam: the runtime and recovery manager may outlive us.
  rt_->comm().set_membership_sink(nullptr);
  rt_->comm().set_down_gate(nullptr);
  recovery_->set_failure_interceptor(nullptr);
  recovery_->remove_observer(this);
}

void MembershipService::start() {
  if (started_) return;
  started_ = true;

  rt_->comm().set_membership_sink(
      [this](Rank dst, const ControlMsg& msg) { on_control(dst, msg); });
  rt_->comm().set_down_gate([this](Rank r) { return down_.contains(r); });
  recovery_->set_failure_interceptor([this](Rank r) { return crash(r); });
  recovery_->add_observer(this);

  const des::TimePoint now = rt_->sim().now();
  last_heard_.assign(num_ranks_, std::vector<des::TimePoint>(num_ranks_, now));
  suspects_.assign(num_ranks_, std::vector<bool>(num_ranks_, false));
  excluded_since_.assign(num_ranks_, now);
  episode_open_.assign(num_ranks_, false);
  beacon_epoch_.assign(num_ranks_, 0);
  rejoin_seq_.assign(num_ranks_, 0);
  crash_at_.assign(num_ranks_, now);

  // Resolve the accrual autos against the service's own knobs and prime
  // the per-pair silence clocks so even a rank that dies before its first
  // beacon accrues suspicion.
  acc_ = cfg_.accrual;
  if (acc_.min_stddev == des::Duration::zero()) acc_.min_stddev = cfg_.hb_period / 4;
  if (acc_.bootstrap == des::Duration::zero()) acc_.bootstrap = cfg_.detect_timeout;
  if (cfg_.detector == Detector::kPhiAccrual) {
    accrual_.assign(num_ranks_, std::vector<AccrualWindow>(num_ranks_));
    for (auto& row : accrual_) {
      for (auto& w : row) w.restart_gap(now);
    }
  }

  // The stream's only draws: one heartbeat phase per rank, in rank order, so
  // the membership RNG consumption is schedule-independent by construction.
  phase_ns_.resize(num_ranks_);
  const auto period_ns = static_cast<std::uint64_t>(cfg_.hb_period.to_nanos());
  for (Rank r = 0; r < num_ranks_; ++r) {
    phase_ns_[r] = static_cast<std::int64_t>(rng_.uniform_u64(period_ns));
  }
  // Sweeps run on the same period, offset half a beat from the rank's own
  // beacon so a sweep never races its own just-sent heartbeat.
  for (Rank r = 0; r < num_ranks_; ++r) {
    rt_->sim().schedule_after(des::Duration::nanos(phase_ns_[r]),
                              [this, r] { heartbeat_tick(r, 0); });
    rt_->sim().schedule_after(des::Duration::nanos(phase_ns_[r]) + cfg_.hb_period / 2,
                              [this, r] { sweep_tick(r); });
  }
}

void MembershipService::finalize() {
  const std::int64_t now_ns = rt_->sim().now().to_nanos();
  for (Rank r = 0; r < num_ranks_; ++r) {
    if (!episode_open_[r]) continue;
    episode_open_[r] = false;
    if (obs::Tracer* tracer = rt_->tracer()) {
      tracer->span(obs::EventKind::kMembershipWait, static_cast<std::uint16_t>(r),
                   excluded_since_[r].to_nanos(), now_ns, 0,
                   down_.contains(r) ? 1u : 2u);
    }
  }
}

des::Duration MembershipService::grace() const noexcept {
  return cfg_.detect_timeout * 2;
}

std::uint32_t MembershipService::effective_quorum() const noexcept {
  const auto live = static_cast<std::uint32_t>(std::popcount(members_));
  return std::min(kSuspectQuorum, std::max(1u, live - 1));
}

Rank MembershipService::candidate_of(Rank r) const {
  for (Rank m = 0; m < num_ranks_; ++m) {
    if (is_member(m) && (m == r || !suspects_[r][m])) return m;
  }
  return r;
}

void MembershipService::begin_exclusion(Rank r) {
  if (episode_open_[r]) return;
  episode_open_[r] = true;
  excluded_since_[r] = rt_->sim().now();
}

void MembershipService::end_exclusion(Rank r) {
  if (!episode_open_[r]) return;
  if (down_.contains(r) || fenced_.contains(r)) return;  // still excluded
  episode_open_[r] = false;
  if (obs::Tracer* tracer = rt_->tracer()) {
    tracer->span(obs::EventKind::kMembershipWait, static_cast<std::uint16_t>(r),
                 excluded_since_[r].to_nanos(), rt_->sim().now().to_nanos());
  }
}

void MembershipService::heartbeat_tick(Rank r, std::uint32_t epoch) {
  // A stale epoch means this chain was orphaned by a rejoin re-phase.
  if (epoch != beacon_epoch_[r]) return;
  if (!down_.contains(r)) {
    for (Rank q = 0; q < num_ranks_; ++q) {
      if (q == r) continue;
      ++stats_.heartbeats_sent;
      // Beacons are datagrams: a stale heartbeat is worthless (the next is
      // one period away), and the FIFO stream would head-of-line-block it
      // behind any stalled data frame — manufacturing multi-second false
      // silences out of ordinary loss.
      rt_->comm().send_control_datagram(
          r, q, ControlMsg{.kind = ControlKind::kHeartbeat, .src = r, .view = view_});
    }
  }
  rt_->sim().schedule_after(cfg_.hb_period, [this, r, epoch] { heartbeat_tick(r, epoch); });
}

void MembershipService::rephase_beacon(Rank r) {
  // Deterministic but decorrelated from the pre-eviction schedule: hash
  // the start()-drawn phase with the rejoin ordinal (no RNG draws — the
  // membership stream must stay schedule-independent).
  const std::uint32_t epoch = ++beacon_epoch_[r];
  std::uint64_t state = static_cast<std::uint64_t>(phase_ns_[r]) +
                        0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(++rejoin_seq_[r]);
  const auto period_ns = static_cast<std::uint64_t>(cfg_.hb_period.to_nanos());
  const auto offset_ns = static_cast<std::int64_t>(util::splitmix64(state) % period_ns);
  rt_->sim().schedule_after(des::Duration::nanos(offset_ns),
                            [this, r, epoch] { heartbeat_tick(r, epoch); });
}

bool MembershipService::suspicious(Rank r, Rank m, des::TimePoint now) const {
  if (cfg_.detector == Detector::kPhiAccrual) {
    return accrual_[r][m].phi_milli(acc_, now) >= acc_.threshold_milli;
  }
  return now - last_heard_[r][m] > cfg_.detect_timeout;
}

des::Duration MembershipService::sweep_period(Rank r) const {
  if (cfg_.detector != Detector::kPhiAccrual) return cfg_.hb_period;
  // Track the tightest implied timeout among the ranks this observer
  // watches: scanning at a quarter of it keeps detection latency dominated
  // by the detector, not the scan, while clean links relax the cadence.
  des::Duration tightest = des::Duration::max();
  for (Rank m = 0; m < num_ranks_; ++m) {
    if (m == r || !is_member(m)) continue;
    tightest = std::min(tightest, accrual_[r][m].implied_timeout(acc_));
  }
  if (tightest == des::Duration::max()) return cfg_.hb_period;
  return std::clamp(tightest / 4, cfg_.hb_period / 2, cfg_.hb_period * 2);
}

void MembershipService::sweep_tick(Rank r) {
  if (!detection_paused_ && !down_.contains(r)) {
    if (fenced_.contains(r)) {
      // Fenced but alive: petition the coordinator for re-admission.
      rt_->comm().send_control(
          r, coordinator(),
          ControlMsg{.kind = ControlKind::kJoinRequest, .src = r, .view = view_});
    } else if (is_member(r)) {
      const des::TimePoint now = rt_->sim().now();
      for (Rank m = 0; m < num_ranks_; ++m) {
        if (m == r || !is_member(m)) continue;
        if (suspicious(r, m, now)) {
          if (!suspects_[r][m]) {
            suspects_[r][m] = true;
            ++stats_.suspicions;
          }
        } else if (suspects_[r][m]) {
          // Hysteresis: the evidence receded before a quorum assembled —
          // retract quietly instead of paying fence + rejoin.
          suspects_[r][m] = false;
          ++stats_.suspicions_cleared;
        }
      }
      const Rank c = candidate_of(r);
      if (c == r) {
        maybe_propose(r);
      } else {
        // Re-report every sweep while suspected: the candidate may have
        // changed, and lost reports must not stall the election.
        for (Rank m = 0; m < num_ranks_; ++m) {
          if (!suspects_[r][m]) continue;
          rt_->comm().send_control(r, c,
                                   ControlMsg{.kind = ControlKind::kSuspect,
                                              .src = r,
                                              .view = view_,
                                              .members = std::uint64_t{1} << m});
        }
      }
    }
  }
  rt_->sim().schedule_after(sweep_period(r), [this, r] { sweep_tick(r); });
}

void MembershipService::on_control(Rank dst, const ControlMsg& msg) {
  if (!started_ || detection_paused_) return;
  switch (msg.kind) {
    case ControlKind::kHeartbeat: {
      const des::TimePoint now = rt_->sim().now();
      last_heard_[dst][msg.src] = now;
      if (cfg_.detector == Detector::kPhiAccrual) {
        accrual_[dst][msg.src].heard(acc_, now);
      }
      if (suspects_[dst][msg.src]) {
        suspects_[dst][msg.src] = false;
        ++stats_.suspicions_cleared;
      }
      break;
    }
    case ControlKind::kSuspect:
      // Quorum state is the (globally shared) suspicion matrix; the report's
      // arrival is what gives the candidate an event to evaluate it on.
      maybe_propose(dst);
      break;
    case ControlKind::kViewChange:
      if (msg.view > view_) {
        // A competing proposal won; drop ours if it superseded it.
        if (msg.view >= proposed_view_) {
          proposed_view_ = 0;
          proposed_members_ = 0;
          view_acks_.clear();
        }
        adopt(msg);
      }
      if (msg.view == view_ && is_member(dst)) {
        rt_->comm().send_control(
            dst, msg.src,
            ControlMsg{.kind = ControlKind::kViewAck, .src = dst, .view = msg.view});
      }
      break;
    case ControlKind::kViewAck:
      if (proposed_view_ != 0 && msg.view == proposed_view_) {
        view_acks_.insert(msg.src);
        const std::size_t majority =
            static_cast<std::size_t>(std::popcount(proposed_members_)) / 2 + 1;
        if (view_acks_.size() >= majority) establish();
      }
      break;
    case ControlKind::kJoinRequest: {
      if (dst != coordinator() || is_member(msg.src)) break;
      const std::uint64_t readmitted = members_ | (std::uint64_t{1} << msg.src);
      if (proposed_view_ != 0 && proposed_members_ == readmitted) break;
      propose(dst, readmitted);
      break;
    }
    default:
      break;
  }
}

void MembershipService::maybe_propose(Rank at) {
  if (detection_paused_ || !is_member(at)) return;
  const std::uint32_t quorum = effective_quorum();
  std::uint64_t suspected = 0;
  for (Rank m = 0; m < num_ranks_; ++m) {
    if (!is_member(m)) continue;
    std::uint32_t reporters = 0;
    for (Rank r = 0; r < num_ranks_; ++r) {
      if (r != m && is_member(r) && suspects_[r][m]) ++reporters;
    }
    if (reporters >= quorum) suspected |= std::uint64_t{1} << m;
  }
  if (suspected == 0) return;
  // The candidate proposing the eviction is the lowest surviving member —
  // which makes it the new view's coordinator by the view-id encoding.
  Rank proposer = num_ranks_;
  for (Rank m = 0; m < num_ranks_; ++m) {
    if (is_member(m) && ((suspected >> m) & 1u) == 0) {
      proposer = m;
      break;
    }
  }
  if (proposer != at) return;
  const std::uint64_t survivors = members_ & ~suspected;
  if (proposed_view_ != 0 && proposed_members_ == survivors) return;
  propose(proposer, survivors);
}

void MembershipService::propose(Rank proposer, std::uint64_t new_members) {
  const std::uint64_t base = std::max(view_, proposed_view_);
  const std::uint64_t next = (base / num_ranks_ + 1) * num_ranks_ + proposer;
  ++stats_.proposals;
  for (Rank q = 0; q < num_ranks_; ++q) {
    if (q == proposer) continue;
    rt_->comm().send_control(proposer, q,
                             ControlMsg{.kind = ControlKind::kViewChange,
                                        .src = proposer,
                                        .view = next,
                                        .members = new_members});
  }
  proposed_view_ = next;
  proposed_members_ = new_members;
  view_acks_.clear();
  view_acks_.insert(proposer);
  // Global-state model: the proposer adopts its own proposal at once; the
  // broadcast above carries it to everyone else (and collects the acks that
  // establish it). Note apply-side effects may start a rollback recovery,
  // which clears the proposal bookkeeping set just above — that is correct:
  // the restart, not the ack quorum, confirms such views.
  apply_view(next, new_members);
}

void MembershipService::adopt(const ControlMsg& msg) { apply_view(msg.view, msg.members); }

void MembershipService::apply_view(std::uint64_t view, std::uint64_t members) {
  const std::uint64_t previous = members_;
  view_ = view;
  members_ = members;
  // Fresh detector slate for the new view: no suspicion carries across.
  const des::TimePoint now = rt_->sim().now();
  for (auto& row : suspects_) std::fill(row.begin(), row.end(), false);
  for (auto& row : last_heard_) std::fill(row.begin(), row.end(), now);

  const std::uint64_t removed = previous & ~members;
  const std::uint64_t added = members & ~previous;
  if (cfg_.detector == Detector::kPhiAccrual) {
    // Ranks whose membership changed get a full accrual reset (pre-fence
    // samples must not poison a rejoined subject's phi); everyone else
    // keeps the learned distribution and merely restarts the silence gap
    // to match the last_heard slate above.
    const std::uint64_t changed = removed | added;
    for (auto& row : accrual_) {
      for (Rank m = 0; m < num_ranks_; ++m) {
        if ((changed >> m) & 1u) row[m].reset();
        row[m].restart_gap(now);
      }
    }
  }
  Rank dead = num_ranks_;
  for (Rank r = 0; r < num_ranks_; ++r) {
    if ((removed >> r) & 1u) {
      ++stats_.evictions;
      if (down_.contains(r)) {
        ++stats_.detections;
        stats_.detection_latency_ns.push_back((now - crash_at_[r]).to_nanos());
        if (dead == num_ranks_) dead = r;
      } else {
        ++stats_.wrongful_evictions;
        fenced_.insert(r);
        begin_exclusion(r);
        if (on_fence_) on_fence_(r, true);
      }
    } else if ((added >> r) & 1u) {
      if (fenced_.erase(r) > 0) {
        ++stats_.rejoins;
        end_exclusion(r);
        // Decorrelate the rejoined rank's beacon from its pre-eviction
        // schedule; observers' accrual windows for it were reset above.
        rephase_beacon(r);
        if (on_fence_) on_fence_(r, false);
      }
    }
  }
  if (dead < num_ranks_) {
    // A confirmed-dead member was evicted: hand over to rollback recovery.
    // The whole-application restart is the strongest establishment this
    // view can get, so count it here (its acks die with the incarnation).
    ++stats_.views_established;
    recovery_->recover_now(dead);
  }
}

void MembershipService::establish() {
  ++stats_.views_established;
  proposed_view_ = 0;
  proposed_members_ = 0;
  view_acks_.clear();
  if (on_view_established_) on_view_established_(view_);
}

des::Duration MembershipService::deadman_delay(Rank r) const {
  if (cfg_.detector != Detector::kPhiAccrual) {
    return cfg_.detect_timeout * 2 + grace();
  }
  // Give the slowest observer's current phi envelope twice over before
  // forcing recovery: the widest implied timeout is the honest bound on
  // how long legitimate detection can take. Warm-up windows report the
  // bootstrap interval, so the pre-warm-up deadman matches binary's.
  des::Duration widest = des::Duration::zero();
  for (Rank obs = 0; obs < num_ranks_; ++obs) {
    if (obs == r || down_.contains(obs)) continue;
    widest = std::max(widest, accrual_[obs][r].implied_timeout(acc_));
  }
  if (widest == des::Duration::zero()) widest = cfg_.detect_timeout;
  return widest * 2 + grace();
}

bool MembershipService::crash(Rank r) {
  if (!started_) return false;
  // A strike landing while a rollback restore is in flight stays with the
  // oracle path: overlapping-failure semantics (abort + re-plan) predate the
  // membership layer and must not change under it.
  if (recovery_->recovering()) return false;
  if (down_.contains(r)) return true;  // already silent — nothing new to model
  ++stats_.crashes;
  down_.insert(r);
  crash_at_[r] = rt_->sim().now();
  begin_exclusion(r);
  // A fenced rank that now really dies stays in one continuous exclusion
  // episode; it just changes character.
  fenced_.erase(r);
  rt_->kill_app(r);
  if (obs::Tracer* tracer = rt_->tracer()) {
    tracer->instant(obs::EventKind::kFailure, static_cast<std::uint16_t>(r),
                    rt_->sim().now().to_nanos(), 0, 1);
  }
  // Deadman fallback: if the eviction quorum never assembles (e.g. the
  // detector is configured far too lax for the workload's lifetime), force
  // the rollback rather than hang the application forever.
  rt_->sim().schedule_after(deadman_delay(r), [this, r] {
    if (down_.contains(r) && !recovery_->recovering()) {
      ++stats_.forced_recoveries;
      recovery_->recover_now(r);
    }
  });
  return true;
}

void MembershipService::on_recovery_begin(Rank /*failed*/) {
  if (!started_) return;
  detection_paused_ = true;
  proposed_view_ = 0;
  proposed_members_ = 0;
  view_acks_.clear();
  for (auto& row : suspects_) std::fill(row.begin(), row.end(), false);
  // The rollback restarts every rank: exclusions end here, membership goes
  // back to the full set. The view id stays monotone — the elected
  // coordinator survives the recovery.
  down_.clear();
  fenced_.clear();
  for (Rank r = 0; r < num_ranks_; ++r) end_exclusion(r);
  members_ = full_bitmap(num_ranks_);
}

void MembershipService::on_recovery_end(const RecoveryReport& report) {
  if (!started_) return;
  if (report.interrupted) return;  // a newer recovery owns the resume
  // Runs in the last loader's process context — defer to kernel context.
  rt_->sim().schedule_now([this] {
    detection_paused_ = false;
    const des::TimePoint now = rt_->sim().now();
    for (auto& row : last_heard_) std::fill(row.begin(), row.end(), now);
    if (cfg_.detector == Detector::kPhiAccrual) {
      // The restart created an artificial silence on every link; the
      // learned inter-arrival distributions are still valid, so only the
      // gaps restart.
      for (auto& row : accrual_) {
        for (auto& w : row) w.restart_gap(now);
      }
    }
  });
}

}  // namespace chk::chklib::membership
