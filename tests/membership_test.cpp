// Tests for the cluster-membership service: heartbeat failure detection,
// quorum-tracked views, deterministic coordinator election and fencing.
//
//   * config validation: nonsense periods and timeouts are rejected;
//   * zero-overhead when off is covered by the transport determinism guard
//     (no membership config => bit-identical pre-membership traces);
//   * clean links: heartbeats flow, nobody is suspected, the answer and
//     the invariants are untouched;
//   * false-suspicion storm (the headline regime): an aggressive detection
//     timeout under 20% link loss plus duplication and corruption wrongly
//     evicts a live rank — the rank is fenced, not rolled back, rejoins
//     once its heartbeats get through again, and every scheme still
//     produces the loss-free digest;
//   * coordinator death mid-round: the elected coordinator is killed while
//     a checkpoint round is in flight; the cluster detects the death,
//     elects a successor (view % N), recovers, and completes — including
//     the NBMS stagger-token handoff;
//   * wiring guards: coordinator-targeted strikes without a membership
//     service, and link faults with the reliable transport turned off (for
//     every scheme, with or without membership), are configuration errors.
//   * pinned monitored runs: every scheme with the monitor on, clean and
//     through a coordinator crash, lossy phi links and coordinator-targeted
//     strikes, reproduce their trace hash, event count, completion time,
//     digest, invariant check count, detections and established views.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "apps/sor.hpp"
#include "chklib/comm/link_fault.hpp"
#include "chklib/membership/service.hpp"
#include "des/simulator.hpp"
#include "faultsim/injector.hpp"
#include "harness/experiment.hpp"
#include "pinned_runs.hpp"

namespace chk {
namespace {

using chklib::LinkFaultConfig;
using chklib::Scheme;
using chklib::membership::MembershipConfig;
using des::Duration;

// ---------------------------------------------------------------------------
// Config validation.
// ---------------------------------------------------------------------------

TEST(MembershipConfig, DefaultsValidate) {
  MembershipConfig config;
  EXPECT_NO_THROW(config.validate(8));
  EXPECT_NO_THROW(config.validate(64));
}

TEST(MembershipConfig, RejectsNonsense) {
  MembershipConfig config;
  EXPECT_THROW(config.validate(0), std::invalid_argument);
  EXPECT_THROW(config.validate(65), std::invalid_argument);  // 64-bit bitmap

  config = MembershipConfig{};
  config.hb_period = Duration::zero();
  EXPECT_THROW(config.validate(8), std::invalid_argument);

  config = MembershipConfig{};
  config.detect_timeout = config.hb_period;  // <= hb_period can never settle
  EXPECT_THROW(config.validate(8), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Shared fixtures.
// ---------------------------------------------------------------------------

harness::ExperimentConfig membership_sor(Scheme scheme) {
  harness::ExperimentConfig config;
  config.label = "SOR";
  config.app = apps::make_sor({.n = 96, .iterations = 80});
  config.scheme = scheme;
  config.machine.num_nodes = 8;
  config.interval = Duration::millis(200);
  config.checkpoints = 0;  // keep checkpointing while the run lasts
  config.verify = true;
  return config;
}

// The false-suspicion storm: an aggressive 600 ms detection timeout under
// 20% loss, 10% duplication and 5% corruption. Runs of beacons lost in a
// row silence live ranks for longer than the timeout; the link weather is
// seeded, so every run of this config wrongly evicts the same live ranks.
harness::ExperimentConfig storm_config(Scheme scheme) {
  auto config = membership_sor(scheme);
  LinkFaultConfig faults;
  faults.drop = 0.2;
  faults.duplicate = 0.1;
  faults.corrupt = 0.05;
  config.link_faults = faults;
  MembershipConfig membership;
  membership.hb_period = Duration::millis(250);
  membership.detect_timeout = Duration::millis(600);
  config.membership = membership;
  return config;
}

// ---------------------------------------------------------------------------
// Clean links: detection never fires, the run is untouched.
// ---------------------------------------------------------------------------

TEST(Membership, CleanLinksNoFalseSuspicions) {
  auto config = membership_sor(Scheme::kCoordNBM);
  const auto normal = harness::run_normal(config);
  ASSERT_TRUE(normal.digest.has_value());

  config.membership = MembershipConfig{};  // default 2 s timeout
  const auto result = harness::run_experiment(config);
  EXPECT_GT(result.heartbeats_sent, 0u);
  EXPECT_EQ(result.suspicions, 0u);
  EXPECT_EQ(result.views_established, 0u);
  EXPECT_EQ(result.evictions, 0u);
  EXPECT_EQ(result.membership_crashes, 0u);
  EXPECT_EQ(result.digest, normal.digest);
  EXPECT_EQ(result.invariant_violations, 0u);
  EXPECT_GT(result.invariant_checks, 0u);
}

TEST(Membership, MembershipRunsAreDeterministic) {
  const auto report = harness::check_determinism(storm_config(Scheme::kCoordNB));
  EXPECT_TRUE(report.deterministic);
  EXPECT_GT(report.first.heartbeats_sent, 0u);
  EXPECT_GT(report.first.suspicions, 0u);
}

// ---------------------------------------------------------------------------
// The false-suspicion storm.
// ---------------------------------------------------------------------------

TEST(Membership, FalseSuspicionStormFencesAndRejoinsEveryScheme) {
  const Scheme schemes[] = {Scheme::kCoordNB, Scheme::kCoordNBM,
                            Scheme::kCoordNBMS, Scheme::kIndep, Scheme::kIndepM};
  auto baseline = membership_sor(Scheme::kNone);
  const auto normal = harness::run_normal(baseline);
  ASSERT_TRUE(normal.digest.has_value());

  for (Scheme scheme : schemes) {
    const auto config = storm_config(scheme);
    const auto result = harness::run_experiment(config);
    const std::string what = std::string(to_string(scheme));

    // Lost beacons starved a live rank's heartbeats past the timeout: it
    // was suspected, evicted by an established view, and — being alive —
    // fenced rather than rolled back, then re-admitted once its beacons
    // got through again.
    EXPECT_GT(result.suspicions, 0u) << what;
    EXPECT_GE(result.views_established, 2u) << what;  // eviction + rejoin
    EXPECT_GE(result.evictions, 1u) << what;
    EXPECT_GE(result.wrongful_evictions, 1u) << what;
    EXPECT_GE(result.rejoins, 1u) << what;

    // Nobody actually died: no crash was absorbed, no rollback ran.
    EXPECT_EQ(result.membership_crashes, 0u) << what;
    EXPECT_EQ(result.forced_recoveries, 0u) << what;
    EXPECT_TRUE(result.recoveries.empty()) << what;

    // Fencing is safe: the answer and the invariants survive the storm.
    EXPECT_EQ(result.digest, normal.digest) << what;
    EXPECT_EQ(result.invariant_violations, 0u) << what;
    EXPECT_GT(result.invariant_checks, 0u) << what;
  }
}

// ---------------------------------------------------------------------------
// Coordinator death mid-round: detection, election, recovery, completion.
// ---------------------------------------------------------------------------

TEST(Membership, CoordinatorDeathMidRoundElectsSuccessor) {
  // Rank 0 is the initial coordinator (view 0, coordinator = view % N).
  // Killing it mid-run forces the full path: silence -> suspicion ->
  // quorum -> view change (electing rank 1) -> crash-eviction recovery.
  // kCoordNBMS doubles as the stagger-token handoff test: the ring token
  // may be at the dead coordinator, and the run must still complete.
  const Scheme schemes[] = {Scheme::kCoordNB, Scheme::kCoordNBS,
                            Scheme::kCoordNBMS};
  auto baseline = membership_sor(Scheme::kNone);
  const auto normal = harness::run_normal(baseline);
  ASSERT_TRUE(normal.digest.has_value());

  for (Scheme scheme : schemes) {
    auto config = membership_sor(scheme);
    MembershipConfig membership;
    membership.detect_timeout = Duration::millis(600);
    config.membership = membership;
    config.failure = harness::FailureSpec{
        des::TimePoint::origin() + Duration::seconds(normal.exec_time_s * 0.5), 0};
    const auto result = harness::run_experiment(config);
    const std::string what = std::string(to_string(scheme));

    EXPECT_EQ(result.membership_crashes, 1u) << what;
    EXPECT_GE(result.views_established, 1u) << what;
    EXPECT_GE(result.evictions, 1u) << what;
    EXPECT_EQ(result.wrongful_evictions, 0u) << what;  // rank 0 really died
    // Detection beat the deadman fallback: the eviction started recovery.
    EXPECT_EQ(result.forced_recoveries, 0u) << what;
    ASSERT_GE(result.recoveries.size(), 1u) << what;

    EXPECT_EQ(result.digest, normal.digest) << what;
    EXPECT_GT(result.committed_rounds, 0u) << what;
    EXPECT_EQ(result.invariant_violations, 0u) << what;
    EXPECT_GT(result.exec_time_s, normal.exec_time_s) << what;
  }
}

// ---------------------------------------------------------------------------
// Detector selection (binary vs phi-accrual).
// ---------------------------------------------------------------------------

TEST(MembershipConfig, DetectorParsingAndValidation) {
  using chklib::membership::Detector;
  using chklib::membership::parse_detector;
  EXPECT_EQ(parse_detector("binary"), Detector::kBinaryTimeout);
  EXPECT_EQ(parse_detector("phi"), Detector::kPhiAccrual);
  EXPECT_THROW((void)parse_detector("adaptive"), std::invalid_argument);
  EXPECT_STREQ(to_string(Detector::kBinaryTimeout), "binary");
  EXPECT_STREQ(to_string(Detector::kPhiAccrual), "phi");

  // The phi threshold is validated only when the phi detector is selected.
  MembershipConfig config;
  config.phi_threshold_milli = 0;
  EXPECT_NO_THROW(config.validate(8));  // binary mode: threshold unused
  config.detector = Detector::kPhiAccrual;
  EXPECT_THROW(config.validate(8), std::invalid_argument);
  config.phi_threshold_milli = 8000;
  EXPECT_NO_THROW(config.validate(8));
}

// A 20% loss storm alone: every rank is live and beaconing, only lost
// beacons and retransmission bursts delay heartbeats. The headline A/B — under the
// same seed the aggressive binary timeout evicts live ranks while the phi
// detector, which learns the loss-widened inter-arrival distribution, does
// not. Mirrors the BENCH_membership.json pin.
harness::ExperimentConfig loss_storm_config(Scheme scheme) {
  auto config = membership_sor(scheme);
  LinkFaultConfig faults;
  faults.drop = 0.2;
  config.link_faults = faults;
  return config;
}

TEST(Membership, LossStormBinaryEvictsLiveRanksPhiDoesNot) {
  auto baseline = membership_sor(Scheme::kNone);
  const auto normal = harness::run_normal(baseline);
  ASSERT_TRUE(normal.digest.has_value());

  // Binary, aggressive 600 ms timeout: loss alone wrongly evicts.
  auto binary = loss_storm_config(Scheme::kCoordNB);
  MembershipConfig membership;
  membership.hb_period = Duration::millis(250);
  membership.detect_timeout = Duration::millis(600);
  binary.membership = membership;
  const auto binary_result = harness::run_experiment(binary);
  EXPECT_GE(binary_result.wrongful_evictions, 1u);
  EXPECT_GE(binary_result.rejoins, 1u);
  // Hysteresis: plenty of single-observer suspicions receded before any
  // quorum assembled — retracted without a fence or view change.
  EXPECT_GE(binary_result.suspicions_cleared, 1u);
  EXPECT_EQ(binary_result.membership_crashes, 0u);
  EXPECT_EQ(binary_result.digest, normal.digest);
  EXPECT_EQ(binary_result.invariant_violations, 0u);

  // Phi at the classic threshold 8, same seed, same loss: zero evictions.
  auto phi = loss_storm_config(Scheme::kCoordNB);
  MembershipConfig phi_membership;
  phi_membership.hb_period = Duration::millis(250);
  phi_membership.detector = chklib::membership::Detector::kPhiAccrual;
  phi.membership = phi_membership;
  const auto phi_result = harness::run_experiment(phi);
  EXPECT_GT(phi_result.heartbeats_sent, 0u);
  EXPECT_EQ(phi_result.wrongful_evictions, 0u);
  EXPECT_EQ(phi_result.evictions, 0u);
  EXPECT_EQ(phi_result.views_established, 0u);
  EXPECT_EQ(phi_result.membership_crashes, 0u);
  EXPECT_EQ(phi_result.digest, normal.digest);
  EXPECT_EQ(phi_result.invariant_violations, 0u);
  EXPECT_GT(phi_result.invariant_checks, 0u);
}

// An aggressive phi threshold under the storm walks the full phi-mode
// eviction path: fence, join petitions, accrual-window reset and beacon
// re-phase on rejoin — and the answer still survives.
harness::ExperimentConfig phi_storm_config(Scheme scheme) {
  auto config = storm_config(scheme);
  config.membership->detector = chklib::membership::Detector::kPhiAccrual;
  config.membership->phi_threshold_milli = 1000;  // phi 1: hair-trigger
  return config;
}

TEST(Membership, PhiStormFencesRejoinsAndStaysDeterministic) {
  auto baseline = membership_sor(Scheme::kNone);
  const auto normal = harness::run_normal(baseline);
  ASSERT_TRUE(normal.digest.has_value());

  const auto config = phi_storm_config(Scheme::kCoordNBM);
  const auto result = harness::run_experiment(config);
  EXPECT_GT(result.suspicions, 0u);
  EXPECT_GE(result.evictions, 1u);
  EXPECT_GE(result.wrongful_evictions, 1u);
  EXPECT_GE(result.rejoins, 1u);
  EXPECT_EQ(result.membership_crashes, 0u);
  EXPECT_EQ(result.forced_recoveries, 0u);
  EXPECT_EQ(result.digest, normal.digest);
  EXPECT_EQ(result.invariant_violations, 0u);

  // The rejoin re-phase is draw-free: run-twice bit-identity holds.
  const auto report = harness::check_determinism(phi_storm_config(Scheme::kCoordNBM));
  EXPECT_TRUE(report.deterministic);
}

// ---------------------------------------------------------------------------
// Real crash: phi detects it, within the binary detector's envelope.
// ---------------------------------------------------------------------------

TEST(Membership, PhiDetectsRealCrashWithinBinaryEnvelope) {
  auto baseline = membership_sor(Scheme::kNone);
  const auto normal = harness::run_normal(baseline);
  ASSERT_TRUE(normal.digest.has_value());

  const auto kill_run = [&](chklib::membership::Detector detector) {
    auto config = membership_sor(Scheme::kCoordNB);
    MembershipConfig membership;
    membership.detect_timeout = Duration::millis(600);
    membership.detector = detector;
    config.membership = membership;
    config.failure = harness::FailureSpec{
        des::TimePoint::origin() + Duration::seconds(normal.exec_time_s * 0.5), 0};
    return harness::run_experiment(config);
  };

  const auto binary = kill_run(chklib::membership::Detector::kBinaryTimeout);
  const auto phi = kill_run(chklib::membership::Detector::kPhiAccrual);

  for (const auto* result : {&binary, &phi}) {
    EXPECT_EQ(result->membership_crashes, 1u);
    EXPECT_EQ(result->detections, 1u);
    ASSERT_EQ(result->detection_latency_ns.size(), 1u);
    EXPECT_GT(result->detection_latency_ns[0], 0);
    EXPECT_EQ(result->wrongful_evictions, 0u);
    EXPECT_EQ(result->forced_recoveries, 0u);  // detection beat the deadman
    EXPECT_EQ(result->digest, normal.digest);
    EXPECT_EQ(result->invariant_violations, 0u);
  }
  // The learned distribution must not cost more than 2x the hand-tuned
  // binary timeout on a real death (the acceptance envelope).
  EXPECT_LE(phi.detection_latency_ns[0], 2 * binary.detection_latency_ns[0]);
}

// ---------------------------------------------------------------------------
// Wiring guards.
// ---------------------------------------------------------------------------

TEST(Membership, TargetCoordinatorRequiresMembership) {
  auto config = membership_sor(Scheme::kCoordNB);
  faultsim::FaultPlan plan;
  plan.max_failures = 1;
  plan.target_coordinator = true;
  config.faults = plan;
  EXPECT_THROW((void)harness::run_experiment(config), std::invalid_argument);
}

TEST(Membership, TargetCoordinatorRequiresCoordinatedScheme) {
  auto config = membership_sor(Scheme::kIndep);
  config.membership = MembershipConfig{};
  faultsim::FaultPlan plan;
  plan.max_failures = 1;
  plan.target_coordinator = true;
  config.faults = plan;
  EXPECT_THROW((void)harness::run_experiment(config), std::invalid_argument);
}

TEST(Membership, LinkFaultsWithoutTransportAreRejected) {
  // Lossy links always ride the reliable transport: turning it off is a
  // configuration error for every scheme, whether or not membership runs.
  for (const Scheme scheme :
       {Scheme::kNone, Scheme::kCoordNB, Scheme::kCoordNBS, Scheme::kCoordNBM,
        Scheme::kCoordNBMS, Scheme::kIndep, Scheme::kIndepM, Scheme::kIndepMS}) {
    for (const bool with_membership : {false, true}) {
      auto config = storm_config(scheme);
      if (!with_membership) config.membership.reset();
      config.reliable_transport = false;
      EXPECT_THROW((void)harness::run_experiment(config), std::invalid_argument)
          << to_string(scheme) << (with_membership ? " with" : " without")
          << " membership";
    }
  }
}

// ---------------------------------------------------------------------------
// Pinned monitored runs.
// ---------------------------------------------------------------------------

TEST(Membership, MonitoredRowsMatchTheirPins) {
  for (const pinned::MonitoredRow& row : pinned::kMonitoredRows) {
    const auto result = harness::run_experiment(pinned::config_for(row));
    const std::string what = pinned::describe(row);
    EXPECT_EQ(result.trace_hash, row.trace_hash) << what;
    EXPECT_EQ(result.events, row.events) << what;
    EXPECT_EQ(result.exec_time_s, row.exec_time_s) << what;
    EXPECT_EQ(result.digest, row.digest) << what;
    EXPECT_EQ(result.invariant_checks, row.invariant_checks) << what;
    EXPECT_EQ(result.invariant_violations, 0u) << what;
    EXPECT_EQ(result.detections, row.detections) << what;
    EXPECT_EQ(result.views_established, row.views_established) << what;
  }
}

}  // namespace
}  // namespace chk
