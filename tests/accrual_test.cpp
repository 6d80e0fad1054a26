// Unit tests for the phi-accrual failure detector's estimator
// (chklib/membership/accrual.hpp): deterministic integer phi values for a
// pinned sample sequence, warm-up/bootstrap behavior, the minimum-stddev
// floor, the heavy-tail guard, window eviction, the duplicate-gap filter
// and the implied timeout. The service-level behavior (storms, hysteresis,
// rejoin resets) lives in membership_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>

#include "chklib/membership/accrual.hpp"
#include "des/time.hpp"

namespace chk::chklib::membership {
namespace {

using des::Duration;
using des::TimePoint;

// The membership service builds each window from its heartbeat period and
// detect_timeout; these are the storm tests' settings.
constexpr Duration kHbPeriod = Duration::millis(250);
constexpr Duration kDetectTimeout = Duration::millis(600);
constexpr std::int64_t kThreshold = 8000;  // phi 8

/// A window configured the way the service configures one: the stddev
/// floor is a quarter heartbeat (62.5 ms), the warm-up bootstrap the
/// detect_timeout.
AccrualWindow service_window() { return AccrualWindow(kHbPeriod / 4, kDetectTimeout); }

TimePoint at_ms(std::int64_t ms) {
  return TimePoint::origin() + Duration::millis(ms);
}

/// Feed one heartbeat at `t` and then one after each gap, advancing `t`.
void beat(AccrualWindow& w, std::int64_t& t, std::initializer_list<std::int64_t> gaps_ms) {
  for (const std::int64_t gap_ms : gaps_ms) {
    t += gap_ms;
    w.heard(at_ms(t));
  }
}

/// `n` beats `gap_ms` apart after the one at `t`.
void beat_n(AccrualWindow& w, std::int64_t& t, std::uint32_t n, std::int64_t gap_ms) {
  for (std::uint32_t i = 0; i < n; ++i) beat(w, t, {gap_ms});
}

// ---------------------------------------------------------------------------
// Integer square root (the only nontrivial arithmetic primitive).
// ---------------------------------------------------------------------------

TEST(Accrual, IsqrtIsExactFloor) {
  EXPECT_EQ(isqrt64(0), 0);
  EXPECT_EQ(isqrt64(1), 1);
  EXPECT_EQ(isqrt64(3), 1);
  EXPECT_EQ(isqrt64(4), 2);
  EXPECT_EQ(isqrt64(99), 9);
  EXPECT_EQ(isqrt64(100), 10);
  EXPECT_EQ(isqrt64(1'000'000'000'000), 1'000'000);
  EXPECT_EQ(isqrt64((std::int64_t{1} << 62) - 1), 2147483647);
  // Exhaustive floor check around every square in a small range.
  for (std::int64_t r = 1; r < 2000; ++r) {
    EXPECT_EQ(isqrt64(r * r), r);
    EXPECT_EQ(isqrt64(r * r - 1), r - 1);
    EXPECT_EQ(isqrt64(r * r + 1), r);
  }
}

TEST(Accrual, ThresholdZStarMatchesClosedForm) {
  // z*^2 * 0.217147 = phi  =>  phi 8 crosses near z = 6.07.
  EXPECT_EQ(phi_threshold_z_milli(8000), 6069);
  // phi 1 crosses near z = 2.146.
  EXPECT_EQ(phi_threshold_z_milli(1000), 2145);
}

// ---------------------------------------------------------------------------
// Warm-up / bootstrap.
// ---------------------------------------------------------------------------

TEST(Accrual, BootstrapBinarySemanticsBeforeWarmup) {
  AccrualWindow w = service_window();
  w.heard(at_ms(0));  // starts the clock, no sample yet
  std::int64_t t = 0;
  beat_n(w, t, AccrualWindow::kMinSamples - 1, 100);
  EXPECT_EQ(w.samples(), AccrualWindow::kMinSamples - 1);
  EXPECT_FALSE(w.warmed_up());

  // Below the bootstrap interval: no suspicion at all.
  EXPECT_EQ(w.phi_milli(at_ms(t + 600), kThreshold), 0);
  // Above it: exactly the threshold (binary semantics).
  EXPECT_EQ(w.phi_milli(at_ms(t + 601), kThreshold), kThreshold);
  // The implied timeout during warm-up is the bootstrap interval.
  EXPECT_EQ(w.implied_timeout(kThreshold), kDetectTimeout);

  // One more sample ends the warm-up: the same silence is now judged
  // against the learned 100 ms beat.
  beat(w, t, {100});
  EXPECT_TRUE(w.warmed_up());
  EXPECT_EQ(w.phi_milli(at_ms(t + 100), kThreshold), 0);
  EXPECT_LT(w.implied_timeout(kThreshold), kDetectTimeout);
}

TEST(Accrual, NeverHeardAccruesNothingUntilGapRestart) {
  AccrualWindow w = service_window();
  EXPECT_EQ(w.phi_milli(at_ms(10'000), kThreshold), 0);  // no clock: no suspicion
  w.restart_gap(at_ms(0));                                // slate reset primes the clock
  EXPECT_EQ(w.phi_milli(at_ms(601), kThreshold), kThreshold);
}

// ---------------------------------------------------------------------------
// Pinned deterministic phi values for a fixed sample sequence.
// ---------------------------------------------------------------------------

TEST(Accrual, PinnedPhiValuesForFixedSequence) {
  AccrualWindow w = service_window();
  // Inter-arrivals 250, 250, 260, 240 ms, twice: mean 250 ms.
  std::int64_t t = 0;
  w.heard(at_ms(t));
  beat(w, t, {250, 250, 260, 240, 250, 250, 260, 240});
  ASSERT_EQ(w.samples(), 8u);
  ASSERT_TRUE(w.warmed_up());
  EXPECT_EQ(w.mean_us(), 250'000);
  // var = 4 * (10 ms)^2 / 8 = 50e6 us^2 -> sd 7071 us.
  EXPECT_EQ(w.stddev_us(), 7071);
  EXPECT_EQ(w.max_sample_us(), 260'000);
  // The envelope scale is the largest of sd (7071 us), the heavy-tail
  // guard 2 * (max - mean) = 20 ms and the quarter-heartbeat floor
  // (62.5 ms) -> 62.5 ms.

  // Silence 250 ms = the mean: z = 0, phi = 0.
  EXPECT_EQ(w.phi_milli(at_ms(t + 250), kThreshold), 0);
  // Silence 875 ms: z = (875-250)ms / 62.5ms = 10, z_milli = 10000,
  // phi_milli = 1e8 * 217147 / 1e9 = 21714.
  EXPECT_EQ(w.phi_milli(at_ms(t + 875), kThreshold), 21'714);
  // Silence 500 ms: z = 4, phi_milli = 16e6 * 217147 / 1e9 = 3474 — below
  // the phi-8 threshold; the crossing sits at mean + 6.069 * 62.5 ms.
  EXPECT_EQ(w.phi_milli(at_ms(t + 500), kThreshold), 3'474);
  EXPECT_LT(w.phi_milli(at_ms(t + 629), kThreshold), kThreshold);
  EXPECT_GE(w.phi_milli(at_ms(t + 630), kThreshold), kThreshold);

  // Implied timeout = mean + z* sd = 250 ms + 6.069 * 62.5 ms, floored
  // to the microsecond.
  EXPECT_EQ(w.implied_timeout(kThreshold), Duration::micros(250'000 + 62'500 * 6069 / 1000));
}

TEST(Accrual, PhiGrowsMonotonicallyWithSilence) {
  AccrualWindow w = service_window();
  std::int64_t t = 0;
  w.heard(at_ms(t));
  beat_n(w, t, 10, 250);
  std::int64_t last = -1;
  for (std::int64_t silence_ms = 0; silence_ms <= 2000; silence_ms += 50) {
    const std::int64_t phi = w.phi_milli(at_ms(t + silence_ms), kThreshold);
    EXPECT_GE(phi, last) << "silence " << silence_ms << " ms";
    last = phi;
  }
  EXPECT_GT(last, kThreshold);
}

// ---------------------------------------------------------------------------
// Minimum-stddev floor: a perfectly regular link must not hair-trigger.
// ---------------------------------------------------------------------------

TEST(Accrual, MinStddevFloorsQuietLinks) {
  AccrualWindow w = service_window();
  std::int64_t t = 0;
  w.heard(at_ms(t));
  beat_n(w, t, AccrualWindow::kMinSamples, 250);  // zero variance
  EXPECT_EQ(w.stddev_us(), 0);
  // Without the floor a 1 ms wobble would be infinitely improbable. With
  // it, the threshold crossing sits at mean + z* floor = 250 + 6.069 *
  // 62.5 = ~629 ms.
  EXPECT_EQ(w.phi_milli(at_ms(t + 251), kThreshold), 0);  // z = 0.016
  EXPECT_LT(w.phi_milli(at_ms(t + 400), kThreshold), kThreshold);
  EXPECT_GE(w.phi_milli(at_ms(t + 630), kThreshold), kThreshold);
  EXPECT_EQ(w.implied_timeout(kThreshold), Duration::micros(250'000 + 62'500 * 6069 / 1000));
}

// ---------------------------------------------------------------------------
// Heavy-tail guard: an observed loss gap widens the envelope so a repeat of
// it cannot cross the threshold.
// ---------------------------------------------------------------------------

TEST(Accrual, TailGuardAbsorbsRepeatOfWorstObservedGap) {
  AccrualWindow w = service_window();
  std::int64_t t = 0;
  w.heard(at_ms(t));
  // Seven clean beats plus one 750 ms gap (two dropped beacons on a 250 ms
  // period): mean = 2500/8 = 312.5 ms, max - mean = 437.5 ms, so the
  // envelope scale is the tail guard 2 * 437.5 = 875 ms — far above both
  // the sample stddev (~165 ms) and the 62.5 ms floor.
  beat(w, t, {250, 250, 250, 750, 250, 250, 250, 250});
  ASSERT_EQ(w.samples(), 8u);
  ASSERT_TRUE(w.warmed_up());
  EXPECT_EQ(w.mean_us(), 312'500);
  EXPECT_EQ(w.max_sample_us(), 750'000);
  // A three-beat (1 s) silence — one beat beyond the observed worst — is
  // ordinary under 20% loss and must accrue almost nothing.
  EXPECT_LT(w.phi_milli(at_ms(t + 1000), kThreshold), 1'000);
  // Crossing sits at mean + z* * envelope = 312.5 ms + 6.069 * 875 ms.
  EXPECT_EQ(w.implied_timeout(kThreshold), Duration::micros(312'500 + 875 * 6069));
}

// ---------------------------------------------------------------------------
// Window eviction: old samples age out, the estimate adapts.
// ---------------------------------------------------------------------------

TEST(Accrual, WindowEvictsOldestSamples) {
  AccrualWindow w = service_window();
  std::int64_t t = 0;
  w.heard(at_ms(t));
  beat_n(w, t, AccrualWindow::kCapacity, 100);
  EXPECT_EQ(w.samples(), AccrualWindow::kCapacity);
  EXPECT_EQ(w.mean_us(), 100'000);
  // A full ring of slower beats pushes every 100 ms sample out.
  beat_n(w, t, AccrualWindow::kCapacity - 1, 400);
  EXPECT_EQ(w.samples(), AccrualWindow::kCapacity);
  EXPECT_GT(w.stddev_us(), 0);  // one 100 ms sample is still in the ring
  beat(w, t, {400});
  EXPECT_EQ(w.samples(), AccrualWindow::kCapacity);
  EXPECT_EQ(w.mean_us(), 400'000);
  EXPECT_EQ(w.stddev_us(), 0);
  // The adapted window tolerates silence the young window would not have.
  EXPECT_EQ(w.phi_milli(at_ms(t + 400), kThreshold), 0);
}

TEST(Accrual, SamplesAreClampedToTheBound) {
  AccrualWindow w = service_window();
  w.heard(at_ms(0));
  w.heard(at_ms(10'000'000));  // ~2.8 h gap: clamped to 60 s
  EXPECT_EQ(w.samples(), 1u);
  AccrualWindow regular = service_window();
  regular.heard(at_ms(0));
  regular.heard(TimePoint::origin() + Duration::secs(60));
  EXPECT_EQ(w.mean_us(), regular.mean_us());
}

// ---------------------------------------------------------------------------
// Duplicate-gap filter: a link-level duplicate of a beacon is not a sample.
// ---------------------------------------------------------------------------

TEST(Accrual, DuplicateArrivalsRestartTheGapWithoutASample) {
  AccrualWindow w = service_window();
  w.heard(at_ms(0));
  w.heard(at_ms(250));
  // A duplicate 0.4 ms behind the beacon: below the 1 ms noise floor.
  w.heard(TimePoint::origin() + Duration::micros(250'400));
  EXPECT_EQ(w.samples(), 1u);
  EXPECT_EQ(w.mean_us(), 250'000);
  // It still restarted the silence: the next beacon's sample is measured
  // from the duplicate.
  w.heard(at_ms(500));
  EXPECT_EQ(w.samples(), 2u);
  EXPECT_EQ(w.mean_us(), (250'000 + 249'600) / 2);
}

// ---------------------------------------------------------------------------
// Reset / gap restart.
// ---------------------------------------------------------------------------

TEST(Accrual, ResetForgetsHistory) {
  AccrualWindow w = service_window();
  std::int64_t t = 0;
  w.heard(at_ms(t));
  beat_n(w, t, 10, 250);
  ASSERT_TRUE(w.warmed_up());
  w.reset();
  EXPECT_EQ(w.samples(), 0u);
  EXPECT_FALSE(w.warmed_up());
  EXPECT_EQ(w.phi_milli(at_ms(t + 10'000), kThreshold), 0);  // clock stopped too
}

TEST(Accrual, RestartGapForgivesArtificialSilence) {
  AccrualWindow w = service_window();
  std::int64_t t = 0;
  w.heard(at_ms(t));
  beat_n(w, t, 10, 250);
  // A long pause (e.g. rollback restart) would cross any threshold...
  EXPECT_GT(w.phi_milli(at_ms(t + 5'000), kThreshold), kThreshold);
  // ...but restarting the gap forgives it without forgetting the samples.
  w.restart_gap(at_ms(t + 5'000));
  EXPECT_EQ(w.samples(), 10u);
  EXPECT_EQ(w.phi_milli(at_ms(t + 5'000), kThreshold), 0);
  // And the next heartbeat records the gap since the restart, not the
  // artificial 5 s pause.
  w.heard(at_ms(t + 5'250));
  EXPECT_EQ(w.samples(), 11u);
  EXPECT_EQ(w.mean_us(), 250'000);
}

}  // namespace
}  // namespace chk::chklib::membership
