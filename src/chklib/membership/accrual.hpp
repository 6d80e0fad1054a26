// Phi-accrual failure detection (Hayashibara-style), integer-exact.
//
// The binary detector (service.hpp) suspects any member silent for longer
// than a fixed detect_timeout. That knob cannot be tuned per-link: under
// the lossy-link model a retransmission burst can silence a perfectly live
// rank for seconds, and an aggressive timeout turns every burst into a
// wrongful eviction (the false-suspicion storm the membership bench
// measures). The accrual detector replaces the binary verdict with a
// *suspicion level* phi derived from the observed heartbeat inter-arrival
// distribution: each (observer, subject) pair keeps a fixed-size ring of
// inter-arrival samples, and phi grows with how improbable the current
// silence is under that history. Links that are slow or jittery earn wide
// windows automatically; quiet links keep tight ones — detection adapts
// where a hand-tuned timeout cannot (Hayashibara et al., "The phi accrual
// failure detector", SRDS 2004).
//
// Determinism discipline: everything is integer math. Samples are stored
// in microseconds, mean/variance come from running sums, the standard
// deviation is an integer square root, and phi is computed in milli-phi
// fixed point from the Gaussian Chernoff tail bound
//
//   P(silence >= t) <= exp(-z^2 / 2),  z = (t - mean) / stddev
//   phi(t) = -log10 P  =>  phi = z^2 * log10(e) / 2 = 0.21714724 * z^2
//
// so phi_milli = z_milli^2 * 217147 / 1e9 with z in milli units. The bound
// is monotone in z, needs only the sample mean and variance, and involves
// no floating point — the chklint duration-arithmetic rule applies to this
// file like any other (Duration values only ever meet integers).
//
// Warm-up: with fewer than AccrualWindow::kMinSamples inter-arrivals the
// distribution is meaningless, so the window falls back to a plain
// bootstrap interval (binary semantics) until it has learned one. A
// minimum-stddev floor keeps near-perfect links (variance ~ 0 in a
// deterministic simulator) from hair-triggering on the first scheduling
// wobble. The membership service supplies both: the floor is a quarter of
// its heartbeat period and the bootstrap interval its detect_timeout.
#pragma once

#include <cstdint>
#include <vector>

#include "des/time.hpp"

namespace chk::chklib::membership {

/// Integer square root: floor(sqrt(v)), exact for 0 <= v <= 2^62 (every
/// caller clamps its radicand well below that; negative v returns 0).
[[nodiscard]] std::int64_t isqrt64(std::int64_t v) noexcept;

/// One (observer, subject) inter-arrival estimator. The window owns its
/// own "last arrival" clock so a caller can restart the silence gap (view
/// changes, recovery restarts) without forging a sample.
class AccrualWindow {
 public:
  /// Ring capacity: how many recent inter-arrival samples shape the
  /// distribution. Bigger = steadier estimates, slower adaptation.
  static constexpr std::uint32_t kCapacity = 32;
  /// Warm-up: below this many samples phi falls back to the bootstrap
  /// interval (binary semantics) instead of a meaningless few-sample
  /// distribution.
  static constexpr std::uint32_t kMinSamples = 8;
  /// Samples are clamped to this bound (microseconds) so the running
  /// sum-of-squares stays inside int64 for a full ring.
  static constexpr std::int64_t kMaxSampleUs = 60'000'000;  // 60 s
  /// Gaps below this (microseconds) are duplicate-delivery noise — the
  /// beacon rides an unsequenced datagram plane, so link-level duplicates
  /// arrive microseconds apart — and are not recorded as samples.
  static constexpr std::int64_t kMinSampleUs = 1'000;  // 1 ms

  static_assert(kMinSamples >= 2 && kMinSamples <= kCapacity);
  static_assert(kMaxSampleUs * kMaxSampleUs <= INT64_MAX / kCapacity,
                "a full ring's sum of squares must fit in int64");

  /// `min_stddev` floors the estimated stddev: quiet links in a
  /// deterministic simulator can measure variance ~ 0, and without a floor
  /// the first contention wobble would cross any threshold. `bootstrap` is
  /// the binary timeout used while the window is still warming up.
  AccrualWindow(des::Duration min_stddev, des::Duration bootstrap) noexcept
      : min_stddev_(min_stddev), bootstrap_(bootstrap) {}

  /// A heartbeat arrived: record now - last_arrival as an inter-arrival
  /// sample (evicting the oldest once the ring is full) and restart the
  /// silence gap. The first arrival after a reset only starts the clock.
  void heard(des::TimePoint now);

  /// Forget every sample and the arrival clock (subject evicted/rejoined:
  /// stale pre-fence samples must not poison phi). The next heartbeat
  /// starts a fresh history.
  void reset() noexcept;

  /// Restart only the silence gap (e.g. after a rollback restart every
  /// rank resumes at once): keeps the learned distribution, forgets the
  /// artificial gap the restart created. Also (re)starts the arrival clock
  /// so silence accrues even against a subject never heard from.
  void restart_gap(des::TimePoint now) noexcept;

  /// Suspicion level in milli-phi at time `now`. Warm-up: 0 at/below the
  /// bootstrap interval, exactly `threshold_milli` above it.
  [[nodiscard]] std::int64_t phi_milli(des::TimePoint now,
                                       std::int64_t threshold_milli) const noexcept;

  /// The silence at which phi crosses `threshold_milli`: mean + z* stddev,
  /// where z* solves z^2 * 0.21714724 = threshold. This is the detector's
  /// current effective timeout — the deadman fallback and sweep cadence
  /// derive from it. During warm-up it is the bootstrap interval.
  [[nodiscard]] des::Duration implied_timeout(std::int64_t threshold_milli) const noexcept;

  [[nodiscard]] std::size_t samples() const noexcept { return ring_.size(); }
  [[nodiscard]] bool warmed_up() const noexcept { return ring_.size() >= kMinSamples; }
  /// Sample mean / stddev / max in microseconds (integer-floored; stddev
  /// before the envelope floors). Exposed for tests.
  [[nodiscard]] std::int64_t mean_us() const noexcept;
  [[nodiscard]] std::int64_t stddev_us() const noexcept;
  [[nodiscard]] std::int64_t max_sample_us() const noexcept;

 private:
  /// The deviation scale phi divides by: the sample stddev floored by
  /// min_stddev AND by twice the window's worst observed deviation
  /// (max sample - mean). The latter is the heavy-tail guard: beacon gaps
  /// under loss are geometric, not Gaussian, and a naive z-score wildly
  /// overstates how improbable a gap slightly beyond a quiet window's
  /// history is. Clean links (max == mean) are unaffected.
  [[nodiscard]] std::int64_t floored_stddev_us() const noexcept;

  des::Duration min_stddev_;
  des::Duration bootstrap_;
  std::vector<std::int64_t> ring_;  ///< inter-arrival samples, microseconds
  std::size_t head_ = 0;            ///< next slot to overwrite once full
  std::int64_t sum_us_ = 0;
  std::int64_t sum_sq_us_ = 0;
  des::TimePoint last_arrival_;
  bool clock_running_ = false;
};

/// Effective milli-phi z* for a threshold: isqrt(threshold * 1e9 / 217147)
/// in milli units.
[[nodiscard]] std::int64_t phi_threshold_z_milli(std::int64_t threshold_milli) noexcept;

}  // namespace chk::chklib::membership
