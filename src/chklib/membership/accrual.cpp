#include "chklib/membership/accrual.hpp"

#include <algorithm>

namespace chk::chklib::membership {
namespace {

// phi = z^2 * log10(e) / 2; log10(e)/2 = 0.21714724... With z in milli
// units, phi_milli = z_milli^2 * kPhiNum / kPhiDen. z_milli is clamped to
// 1e6 (z = 1000 sigma), so z_milli^2 <= 1e12 and the product stays well
// inside int64.
constexpr std::int64_t kPhiNum = 217'147;
constexpr std::int64_t kPhiDen = 1'000'000'000;
constexpr std::int64_t kZMilliMax = 1'000'000;

}  // namespace

std::int64_t isqrt64(std::int64_t v) noexcept {
  if (v <= 0) return 0;
  // Newton's method from a power-of-two overestimate. From x >= sqrt(v)
  // the iteration decreases monotonically until it would tick back up, at
  // which point x == floor(sqrt(v)) — the y < x guard terminates there (a
  // plain x != prev loop would livelock on the period-2 oscillation around
  // near-squares like v = 3). Never overflows: x <= 2^31, x^2 <= 2^62.
  std::int64_t x = 1;
  while (x * x < v && x < (std::int64_t{1} << 31)) x <<= 1;
  std::int64_t y = (x + v / x) / 2;
  while (y < x) {
    x = y;
    y = (x + v / x) / 2;
  }
  return x;
}

std::int64_t phi_threshold_z_milli(std::int64_t threshold_milli) noexcept {
  // z*^2 = threshold / (log10(e)/2)  =>  z*_milli^2 = threshold_milli * kPhiDen / kPhiNum.
  // MembershipConfig::validate rejects non-positive thresholds; clamp
  // the top too so the multiply cannot overflow.
  const std::int64_t t = std::clamp<std::int64_t>(threshold_milli, 1, 1'000'000);
  return isqrt64(t * kPhiDen / kPhiNum);
}

void AccrualWindow::heard(des::TimePoint now) {
  if (clock_running_) {
    const des::Duration gap = now - last_arrival_;
    std::int64_t sample_us = gap.to_nanos() / 1000;
    sample_us = std::clamp<std::int64_t>(sample_us, 0, kMaxSampleUs);
    if (sample_us < kMinSampleUs) {
      // A link-level duplicate of the datagram beacon (or two copies
      // racing through different delays) lands microseconds apart; a
      // near-zero "inter-arrival" is delivery noise, not a beacon period —
      // recording it would drag the mean toward zero and hair-trigger phi.
      last_arrival_ = now;
      return;
    }
    if (ring_.size() < kCapacity) {
      if (ring_.empty()) ring_.reserve(kCapacity);
      ring_.push_back(sample_us);
    } else {
      const std::int64_t old = ring_[head_];
      sum_us_ -= old;
      sum_sq_us_ -= old * old;
      ring_[head_] = sample_us;
      head_ = (head_ + 1) % kCapacity;
    }
    sum_us_ += sample_us;
    sum_sq_us_ += sample_us * sample_us;
  }
  last_arrival_ = now;
  clock_running_ = true;
}

void AccrualWindow::reset() noexcept {
  ring_.clear();
  head_ = 0;
  sum_us_ = 0;
  sum_sq_us_ = 0;
  clock_running_ = false;
}

void AccrualWindow::restart_gap(des::TimePoint now) noexcept {
  last_arrival_ = now;
  clock_running_ = true;
}

std::int64_t AccrualWindow::mean_us() const noexcept {
  if (ring_.empty()) return 0;
  return sum_us_ / static_cast<std::int64_t>(ring_.size());
}

std::int64_t AccrualWindow::stddev_us() const noexcept {
  const auto n = static_cast<std::int64_t>(ring_.size());
  if (n < 2) return 0;
  // var * n = sum_sq - mean * sum is non-negative because mean is the
  // floored integer mean (mean*sum <= (sum/n)*sum <= sum_sq by Cauchy-
  // Schwarz on the integer samples).
  const std::int64_t m = sum_us_ / n;
  const std::int64_t var_num = sum_sq_us_ - m * sum_us_;
  if (var_num <= 0) return 0;
  return isqrt64(var_num / n);
}

std::int64_t AccrualWindow::max_sample_us() const noexcept {
  std::int64_t max_us = 0;
  for (const std::int64_t s : ring_) max_us = std::max(max_us, s);
  return max_us;
}

std::int64_t AccrualWindow::floored_stddev_us() const noexcept {
  const std::int64_t floor_us = min_stddev_.to_nanos() / 1000;
  // Heavy-tail guard: beacon inter-arrivals under loss are geometric
  // (multiples of the period), and a Gaussian z on such a tail is
  // overconfident — a window that happens to hold few delayed samples
  // measures a small sigma and then flags the next ordinary 2-3 beat gap
  // as thousandfold-improbable. The window's worst observed deviation is
  // the empirical tail scale, so the envelope never sits closer to the
  // threshold than an order of magnitude past the worst gap already seen.
  // Clean links never see a delayed beacon (max == mean), so this term
  // vanishes and detection stays floor-driven and fast.
  const std::int64_t tail_us = 2 * (max_sample_us() - mean_us());
  return std::max({stddev_us(), tail_us, floor_us, std::int64_t{1}});
}

std::int64_t AccrualWindow::phi_milli(des::TimePoint now,
                                      std::int64_t threshold_milli) const noexcept {
  if (!clock_running_) return 0;  // never heard: nothing to accrue against
  const des::Duration silence = now - last_arrival_;
  if (!warmed_up()) {
    // Bootstrap: binary semantics against the warm-up timeout.
    return silence > bootstrap_ ? threshold_milli : 0;
  }
  const std::int64_t silence_us =
      std::clamp<std::int64_t>(silence.to_nanos() / 1000, 0, 2 * kMaxSampleUs);
  const std::int64_t m = mean_us();
  if (silence_us <= m) return 0;
  const std::int64_t sd = floored_stddev_us();
  const std::int64_t z_milli =
      std::min<std::int64_t>((silence_us - m) * 1000 / sd, kZMilliMax);
  return z_milli * z_milli * kPhiNum / kPhiDen;
}

des::Duration AccrualWindow::implied_timeout(std::int64_t threshold_milli) const noexcept {
  if (!warmed_up()) return bootstrap_;
  const std::int64_t z_milli = phi_threshold_z_milli(threshold_milli);
  const std::int64_t sd = floored_stddev_us();
  const std::int64_t timeout_us = mean_us() + sd * z_milli / 1000;
  return des::Duration::nanos(timeout_us * 1000);
}

}  // namespace chk::chklib::membership
