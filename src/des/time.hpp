// Simulated time.
//
// Time is kept as signed 64-bit nanoseconds so that arithmetic is exact and
// event ordering is total and platform-independent (floating-point time
// would make tie-breaking and accumulation order-sensitive).
#pragma once

#include <cmath>
#include <compare>
#include <cstdint>
#include <limits>
#include <string>

#include "util/format.hpp"

namespace chk::des {

class Duration {
 public:
  constexpr Duration() noexcept = default;

  [[nodiscard]] static constexpr Duration zero() noexcept { return Duration{0}; }
  [[nodiscard]] static constexpr Duration max() noexcept {
    return Duration{std::numeric_limits<std::int64_t>::max()};
  }
  [[nodiscard]] static constexpr Duration nanos(std::int64_t v) noexcept { return Duration{v}; }
  [[nodiscard]] static constexpr Duration micros(std::int64_t v) noexcept {
    return Duration{v * 1'000};
  }
  [[nodiscard]] static constexpr Duration millis(std::int64_t v) noexcept {
    return Duration{v * 1'000'000};
  }
  [[nodiscard]] static constexpr Duration secs(std::int64_t v) noexcept {
    return Duration{v * 1'000'000'000};
  }
  /// Rounds to the nearest nanosecond; saturates at Duration::max().
  [[nodiscard]] static Duration seconds(double v) noexcept {
    const double ns = v * 1e9;
    if (ns >= static_cast<double>(std::numeric_limits<std::int64_t>::max())) return max();
    return Duration{static_cast<std::int64_t>(std::llround(ns))};
  }

  [[nodiscard]] constexpr std::int64_t to_nanos() const noexcept { return ns_; }
  [[nodiscard]] constexpr double to_seconds() const noexcept {
    return static_cast<double>(ns_) * 1e-9;
  }

  constexpr auto operator<=>(const Duration&) const noexcept = default;

  constexpr Duration operator+(Duration rhs) const noexcept { return Duration{ns_ + rhs.ns_}; }
  constexpr Duration operator-(Duration rhs) const noexcept { return Duration{ns_ - rhs.ns_}; }
  constexpr Duration operator-() const noexcept { return Duration{-ns_}; }
  constexpr Duration& operator+=(Duration rhs) noexcept { ns_ += rhs.ns_; return *this; }
  constexpr Duration& operator-=(Duration rhs) noexcept { ns_ -= rhs.ns_; return *this; }
  constexpr Duration operator*(std::int64_t k) const noexcept { return Duration{ns_ * k}; }
  [[nodiscard]] Duration scaled(double k) const noexcept {
    return Duration{static_cast<std::int64_t>(std::llround(static_cast<double>(ns_) * k))};
  }
  constexpr Duration operator/(std::int64_t k) const noexcept { return Duration{ns_ / k}; }
  [[nodiscard]] constexpr double operator/(Duration rhs) const noexcept {
    return static_cast<double>(ns_) / static_cast<double>(rhs.ns_);
  }

 private:
  constexpr explicit Duration(std::int64_t ns) noexcept : ns_(ns) {}
  std::int64_t ns_ = 0;
};

class TimePoint {
 public:
  constexpr TimePoint() noexcept = default;

  [[nodiscard]] static constexpr TimePoint origin() noexcept { return TimePoint{}; }
  [[nodiscard]] static constexpr TimePoint max() noexcept {
    TimePoint t;
    t.ns_ = std::numeric_limits<std::int64_t>::max();
    return t;
  }
  [[nodiscard]] static constexpr TimePoint from_nanos(std::int64_t ns) noexcept {
    TimePoint t;
    t.ns_ = ns;
    return t;
  }

  [[nodiscard]] constexpr std::int64_t to_nanos() const noexcept { return ns_; }
  [[nodiscard]] constexpr double to_seconds() const noexcept {
    return static_cast<double>(ns_) * 1e-9;
  }

  constexpr auto operator<=>(const TimePoint&) const noexcept = default;

  constexpr TimePoint operator+(Duration d) const noexcept { return from_nanos(ns_ + d.to_nanos()); }
  constexpr TimePoint operator-(Duration d) const noexcept { return from_nanos(ns_ - d.to_nanos()); }
  constexpr Duration operator-(TimePoint rhs) const noexcept {
    return Duration::nanos(ns_ - rhs.ns_);
  }

  [[nodiscard]] std::string str() const { return util::format("{:.6f}s", to_seconds()); }

 private:
  std::int64_t ns_ = 0;
};

}  // namespace chk::des
