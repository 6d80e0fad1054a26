// Deterministic pseudo-random number generation for the simulator.
//
// Every source of randomness in the project flows through Rng so that a
// given experiment seed reproduces bit-identical runs. The generator is
// xoshiro256** seeded via splitmix64; independent streams are derived with
// Rng::fork so that subsystems (per-node timers, workload generators, ...)
// do not perturb each other's sequences.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace chk::util {

/// splitmix64 step; used for seeding and for cheap stateless hashing.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// xoshiro256** — fast, high-quality, 2^256-1 period.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bull) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Derive an independent child stream. The tag keeps forks for different
  /// purposes decorrelated even when issued in a different order.
  [[nodiscard]] Rng fork(std::uint64_t tag) noexcept {
    std::uint64_t mix = (*this)() ^ (tag * 0x2545f4914f6cdd1dull);
    return Rng{splitmix64(mix)};
  }

  /// Uniform in [0, 1).
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) noexcept { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). n must be > 0. Uses rejection to avoid bias.
  std::uint64_t uniform_u64(std::uint64_t n) noexcept {
    const std::uint64_t threshold = (0 - n) % n;
    for (;;) {
      const std::uint64_t r = (*this)();
      if (r >= threshold) return r % n;
    }
  }

  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Exponential with the given mean (> 0). Used for jittered timers.
  double exponential(double mean) noexcept {
    double u;
    do { u = uniform(); } while (u <= 0.0);
    return -mean * log_approx(u);
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  // std::log is not constexpr-friendly in all toolchains; keep a thin
  // wrapper so the header stays <cmath>-free for fast compiles.
  static double log_approx(double x) noexcept;

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace chk::util
