#include "util/hash.hpp"

#include <bit>
#include <cstring>

namespace chk::util {

namespace {

// The xxHash64 primes. Each is odd, so multiplying by it is a bijection
// modulo 2^64.
constexpr std::uint64_t kPrime1 = 0x9e3779b185ebca87ull;
constexpr std::uint64_t kPrime2 = 0xc2b2ae3d27d4eb4full;
constexpr std::uint64_t kPrime3 = 0x165667b19e3779f9ull;

std::uint64_t load_word(const std::byte* p) noexcept {
  std::uint64_t word = 0;
  std::memcpy(&word, p, sizeof word);
  return word;
}

/// One word into one accumulator. For a fixed `acc` the map from `word` is
/// injective (an odd multiply, then an add); for a fixed `word` the map
/// from `acc` is a bijection (an add, a rotation, an odd multiply).
constexpr std::uint64_t mix(std::uint64_t acc, std::uint64_t word) noexcept {
  return std::rotl(acc + word * kPrime2, 31) * kPrime1;
}

}  // namespace

std::uint64_t hash_bytes(std::span<const std::byte> bytes) noexcept {
  const std::byte* p = bytes.data();
  const std::size_t size = bytes.size();
  std::uint64_t lane0 = kPrime1;
  std::uint64_t lane1 = kPrime2;
  std::uint64_t lane2 = kPrime3;
  std::uint64_t lane3 = kPrime1 + kPrime2;
  std::size_t at = 0;
  for (; at + 32 <= size; at += 32) {
    lane0 = mix(lane0, load_word(p + at));
    lane1 = mix(lane1, load_word(p + at + 8));
    lane2 = mix(lane2, load_word(p + at + 16));
    lane3 = mix(lane3, load_word(p + at + 24));
  }
  // Fold the lanes into one chain, which then takes the whole words left
  // and the zero-padded byte tail.
  std::uint64_t h = mix(mix(mix(lane0, lane1), lane2), lane3);
  for (; at + 8 <= size; at += 8) h = mix(h, load_word(p + at));
  if (at < size) {
    std::uint64_t tail = 0;
    std::memcpy(&tail, p + at, size - at);
    h = mix(h, tail);
  }
  // The length, then an avalanche of xor-shift and odd-multiply steps
  // (each a bijection).
  h ^= static_cast<std::uint64_t>(size);
  h = (h ^ (h >> 33)) * kPrime2;
  h = (h ^ (h >> 29)) * kPrime3;
  return h ^ (h >> 32);
}

}  // namespace chk::util
