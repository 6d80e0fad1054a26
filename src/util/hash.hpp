// Word-wide 64-bit hash of a byte buffer: the checksum that seals
// checkpoint images and channel logs, and the dirty-chunk hash of
// incremental checkpointing.
//
// Four independent lanes each take every fourth 8-byte word, so the
// multiply chains overlap. Every step is a bijection of the hash state for
// a fixed input word and an injection of the word for a fixed state. So
// two buffers of equal length that differ only inside one 8-byte word
// (counted from the start) always hash differently: every single-byte
// corruption is caught. Not a cryptographic hash.
#pragma once

#include <cstdint>
#include <span>

namespace chk::util {

[[nodiscard]] std::uint64_t hash_bytes(std::span<const std::byte> bytes) noexcept;

}  // namespace chk::util
