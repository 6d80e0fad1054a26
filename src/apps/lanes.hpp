// 16-byte GCC/Clang vector types for the application kernels: two doubles
// or four int32, which is SSE2 on baseline x86-64. An operator on a vector
// applies the scalar IEEE operation to each lane, so a kernel that keeps
// each element's operations and their order computes the same bits as the
// scalar loop. The root CMakeLists.txt builds with -ffp-contract=off, so no
// a*b + c becomes an FMA on a target that has one.
#pragma once

#include <cstdint>
#include <cstring>

namespace chk::apps {

using f64x2 [[gnu::vector_size(16)]] = double;
using i32x4 [[gnu::vector_size(16)]] = std::int32_t;

/// Reads one vector from `p`, which need not be aligned.
template <typename V, typename T>
[[nodiscard]] V load(const T* p) noexcept {
  static_assert(sizeof(V) % sizeof(T) == 0);
  V v{};
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Writes one vector to `p`, which need not be aligned.
template <typename V, typename T>
void store(T* p, const V& v) noexcept {
  static_assert(sizeof(V) % sizeof(T) == 0);
  std::memcpy(p, &v, sizeof v);
}

}  // namespace chk::apps
