// Compile-only fixture for util::format's compile-time check of the format
// string. ctest compiles it with -fsyntax-only as is, where it must compile,
// and once with each FORMAT_BAD_* macro defined, where it must not.
#include <cstdint>
#include <string>

#include "util/format.hpp"

namespace chk::util {

std::string progress(double share, std::int64_t done) {
#if defined(FORMAT_BAD_TOO_FEW_ARGS)
  return format("{:.2f} after {} steps", share);
#elif defined(FORMAT_BAD_TOO_MANY_ARGS)
  return format("{:.2f} after {} steps", share, done, done);
#elif defined(FORMAT_BAD_FIXED_ON_INTEGER)
  return format("{:.2f} after {} steps", done, done);
#elif defined(FORMAT_BAD_UNSUPPORTED_SPEC)
  return format("{:>8} after {} steps", share, done);
#elif defined(FORMAT_BAD_ARG_TYPE)
  return format("{:.2f} after {} steps", share, done > 0);
#else
  return format("{:.2f} after {} steps", share, done);
#endif
}

}  // namespace chk::util
