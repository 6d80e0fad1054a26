#include "util/format.hpp"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <limits>
#include <stdexcept>

namespace chk::util::detail {

void format_error(const char* why) { throw std::invalid_argument(std::string("format: ") + why); }

namespace {

/// Appends what std::to_chars writes for `value`; `room` must bound its length.
template <typename T, typename... Options>
void append_chars(std::string& out, std::size_t room, T value, Options... options) {
  const std::size_t at = out.size();
  out.resize(at + room);
  const char* end = std::to_chars(out.data() + at, out.data() + out.size(), value, options...).ptr;
  out.resize(static_cast<std::size_t>(end - out.data()));
}

void put_integer(std::string& out, const Arg& arg, const Spec& spec) {
  char digits[20];
  const int base = spec.type == 'x' ? 16 : 10;
  const char* end = std::to_chars(std::begin(digits), std::end(digits), arg.magnitude, base).ptr;
  const auto count = static_cast<std::size_t>(end - digits);
  const std::size_t used = count + (arg.negative ? 1 : 0) + (spec.prefix ? 2 : 0);
  if (arg.negative) out += '-';
  if (spec.prefix) out += "0x";
  if (spec.width > used) out.append(spec.width - used, '0');
  out.append(digits, count);
}

/// `{}` on a double. The shortest scientific form gives the decimal exponent;
/// inside [-4, 16) the shortest fixed form prints the same digits without it
/// ("0.0001", "1000000000000000", "-0").
void put_shortest(std::string& out, double value) {
  char sci[32];
  char* end =
      std::to_chars(std::begin(sci), std::end(sci), value, std::chars_format::scientific).ptr;
  const char* e = std::find(sci, end, 'e');
  int exponent = 16;  // inf and nan have no exponent and print as they are
  if (e != end) std::from_chars(e + (e[1] == '+' ? 2 : 1), end, exponent);
  if (exponent >= -4 && exponent < 16) {
    append_chars(out, 32, value, std::chars_format::fixed);
  } else {
    out.append(sci, end);
  }
}

int precision_of(const Arg& arg) {
  if (arg.negative || arg.magnitude > std::numeric_limits<int>::max()) {
    format_error("precision out of range");
  }
  return static_cast<int>(arg.magnitude);
}

}  // namespace

std::string vformat(std::string_view fmt, std::span<const Arg> args) {
  std::string out;
  const auto put = [&](const Spec& spec, std::size_t index) {
    const Arg& arg = args[index];
    if (arg.kind == ArgKind::kString) {
      out += arg.text;
    } else if (arg.kind == ArgKind::kInteger) {
      put_integer(out, arg, spec);
    } else if (spec.type == 'g') {
      append_chars(out, 32, arg.number, std::chars_format::general, 6);
    } else if (spec.type == 'f') {
      const int digits = spec.precision_arg ? precision_of(args[index + 1]) : spec.precision;
      // A sign, at most 309 integer digits, the point and the fraction.
      append_chars(out, 311 + static_cast<std::size_t>(digits), arg.number,
                   std::chars_format::fixed, digits);
    } else {
      put_shortest(out, arg.number);
    }
  };
  walk(fmt, [&](std::string_view text) { out += text; }, put);
  return out;
}

}  // namespace chk::util::detail
