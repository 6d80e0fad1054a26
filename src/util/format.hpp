// Type-checked string formatting over std::to_chars (GCC 12 ships no
// <format>). util::format takes integers (not bool or char), double and
// string-likes, and the std::format fields this tree uses:
//
//   {}             any argument; a double prints its shortest round-trip
//                  digits, fixed when the decimal exponent is in [-4, 16)
//                  and as d.ddde±XX otherwise
//   {:.Nf} {:.{}f} a double, fixed with N digits after the point; {} takes
//                  N from the next (integer) argument
//   {:g}           a double, %g-style with 6 significant digits
//   {:0Nx} {:#x}   an integer in hex, zero-padded to N characters / after 0x
//   {:0N}          an integer in decimal, zero-padded to N characters
//
// The format string is parsed at compile time: an unknown spec, a spec that
// does not fit its argument's type, or a wrong argument count does not compile.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>

namespace chk::util {
namespace detail {

enum class ArgKind : std::uint8_t { kInteger, kDouble, kString };

template <typename T, typename U = std::decay_t<T>>
consteval ArgKind kind_of() {
  constexpr bool integer = std::is_integral_v<U> && !std::is_same_v<U, bool> &&
                           !std::is_same_v<U, char>;
  static_assert(integer || std::is_same_v<U, double> ||
                    std::is_convertible_v<const U&, std::string_view>,
                "util::format takes integers, double and strings");
  if (integer) return ArgKind::kInteger;
  return std::is_same_v<U, double> ? ArgKind::kDouble : ArgKind::kString;
}

/// One argument with its type erased; an integer is kept as sign and magnitude.
struct Arg {
  ArgKind kind = ArgKind::kInteger;
  bool negative = false;
  std::uint64_t magnitude = 0;
  double number = 0;
  std::string_view text;
};

template <typename T>
Arg make_arg(const T& value) {
  if constexpr (kind_of<T>() == ArgKind::kDouble) {
    return {ArgKind::kDouble, false, 0, value, {}};
  } else if constexpr (kind_of<T>() == ArgKind::kString) {
    return {ArgKind::kString, false, 0, 0, value};
  } else {
    const auto bits = static_cast<std::uint64_t>(value);
    const bool negative = std::is_signed_v<T> && bits >> 63 != 0;
    return {ArgKind::kInteger, negative, negative ? 0 - bits : bits, 0, {}};
  }
}

/// One parsed replacement field.
struct Spec {
  char type = 0;               // 0, 'f', 'g' or 'x'
  bool prefix = false;         // '#': 0x before hex digits
  bool precision_arg = false;  // ".{}": the precision is the next argument
  std::size_t width = 0;       // '0N': zero-pad to N characters
  int precision = -1;          // ".N"; -1 when absent
};

/// Not constexpr, so reaching it while a format string is checked at
/// compile time stops the build; at runtime it throws std::invalid_argument.
[[noreturn]] void format_error(const char* why);

/// Parses the field whose '{' is just before fmt[pos]; leaves pos past its '}'.
constexpr Spec parse_field(std::string_view fmt, std::size_t& pos) {
  const auto at = [&](char c) { return pos < fmt.size() && fmt[pos] == c; };
  const auto eat = [&](char c) { return at(c) ? (++pos, true) : false; };
  const auto digit = [&] { return pos < fmt.size() && fmt[pos] >= '0' && fmt[pos] <= '9'; };
  const auto number = [&] {
    if (!digit()) format_error("expected a number");
    int n = 0;
    while (digit()) n = n * 10 + fmt[pos++] - '0';
    return n;
  };
  Spec spec;
  if (eat(':')) {
    spec.prefix = eat('#');
    if (eat('0')) spec.width = static_cast<std::size_t>(number());
    if (eat('.')) {
      spec.precision_arg = eat('{');
      if (!spec.precision_arg) spec.precision = number();
      if (spec.precision_arg && !eat('}')) format_error("expected '{}' as the precision");
    }
    if (at('f') || at('g') || at('x')) spec.type = fmt[pos++];
  }
  if (!eat('}')) format_error("unsupported format spec");
  if ((spec.type == 'f') != (spec.precision >= 0 || spec.precision_arg)) {
    format_error("a precision goes with 'f', and 'f' needs one");
  }
  if (spec.prefix && spec.type != 'x') format_error("'#' goes with 'x' only");
  if (spec.width > 0 && (spec.type == 'f' || spec.type == 'g')) format_error("width on a double");
  return spec;
}

/// Passes each stretch of literal text in `fmt` to on_text and each field,
/// with its argument's index, to on_field; returns the arguments consumed.
template <typename OnText, typename OnField>
constexpr std::size_t walk(std::string_view fmt, OnText on_text, OnField on_field) {
  std::size_t args = 0, pos = 0;
  while (pos < fmt.size()) {
    const std::size_t brace = fmt.find_first_of("{}", pos);
    on_text(fmt.substr(pos, brace - pos));
    if (brace == std::string_view::npos) break;
    if (fmt[brace] == '}') format_error("a '}' outside a field");
    pos = brace + 1;
    const Spec spec = parse_field(fmt, pos);
    on_field(spec, args);
    args += spec.precision_arg ? 2 : 1;
  }
  return args;
}

std::string vformat(std::string_view fmt, std::span<const Arg> args);

}  // namespace detail

/// A format string checked, at compile time, against the argument types.
template <typename... Args>
struct FormatString {
  // Implicit and consteval: a string literal converts at the call site, and
  // a bad one stops the build there.
  consteval FormatString(const char* literal) : text(literal) {
    using detail::ArgKind;
    const std::array<ArgKind, sizeof...(Args)> kinds{detail::kind_of<Args>()...};
    const auto check = [&](const detail::Spec& spec, std::size_t arg) {
      const std::size_t last = arg + (spec.precision_arg ? 1 : 0);
      if (last >= kinds.size()) detail::format_error("too few arguments");
      const bool wants_double = spec.type == 'f' || spec.type == 'g';
      const bool wants_integer = spec.type == 'x' || spec.width > 0;
      if ((wants_double && kinds[arg] != ArgKind::kDouble) ||
          (wants_integer && kinds[arg] != ArgKind::kInteger) ||
          (spec.precision_arg && kinds[last] != ArgKind::kInteger)) {
        detail::format_error("spec does not fit its argument");
      }
    };
    if (detail::walk(text, [](std::string_view) {}, check) != kinds.size()) {
      detail::format_error("too many arguments");
    }
  }

  const std::string_view text;
};

template <typename... Args>
[[nodiscard]] std::string format(FormatString<std::type_identity_t<Args>...> fmt,
                                 const Args&... args) {
  const std::array<detail::Arg, sizeof...(Args)> erased{detail::make_arg(args)...};
  return detail::vformat(fmt.text, erased);
}

}  // namespace chk::util
