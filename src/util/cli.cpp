#include "util/cli.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "util/format.hpp"

namespace chk::util {

Cli::Cli(int argc, char** argv) {
  bool passthrough = false;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (passthrough) { positional_.emplace_back(arg); continue; }
    if (arg == "--") { passthrough = true; continue; }
    if (arg.starts_with("--")) {
      // Unambiguous grammar: --key=value assigns, --no-key clears, bare
      // --key is boolean true. (A "--key value" form would make "value"
      // indistinguishable from a positional argument.)
      std::string_view body = arg.substr(2);
      const auto eq = body.find('=');
      if (eq != std::string_view::npos) {
        values_[std::string(body.substr(0, eq))] = std::string(body.substr(eq + 1));
      } else if (body.starts_with("no-")) {
        values_[std::string(body.substr(3))] = "false";
      } else {
        values_[std::string(body)] = "true";
      }
    } else {
      positional_.emplace_back(arg);
    }
  }
}

const std::string* Cli::find(const std::string& key) const {
  read_.insert(key);
  const auto it = values_.find(key);
  return it == values_.end() ? nullptr : &it->second;
}

namespace {

[[noreturn]] void bad_value(const std::string& key, const std::string& expected,
                            const std::string& text) {
  throw std::invalid_argument("--" + key + ": expected " + expected + ", got \"" + text +
                              "\"");
}

/// Full-string numeric parses; "" / "0.5x" / "nan" / "2x" all fail.
double parse_double(const std::string& key, const std::string& text) {
  const char* begin = text.c_str();
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  if (end == begin || *end != '\0' || v != v) bad_value(key, "a number", text);
  return v;
}

std::int64_t parse_int(const std::string& key, const std::string& text) {
  const char* begin = text.c_str();
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(begin, &end, 10);
  if (end == begin || *end != '\0' || errno == ERANGE) bad_value(key, "an integer", text);
  return v;
}

}  // namespace

bool Cli::has(const std::string& key) const { return find(key) != nullptr; }

std::string Cli::get(const std::string& key, const std::string& fallback) const {
  const std::string* value = find(key);
  return value == nullptr ? fallback : *value;
}

std::int64_t Cli::get_int(const std::string& key, std::int64_t fallback, std::int64_t lo,
                          std::int64_t hi) const {
  const std::string* value = find(key);
  if (value == nullptr) return fallback;
  const std::int64_t v = parse_int(key, *value);
  if (v < lo || v > hi) bad_value(key, util::format("an integer in [{}, {}]", lo, hi), *value);
  return v;
}

double Cli::get_double(const std::string& key, double fallback, double lo, double hi) const {
  const std::string* value = find(key);
  if (value == nullptr) return fallback;
  const double v = parse_double(key, *value);
  if (v < lo || v > hi) bad_value(key, util::format("a number in [{}, {}]", lo, hi), *value);
  return v;
}

bool Cli::get_bool(const std::string& key, bool fallback) const {
  const std::string* value = find(key);
  if (value == nullptr) return fallback;
  if (*value == "true" || *value == "1" || *value == "yes") return true;
  if (*value == "false" || *value == "0" || *value == "no") return false;
  bad_value(key, "true/false", *value);
}

template <typename T>
std::vector<T> Cli::get_list(const std::string& key, const std::string& fallback) const {
  const std::string* value = find(key);
  const std::string& text = value == nullptr ? fallback : *value;
  if (text.empty()) throw std::invalid_argument("--" + key + ": empty list");
  std::vector<T> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = text.find(',', start);
    const std::string token = text.substr(start, comma - start);
    if constexpr (std::is_same_v<T, std::string>) {
      if (token.empty()) bad_value(key, "a comma-separated list", text);
      out.push_back(token);
    } else if constexpr (std::is_same_v<T, std::int64_t>) {
      out.push_back(parse_int(key, token));
    } else {
      out.push_back(parse_double(key, token));
    }
    if (comma == std::string::npos) return out;
    start = comma + 1;
  }
}

template std::vector<std::string> Cli::get_list(const std::string&, const std::string&) const;
template std::vector<std::int64_t> Cli::get_list(const std::string&, const std::string&) const;
template std::vector<double> Cli::get_list(const std::string&, const std::string&) const;

void Cli::reject_unread() const {
  for (const auto& [key, value] : values_) {
    if (!read_.contains(key)) throw std::invalid_argument("unknown flag --" + key);
  }
}

bool verify_requested(const Cli& cli) {
#ifdef CHK_INVARIANTS
  return cli.get_bool("verify", true);
#else
  return cli.get_bool("verify", false);
#endif
}

int usage_error(const char* argv0, const std::exception& err) {
  const std::string_view path = argv0 == nullptr ? "" : argv0;
  const std::string name(path.substr(path.rfind('/') + 1));
  std::fprintf(stderr, "%s: %s\n", name.c_str(), err.what());
  return 2;
}

}  // namespace chk::util
