// Strict command-line flag parser used by the example and bench binaries.
// Grammar: --name=value assigns, --no-name sets "false", bare --name sets
// "true"; any other token, and every token after "--", is positional.
// Getters parse the whole value, numeric ones within a range, and throw
// std::invalid_argument naming the flag when it does not parse or lies out
// of range, and reject_unread() reports a flag no getter read, so a typo
// or a malformed value stops the run instead of silently running a
// different experiment. Binaries print the message and exit 2.
#pragma once

#include <cstdint>
#include <exception>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace chk::util {

class Cli {
 public:
  Cli(int argc, char** argv);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key, const std::string& fallback) const;
  /// The whole value must be a decimal integer in [lo, hi].
  [[nodiscard]] std::int64_t get_int(const std::string& key, std::int64_t fallback,
                                     std::int64_t lo, std::int64_t hi) const;
  /// The whole value must be a number in [lo, hi] (NaN rejected).
  [[nodiscard]] double get_double(const std::string& key, double fallback, double lo,
                                  double hi) const;
  /// true/1/yes or false/0/no.
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;
  /// A non-empty comma-separated list whose every entry parses as T
  /// (std::string, std::int64_t or double; strings must be non-empty).
  /// `fallback` is parsed the same way when the flag is absent.
  template <typename T>
  [[nodiscard]] std::vector<T> get_list(const std::string& key, const std::string& fallback) const;

  /// Throws std::invalid_argument naming the first flag that no getter (nor
  /// has()) has read. Call it once every flag the binary accepts is read.
  void reject_unread() const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept { return positional_; }

 private:
  /// The flag's value (nullptr when absent); marks the flag as read.
  [[nodiscard]] const std::string* find(const std::string& key) const;

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> read_;
};

/// Shared "--verify" / "--no-verify" convention for example and bench
/// binaries: run with the protocol invariant monitor installed. The default
/// follows the build: on under CHK_INVARIANTS, off otherwise.
[[nodiscard]] bool verify_requested(const Cli& cli);

/// Reports a rejected flag as "<program>: <message>" on stderr and returns
/// the exit status for it, 2.
int usage_error(const char* argv0, const std::exception& err);

}  // namespace chk::util
