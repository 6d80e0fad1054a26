// Host-time spans recorded by the benchmark around its own calls into the
// simulator's layers, plus the getrusage counters read beside them.
//
// A span is (name, start, end, parent, cell): the name is "<layer>.<call>",
// the parent is the span open when this one began, and the cell is the
// workload cell the call worked for (-1 when none). Spans stay in memory
// and are written out once, when the run ends. A layer's self time is the
// time its spans cover minus the part covered by their child spans.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Process-wide resource counters (every simulated process is a thread of
/// this process, so RUSAGE_SELF covers them all).
struct Usage {
  double user_s = 0;
  double sys_s = 0;
  std::int64_t voluntary_switches = 0;
  std::int64_t max_rss_kib = 0;

  [[nodiscard]] static Usage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.user_s = static_cast<double>(ru.ru_utime.tv_sec) + static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
    u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) + static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
    u.voluntary_switches = ru.ru_nvcsw;
    u.max_rss_kib = ru.ru_maxrss;
    return u;
  }
};

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  int cell = -1;
};

/// In-memory span log. Disabled logs record nothing, so the untraced
/// passes pay one branch per call.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Opens a span; returns its index, or -1 when disabled.
  int open(std::string name, int cell) {
    if (!enabled_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{std::move(name), now_ns(), 0, parent, cell});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    stack_.pop_back();
  }

  /// Total and self seconds per layer (the name up to its first '.').
  struct LayerTime {
    double total_s = 0;
    double self_s = 0;
  };
  [[nodiscard]] std::map<std::string, LayerTime> layer_times() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    std::map<std::string, LayerTime> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      LayerTime& lt = out[layer_of(s.name)];
      lt.total_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      lt.self_s += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
    }
    return out;
  }

  [[nodiscard]] static std::string layer_of(const std::string& name) {
    return name.substr(0, name.find('.'));
  }

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span: open on construction, close on destruction.
class Scope {
 public:
  Scope(SpanLog& log, std::string name, int cell = -1)
      : log_(log), index_(log.open(std::move(name), cell)) {}
  ~Scope() { log_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  int index_;
};

}  // namespace perfbench
