#include "obs/tracer.hpp"

#include <utility>

namespace chk::obs {

namespace {

constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

constexpr std::uint64_t mix_event(std::uint64_t h, const Event& e) noexcept {
  h = mix64(h ^ static_cast<std::uint64_t>(e.t_ns));
  h = mix64(h ^ static_cast<std::uint64_t>(e.dur_ns));
  h = mix64(h ^ e.aux);
  h = mix64(h ^ (static_cast<std::uint64_t>(e.kind) << 32 |
                 static_cast<std::uint64_t>(e.rank) << 16) ^
            e.arg);
  return h;
}

}  // namespace

std::uint64_t hash_events(const std::vector<Event>& events) noexcept {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const Event& e : events) h = mix_event(h, e);
  return h;
}

Trace Tracer::take() {
  Trace trace;
  trace.events = std::move(events_);
  events_.clear();  // a moved-from vector is valid but unspecified
  trace.hash = hash_events(trace.events);
  return trace;
}

}  // namespace chk::obs
