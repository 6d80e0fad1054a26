// Low-overhead event tracer.
//
// Events are appended to one vector; take() hands it over with its
// order-sensitive hash, computed once. The tracer is gated at run time:
// instrumented objects hold a Tracer* that is null unless an experiment
// opted in, so a run without observation executes the exact same simulated
// schedule — emission never touches the event queue or simulated time.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/event.hpp"

namespace chk::obs {

/// A finished event stream: the records plus their hash_events.
struct Trace {
  std::vector<Event> events;
  std::uint64_t hash = 0;
};

/// Order-sensitive hash over a record sequence (splitmix64-based, seeded
/// like the DES kernel's trace hash).
[[nodiscard]] std::uint64_t hash_events(const std::vector<Event>& events) noexcept;

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void emit(const Event& event) { events_.push_back(event); }

  void span(EventKind kind, std::uint16_t rank, std::int64_t t0_ns, std::int64_t t1_ns,
            std::uint64_t aux = 0, std::uint32_t arg = 0) {
    emit(Event{t0_ns, t1_ns - t0_ns, aux, kind, rank, arg});
  }
  void instant(EventKind kind, std::uint16_t rank, std::int64_t t_ns,
               std::uint64_t aux = 0, std::uint32_t arg = 0) {
    emit(Event{t_ns, 0, aux, kind, rank, arg});
  }

  /// Moves the events out into a Trace; the tracer is left empty.
  [[nodiscard]] Trace take();

 private:
  std::vector<Event> events_;
};

}  // namespace chk::obs
