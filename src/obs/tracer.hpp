// Low-overhead event tracer.
//
// Events are appended to fixed-size chunks (no per-event allocation, no
// reallocation copying), with a running order-sensitive hash over the
// emitted records. The tracer is gated at run time: instrumented objects
// hold a Tracer* that is null unless an experiment opted in, so a run
// without observation executes the exact same simulated schedule —
// emission never touches the event queue or simulated time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/event.hpp"

namespace chk::obs {

/// A finished event stream: flattened records plus their running hash.
struct Trace {
  std::vector<Event> events;
  std::uint64_t hash = 0;

  /// Fixed-layout little-endian binary serialization (determinism checks
  /// compare these byte strings across runs).
  [[nodiscard]] std::vector<std::byte> serialize() const;
};

/// Order-sensitive hash over a record sequence (splitmix64-based, seeded
/// like the DES kernel's trace hash).
[[nodiscard]] std::uint64_t hash_events(const std::vector<Event>& events) noexcept;

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void emit(const Event& event);

  void span(EventKind kind, std::uint16_t rank, std::int64_t t0_ns, std::int64_t t1_ns,
            std::uint64_t aux = 0, std::uint32_t arg = 0) {
    emit(Event{t0_ns, t1_ns - t0_ns, aux, kind, rank, arg});
  }
  void instant(EventKind kind, std::uint16_t rank, std::int64_t t_ns,
               std::uint64_t aux = 0, std::uint32_t arg = 0) {
    emit(Event{t_ns, 0, aux, kind, rank, arg});
  }

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t hash() const noexcept { return hash_; }

  /// Flatten the chunks into a Trace (tracer keeps its contents).
  [[nodiscard]] Trace take() const;

 private:
  static constexpr std::size_t kChunkEvents = 4096;

  std::vector<std::unique_ptr<std::vector<Event>>> chunks_;
  std::size_t count_ = 0;
  std::uint64_t hash_ = 0x9e3779b97f4a7c15ULL;
};

}  // namespace chk::obs
