#include "obs/tracer.hpp"

#include <cstring>

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

void put_u64(std::vector<std::byte>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xFF));
  }
}

}  // namespace

std::uint64_t hash_events(const std::vector<Event>& events) noexcept {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const Event& e : events) h = mix_event(h, e);
  return h;
}

std::vector<std::byte> Trace::serialize() const {
  std::vector<std::byte> out;
  out.reserve(16 + events.size() * sizeof(Event));
  put_u64(out, events.size());
  put_u64(out, hash);
  for (const Event& e : events) {
    put_u64(out, static_cast<std::uint64_t>(e.t_ns));
    put_u64(out, static_cast<std::uint64_t>(e.dur_ns));
    put_u64(out, e.aux);
    put_u64(out, static_cast<std::uint64_t>(static_cast<std::uint16_t>(e.kind)) |
                     static_cast<std::uint64_t>(e.rank) << 16 |
                     static_cast<std::uint64_t>(e.arg) << 32);
  }
  return out;
}

void Tracer::emit(const Event& event) {
  if (chunks_.empty() || chunks_.back()->size() == kChunkEvents) {
    chunks_.push_back(std::make_unique<std::vector<Event>>());
    chunks_.back()->reserve(kChunkEvents);
  }
  chunks_.back()->push_back(event);
  ++count_;
  hash_ = mix_event(hash_, event);
}

Trace Tracer::take() const {
  Trace trace;
  trace.events.reserve(count_);
  for (const auto& chunk : chunks_) {
    trace.events.insert(trace.events.end(), chunk->begin(), chunk->end());
  }
  trace.hash = hash_;
  return trace;
}

}  // namespace chk::obs
