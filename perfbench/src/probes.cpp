#include "probes.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "chklib/ckpt/image.hpp"
#include "chklib/ckpt/registry.hpp"
#include "des/process.hpp"
#include "des/simulator.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

constexpr int kRepeats = 5;
/// Each timed batch of the per-byte probes covers at least this much data.
constexpr std::size_t kBatchBytes = std::size_t{32} << 20;

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

std::size_t batch_iterations(std::size_t bytes) {
  return std::max<std::size_t>(4, kBatchBytes / std::max<std::size_t>(bytes, 1));
}

/// Self-rescheduling callback chain for the event probe.
struct Chain {
  chk::des::Simulator* sim;
  std::size_t* remaining;
  void operator()() const {
    if (*remaining == 0) return;
    --*remaining;
    sim->schedule_after(chk::des::Duration::nanos(1), Chain{sim, remaining});
  }
};

}  // namespace

double probe_switch_ns(std::size_t delays) {
  std::vector<double> samples;
  for (int r = 0; r < kRepeats; ++r) {
    chk::des::Simulator sim;
    sim.spawn("probe", [delays](chk::des::Process& self) {
      for (std::size_t i = 0; i < delays; ++i) self.delay(chk::des::Duration::nanos(1));
    });
    const auto start = Clock::now();
    sim.run();
    const double wall = seconds_since(start);
    sim.shutdown();
    samples.push_back(wall * 1e9 / (2.0 * static_cast<double>(delays)));
  }
  return median_of(samples);
}

double probe_event_ns(std::size_t events) {
  constexpr std::size_t kChains = 64;
  std::vector<double> samples;
  for (int r = 0; r < kRepeats; ++r) {
    chk::des::Simulator sim;
    std::size_t remaining = events;
    for (std::size_t c = 0; c < kChains; ++c) {
      sim.schedule_after(chk::des::Duration::nanos(1), Chain{&sim, &remaining});
    }
    const auto start = Clock::now();
    const auto run = sim.run();
    const double wall = seconds_since(start);
    samples.push_back(wall * 1e9 / static_cast<double>(run.events_executed));
  }
  return median_of(samples);
}

double probe_capture_ns_per_byte(std::size_t bytes) {
  std::vector<std::byte> region(std::max<std::size_t>(bytes, 1), std::byte{0x5a});
  chk::chklib::CheckpointRegistry registry;
  registry.register_region("state", region);
  const std::size_t iterations = batch_iterations(region.size());
  std::vector<double> samples;
  for (int r = 0; r < kRepeats; ++r) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < iterations; ++i) {
      const std::vector<std::byte> blob = registry.capture();
      registry.restore(blob);
    }
    samples.push_back(seconds_since(start) * 1e9 /
                      static_cast<double>(iterations * region.size()));
  }
  if (region.front() != std::byte{0x5a}) throw std::logic_error("capture probe corrupted its region");
  return median_of(samples);
}

double probe_serialize_ns_per_byte(std::size_t bytes) {
  chk::chklib::CheckpointImage image;
  image.rank = 1;
  image.index = 2;
  image.state.assign(std::max<std::size_t>(bytes, 1), std::byte{0xa5});
  const std::size_t iterations = batch_iterations(image.state.size());
  std::vector<double> samples;
  for (int r = 0; r < kRepeats; ++r) {
    std::size_t round_tripped = 0;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < iterations; ++i) {
      const std::vector<std::byte> blob = image.serialize();
      round_tripped += chk::chklib::CheckpointImage::deserialize(blob).state.size();
    }
    samples.push_back(seconds_since(start) * 1e9 /
                      static_cast<double>(iterations * image.state.size()));
    if (round_tripped != iterations * image.state.size()) {
      throw std::logic_error("serialize probe lost bytes");
    }
  }
  return median_of(samples);
}

}  // namespace perfbench
