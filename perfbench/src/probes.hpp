// Micro-probes: per-operation host costs of single layers, measured from
// outside through their public functions. Each returns the median of
// several repetitions.
#pragma once

#include <cstddef>

namespace perfbench {

/// des: one process looping Process::delay on a bare Simulator; run()
/// wall / (2 * delays), i.e. one baton handoff.
[[nodiscard]] double probe_switch_ns(std::size_t delays);

/// des: self-rescheduling schedule_after callbacks, no processes; run()
/// wall / events.
[[nodiscard]] double probe_event_ns(std::size_t events);

/// chklib/ckpt: CheckpointRegistry::capture + restore of one region of
/// `bytes` bytes; wall / bytes.
[[nodiscard]] double probe_capture_ns_per_byte(std::size_t bytes);

/// chklib/ckpt: CheckpointImage::serialize + deserialize with a `bytes`
/// byte state blob; wall / bytes.
[[nodiscard]] double probe_serialize_ns_per_byte(std::size_t bytes);

}  // namespace perfbench
