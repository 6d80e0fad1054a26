// Incremental checkpointing.
//
// The paper's related work ([13], Elnozahy et al.'s consistent-checkpointing
// study) reduced the dominant cost — writing checkpoints to stable storage —
// with incremental and copy-on-write techniques. This module implements the
// incremental part for the reproduction: the registered state is hashed in
// fixed-size chunks; a delta image stores only the chunks that changed since
// the previous checkpoint, and recovery reconstructs the state by applying
// the delta chain on top of the last full image.
//
// Pays off exactly where the paper's workloads suggest: ISING's quenched
// coupling arrays never change after initialization, GAUSS rows stop
// changing once the pivot passes them — while SOR dirties its whole grid every sweep and
// gains nothing (the ablation bench shows both).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "chklib/ckpt/registry.hpp"
#include "util/serialize.hpp"

namespace chk::chklib {

/// A delta between two full state blobs of identical layout.
struct StateDelta {
  std::uint64_t full_size = 0;          ///< size of the full blob it patches to
  std::uint32_t chunk_size = 0;
  std::vector<std::uint32_t> chunks;    ///< indices of changed chunks
  std::vector<std::byte> data;          ///< concatenated changed-chunk bytes

  [[nodiscard]] std::vector<std::byte> serialize() const;
  [[nodiscard]] static StateDelta deserialize(std::span<const std::byte> blob);

  /// Patch `base` in place (base must be the predecessor state).
  void apply(std::vector<std::byte>& base) const;

  [[nodiscard]] std::size_t payload_bytes() const noexcept { return data.size(); }
};

/// Per-process dirty-chunk tracker. capture_full() establishes a baseline;
/// capture_delta() diffs the current blob against the remembered hashes.
class IncrementalTracker {
 public:
  explicit IncrementalTracker(std::uint32_t chunk_size = 4096) : chunk_size_(chunk_size) {}

  /// Record the baseline hashes of a full capture.
  void rebase(std::span<const std::byte> full_blob);

  /// Diff `full_blob` against the baseline and advance the baseline.
  /// The blob must have the same size as the baseline (same registry
  /// layout); otherwise a full rebase is required (returns nullopt).
  [[nodiscard]] std::optional<StateDelta> capture_delta(std::span<const std::byte> full_blob);

  [[nodiscard]] bool has_baseline() const noexcept { return !hashes_.empty() || size_ > 0; }
  void reset() noexcept {
    hashes_.clear();
    size_ = 0;
  }

 private:
  std::uint32_t chunk_size_;
  std::size_t size_ = 0;
  std::vector<std::uint64_t> hashes_;
};

}  // namespace chk::chklib
