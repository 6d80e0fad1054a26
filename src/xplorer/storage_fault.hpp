// Configurable stable-storage fault model.
//
// The paper treats the shared stable store as perfectly reliable; real
// storage tiers return transient I/O errors, degrade under load and rot
// bits at rest. This model supplies those failure modes for StableStorage:
// per-operation transient write/read errors, timed degraded-throughput
// windows, and silent single-byte corruption of a durable image injected
// between write and read (the CHK3/CHL3 checksums make it detectable at
// load time). Every decision is a draw from a dedicated seed-stable RNG
// stream with a fixed draw order (same discipline as LinkFaultModel in
// src/chklib/comm/link_fault.*), and the degraded-window schedule comes
// from a forked sub-stream generated in time order — it depends only on
// the seed, never on the I/O schedule. When no model is installed the
// storage takes its historical fault-free path, so the feature is
// zero-overhead and bit-identical when disabled.
#pragma once

#include <cstdint>

#include "des/time.hpp"
#include "util/rng.hpp"

namespace chk::xplorer {

struct StorageFaultConfig {
  /// Per-write transient failure probability in [0, 1): the write occupies
  /// the full mesh/host-link/disk pipeline, then reports an I/O error and
  /// leaves the previous version (if any) of the key intact.
  double write_error = 0;
  /// Per-read transient failure probability in [0, 1): the read is timed
  /// as usual but delivers no data.
  double read_error = 0;
  /// Per-write silent-corruption probability in [0, 1): the image becomes
  /// durable with one byte flipped. The write itself reports success —
  /// only a checksum verification at read/peek time can tell.
  double bitrot = 0;
  /// Degraded-throughput windows: while a window is open, disk service for
  /// each operation takes `degrade_factor` times as long. 1.0 disables;
  /// must be >= 1. Windows open after exponential gaps (mean 5 s) and last
  /// an exponential length (mean 1 s).
  double degrade_factor = 1.0;
  /// Stream selector forked off the experiment seed, so one experiment
  /// config hosts many campaign runs differing only in the disk weather.
  std::uint64_t stream = 0;

  /// True when any fault can actually occur.
  [[nodiscard]] bool enabled() const noexcept {
    return write_error > 0 || read_error > 0 || bitrot > 0 || degrade_factor > 1.0;
  }
  /// Throws std::invalid_argument on out-of-range probabilities (outside
  /// [0, 1)) or a degrade factor below 1.
  void validate() const;
};

class StorageFaultModel {
 public:
  /// The model's ruling on one write submission. Each fault with a positive
  /// probability takes one Bernoulli draw per verdict, in the fixed order
  /// (error, bitrot); a fault at probability zero takes none. The bitrot
  /// value draws (offset, mask) follow only when its flag fired. So the
  /// stream lines up across configs that enable the same faults, not
  /// across configs that switch one on or off.
  struct WriteVerdict {
    bool io_error = false;
    bool bitrot = false;
    std::uint64_t rot_offset = 0;  ///< byte position (mod blob size)
    std::uint8_t rot_mask = 0;     ///< nonzero iff bitrot
  };
  struct ReadVerdict {
    bool io_error = false;
  };

  StorageFaultModel(const StorageFaultConfig& config, util::Rng rng);

  [[nodiscard]] WriteVerdict judge_write();
  [[nodiscard]] ReadVerdict judge_read();

  /// Disk-service slowdown factor at `now` (1.0 = healthy). Queries must
  /// arrive with non-decreasing timestamps, which event-ordered execution
  /// guarantees; windows are generated lazily from their own sub-stream.
  [[nodiscard]] double slowdown_at(des::TimePoint now);

  [[nodiscard]] std::uint64_t write_errors() const noexcept { return write_errors_; }
  [[nodiscard]] std::uint64_t read_errors() const noexcept { return read_errors_; }
  [[nodiscard]] std::uint64_t bitrot_flagged() const noexcept { return bitrot_flagged_; }
  [[nodiscard]] std::uint64_t degraded_ops() const noexcept { return degraded_ops_; }

 private:
  void advance_window();

  StorageFaultConfig cfg_;
  util::Rng rng_;
  util::Rng degrade_rng_;
  des::TimePoint window_start_ = des::TimePoint::max();
  des::TimePoint window_end_ = des::TimePoint::origin();
  std::uint64_t write_errors_ = 0;
  std::uint64_t read_errors_ = 0;
  std::uint64_t bitrot_flagged_ = 0;
  std::uint64_t degraded_ops_ = 0;
};

}  // namespace chk::xplorer
