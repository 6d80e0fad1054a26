// Stable storage: the host file system.
//
// All nodes share one disk reached through the host-interface link attached
// to the host node; checkpoint data first crosses the mesh to the host
// node, then the host link, then queues at the disk — a write from node i
// therefore contends with application traffic on the mesh AND with every
// other node's writes at the host link and disk. This is the bottleneck
// structure of the paper's testbed.
//
// Files are named by FileId (a rank's image or channel log at a checkpoint
// index, or the commit record) and hold real bytes, so recovery restores
// actual process state and results can be verified bit-for-bit. I/O is
// blocking, from process context; the file map itself is a free, read-only
// view (files()).
//
// An optional StorageFaultModel turns the disk into a fault domain of its
// own: transient write/read I/O errors (surfaced through IoStatus after the
// full timed pipeline), degraded-throughput windows (extra disk service
// time) and silent bit-rot of durable images. With no model installed every
// operation takes the historical fault-free path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "des/process.hpp"
#include "des/simulator.hpp"
#include "util/rng.hpp"
#include "xplorer/config.hpp"
#include "xplorer/fifo_server.hpp"
#include "xplorer/network.hpp"
#include "xplorer/storage_fault.hpp"

namespace chk::xplorer {

/// Result of one storage operation. kIoError is transient: the operation
/// consumed its full pipeline time but did not take effect (a failed write
/// leaves the previous version of the file intact; a failed read delivers
/// no data). Retry policy lives with the caller.
enum class IoStatus : std::uint8_t { kOk = 0, kIoError = 1 };

/// What a stored file holds.
enum class FileKind : std::uint8_t { kImage = 0, kLog = 1, kCommit = 2 };

/// Names one stored file: rank `rank`'s process image or channel log at
/// checkpoint `index`, or the one global commit record (rank and index 0).
/// Files order by (kind, rank, index), so one rank's images are one
/// contiguous run of the file map, in index order.
struct FileId {
  FileKind kind = FileKind::kImage;
  NodeId rank = 0;
  std::uint32_t index = 0;

  friend auto operator<=>(const FileId&, const FileId&) = default;
};

class StableStorage {
 public:
  StableStorage(des::Simulator& sim, Network& network, const MachineConfig& config);
  StableStorage(const StableStorage&) = delete;
  StableStorage& operator=(const StableStorage&) = delete;

  /// Timed write of `data` to `file` from node `from`, from process
  /// context; returns the write's outcome. The file's content becomes
  /// durable exactly when the write completes with IoStatus::kOk; a crash
  /// before that — or a transient I/O error — leaves the previous version
  /// (if any) intact.
  IoStatus write_blocking(des::Process& self, NodeId from, FileId file,
                          std::vector<std::byte> data);

  /// Failure seam: every write still in the mesh/host-link/disk pipeline is
  /// invalidated — it never becomes durable, is not counted in
  /// bytes_written(), and never completes. Callers must ensure the writer
  /// processes are killed (a crash takes them down with the write); a live
  /// write_blocking waiter would hang. Returns the number of writes
  /// invalidated.
  std::size_t discard_inflight_writes() noexcept;

  /// Writes submitted but not yet durable (nor discarded).
  [[nodiscard]] std::size_t inflight_writes() const noexcept { return inflight_writes_; }
  /// Writes invalidated by discard_inflight_writes over the run.
  [[nodiscard]] std::uint64_t writes_discarded() const noexcept { return writes_discarded_; }

  /// Passive hook invoked at every write submission (fault injection aims
  /// mid-write strikes with it). Must not mutate storage state; scheduling
  /// simulator events is fine.
  using WriteHook = std::function<void(NodeId from, const FileId& file, std::size_t bytes)>;
  void set_write_hook(WriteHook hook) noexcept { write_hook_ = std::move(hook); }

  /// Timed read of `file`, delivered to node `to`, from process context.
  /// Returns a copy of the data: empty if the file does not exist or the
  /// read hit a transient I/O error (`status` disambiguates).
  std::vector<std::byte> read_blocking(des::Process& self, NodeId to, const FileId& file,
                                       IoStatus* status = nullptr);

  /// Every durable file, in FileId order. Reading it is free (the paper's
  /// protocols scan the directory rarely and the cost is subsumed in the
  /// per-write latency), so recovery *planning* may inspect stored bytes
  /// here; state transfer must use read_blocking so it is timed.
  [[nodiscard]] const std::map<FileId, std::vector<std::byte>>& files() const noexcept {
    return files_;
  }
  void erase(const FileId& file);

  /// Durable bytes currently held / high-water mark.
  [[nodiscard]] std::uint64_t total_bytes() const noexcept { return total_bytes_; }
  [[nodiscard]] std::uint64_t peak_bytes() const noexcept { return peak_bytes_; }
  [[nodiscard]] std::uint64_t bytes_written() const noexcept { return bytes_written_; }
  /// Bytes released by erase() over the run (retention-GC accounting).
  [[nodiscard]] std::uint64_t bytes_reclaimed() const noexcept { return bytes_reclaimed_; }

  /// Install the storage fault model. The RNG must be a dedicated forked
  /// stream; faults apply to every subsequent operation. Passing a config
  /// with no enabled faults still installs the model (its counters stay 0
  /// and draw streams advance), so campaigns can toggle individual faults
  /// without perturbing each other — install nothing for the historical
  /// bit-identical path.
  void set_faults(const StorageFaultConfig& config, util::Rng rng);
  [[nodiscard]] StorageFaultModel* faults() noexcept { return faults_.get(); }
  [[nodiscard]] const StorageFaultModel* faults() const noexcept { return faults_.get(); }

  /// Duration a write of `bytes` from `from` would take on an otherwise
  /// idle machine: uncontended mesh pipeline + host link + disk service.
  /// The gap between this and an observed write duration is queueing —
  /// storage contention.
  [[nodiscard]] des::Duration pure_write_time(NodeId from, std::size_t bytes) const noexcept {
    return network_->min_transfer_time(from, kHostNode, bytes) +
           host_link_.service_time(bytes) + disk_.service_time(bytes);
  }

  [[nodiscard]] FifoServer& disk() noexcept { return disk_; }
  [[nodiscard]] FifoServer& host_link() noexcept { return host_link_; }

 private:
  /// The node carrying the host interface.
  static constexpr NodeId kHostNode = 0;

  /// Makes `data` the durable content of `file`; returns the stored bytes.
  std::vector<std::byte>& store_now(const FileId& file, std::vector<std::byte> data);
  /// Extra disk time this operation owes to an open degraded window
  /// (zero when healthy or no model installed).
  [[nodiscard]] des::Duration degrade_penalty(std::size_t bytes);

  des::Simulator* sim_;
  Network* network_;
  FifoServer host_link_;
  FifoServer disk_;
  std::map<FileId, std::vector<std::byte>> files_;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t peak_bytes_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t bytes_reclaimed_ = 0;
  std::uint64_t write_generation_ = 0;
  std::size_t inflight_writes_ = 0;
  std::uint64_t writes_discarded_ = 0;
  WriteHook write_hook_;
  std::unique_ptr<StorageFaultModel> faults_;
};

}  // namespace chk::xplorer
