// Checkpoint store: naming, commit bookkeeping and space accounting on top
// of the raw stable storage.
//
// Files (xplorer::FileId):
//   {kImage, rank, index}   process state image
//   {kLog, rank, index}     channel log (coordinated)
//   {kCommit, 0, 0}         last globally committed epoch
//
// Writes go through the retrying StorageClient and are therefore fully
// timed (network + host link + disk with contention, plus retry backoff
// when the storage misbehaves). Every blocking operation reports its
// terminal IoStatus so the protocols can react to a permanently failed
// write. Metadata queries (listing, sizes) are free, matching the
// paper-era systems where the recovery manager scans a directory.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "chklib/ckpt/image.hpp"
#include "chklib/ckpt/storage_client.hpp"
#include "des/process.hpp"
#include "xplorer/storage.hpp"

namespace chk::chklib {

/// Who is paying for a stable-storage write. The overhead attribution only
/// charges kAppBlocking writes to the checkpoint blocking window; writes
/// streamed by a background checkpointer carry kBackground even if they
/// happen to overlap a later window.
enum class WriteContext : std::uint32_t { kBackground = 0, kAppBlocking = 1 };

class CheckpointStore {
 public:
  explicit CheckpointStore(xplorer::StableStorage& storage)
      : storage_(&storage), client_(storage) {}
  CheckpointStore(const CheckpointStore&) = delete;
  CheckpointStore& operator=(const CheckpointStore&) = delete;

  /// Blocking write with bounded retries; kIoError is terminal.
  xplorer::IoStatus write_image_blocking(des::Process& self, Rank rank,
                                         const CheckpointImage& image,
                                         WriteContext context = WriteContext::kBackground);

  xplorer::IoStatus write_log_blocking(des::Process& self, Rank rank, std::uint32_t index,
                                       const ChannelLog& log,
                                       WriteContext context = WriteContext::kBackground);

  /// Timed write of the global commit record (coordinator's node). The
  /// committed epoch only advances when the write achieved durability.
  xplorer::IoStatus write_commit_blocking(des::Process& self, Rank coordinator_node,
                                          std::uint32_t epoch);

  /// Timed image read (recovery path): nullopt when the image cannot be
  /// restored (terminal read error after retries, or checksum mismatch from
  /// bit-rot). `blob_bytes`, when non-null, receives the serialized size
  /// actually transferred from the disk — the number recovery accounting
  /// charges as bytes read, reported even for a failed read, which did
  /// real work.
  [[nodiscard]] std::optional<CheckpointImage> try_load_image_blocking(
      des::Process& self, Rank reader, std::uint32_t index,
      std::uint64_t* blob_bytes = nullptr);
  /// Timed, error-tolerant log load: nullopt with *failed == false means no
  /// log was stored (normal); *failed == true means a log exists but cannot
  /// be restored — the generation is unusable for a consistent replay.
  [[nodiscard]] std::optional<ChannelLog> try_load_log_blocking(des::Process& self,
                                                                Rank reader,
                                                                std::uint32_t index,
                                                                bool* failed);

  // -- metadata (free) -------------------------------------------------------
  [[nodiscard]] std::uint32_t committed_epoch() const noexcept { return committed_epoch_; }
  [[nodiscard]] bool has_image(Rank rank, std::uint32_t index) const;
  /// Indices of rank `rank`'s stored images, ascending.
  [[nodiscard]] std::vector<std::uint32_t> saved_indices(Rank rank) const;
  /// Peek image metadata without timed I/O (recovery-line computation scans
  /// dependency records; modelled as free directory metadata): nullopt when
  /// the image is missing or fails its CHK3 verification (bit-rot).
  [[nodiscard]] std::optional<CheckpointImage> try_peek_image(Rank rank,
                                                             std::uint32_t index) const;
  /// True when the image exists and its envelope verifies (free check —
  /// the GC precondition before pruning an older generation).
  [[nodiscard]] bool verify_image(Rank rank, std::uint32_t index) const;
  void erase(Rank rank, std::uint32_t index);
  /// Every stored byte: images, logs and the commit record.
  [[nodiscard]] std::uint64_t total_checkpoint_bytes() const noexcept {
    return storage_->total_bytes();
  }
  /// Stored images (logs and the commit record are no checkpoints).
  [[nodiscard]] std::size_t checkpoint_count() const;

  [[nodiscard]] xplorer::StableStorage& storage() noexcept { return *storage_; }
  [[nodiscard]] StorageClient& client() noexcept { return client_; }

 private:
  xplorer::StableStorage* storage_;
  StorageClient client_;
  std::uint32_t committed_epoch_ = 0;  ///< epoch 0 = initial state, implicit
};

}  // namespace chk::chklib
