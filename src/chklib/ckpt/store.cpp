#include "chklib/ckpt/store.hpp"

#include <algorithm>
#include <limits>
#include <ranges>

#include "obs/tracer.hpp"

namespace chk::chklib {

namespace {

using xplorer::FileId;
using xplorer::FileKind;

constexpr FileId kCommitFile{FileKind::kCommit, 0, 0};

FileId image_file(Rank rank, std::uint32_t index) { return {FileKind::kImage, rank, index}; }
FileId log_file(Rank rank, std::uint32_t index) { return {FileKind::kLog, rank, index}; }

/// Rank `rank`'s files of one kind: a contiguous run of the file map, in
/// index order.
auto run_of(const xplorer::StableStorage& storage, FileKind kind, Rank rank) {
  const auto& files = storage.files();
  return std::ranges::subrange(
      files.lower_bound({kind, rank, 0}),
      files.upper_bound({kind, rank, std::numeric_limits<std::uint32_t>::max()}));
}

/// The stored bytes of `file`, or nullptr when it does not exist.
const std::vector<std::byte>* blob_of(const xplorer::StableStorage& storage, const FileId& file) {
  const auto it = storage.files().find(file);
  return it == storage.files().end() ? nullptr : &it->second;
}

}  // namespace

xplorer::IoStatus CheckpointStore::write_image_blocking(des::Process& self, Rank rank,
                                                        const CheckpointImage& image,
                                                        WriteContext context) {
  return client_.write_blocking(self, rank, image_file(rank, image.index), image.serialize(),
                               obs::EventKind::kStableWrite,
                               static_cast<std::uint32_t>(context),
                               context == WriteContext::kAppBlocking);
}

xplorer::IoStatus CheckpointStore::write_log_blocking(des::Process& self, Rank rank,
                                                      std::uint32_t index,
                                                      const ChannelLog& log,
                                                      WriteContext context) {
  return client_.write_blocking(self, rank, log_file(rank, index), log.serialize(),
                                obs::EventKind::kLogWrite,
                                static_cast<std::uint32_t>(context),
                                context == WriteContext::kAppBlocking);
}

xplorer::IoStatus CheckpointStore::write_commit_blocking(des::Process& self,
                                                         Rank coordinator_node,
                                                         std::uint32_t epoch) {
  util::ByteWriter writer;
  writer.put(epoch);
  writer.put<std::uint32_t>(~epoch);  // trivial integrity check
  const xplorer::IoStatus status = client_.write_blocking(
      self, coordinator_node, kCommitFile, writer.take(),
      obs::EventKind::kCommitWrite, epoch, /*app_blocking=*/false);
  if (status == xplorer::IoStatus::kOk) committed_epoch_ = epoch;
  return status;
}

std::optional<CheckpointImage> CheckpointStore::try_load_image_blocking(
    des::Process& self, Rank reader, std::uint32_t index, std::uint64_t* blob_bytes) {
  const std::int64_t t0 = self.sim().now().to_nanos();
  std::vector<std::byte> blob;
  const xplorer::IoStatus status =
      client_.read_blocking(self, reader, image_file(reader, index), &blob);
  // The read is charged whether or not it restores anything: a failed or
  // corrupt read still moved (up to) blob.size() bytes through the disk.
  if (blob_bytes != nullptr) *blob_bytes = blob.size();
  if (obs::Tracer* tracer = self.sim().tracer()) {
    tracer->span(obs::EventKind::kRecoveryRead, static_cast<std::uint16_t>(reader), t0,
                 self.sim().now().to_nanos(), blob.size());
  }
  if (status != xplorer::IoStatus::kOk) return std::nullopt;
  try {
    return CheckpointImage::deserialize(blob);
  } catch (const util::SerializeError&) {
    return std::nullopt;
  }
}

std::optional<ChannelLog> CheckpointStore::try_load_log_blocking(des::Process& self,
                                                                 Rank reader,
                                                                 std::uint32_t index,
                                                                 bool* failed) {
  if (failed != nullptr) *failed = false;
  const FileId file = log_file(reader, index);
  if (!storage_->files().contains(file)) return std::nullopt;
  std::vector<std::byte> blob;
  const xplorer::IoStatus status = client_.read_blocking(self, reader, file, &blob);
  if (status != xplorer::IoStatus::kOk) {
    if (failed != nullptr) *failed = true;
    return std::nullopt;
  }
  try {
    return ChannelLog::deserialize(blob);
  } catch (const util::SerializeError&) {
    if (failed != nullptr) *failed = true;
    return std::nullopt;
  }
}

bool CheckpointStore::has_image(Rank rank, std::uint32_t index) const {
  return storage_->files().contains(image_file(rank, index));
}

std::vector<std::uint32_t> CheckpointStore::saved_indices(Rank rank) const {
  std::vector<std::uint32_t> indices;
  for (const auto& [file, blob] : run_of(*storage_, FileKind::kImage, rank)) {
    indices.push_back(file.index);
  }
  return indices;
}

std::optional<CheckpointImage> CheckpointStore::try_peek_image(Rank rank,
                                                               std::uint32_t index) const {
  const std::vector<std::byte>* blob = blob_of(*storage_, image_file(rank, index));
  if (blob == nullptr) return std::nullopt;
  try {
    return CheckpointImage::deserialize(*blob);
  } catch (const util::SerializeError&) {
    return std::nullopt;
  }
}

bool CheckpointStore::verify_image(Rank rank, std::uint32_t index) const {
  const std::vector<std::byte>* blob = blob_of(*storage_, image_file(rank, index));
  return blob != nullptr && CheckpointImage::verify(*blob);
}

void CheckpointStore::erase(Rank rank, std::uint32_t index) {
  storage_->erase(image_file(rank, index));
  storage_->erase(log_file(rank, index));
}

std::size_t CheckpointStore::checkpoint_count() const {
  return static_cast<std::size_t>(std::ranges::count_if(
      storage_->files(), [](const auto& entry) { return entry.first.kind == FileKind::kImage; }));
}

}  // namespace chk::chklib
