#include "chklib/ckpt/store.hpp"

#include "obs/tracer.hpp"
#include "util/format.hpp"

namespace chk::chklib {

std::string CheckpointStore::image_key(Rank rank, std::uint32_t index) {
  return util::format("ckpt/p{}/v{:08}", rank, index);
}

std::string CheckpointStore::log_key(Rank rank, std::uint32_t index) {
  return image_key(rank, index) + ".log";
}

xplorer::IoStatus CheckpointStore::write_image_blocking(des::Process& self, Rank rank,
                                                        const CheckpointImage& image,
                                                        WriteContext context) {
  return client_.write_blocking(self, rank, image_key(rank, image.index), image.serialize(),
                               obs::EventKind::kStableWrite,
                               static_cast<std::uint32_t>(context),
                               context == WriteContext::kAppBlocking);
}

xplorer::IoStatus CheckpointStore::write_log_blocking(des::Process& self, Rank rank,
                                                      std::uint32_t index,
                                                      const ChannelLog& log,
                                                      WriteContext context) {
  return client_.write_blocking(self, rank, log_key(rank, index), log.serialize(),
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
      self, coordinator_node, "ckpt/commit", writer.take(),
      obs::EventKind::kCommitWrite, epoch, /*app_blocking=*/false);
  if (status == xplorer::IoStatus::kOk) committed_epoch_ = epoch;
  return status;
}

std::optional<CheckpointImage> CheckpointStore::try_load_image_blocking(
    des::Process& self, Rank reader, std::uint32_t index, std::uint64_t* blob_bytes) {
  const std::int64_t t0 = self.sim().now().to_nanos();
  std::vector<std::byte> blob;
  const xplorer::IoStatus status =
      client_.read_blocking(self, reader, image_key(reader, index), &blob);
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
  const std::string key = log_key(reader, index);
  if (!storage_->exists(key)) return std::nullopt;
  std::vector<std::byte> blob;
  const xplorer::IoStatus status = client_.read_blocking(self, reader, key, &blob);
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
  return storage_->exists(image_key(rank, index));
}

std::vector<std::uint32_t> CheckpointStore::saved_indices(Rank rank) const {
  std::vector<std::uint32_t> indices;
  const std::string prefix = util::format("ckpt/p{}/v", rank);
  for (const auto& key : storage_->keys_with_prefix(prefix)) {
    if (key.ends_with(".log")) continue;
    indices.push_back(
        static_cast<std::uint32_t>(std::stoul(key.substr(prefix.size()))));
  }
  return indices;  // map order => ascending
}

std::optional<CheckpointImage> CheckpointStore::try_peek_image(Rank rank,
                                                               std::uint32_t index) const {
  const std::string key = image_key(rank, index);
  if (!storage_->exists(key)) return std::nullopt;
  try {
    return CheckpointImage::deserialize(storage_->peek(key));
  } catch (const util::SerializeError&) {
    return std::nullopt;
  }
}

bool CheckpointStore::verify_image(Rank rank, std::uint32_t index) const {
  const std::string key = image_key(rank, index);
  return storage_->exists(key) && CheckpointImage::verify(storage_->peek(key));
}

void CheckpointStore::erase(Rank rank, std::uint32_t index) {
  storage_->erase(image_key(rank, index));
  storage_->erase(log_key(rank, index));
}

std::uint64_t CheckpointStore::bytes_for(Rank rank) const {
  std::uint64_t total = 0;
  for (const auto& key : storage_->keys_with_prefix(util::format("ckpt/p{}/", rank))) {
    total += storage_->size(key);
  }
  return total;
}

std::uint64_t CheckpointStore::total_checkpoint_bytes() const {
  std::uint64_t total = 0;
  for (const auto& key : storage_->keys_with_prefix("ckpt/")) total += storage_->size(key);
  return total;
}

std::size_t CheckpointStore::checkpoint_count() const {
  std::size_t count = 0;
  for (const auto& key : storage_->keys_with_prefix("ckpt/p")) {
    if (!key.ends_with(".log")) ++count;
  }
  return count;
}

}  // namespace chk::chklib
