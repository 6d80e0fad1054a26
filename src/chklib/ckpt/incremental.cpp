#include "chklib/ckpt/incremental.hpp"

#include <cstring>

#include "util/hash.hpp"

namespace chk::chklib {

namespace {

constexpr std::uint32_t kDeltaMagic = 0x44454c31;  // "DEL1"

}  // namespace

std::vector<std::byte> StateDelta::serialize() const {
  util::ByteWriter writer;
  writer.put(kDeltaMagic);
  writer.put(full_size);
  writer.put(chunk_size);
  writer.put_vector(chunks);
  writer.put_vector(data);
  return writer.take();
}

StateDelta StateDelta::deserialize(std::span<const std::byte> blob) {
  util::ByteReader reader(blob);
  if (reader.get<std::uint32_t>() != kDeltaMagic) {
    throw util::SerializeError("StateDelta: bad magic");
  }
  StateDelta delta;
  delta.full_size = reader.get<std::uint64_t>();
  delta.chunk_size = reader.get<std::uint32_t>();
  delta.chunks = reader.get_vector<std::uint32_t>();
  delta.data = reader.get_vector<std::byte>();
  return delta;
}

void StateDelta::apply(std::vector<std::byte>& base) const {
  if (base.size() != full_size) {
    throw util::SerializeError("StateDelta::apply: base size mismatch");
  }
  std::size_t offset = 0;
  for (std::uint32_t index : chunks) {
    const std::size_t begin = std::size_t{index} * chunk_size;
    const std::size_t len = std::min<std::size_t>(chunk_size, full_size - begin);
    if (begin >= full_size || offset + len > data.size()) {
      throw util::SerializeError("StateDelta::apply: corrupt delta");
    }
    std::memcpy(base.data() + begin, data.data() + offset, len);
    offset += len;
  }
}

void IncrementalTracker::rebase(std::span<const std::byte> full_blob) {
  size_ = full_blob.size();
  const std::size_t nchunks = (size_ + chunk_size_ - 1) / chunk_size_;
  hashes_.resize(nchunks);
  for (std::size_t c = 0; c < nchunks; ++c) {
    const std::size_t begin = c * chunk_size_;
    const std::size_t len = std::min<std::size_t>(chunk_size_, size_ - begin);
    hashes_[c] = util::hash_bytes(full_blob.subspan(begin, len));
  }
}

std::optional<StateDelta> IncrementalTracker::capture_delta(
    std::span<const std::byte> full_blob) {
  if (full_blob.size() != size_) return std::nullopt;  // layout changed: need rebase
  StateDelta delta;
  delta.full_size = size_;
  delta.chunk_size = chunk_size_;
  const std::size_t nchunks = hashes_.size();
  for (std::size_t c = 0; c < nchunks; ++c) {
    const std::size_t begin = c * chunk_size_;
    const std::size_t len = std::min<std::size_t>(chunk_size_, size_ - begin);
    const auto chunk = full_blob.subspan(begin, len);
    const std::uint64_t h = util::hash_bytes(chunk);
    if (h != hashes_[c]) {
      hashes_[c] = h;
      delta.chunks.push_back(static_cast<std::uint32_t>(c));
      delta.data.insert(delta.data.end(), chunk.begin(), chunk.end());
    }
  }
  return delta;
}

}  // namespace chk::chklib
