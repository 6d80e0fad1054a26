#include "chklib/ckpt/image.hpp"

#include "util/hash.hpp"

namespace chk::chklib {

namespace {
// Version 3 blobs carry a 64-bit checksum of the body (util::hash_bytes)
// right after the magic; deserialize verifies it so a corrupted image fails
// loudly at restore time instead of resurrecting silently wrong state.
// Blobs of an older version are rejected by their magic.
constexpr std::uint32_t kImageMagic = 0x43484b33;  // "CHK3"
constexpr std::uint32_t kLogMagic = 0x43484c33;    // "CHL3"

std::vector<std::byte> seal(std::uint32_t magic, util::ByteWriter body) {
  util::ByteWriter writer;
  writer.put(magic);
  writer.put(util::hash_bytes(body.bytes()));
  writer.put_bytes(body.bytes());
  return writer.take();
}

/// Strips and verifies the envelope; returns the body view.
std::span<const std::byte> unseal(std::uint32_t magic, util::ByteReader& reader,
                                  const char* what) {
  if (reader.get<std::uint32_t>() != magic) {
    throw util::SerializeError(std::string(what) + ": bad magic");
  }
  const auto checksum = reader.get<std::uint64_t>();
  const auto body = reader.get_bytes_view();
  if (util::hash_bytes(body) != checksum) {
    throw util::SerializeError(std::string(what) + ": checksum mismatch (corrupt image)");
  }
  return body;
}
}  // namespace

std::vector<std::byte> CheckpointImage::serialize() const {
  util::ByteWriter body;
  body.put<std::uint64_t>(rank);
  body.put(index);
  body.put(captured_at_ns);
  body.put(delta_base);
  body.put_vector(state);
  body.put_vector(seq.send_next);
  body.put_vector(seq.consumed_upto);
  body.put_vector(seq.consumed_extra);
  body.put_vector(sends);
  body.put_vector(recvs);
  body.put_bytes(sent_log.serialize());
  return seal(kImageMagic, std::move(body));
}

CheckpointImage CheckpointImage::deserialize(std::span<const std::byte> blob) {
  util::ByteReader outer(blob);
  util::ByteReader reader(unseal(kImageMagic, outer, "CheckpointImage"));
  CheckpointImage image;
  image.rank = static_cast<Rank>(reader.get<std::uint64_t>());
  image.index = reader.get<std::uint32_t>();
  image.captured_at_ns = reader.get<std::int64_t>();
  image.delta_base = reader.get<std::uint32_t>();
  image.state = reader.get_vector<std::byte>();
  image.seq.send_next = reader.get_vector<ChannelSeqState::RankSeq>();
  image.seq.consumed_upto = reader.get_vector<ChannelSeqState::RankSeq>();
  image.seq.consumed_extra = reader.get_vector<ChannelSeqState::RankSeq>();
  image.sends = reader.get_vector<SendRecord>();
  image.recvs = reader.get_vector<RecvRecord>();
  image.sent_log = ChannelLog::deserialize(reader.get_bytes_view());
  return image;
}

std::vector<std::byte> ChannelLog::serialize() const {
  util::ByteWriter body;
  body.put<std::uint64_t>(messages.size());
  for (const auto& env : messages) {
    body.put<std::uint64_t>(env.src);
    body.put<std::uint64_t>(env.dst);
    body.put<std::int32_t>(env.tag);
    body.put(env.epoch);
    body.put(env.seq);
    body.put_vector(env.payload);
  }
  return seal(kLogMagic, std::move(body));
}

ChannelLog ChannelLog::deserialize(std::span<const std::byte> blob) {
  util::ByteReader outer(blob);
  util::ByteReader reader(unseal(kLogMagic, outer, "ChannelLog"));
  ChannelLog log;
  const auto count = reader.get<std::uint64_t>();
  log.messages.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    Envelope env;
    env.src = static_cast<Rank>(reader.get<std::uint64_t>());
    env.dst = static_cast<Rank>(reader.get<std::uint64_t>());
    env.tag = reader.get<std::int32_t>();
    env.epoch = reader.get<std::uint32_t>();
    env.seq = reader.get<std::uint64_t>();
    env.payload = reader.get_vector<std::byte>();
    log.messages.push_back(std::move(env));
  }
  return log;
}

}  // namespace chk::chklib
