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

// The envelope ahead of every body: the magic, the body's checksum, the
// body's length.
constexpr std::size_t kChecksumAt = sizeof(std::uint32_t);
constexpr std::size_t kLengthAt = kChecksumAt + sizeof(std::uint64_t);
constexpr std::size_t kEnvelopeBytes = kLengthAt + sizeof(std::uint64_t);

/// Appends an envelope whose checksum and length seal() fills in once the
/// body follows it; returns the envelope's offset.
std::size_t open_envelope(util::ByteWriter& writer, std::uint32_t magic) {
  const std::size_t at = writer.size();
  writer.put(magic);
  writer.put<std::uint64_t>(0);  // checksum
  writer.put<std::uint64_t>(0);  // body length
  return at;
}

/// Seals the envelope opened at `at`: its body is everything written since.
void seal(util::ByteWriter& writer, std::size_t at) {
  const auto body = std::span(writer.bytes()).subspan(at + kEnvelopeBytes);
  writer.put_at(at + kChecksumAt, util::hash_bytes(body));
  writer.put_at(at + kLengthAt, std::uint64_t{body.size()});
}

/// Bytes put_vector writes for `v`.
template <typename T>
std::size_t vector_bytes(const std::vector<T>& v) {
  return sizeof(std::uint64_t) + v.size() * sizeof(T);
}

/// Bytes of one logged message ahead of its payload: src, dst, tag, epoch,
/// seq and the payload's length.
constexpr std::size_t kLogRecordBytes = 2 * sizeof(std::uint64_t) + sizeof(std::int32_t) +
                                        sizeof(Envelope::epoch) + sizeof(Envelope::seq) +
                                        sizeof(std::uint64_t);

std::size_t sealed_log_bytes(const ChannelLog& log) {
  std::size_t bytes = kEnvelopeBytes + sizeof(std::uint64_t);
  for (const auto& env : log.messages) bytes += kLogRecordBytes + env.payload.size();
  return bytes;
}

void append_sealed_log(util::ByteWriter& writer, const ChannelLog& log) {
  const std::size_t at = open_envelope(writer, kLogMagic);
  writer.put<std::uint64_t>(log.messages.size());
  for (const auto& env : log.messages) {
    writer.put<std::uint64_t>(env.src);
    writer.put<std::uint64_t>(env.dst);
    writer.put<std::int32_t>(env.tag);
    writer.put(env.epoch);
    writer.put(env.seq);
    writer.put_vector(env.payload);
  }
  seal(writer, at);
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
  const std::size_t log_bytes = sealed_log_bytes(sent_log);
  util::ByteWriter writer;
  writer.reserve(kEnvelopeBytes + sizeof(std::uint64_t) + sizeof(index) +
                 sizeof(captured_at_ns) + sizeof(delta_base) + vector_bytes(state) +
                 vector_bytes(seq.send_next) + vector_bytes(seq.consumed_upto) +
                 vector_bytes(seq.consumed_extra) + vector_bytes(sends) +
                 vector_bytes(recvs) + sizeof(std::uint64_t) + log_bytes);
  const std::size_t at = open_envelope(writer, kImageMagic);
  writer.put<std::uint64_t>(rank);
  writer.put(index);
  writer.put(captured_at_ns);
  writer.put(delta_base);
  writer.put_vector(state);
  writer.put_vector(seq.send_next);
  writer.put_vector(seq.consumed_upto);
  writer.put_vector(seq.consumed_extra);
  writer.put_vector(sends);
  writer.put_vector(recvs);
  // The sent log nests as a length-prefixed sealed blob.
  writer.put<std::uint64_t>(log_bytes);
  append_sealed_log(writer, sent_log);
  seal(writer, at);
  return writer.take();
}

bool CheckpointImage::verify(std::span<const std::byte> blob) {
  try {
    util::ByteReader reader(blob);
    (void)unseal(kImageMagic, reader, "CheckpointImage");
    return true;
  } catch (const util::SerializeError&) {
    return false;
  }
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
  util::ByteWriter writer;
  writer.reserve(sealed_log_bytes(*this));
  append_sealed_log(writer, *this);
  return writer.take();
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
