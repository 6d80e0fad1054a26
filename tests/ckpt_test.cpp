// Tests for the checkpoint core: serialization, registry capture/restore,
// image round-trips, store naming/commit/GC bookkeeping.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <numeric>
#include <vector>

#include "chklib/ckpt/image.hpp"
#include "chklib/ckpt/registry.hpp"
#include "chklib/ckpt/store.hpp"
#include "des/process.hpp"
#include "des/simulator.hpp"
#include "util/serialize.hpp"
#include "xplorer/machine.hpp"

namespace chk::chklib {
namespace {

TEST(Serialize, RoundTripsScalarsAndBlobs) {
  util::ByteWriter writer;
  writer.put<std::int32_t>(-7);
  writer.put<double>(3.25);
  writer.put_string("hello");
  writer.put_vector(std::vector<std::uint64_t>{1, 2, 3});
  util::ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.get<std::int32_t>(), -7);
  EXPECT_EQ(reader.get<double>(), 3.25);
  EXPECT_EQ(reader.get_string(), "hello");
  EXPECT_EQ(reader.get_vector<std::uint64_t>(), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_TRUE(reader.exhausted());
}

TEST(Serialize, TruncatedInputThrows) {
  util::ByteWriter writer;
  writer.put<std::uint64_t>(1000);  // a length prefix promising 1000 bytes
  util::ByteReader reader(writer.bytes());
  EXPECT_THROW((void)reader.get_bytes_view(), util::SerializeError);
}

TEST(Registry, CaptureRestoreRoundTrip) {
  CheckpointRegistry registry;
  std::vector<double> grid(64);
  std::iota(grid.begin(), grid.end(), 0.0);
  std::uint32_t iter = 17;
  registry.register_vector("grid", grid);
  registry.register_value("iter", iter);
  EXPECT_EQ(registry.state_bytes(), 64 * sizeof(double) + sizeof(std::uint32_t));

  const auto blob = registry.capture();
  // mutate, then restore
  grid.assign(64, -1.0);
  iter = 999;
  registry.restore(blob);
  EXPECT_EQ(grid[5], 5.0);
  EXPECT_EQ(iter, 17u);
}

TEST(Registry, DuplicateNameRejected) {
  CheckpointRegistry registry;
  int x = 0;
  registry.register_value("x", x);
  EXPECT_THROW(registry.register_value("x", x), RegistryError);
}

TEST(Registry, RestoreMismatchThrows) {
  CheckpointRegistry a;
  int x = 1;
  a.register_value("x", x);
  const auto blob = a.capture();

  CheckpointRegistry b;
  double y = 0;
  b.register_value("x", y);  // same name, wrong size
  EXPECT_THROW(b.restore(blob), RegistryError);

  CheckpointRegistry c;
  int z = 0;
  c.register_value("z", z);  // wrong name
  EXPECT_THROW(c.restore(blob), RegistryError);
}

TEST(Registry, ClearForgetsRegions) {
  CheckpointRegistry registry;
  int x = 0;
  registry.register_value("x", x);
  registry.clear();
  EXPECT_EQ(registry.region_count(), 0u);
  registry.register_value("x", x);  // re-registration OK after clear
  EXPECT_EQ(registry.region_count(), 1u);
}

TEST(Image, SerializeDeserializeRoundTrip) {
  CheckpointImage image;
  image.rank = 5;
  image.index = 3;
  image.captured_at_ns = 123456789;
  image.state = {std::byte{1}, std::byte{2}, std::byte{3}};
  image.sends = {{2, 10, 1}, {4, 11, 1}};
  image.recvs = {{7, 5, 0, 1}};
  const auto blob = image.serialize();
  const auto copy = CheckpointImage::deserialize(blob);
  EXPECT_EQ(copy.rank, 5u);
  EXPECT_EQ(copy.index, 3u);
  EXPECT_EQ(copy.captured_at_ns, 123456789);
  EXPECT_EQ(copy.state, image.state);
  ASSERT_EQ(copy.sends.size(), 2u);
  EXPECT_EQ(copy.sends[1].dst, 4u);
  ASSERT_EQ(copy.recvs.size(), 1u);
  EXPECT_EQ(copy.recvs[0].src, 7u);
}

TEST(Image, BadMagicRejected) {
  std::vector<std::byte> garbage(64, std::byte{0});
  EXPECT_THROW((void)CheckpointImage::deserialize(garbage), util::SerializeError);
}

TEST(ChannelLogTest, RoundTripsEnvelopes) {
  ChannelLog log;
  Envelope env;
  env.src = 1;
  env.dst = 2;
  env.tag = 42;
  env.epoch = 7;
  env.seq = 99;
  env.payload = {std::byte{0xab}, std::byte{0xcd}};
  log.messages.push_back(env);
  const auto blob = log.serialize();
  const auto copy = ChannelLog::deserialize(blob);
  ASSERT_EQ(copy.messages.size(), 1u);
  EXPECT_EQ(copy.messages[0].src, 1u);
  EXPECT_EQ(copy.messages[0].tag, 42);
  EXPECT_EQ(copy.messages[0].payload, env.payload);
  EXPECT_EQ(log.payload_bytes(), 2u);
}

struct StoreFixture {
  des::Simulator sim;
  xplorer::Machine machine{sim, xplorer::MachineConfig{}};
  CheckpointStore store{machine.storage()};
};

/// Bytes of rank `rank`'s images and logs, summed over the stored files.
std::uint64_t rank_file_bytes(const xplorer::StableStorage& storage, Rank rank) {
  std::uint64_t total = 0;
  for (const auto& [file, blob] : storage.files()) {
    if (file.kind != xplorer::FileKind::kCommit && file.rank == rank) total += blob.size();
  }
  return total;
}

TEST(Store, WriteLoadRoundTrip) {
  StoreFixture f;
  f.sim.spawn("p", [&](des::Process& self) {
    CheckpointImage image;
    image.rank = 2;
    image.index = 1;
    image.state = std::vector<std::byte>(500, std::byte{7});
    f.store.write_image_blocking(self, 2, image);
    EXPECT_TRUE(f.store.has_image(2, 1));
    const auto loaded = f.store.try_load_image_blocking(self, 2, 1);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->state, image.state);
  });
  EXPECT_EQ(f.sim.run().reason, des::StopReason::kIdle);
}

TEST(Store, CommitRecordAdvancesEpoch) {
  StoreFixture f;
  f.sim.spawn("p", [&](des::Process& self) {
    EXPECT_EQ(f.store.committed_epoch(), 0u);
    f.store.write_commit_blocking(self, 0, 1);
    EXPECT_EQ(f.store.committed_epoch(), 1u);
    f.store.write_commit_blocking(self, 0, 2);
    EXPECT_EQ(f.store.committed_epoch(), 2u);
  });
  f.sim.run();
}

TEST(Store, SavedIndicesSortedAndLogExcluded) {
  StoreFixture f;
  f.sim.spawn("p", [&](des::Process& self) {
    for (std::uint32_t v : {3u, 1u, 2u}) {
      CheckpointImage image;
      image.rank = 0;
      image.index = v;
      f.store.write_image_blocking(self, 0, image);
    }
    ChannelLog log;
    f.store.write_log_blocking(self, 0, 2, log);
    EXPECT_EQ(f.store.saved_indices(0), (std::vector<std::uint32_t>{1, 2, 3}));
    EXPECT_EQ(f.store.checkpoint_count(), 3u);
  });
  f.sim.run();
}

TEST(Store, EraseRemovesImageAndLog) {
  StoreFixture f;
  f.sim.spawn("p", [&](des::Process& self) {
    CheckpointImage image;
    image.rank = 1;
    image.index = 4;
    f.store.write_image_blocking(self, 1, image);
    f.store.write_log_blocking(self, 1, 4, ChannelLog{});
    EXPECT_GT(rank_file_bytes(f.machine.storage(), 1), 0u);
    f.store.erase(1, 4);
    EXPECT_FALSE(f.store.has_image(1, 4));
    EXPECT_EQ(rank_file_bytes(f.machine.storage(), 1), 0u);
  });
  f.sim.run();
}

// Ranks 1, 10 and 11 at indices 9, 10 and 100: multi-digit ranks and
// indices must neither leak into a neighbour's listing nor sort out of
// order, and the commit record counts towards the totals but is no
// checkpoint.
TEST(Store, NamespaceSeparatesRanksIndicesAndKinds) {
  des::Simulator sim;
  xplorer::MachineConfig config;
  config.num_nodes = 12;
  xplorer::Machine machine{sim, config};
  CheckpointStore store{machine.storage()};
  const std::vector<Rank> ranks = {1, 10, 11};
  const std::vector<std::uint32_t> indices = {9, 10, 100};
  std::map<Rank, std::uint64_t> rank_bytes;
  std::uint64_t all_bytes = 0;
  sim.spawn("p", [&](des::Process& self) {
    for (const Rank rank : ranks) {
      for (const std::uint32_t index : indices) {
        CheckpointImage image;
        image.rank = rank;
        image.index = index;
        image.state = std::vector<std::byte>(100 * rank + index, std::byte{3});
        ChannelLog log;
        Envelope env;
        env.payload = std::vector<std::byte>(rank + index, std::byte{5});
        log.messages.push_back(env);
        ASSERT_EQ(store.write_image_blocking(self, rank, image), xplorer::IoStatus::kOk);
        ASSERT_EQ(store.write_log_blocking(self, rank, index, log), xplorer::IoStatus::kOk);
        const std::uint64_t bytes = image.serialize().size() + log.serialize().size();
        rank_bytes[rank] += bytes;
        all_bytes += bytes;
      }
    }
    ASSERT_EQ(store.write_commit_blocking(self, 0, 7), xplorer::IoStatus::kOk);
  });
  ASSERT_EQ(sim.run().reason, des::StopReason::kIdle);

  for (const Rank rank : ranks) {
    EXPECT_EQ(store.saved_indices(rank), indices) << "rank " << rank;
    EXPECT_EQ(rank_file_bytes(machine.storage(), rank), rank_bytes[rank]) << "rank " << rank;
  }
  EXPECT_TRUE(store.saved_indices(0).empty());
  EXPECT_EQ(store.checkpoint_count(), 9u);
  // The commit record is two 32-bit words.
  const std::uint64_t commit_bytes = 2 * sizeof(std::uint32_t);
  EXPECT_EQ(store.total_checkpoint_bytes(), all_bytes + commit_bytes);
  EXPECT_EQ(store.total_checkpoint_bytes(), machine.storage().total_bytes());

  // Erasing rank 10's generation 10 touches no other rank's files.
  store.erase(10, 10);
  EXPECT_FALSE(store.has_image(10, 10));
  EXPECT_EQ(store.saved_indices(10), (std::vector<std::uint32_t>{9, 100}));
  EXPECT_EQ(store.saved_indices(1), indices);
  EXPECT_EQ(store.saved_indices(11), indices);
  EXPECT_EQ(rank_file_bytes(machine.storage(), 1), rank_bytes[1]);
  EXPECT_EQ(rank_file_bytes(machine.storage(), 11), rank_bytes[11]);
  EXPECT_LT(rank_file_bytes(machine.storage(), 10), rank_bytes[10]);
  EXPECT_EQ(store.checkpoint_count(), 8u);
  EXPECT_EQ(store.total_checkpoint_bytes(), machine.storage().total_bytes());
  EXPECT_EQ(store.total_checkpoint_bytes(),
            all_bytes + commit_bytes -
                (rank_bytes[10] - rank_file_bytes(machine.storage(), 10)));
}

TEST(Store, MissingLogIsNullopt) {
  StoreFixture f;
  f.sim.spawn("p", [&](des::Process& self) {
    CheckpointImage image;
    image.rank = 0;
    image.index = 1;
    f.store.write_image_blocking(self, 0, image);
    bool failed = true;
    EXPECT_FALSE(f.store.try_load_log_blocking(self, 0, 1, &failed).has_value());
    EXPECT_FALSE(failed);  // no log stored, as opposed to an unreadable one
  });
  f.sim.run();
}

TEST(Store, PeekReadsWithoutSimTime) {
  StoreFixture f;
  f.sim.spawn("p", [&](des::Process& self) {
    CheckpointImage image;
    image.rank = 0;
    image.index = 1;
    image.sends = {{3, 8, 0}};
    f.store.write_image_blocking(self, 0, image);
    const auto t0 = self.now();
    const auto peeked = f.store.try_peek_image(0, 1);
    EXPECT_EQ(self.now(), t0);  // no simulated time consumed
    ASSERT_TRUE(peeked.has_value());
    ASSERT_EQ(peeked->sends.size(), 1u);
    EXPECT_EQ(peeked->sends[0].dst, 3u);
  });
  f.sim.run();
}

}  // namespace
}  // namespace chk::chklib
