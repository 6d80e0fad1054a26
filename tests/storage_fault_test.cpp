// Tests for the stable-storage fault domain: the storage fault model
// (transient I/O errors, degraded windows, bit-rot), the retrying storage
// client, verified multi-generation recovery, checkpoint retention GC, and
// the fault domain's composition with crashes and lossy links.
//
//   * determinism guard: a present-but-inactive storage fault config and
//     keep_depth=1 leave trace hashes and completion times bit-identical to
//     the pinned baselines;
//   * fault-model validation + determinism: out-of-range parameters are
//     rejected; equal seeds yield equal verdict streams; a zero-probability
//     fault takes no RNG draw;
//   * StableStorage semantics: a failed write leaves the previous version
//     intact, bit-rot flips exactly one byte of the durable image, a failed
//     read delivers no data but is fully timed;
//   * StorageClient: transient errors are retried with backoff until
//     success; an exhausted budget or the deadline surfaces a terminal
//     error; retry waits are measured;
//   * protocols: independent schemes skip an interval on a terminal write
//     failure and still verify; coordinated recovery falls back past rotted
//     generations (generations_skipped) and still verifies; retention GC
//     keeps exactly keep_depth committed generations per rank;
//   * attribution: the blocked-window buckets (including
//     storage_retry_wait) stay an exact partition with retries present;
//   * campaigns: all five paper schemes verify under crashes + storage
//     faults; link + storage fault domains compose with independent
//     streams and byte-identical same-seed JSON.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/sor.hpp"
#include "chklib/ckpt/storage_client.hpp"
#include "chklib/comm/link_fault.hpp"
#include "des/simulator.hpp"
#include "faultsim/campaign.hpp"
#include "harness/catalog.hpp"
#include "harness/experiment.hpp"
#include "obs/attribution.hpp"
#include "obs/tracer.hpp"
#include "pinned_runs.hpp"
#include "util/rng.hpp"
#include "xplorer/machine.hpp"
#include "xplorer/storage_fault.hpp"

namespace chk {
namespace {

using harness::ExperimentConfig;
using harness::Scheme;
using xplorer::IoStatus;
using xplorer::StorageFaultConfig;
using xplorer::StorageFaultModel;

ExperimentConfig small_sor(Scheme scheme) {
  ExperimentConfig config;
  config.label = "SOR";
  config.app = apps::make_sor({.n = 96, .iterations = 80});
  config.scheme = scheme;
  config.interval = des::Duration::millis(200);
  config.checkpoints = 0;  // keep checkpointing while failures extend the run
  return config;
}

/// Failure-free baseline (digest + exec-time anchor), computed once.
const harness::ExperimentResult& normal_run() {
  static const harness::ExperimentResult result = [] {
    auto config = small_sor(Scheme::kNone);
    return harness::run_normal(config);
  }();
  return result;
}

/// The default faulted-storage weather most tests use: transient errors on
/// a tenth of the operations, occasional bit-rot, mild degraded windows.
StorageFaultConfig default_weather() {
  StorageFaultConfig faults;
  faults.write_error = 0.1;
  faults.read_error = 0.1;
  faults.bitrot = 0.02;
  faults.degrade_factor = 1.5;
  return faults;
}

// ---------------------------------------------------------------------------
// Determinism guard: inactive storage faults + keep_depth=1 =>
// bit-identical to the pinned pre-fault-domain baselines.
// ---------------------------------------------------------------------------

// The shared pinned table (pinned_runs.hpp). Any drift here means the
// storage fault domain, the retry client or the retained-set GC perturbs
// fault-free executions.
TEST(StorageDeterminismGuard, InactiveFaultsMatchPinnedBaselines) {
  for (const pinned::Row& row : pinned::kRows) {
    harness::ExperimentConfig config = pinned::config_for(row);
    // Present but inactive: all probabilities zero, degradation off. The
    // model is not even installed; the client runs its single-attempt path.
    config.storage_faults = StorageFaultConfig{};
    config.keep_depth = 1;
    const auto result = harness::run_experiment(config);
    const std::string what = pinned::describe(row);
    EXPECT_EQ(result.trace_hash, row.trace_hash) << what;
    EXPECT_EQ(result.exec_time_s, row.exec_time_s) << what;
    EXPECT_EQ(result.io_write_errors, 0u) << what;
    EXPECT_EQ(result.storage_retries, 0u) << what;
    EXPECT_EQ(result.ckpt_write_failures, 0u) << what;
    EXPECT_EQ(result.generations_skipped, 0u) << what;
  }
}

TEST(StorageDeterminismGuard, InactiveFaultsMatchPinnedAppRows) {
  for (const pinned::AppRow& row : pinned::kAppRows) {
    harness::ExperimentConfig config = pinned::config_for(row);
    config.storage_faults = StorageFaultConfig{};
    config.keep_depth = 1;
    const auto result = harness::run_experiment(config);
    const std::string what = pinned::describe(row);
    EXPECT_EQ(result.trace_hash, row.trace_hash) << what;
    EXPECT_EQ(result.events, row.events) << what;
    EXPECT_EQ(result.exec_time_s, row.exec_time_s) << what;
    EXPECT_EQ(result.digest, row.digest) << what;
    EXPECT_EQ(result.storage_retries, 0u) << what;
  }
}

// ---------------------------------------------------------------------------
// Fault-model validation and determinism.
// ---------------------------------------------------------------------------

TEST(StorageFaults, RejectsOutOfRangeParameters) {
  StorageFaultConfig config;
  config.write_error = 1.0;  // certain loss would defeat any retry budget
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.write_error = -0.1;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.write_error = 0.0;
  config.read_error = 1.5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.read_error = 0.0;
  config.bitrot = 1.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.bitrot = 0.0;
  config.degrade_factor = 0.5;  // a speed-up is not a fault
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(StorageFaults, ModelConstructorValidatesToo) {
  StorageFaultConfig config;
  config.read_error = 2.0;
  EXPECT_THROW(StorageFaultModel(config, util::Rng(1)), std::invalid_argument);
}

TEST(StorageFaults, EnabledDetectsEachActiveFault) {
  StorageFaultConfig config;
  EXPECT_FALSE(config.enabled());  // all-zero = perfect storage
  EXPECT_NO_THROW(config.validate());
  config.write_error = 0.1;
  EXPECT_TRUE(config.enabled());
  config = {};
  config.read_error = 0.1;
  EXPECT_TRUE(config.enabled());
  config = {};
  config.bitrot = 0.01;
  EXPECT_TRUE(config.enabled());
  config = {};
  config.degrade_factor = 1.5;
  EXPECT_TRUE(config.enabled());
}

TEST(StorageFaults, EqualSeedsYieldEqualVerdictStreams) {
  auto config = default_weather();
  // chklint:allow(unique-fork-tags): deliberately mirrors the harness's
  // 0x510F storage-domain stream so the test pins the exact fault schedule
  // an experiment with this seed would see.
  StorageFaultModel a(config, util::Rng(7).fork(0x510Fu));
  // chklint:allow(unique-fork-tags): same pinned stream again on purpose.
  StorageFaultModel b(config, util::Rng(7).fork(0x510Fu));
  for (int i = 0; i < 200; ++i) {
    const auto va = a.judge_write();
    const auto vb = b.judge_write();
    EXPECT_EQ(va.io_error, vb.io_error);
    EXPECT_EQ(va.bitrot, vb.bitrot);
    EXPECT_EQ(va.rot_offset, vb.rot_offset);
    EXPECT_EQ(va.rot_mask, vb.rot_mask);
    EXPECT_EQ(a.judge_read().io_error, b.judge_read().io_error);
  }
  EXPECT_EQ(a.write_errors(), b.write_errors());
  EXPECT_EQ(a.read_errors(), b.read_errors());
  EXPECT_EQ(a.bitrot_flagged(), b.bitrot_flagged());
  // The weather actually happened at these rates.
  EXPECT_GT(a.write_errors(), 0u);
  EXPECT_GT(a.read_errors(), 0u);
}

TEST(StorageFaults, WriteErrorOnlyTakesOneDrawPerVerdict) {
  // A zero-probability fault takes no draw, so a write-error-only model
  // consumes exactly one Bernoulli draw per write verdict and none per read
  // verdict: a bare generator on the same seed stays in lockstep.
  StorageFaultConfig config;
  config.write_error = 0.5;
  StorageFaultModel model(config, util::Rng(31));
  util::Rng mirror(31);
  (void)mirror();  // the constructor forks the degraded-window sub-stream
  for (int i = 0; i < 500; ++i) {
    const auto verdict = model.judge_write();
    EXPECT_EQ(verdict.io_error, mirror.bernoulli(0.5)) << "write verdict " << i;
    EXPECT_FALSE(verdict.bitrot);
    EXPECT_FALSE(model.judge_read().io_error);
  }
  EXPECT_GT(model.write_errors(), 0u);
}

// ---------------------------------------------------------------------------
// StableStorage under faults: failed writes, bit-rot, failed reads.
// ---------------------------------------------------------------------------

/// The one file these unit tests write and read.
constexpr xplorer::FileId kFile{xplorer::FileKind::kImage, 0, 1};

std::vector<std::byte> patterned_blob(std::size_t n) {
  std::vector<std::byte> blob(n);
  for (std::size_t i = 0; i < n; ++i) blob[i] = static_cast<std::byte>(i * 31 & 0xff);
  return blob;
}

TEST(StorageFaults, FailedWriteLeavesPreviousVersionIntact) {
  des::Simulator sim;
  xplorer::Machine machine(sim, xplorer::MachineConfig{});
  auto& storage = machine.storage();
  const auto old_version = patterned_blob(512);
  std::uint64_t failures = 0;  // kIoError statuses this test saw

  sim.spawn("p", [&](des::Process& self) {
    // Establish a durable version on perfect storage, then make every
    // subsequent write fail.
    ASSERT_EQ(storage.write_blocking(self, 0, kFile, old_version), IoStatus::kOk);
    StorageFaultConfig faults;
    faults.write_error = 0.999;
    storage.set_faults(faults, util::Rng(3));
    for (int attempt = 0; attempt < 20 && failures == 0; ++attempt) {
      if (storage.write_blocking(self, 0, kFile, patterned_blob(256)) == IoStatus::kIoError) {
        ++failures;
      }
    }
    ASSERT_GE(failures, 1u);
    // The failed attempt was fully timed but took no effect.
    EXPECT_EQ(storage.files().at(kFile), old_version);
  });
  sim.run();
  EXPECT_EQ(failures, storage.faults()->write_errors());
}

TEST(StorageFaults, BitrotFlipsExactlyOneDurableByte) {
  des::Simulator sim;
  xplorer::Machine machine(sim, xplorer::MachineConfig{});
  auto& storage = machine.storage();
  StorageFaultConfig faults;
  faults.bitrot = 0.999;
  storage.set_faults(faults, util::Rng(5));
  const auto blob = patterned_blob(1024);

  sim.spawn("p", [&](des::Process& self) {
    // The write itself reports success — corruption is silent.
    ASSERT_EQ(storage.write_blocking(self, 0, kFile, blob), IoStatus::kOk);
  });
  sim.run();
  ASSERT_GE(storage.faults()->bitrot_flagged(), 1u);
  const auto& durable = storage.files().at(kFile);
  ASSERT_EQ(durable.size(), blob.size());
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < blob.size(); ++i) diffs += durable[i] != blob[i];
  EXPECT_EQ(diffs, 1u);
}

TEST(StorageFaults, FailedReadDeliversNoDataButKeepsTheKey) {
  des::Simulator sim;
  xplorer::Machine machine(sim, xplorer::MachineConfig{});
  auto& storage = machine.storage();
  const auto blob = patterned_blob(2048);

  sim.spawn("p", [&](des::Process& self) {
    ASSERT_EQ(storage.write_blocking(self, 0, kFile, blob), IoStatus::kOk);
    StorageFaultConfig faults;
    faults.read_error = 0.999;
    storage.set_faults(faults, util::Rng(11));
    bool saw_failure = false;
    for (int attempt = 0; attempt < 20 && !saw_failure; ++attempt) {
      IoStatus status = IoStatus::kOk;
      const auto data = storage.read_blocking(self, 0, kFile, &status);
      if (status == IoStatus::kIoError) {
        saw_failure = true;
        EXPECT_TRUE(data.empty());  // the error delivers nothing
      } else {
        EXPECT_EQ(data, blob);
      }
    }
    ASSERT_TRUE(saw_failure);
    EXPECT_TRUE(storage.files().contains(kFile));  // the durable copy is untouched
  });
  sim.run();
  EXPECT_GE(storage.faults()->read_errors(), 1u);
}

// ---------------------------------------------------------------------------
// StorageClient: bounded retries with backoff, terminal failure, timing.
// The budget is 4 attempts (3 retries) with a 30 s deadline.
// ---------------------------------------------------------------------------

TEST(StorageClient, RetriesTransientErrorsUntilSuccess) {
  des::Simulator sim;
  xplorer::Machine machine(sim, xplorer::MachineConfig{});
  auto& storage = machine.storage();
  StorageFaultConfig faults;
  faults.write_error = 0.5;
  storage.set_faults(faults, util::Rng(9));
  chklib::StorageClient client(storage);
  const auto blob = patterned_blob(4096);

  IoStatus status = IoStatus::kIoError;
  sim.spawn("p", [&](des::Process& self) {
    status = client.write_blocking(self, 0, kFile, blob, obs::EventKind::kStableWrite,
                                   /*arg=*/0, /*app_blocking=*/true);
  });
  sim.run();
  EXPECT_EQ(status, IoStatus::kOk);
  EXPECT_TRUE(storage.files().contains(kFile));
  // This stream fails the first two attempts; the third succeeds.
  EXPECT_EQ(client.retries(), 2u);
  EXPECT_EQ(client.write_failures(), 0u);
  // Every retry slept a backoff; the waits are measured.
  EXPECT_GT(client.retry_wait(), des::Duration::zero());
}

TEST(StorageClient, ExhaustedBudgetSurfacesTerminalError) {
  des::Simulator sim;
  xplorer::Machine machine(sim, xplorer::MachineConfig{});
  auto& storage = machine.storage();
  StorageFaultConfig faults;
  faults.write_error = 0.999;
  storage.set_faults(faults, util::Rng(23));
  chklib::StorageClient client(storage);

  IoStatus status = IoStatus::kOk;
  sim.spawn("p", [&](des::Process& self) {
    status = client.write_blocking(self, 0, kFile, patterned_blob(256),
                                   obs::EventKind::kStableWrite, 0, true);
  });
  sim.run();
  EXPECT_EQ(status, IoStatus::kIoError);
  EXPECT_FALSE(storage.files().contains(kFile));
  EXPECT_EQ(client.write_failures(), 1u);
  EXPECT_EQ(client.retries(), 3u);  // attempts 2 to 4 of the budget
}

TEST(StorageClient, DeadlineEndsRetriesBeforeTheBudget) {
  // One attempt at a 12 MB image takes about 16.7 s (host link, then
  // disk), so the second attempt ends past the 30 s deadline while the
  // budget still holds two attempts: the client gives up then.
  des::Simulator sim;
  xplorer::Machine machine(sim, xplorer::MachineConfig{});
  auto& storage = machine.storage();
  StorageFaultConfig faults;
  faults.write_error = 0.999;
  storage.set_faults(faults, util::Rng(23));
  chklib::StorageClient client(storage);

  IoStatus status = IoStatus::kOk;
  sim.spawn("p", [&](des::Process& self) {
    status = client.write_blocking(self, 0, kFile, patterned_blob(12'000'000),
                                   obs::EventKind::kStableWrite, 0, true);
  });
  sim.run();
  EXPECT_EQ(status, IoStatus::kIoError);
  EXPECT_FALSE(storage.files().contains(kFile));
  EXPECT_EQ(client.write_failures(), 1u);
  EXPECT_EQ(client.retries(), 1u);  // the budget alone would allow 3
  EXPECT_GT(sim.now() - des::TimePoint::origin(), des::Duration::secs(30));
}

TEST(StorageClient, MissingKeyReadIsOkAndEmpty) {
  des::Simulator sim;
  xplorer::Machine machine(sim, xplorer::MachineConfig{});
  chklib::StorageClient client(machine.storage());
  IoStatus status = IoStatus::kIoError;
  std::vector<std::byte> out;
  sim.spawn("p", [&](des::Process& self) {
    status = client.read_blocking(self, 0, kFile, &out);
  });
  sim.run();
  EXPECT_EQ(status, IoStatus::kOk);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(client.read_failures(), 0u);
}

// ---------------------------------------------------------------------------
// Protocol behaviour under storage faults (failure-free runs).
// ---------------------------------------------------------------------------

TEST(StorageFaults, IndependentSkipsIntervalOnTerminalWriteFailure) {
  // An error rate high enough to exhaust the default retry budget forces
  // terminal write failures; the independent scheme skips those intervals,
  // keeps the previous generation and still computes the right answer.
  auto config = small_sor(Scheme::kIndep);
  StorageFaultConfig faults;
  faults.write_error = 0.6;
  config.storage_faults = faults;
  const auto result = harness::run_experiment(config);
  EXPECT_GE(result.ckpt_write_failures, 1u);
  EXPECT_GE(result.storage_retries, 1u);
  EXPECT_GT(result.local_checkpoints, 0u);
  EXPECT_EQ(result.digest, normal_run().digest);
  EXPECT_EQ(result.invariant_violations, 0u);
}

TEST(StorageFaults, StreamVariesTheWeatherNotTheAnswer) {
  auto config = small_sor(Scheme::kCoordNB);
  config.storage_faults = default_weather();
  const auto a = harness::run_experiment(config);
  config.storage_faults->stream = 7;
  const auto b = harness::run_experiment(config);
  EXPECT_EQ(a.digest, b.digest);          // the answer is fault-free either way
  EXPECT_NE(a.trace_hash, b.trace_hash);  // the disk weather is not
  EXPECT_EQ(a.digest, normal_run().digest);
  EXPECT_GT(a.io_write_errors + a.io_read_errors, 0u);
}

// ---------------------------------------------------------------------------
// Verified multi-generation recovery: rotted generations are discarded and
// the restore falls back to an older one.
// ---------------------------------------------------------------------------

TEST(StorageFaults, RecoveryFallsBackPastRottedGenerations) {
  // Nearly every durable image rots; the crash forces a restore whose
  // loaders detect the corruption, erase the bad generation and re-plan on
  // an older line — repeatedly, if needed, down to the initial state.
  auto config = small_sor(Scheme::kCoordNB);
  StorageFaultConfig faults;
  faults.bitrot = 0.9;
  config.storage_faults = faults;
  config.failure =
      harness::FailureSpec{des::TimePoint::origin() +
                               des::Duration::seconds(normal_run().exec_time_s * 0.55),
                           3};
  const auto result = harness::run_experiment(config);
  ASSERT_GE(result.recoveries.size(), 1u);
  EXPECT_GE(result.generations_skipped, 1u);
  EXPECT_GE(result.corrupt_discarded + result.generations_skipped, 1u);
  EXPECT_EQ(result.digest, normal_run().digest);
  EXPECT_EQ(result.invariant_violations, 0u);
}

// ---------------------------------------------------------------------------
// Retention GC: keep_depth generations per rank survive, older ones are
// reclaimed, and the default depth doubles when storage faults are on.
// ---------------------------------------------------------------------------

TEST(RetentionGc, CoordinatedKeepsExactlyKeepDepthGenerations) {
  auto base = small_sor(Scheme::kCoordNB);
  base.machine.num_nodes = 8;
  base.checkpoints = 4;

  auto depth1 = base;
  depth1.keep_depth = 1;
  const auto r1 = harness::run_experiment(depth1);
  auto depth2 = base;
  depth2.keep_depth = 2;
  const auto r2 = harness::run_experiment(depth2);

  // Non-incremental images: one per retained committed epoch per rank.
  EXPECT_EQ(r1.final_stored_checkpoints, 8u);
  EXPECT_EQ(r2.final_stored_checkpoints, 16u);
  EXPECT_GT(r1.reclaimed_bytes, 0u);  // pruned generations free real bytes
  EXPECT_GT(r1.reclaimed_bytes, r2.reclaimed_bytes);
  // Retention depth changes what is kept, not what is executed.
  EXPECT_EQ(r1.exec_time_s, r2.exec_time_s);
  EXPECT_EQ(r1.digest, r2.digest);
}

TEST(RetentionGc, AutoDepthRaisesToTwoUnderStorageFaults) {
  auto config = small_sor(Scheme::kCoordNB);
  config.machine.num_nodes = 8;
  config.checkpoints = 4;
  // Active-but-negligible faults: the auto policy must still engage.
  StorageFaultConfig faults;
  faults.write_error = 1e-12;
  config.storage_faults = faults;
  const auto result = harness::run_experiment(config);
  EXPECT_EQ(result.final_stored_checkpoints, 16u);
  EXPECT_EQ(result.digest, normal_run().digest);
}

TEST(RetentionGc, IndependentKeepDepthFloorsTheGc) {
  auto base = small_sor(Scheme::kIndep);
  base.gc = true;

  auto depth1 = base;
  depth1.keep_depth = 1;
  const auto r1 = harness::run_experiment(depth1);
  auto depth2 = base;
  depth2.keep_depth = 2;
  const auto r2 = harness::run_experiment(depth2);

  EXPECT_GE(r2.final_stored_checkpoints, r1.final_stored_checkpoints);
  EXPECT_GE(r1.gc_reclaimed, r2.gc_reclaimed);
  EXPECT_EQ(r1.digest, r2.digest);
  EXPECT_EQ(r1.exec_time_s, r2.exec_time_s);
}

// ---------------------------------------------------------------------------
// Attribution: the blocked-window partition stays exact with retries in it.
// ---------------------------------------------------------------------------

TEST(StorageFaults, AttributionPartitionStaysExactWithRetries) {
  auto config = small_sor(Scheme::kCoordNB);
  config.checkpoints = 3;
  StorageFaultConfig faults;
  faults.write_error = 0.3;  // writes only: every backoff is app-blocking
  config.storage_faults = faults;
  config.observe = true;
  const auto result = harness::run_experiment(config);
  ASSERT_TRUE(result.obs);
  ASSERT_GT(result.storage_retries, 0u);

  const obs::AttributionReport& report = result.obs->attribution;
  double retry_wait = 0;
  for (const obs::RankBuckets& rank : report.ranks) {
    // The six window buckets partition each rank's blocking windows exactly.
    EXPECT_NEAR(rank.sync_wait_s + rank.mem_copy_s + rank.stable_write_s +
                    rank.storage_contention_s + rank.logging_s +
                    rank.storage_retry_wait_s,
                rank.blocked_total_s, 1e-9);
    EXPECT_NEAR(rank.bucket_sum_s(), rank.total_s(), 1e-9);
    EXPECT_GE(rank.storage_retry_wait_s, 0.0);
    retry_wait += rank.storage_retry_wait_s;
  }
  EXPECT_NEAR(report.total.storage_retry_wait_s, retry_wait, 1e-9);
  EXPECT_GT(report.total.storage_retry_wait_s, 0.0);
  // App-blocking backoffs can never exceed the client's total backoff time
  // (the coordinator's commit-write retries are outside the windows).
  EXPECT_LE(report.total.storage_retry_wait_s, result.storage_retry_wait_s + 1e-9);
  EXPECT_NEAR(report.total.blocked_total_s, result.app_blocked_s, 1e-9);
}

// ---------------------------------------------------------------------------
// Campaigns: crashes + storage faults across all five paper schemes, and
// composition with lossy links.
// ---------------------------------------------------------------------------

faultsim::CampaignConfig storm_campaign(Scheme scheme) {
  faultsim::CampaignConfig config;
  config.base = small_sor(scheme);
  config.base.storage_faults = default_weather();
  config.base.faults = faultsim::FaultPlan{
      .mtbf = des::Duration::seconds(normal_run().exec_time_s * 0.35), .max_failures = 5};
  config.runs = 1;
  config.expected_digest = normal_run().digest;
  return config;
}

class StorageFaultSweep : public ::testing::TestWithParam<Scheme> {};

TEST_P(StorageFaultSweep, SurvivesCrashesOnFaultyStorage) {
  auto config = storm_campaign(GetParam());
  const faultsim::RunOutcome outcome = faultsim::run_one(config, 0);
  const auto n = harness::run_metrics(outcome.result).counters;
  const std::string what(to_string(GetParam()));
  EXPECT_TRUE(outcome.digest_ok) << what;
  EXPECT_GE(n.at("faults/injected"), 2u) << what;
  EXPECT_GT(n.at("recovery/failures"), n.at("recovery/interrupted")) << what;
  EXPECT_GT(n.at("storage/io_write_errors") + n.at("storage/io_read_errors"), 0u) << what;
  EXPECT_GT(n.at("storage/retries"), 0u) << what;
  EXPECT_EQ(n.at("recovery/failures"), n.at("faults/injected")) << what;
}

INSTANTIATE_TEST_SUITE_P(FiveSchemes, StorageFaultSweep,
                         ::testing::Values(Scheme::kCoordNB, Scheme::kIndep,
                                           Scheme::kCoordNBM, Scheme::kIndepM,
                                           Scheme::kCoordNBMS),
                         [](const ::testing::TestParamInfo<Scheme>& param_info) {
                           std::string name(to_string(param_info.param));
                           for (char& c : name) {
                             if (c == '_') c = '0';
                           }
                           return name;
                         });

TEST(StorageFaults, LinkAndStorageDomainsComposeByteIdentically) {
  // Both fault domains at once, independent per-domain streams: the run
  // verifies and same seeds reproduce byte-identical campaign JSON.
  auto config = storm_campaign(Scheme::kCoordNBM);
  chklib::LinkFaultConfig link;
  link.drop = 0.1;
  link.duplicate = 0.05;
  link.corrupt = 0.02;
  config.base.link_faults = link;
  config.runs = 2;
  const auto dump = [](const faultsim::CampaignResult& result) {
    obs::json::Value doc = obs::json::Value::array();
    for (const auto& outcome : result.outcomes) {
      doc.push_back(faultsim::outcome_to_json(outcome));
    }
    doc.push_back(faultsim::summary_to_json(result.summary));
    return doc.dump();
  };
  const auto first = faultsim::run_campaign(config);
  const std::string a = dump(first);
  const std::string b = dump(faultsim::run_campaign(config));
  EXPECT_EQ(a, b);
  EXPECT_TRUE(first.summary.all_verified);
  // Both domains actually fired.
  std::uint64_t drops = 0, io_errors = 0;
  for (const auto& outcome : first.outcomes) {
    drops += outcome.result.link_drops;
    io_errors += outcome.result.io_write_errors + outcome.result.io_read_errors;
  }
  EXPECT_GT(drops, 0u);
  EXPECT_GT(io_errors, 0u);
}

}  // namespace
}  // namespace chk
