// Recovery-path hardening tests: multi-failure campaigns, failures landing
// during an in-flight recovery (serialization/coalescing), failures landing
// inside stable-storage checkpoint writes (in-flight write discard),
// RecoveryReport storage-counter consistency, and campaign determinism.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/sor.hpp"
#include "chklib/ckpt/store.hpp"
#include "chklib/proto/coordinated.hpp"
#include "chklib/recovery/manager.hpp"
#include "faultsim/campaign.hpp"
#include "harness/experiment.hpp"
#include "util/format.hpp"
#include "xplorer/machine.hpp"

namespace chk {
namespace {

using harness::ExperimentConfig;
using harness::Scheme;

ExperimentConfig small_sor(Scheme scheme) {
  ExperimentConfig config;
  config.label = "SOR";
  config.app = apps::make_sor({.n = 96, .iterations = 80});
  config.scheme = scheme;
  config.interval = des::Duration::millis(200);
  config.checkpoints = 0;  // keep checkpointing while failures extend the run
  return config;
}

/// Failure-free baseline, computed once (digest + exec time anchor for MTBF).
const harness::ExperimentResult& normal_run() {
  static const harness::ExperimentResult result = [] {
    auto config = small_sor(Scheme::kNone);
    return harness::run_normal(config);
  }();
  return result;
}

/// Snapshots per-rank image sizes and delta bases at recovery begin (after
/// tentative post-line images are dropped, before any loader read): the
/// protocol's GC erases the line's images once post-recovery checkpoints
/// commit, so the end-of-run store cannot reconstruct what the restore read.
struct StoreSnapshot final : public chklib::RecoveryObserver {
  explicit StoreSnapshot(chklib::Runtime& runtime) : rt(&runtime) {}

  void on_recovery_begin(chklib::Rank /*failed*/) override {
    images.assign(rt->num_ranks(), {});
    for (chklib::Rank r = 0; r < rt->num_ranks(); ++r) {
      for (std::uint32_t index : rt->store().saved_indices(r)) {
        const auto image = rt->store().try_peek_image(r, index);
        ASSERT_TRUE(image.has_value());
        images[r][index] = {
            rt->machine().storage().files().at({xplorer::FileKind::kImage, r, index}).size(),
            image->delta_base};
      }
    }
  }

  chklib::Runtime* rt;
  /// Per rank: saved index -> (image blob bytes, delta_base).
  std::vector<std::map<std::uint32_t, std::pair<std::uint64_t, std::uint32_t>>> images;
};

faultsim::CampaignConfig small_campaign(Scheme scheme) {
  faultsim::CampaignConfig config;
  config.base = small_sor(scheme);
  config.base.faults = faultsim::FaultPlan{
      .mtbf = des::Duration::seconds(normal_run().exec_time_s * 0.35), .max_failures = 5};
  config.runs = 1;
  config.expected_digest = normal_run().digest;
  return config;
}

// ---------------------------------------------------------------------------
// Unit: guarded domino-depth subtraction.

TEST(DominoDepth, ClampsInsteadOfWrapping) {
  EXPECT_EQ(chklib::domino_depth(5, 2), 3u);
  EXPECT_EQ(chklib::domino_depth(2, 2), 0u);
  // GC-reclaimed / discarded-write indices can leave newest < restored;
  // the unsigned subtraction must clamp, not wrap to ~4 billion.
  EXPECT_EQ(chklib::domino_depth(0, 5), 0u);
  EXPECT_EQ(chklib::domino_depth(3, 7), 0u);
}

// ---------------------------------------------------------------------------
// Unit: StableStorage discards in-flight writes on failure.

TEST(StableStorage, DiscardInflightWritesDropsThePayload) {
  des::Simulator sim;
  xplorer::Machine machine(sim, xplorer::MachineConfig{});
  auto& storage = machine.storage();
  const std::vector<std::byte> blob(4096);
  const xplorer::FileId file{xplorer::FileKind::kImage, 0, 1};

  bool durable = false;
  des::Process& writer = sim.spawn("writer", [&](des::Process& self) {
    storage.write_blocking(self, 0, file, blob);
    durable = true;
  });

  // Let the pipeline advance partway (strictly inside the uncontended write
  // time), then crash: the write must never surface, and the crash takes
  // its writer down with it.
  const auto half = storage.pure_write_time(0, blob.size()).scaled(0.5);
  sim.run(des::TimePoint::origin() + half);
  EXPECT_EQ(storage.inflight_writes(), 1u);
  EXPECT_EQ(storage.discard_inflight_writes(), 1u);
  sim.kill(writer);
  sim.run();

  EXPECT_FALSE(durable);
  EXPECT_TRUE(writer.finished());
  EXPECT_FALSE(storage.files().contains(file));
  EXPECT_EQ(storage.bytes_written(), 0u);
  EXPECT_TRUE(storage.files().empty());
  EXPECT_EQ(storage.writes_discarded(), 1u);
  EXPECT_EQ(storage.inflight_writes(), 0u);

  // A write submitted after the crash belongs to the new generation and
  // completes normally.
  bool durable2 = false;
  sim.spawn("writer2", [&](des::Process& self) {
    durable2 = storage.write_blocking(self, 0, file, blob) == xplorer::IoStatus::kOk;
  });
  sim.run();
  EXPECT_TRUE(durable2);
  EXPECT_TRUE(storage.files().contains(file));
  EXPECT_EQ(storage.bytes_written(), blob.size());
  EXPECT_EQ(storage.files().size(), 1u);
  EXPECT_EQ(storage.writes_discarded(), 1u);
}

TEST(StableStorage, WriteHookSeesEverySubmission) {
  des::Simulator sim;
  xplorer::Machine machine(sim, xplorer::MachineConfig{});
  auto& storage = machine.storage();
  std::vector<std::string> seen;
  storage.set_write_hook([&seen](xplorer::NodeId from, const xplorer::FileId& file,
                                 std::size_t bytes) {
    seen.push_back(util::format("{}:{}/{}/{}:{}", from, static_cast<int>(file.kind),
                                file.rank, file.index, bytes));
  });
  sim.spawn("image-writer", [&](des::Process& self) {
    storage.write_blocking(self, 2, {xplorer::FileKind::kImage, 2, 1},
                           std::vector<std::byte>(64));
  });
  sim.spawn("commit-writer", [&](des::Process& self) {
    storage.write_blocking(self, 3, {xplorer::FileKind::kCommit, 0, 0},
                           std::vector<std::byte>(8));
  });
  sim.run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "2:0/2/1:64");
  EXPECT_EQ(seen[1], "3:2/0/0:8");
}

// ---------------------------------------------------------------------------
// Multi-failure campaigns across the paper's five schemes.

class CampaignSweep : public ::testing::TestWithParam<Scheme> {};

TEST_P(CampaignSweep, SurvivesAMultiFailureCampaignRun) {
  auto config = small_campaign(GetParam());
  const faultsim::RunOutcome outcome = faultsim::run_one(config, 0);
  const obs::MetricsSnapshot m = harness::run_metrics(outcome.result);
  const auto& n = m.counters;

  EXPECT_TRUE(outcome.digest_ok) << to_string(GetParam());
  EXPECT_GE(n.at("faults/injected"), 2u) << to_string(GetParam());
  EXPECT_GE(n.at("faults/mid_write"), 1u) << to_string(GetParam());
  EXPECT_GE(n.at("faults/during_recovery"), 1u) << to_string(GetParam());
  // At least one restore completed (was not interrupted).
  EXPECT_GT(n.at("recovery/failures"), n.at("recovery/interrupted")) << to_string(GetParam());
  EXPECT_GT(m.gauges.at("run/exec_time_s"), normal_run().exec_time_s) << to_string(GetParam());
  // Counter consistency: every injected failure produced exactly one report
  // (completed or interrupted), and the chain re-read share never exceeds
  // the total read volume.
  EXPECT_EQ(n.at("recovery/failures"), n.at("faults/injected")) << to_string(GetParam());
  EXPECT_LE(n.at("recovery/bytes_reread"), n.at("recovery/bytes_read"))
      << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(FiveSchemes, CampaignSweep,
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

// ---------------------------------------------------------------------------
// Overlapping failures are serialized: the interrupted restore is aborted
// and published as a partial report; the final recovery completes cleanly.

TEST(Recovery, FailureDuringRecoveryIsSerialized) {
  auto config = small_sor(Scheme::kCoordNB);
  faultsim::FaultPlan plan;
  plan.mtbf = des::Duration::seconds(normal_run().exec_time_s * 0.5);
  plan.max_failures = 5;
  plan.ensure_during_recovery = true;
  config.faults = plan;
  const auto result = harness::run_experiment(config);

  ASSERT_GE(result.injections.during_recovery, 1u);
  std::size_t interrupted = 0;
  for (const auto& report : result.recoveries) {
    interrupted += report.interrupted ? 1 : 0;
    EXPECT_GE(report.recovery_latency.to_nanos(), 0);
  }
  // Every during-recovery strike aborted exactly one in-flight restore.
  EXPECT_EQ(interrupted, result.injections.during_recovery);
  ASSERT_FALSE(result.recoveries.empty());
  EXPECT_FALSE(result.recoveries.back().interrupted);
  EXPECT_EQ(result.digest, normal_run().digest);
}

// ---------------------------------------------------------------------------
// Mid-write failures: the in-flight image write is discarded, never visible
// in the store and never counted, and the run still verifies.

TEST(Recovery, FailureDuringCheckpointWriteDiscardsTheImage) {
  auto config = small_sor(Scheme::kCoordNB);
  faultsim::FaultPlan plan;
  plan.mtbf = des::Duration::seconds(normal_run().exec_time_s * 2.0);
  plan.max_failures = 3;
  plan.ensure_midwrite = true;
  config.faults = plan;
  const auto result = harness::run_experiment(config);

  ASSERT_GE(result.injections.mid_write, 1u);
  EXPECT_GE(result.writes_discarded, 1u);
  bool mid_write_report = false;
  for (const auto& report : result.recoveries) {
    mid_write_report = mid_write_report || report.mid_write;
    if (report.mid_write) {
      EXPECT_GE(report.inflight_discarded, 1u);
    }
  }
  EXPECT_TRUE(mid_write_report);
  EXPECT_EQ(result.digest, normal_run().digest);
}

// ---------------------------------------------------------------------------
// RecoveryReport byte accounting matches the stored images exactly.

TEST(Recovery, BytesReadMatchesTheRestoredImages) {
  auto config = small_sor(Scheme::kCoordNB);
  config.checkpoints = 2;  // stop checkpointing after the failure: the line
                           // images survive to the end of the run unchanged

  des::Simulator sim;
  chklib::Runtime runtime(sim, config.machine, config.seed);
  runtime.set_app(config.label, config.app);
  chklib::CoordinatedProtocol protocol(
      runtime, {.scheme = config.scheme, .interval = config.interval, .rounds = 2});
  chklib::RecoveryManager recovery(runtime, protocol);
  StoreSnapshot snapshot(runtime);
  recovery.add_observer(&snapshot);
  protocol.start();
  recovery.inject_failure_at(des::TimePoint::origin() +
                                 des::Duration::seconds(normal_run().exec_time_s * 0.55),
                             3);
  runtime.start_apps();
  runtime.run_to_completion();

  ASSERT_EQ(recovery.reports().size(), 1u);
  const chklib::RecoveryReport& report = recovery.reports().front();
  ASSERT_FALSE(report.interrupted);
  EXPECT_FALSE(report.rolled_to_origin);
  std::uint64_t expected = 0;
  for (chklib::Rank r = 0; r < runtime.num_ranks(); ++r) {
    const std::uint32_t index = report.line.index[r];
    if (index == 0) continue;
    expected += snapshot.images[r].at(index).first;
  }
  EXPECT_GT(expected, 0u);
  EXPECT_EQ(report.bytes_read, expected);
  EXPECT_EQ(report.bytes_reread, 0u);  // non-incremental: no chain re-reads
  EXPECT_EQ(runtime.result_digest(), normal_run().digest);
}

TEST(Recovery, IncrementalChainRereadsAreCounted) {
  // The committed epoch at the failure instant must be a *delta* image for
  // the chain-read path to trigger, and which epoch is committed at a given
  // fraction of the run depends on checkpoint timing. Probe a few failure
  // fractions (each probe is an independent deterministic sim) and verify
  // the accounting on the first one whose line is a delta.
  bool chain_verified = false;
  for (const double frac : {0.40, 0.55, 0.70, 0.85}) {
    auto config = small_sor(Scheme::kCoordNB);

    des::Simulator sim;
    chklib::Runtime runtime(sim, config.machine, config.seed);
    runtime.set_app(config.label, config.app);
    chklib::CoordinatedProtocol protocol(runtime, {.scheme = config.scheme,
                                                   .interval = config.interval,
                                                   .rounds = 0,
                                                   .incremental = true});
    chklib::RecoveryManager recovery(runtime, protocol);
    StoreSnapshot snapshot(runtime);
    recovery.add_observer(&snapshot);
    protocol.start();
    recovery.inject_failure_at(des::TimePoint::origin() +
                                   des::Duration::seconds(normal_run().exec_time_s * frac),
                               5);
    runtime.start_apps();
    runtime.run_to_completion();

    ASSERT_EQ(recovery.reports().size(), 1u);
    const chklib::RecoveryReport& report = recovery.reports().front();
    EXPECT_EQ(runtime.result_digest(), normal_run().digest);
    // Reconstruct the expected read volume from the recovery-time snapshot:
    // each rank reads its line image plus (incremental) the delta chain down
    // to the last full image; the chain share is the re-read cost.
    std::uint64_t expected_read = 0;
    std::uint64_t expected_reread = 0;
    bool chain_restore = false;
    for (chklib::Rank r = 0; r < runtime.num_ranks(); ++r) {
      const std::uint32_t index = report.line.index[r];
      if (index == 0) continue;
      expected_read += snapshot.images[r].at(index).first;
      std::uint32_t base = snapshot.images[r].at(index).second;
      while (base != 0) {
        chain_restore = true;
        const auto& [bytes, next_base] = snapshot.images[r].at(base);
        expected_read += bytes;
        expected_reread += bytes;
        base = next_base;
      }
    }
    EXPECT_EQ(report.bytes_read, expected_read);
    EXPECT_EQ(report.bytes_reread, expected_reread);
    if (chain_restore) {
      EXPECT_GT(report.bytes_reread, 0u);
      chain_verified = true;
      break;
    }
  }
  EXPECT_TRUE(chain_verified)
      << "no probed failure fraction produced a delta-image line";
}

// ---------------------------------------------------------------------------
// fail_now edge cases.

TEST(Recovery, FailNowAfterCompletionIsIgnored) {
  auto config = small_sor(Scheme::kCoordNB);
  config.checkpoints = 2;

  des::Simulator sim;
  chklib::Runtime runtime(sim, config.machine, config.seed);
  runtime.set_app(config.label, config.app);
  chklib::CoordinatedProtocol protocol(
      runtime, {.scheme = config.scheme, .interval = config.interval, .rounds = 2});
  chklib::RecoveryManager recovery(runtime, protocol);
  protocol.start();
  runtime.start_apps();
  runtime.run_to_completion();
  recovery.fail_now(0);
  EXPECT_TRUE(recovery.reports().empty());
  EXPECT_FALSE(recovery.recovering());
}

// ---------------------------------------------------------------------------
// Campaign determinism: same seeds => byte-identical JSON.

TEST(Campaign, SameSeedsProduceByteIdenticalJson) {
  for (Scheme scheme : {Scheme::kCoordNBM, Scheme::kIndepM}) {
    auto config = small_campaign(scheme);
    config.runs = 2;
    const auto dump = [](const faultsim::CampaignResult& result) {
      obs::json::Value doc = obs::json::Value::array();
      for (const auto& outcome : result.outcomes) {
        doc.push_back(faultsim::outcome_to_json(outcome));
      }
      doc.push_back(faultsim::summary_to_json(result.summary));
      return doc.dump();
    };
    const std::string a = dump(faultsim::run_campaign(config));
    const std::string b = dump(faultsim::run_campaign(config));
    EXPECT_EQ(a, b) << to_string(scheme);
    EXPECT_NE(a.find("\"digest_ok\":true"), std::string::npos) << to_string(scheme);
  }
}

TEST(Campaign, RejectsABaseWithoutAFaultPlan) {
  auto config = small_campaign(Scheme::kCoordNB);
  config.base.faults.reset();
  EXPECT_THROW((void)faultsim::run_one(config, 0), std::invalid_argument);
}

TEST(Campaign, RunsKeepTheBaseRetentionDepth) {
  // Every setting but the fault streams reaches the runs as the base has it.
  auto config = small_campaign(Scheme::kCoordNB);
  config.base.keep_depth = 3;
  const faultsim::RunOutcome deep = faultsim::run_one(config, 0);
  config.base.keep_depth = 1;
  const faultsim::RunOutcome shallow = faultsim::run_one(config, 0);
  EXPECT_TRUE(deep.digest_ok);
  EXPECT_TRUE(shallow.digest_ok);
  EXPECT_GT(deep.result.peak_storage_bytes, shallow.result.peak_storage_bytes);
}

TEST(Campaign, DifferentStreamsProduceDifferentFailureSchedules) {
  auto config = small_campaign(Scheme::kCoordNB);
  config.runs = 2;
  const auto result = faultsim::run_campaign(config);
  ASSERT_EQ(result.outcomes.size(), 2u);
  // Different runs draw different arrival realizations, so the executed
  // schedules (and trace hashes) differ; both still verify.
  EXPECT_NE(result.outcomes[0].result.trace_hash, result.outcomes[1].result.trace_hash);
  EXPECT_TRUE(result.summary.all_verified);
}

}  // namespace
}  // namespace chk
