// Tests for the unreliable-link model, the reliable FIFO transport and the
// checkpoint-round watchdogs.
//
//   * determinism guard: with faults disabled, trace hashes and completion
//     times are bit-identical to the pre-transport baselines (the fault
//     model and transport are zero-overhead when off);
//   * fault-model validation: out-of-range probabilities and negative
//     delays are rejected with clear errors; a zero-probability fault
//     takes no RNG draw;
//   * exactly-once FIFO: under heavy drop/duplicate/corrupt rates the
//     transport repairs every channel — the application digest matches the
//     perfect-link run and the invariant monitor sees a loss-free FIFO
//     stream above the transport;
//   * control-plane loss: a dropped channel marker, ack, commit or stagger
//     token is repaired by retransmission for every coordinated scheme; a
//     control frame held back past a watchdog deadline by repeated losses
//     is covered by the round / token watchdogs, and its late original is
//     ignored;
//   * acceptance sweep: every paper scheme completes the workload under
//     heavy link faults with digests intact.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "apps/gauss.hpp"
#include "apps/nqueens.hpp"
#include "apps/sor.hpp"
#include "chklib/comm/link_fault.hpp"
#include "chklib/proto/coordinated.hpp"
#include "chklib/runtime.hpp"
#include "chklib/verify/monitor.hpp"
#include "des/simulator.hpp"
#include "harness/catalog.hpp"
#include "harness/experiment.hpp"
#include "obs/tracer.hpp"
#include "pinned_runs.hpp"
#include "util/rng.hpp"

namespace chk {
namespace {

using chklib::ControlKind;
using chklib::ControlMsg;
using chklib::LinkFaultConfig;
using chklib::LinkFaultModel;
using chklib::Rank;
using chklib::Scheme;
using chklib::verify::Monitor;
using chklib::verify::Policy;
using des::Duration;

// ---------------------------------------------------------------------------
// Determinism guard: faults off => bit-identical to the pre-transport repo.
// ---------------------------------------------------------------------------

// The shared pinned table (pinned_runs.hpp). Any drift here means the fault
// model or transport perturbs fault-free executions.
TEST(DeterminismGuard, FaultFreeTracesMatchPreTransportBaselines) {
  for (const pinned::Row& row : pinned::kRows) {
    const auto result = harness::run_experiment(pinned::config_for(row));
    const std::string what = pinned::describe(row);
    EXPECT_EQ(result.trace_hash, row.trace_hash) << what;
    EXPECT_EQ(result.exec_time_s, row.exec_time_s) << what;
    if (std::string_view(row.label) == "SOR-384") {
      EXPECT_EQ(result.digest, pinned::kSor384Digest) << what;
    }
    EXPECT_EQ(result.retransmits, 0u) << what;
    EXPECT_EQ(result.link_drops, 0u) << what;
    EXPECT_EQ(result.aborted_rounds, 0u) << what;
  }
}

TEST(DeterminismGuard, FaultFreeAppRowsMatchPinnedBaselines) {
  for (const pinned::AppRow& row : pinned::kAppRows) {
    const auto result = harness::run_experiment(pinned::config_for(row));
    const std::string what = pinned::describe(row);
    EXPECT_EQ(result.trace_hash, row.trace_hash) << what;
    EXPECT_EQ(result.events, row.events) << what;
    EXPECT_EQ(result.exec_time_s, row.exec_time_s) << what;
    EXPECT_EQ(result.digest, row.digest) << what;
    EXPECT_EQ(result.local_checkpoints, 24u) << what;
    EXPECT_EQ(result.retransmits, 0u) << what;
  }
}

// ---------------------------------------------------------------------------
// Fault-model validation.
// ---------------------------------------------------------------------------

TEST(LinkFaults, RejectsOutOfRangeProbabilities) {
  LinkFaultConfig config;
  config.drop = 1.5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.drop = 1.0;  // certain loss can never be repaired
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.drop = -0.1;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.drop = 0.0;
  config.duplicate = 2.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.duplicate = 0.0;
  config.corrupt = -1.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.corrupt = 0.0;
  config.delay_prob = 1.25;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(LinkFaults, ModelConstructorValidatesToo) {
  LinkFaultConfig config;
  config.corrupt = 7.0;
  EXPECT_THROW(LinkFaultModel(config, util::Rng(1)), std::invalid_argument);
}

TEST(LinkFaults, ValidConfigsPass) {
  LinkFaultConfig config;
  EXPECT_NO_THROW(config.validate());  // all-zero = disabled
  EXPECT_FALSE(config.enabled());
  config.drop = 0.2;
  config.duplicate = 0.1;
  config.corrupt = 0.05;
  config.delay_prob = 0.999;
  EXPECT_NO_THROW(config.validate());
  EXPECT_TRUE(config.enabled());
}

TEST(LinkFaults, DropOnlyTakesOneDrawPerVerdict) {
  // A zero-probability fault takes no draw, so a drop-only model consumes
  // exactly one Bernoulli draw per verdict (a surviving frame has no value
  // draws either): a bare generator on the same seed stays in lockstep.
  LinkFaultConfig config;
  config.drop = 0.5;
  LinkFaultModel model(config, util::Rng(29));
  util::Rng mirror(29);
  for (int i = 0; i < 500; ++i) {
    const LinkFaultModel::Verdict verdict = model.judge();
    EXPECT_EQ(verdict.drop, mirror.bernoulli(0.5)) << "verdict " << i;
    EXPECT_FALSE(verdict.duplicate || verdict.corrupt || verdict.extra_delay_ns > 0);
  }
  EXPECT_GT(model.drops(), 0u);
}

// ---------------------------------------------------------------------------
// Exactly-once FIFO delivery over heavily faulted links.
// ---------------------------------------------------------------------------

harness::ExperimentConfig lossy_sor(Scheme scheme) {
  harness::ExperimentConfig config;
  config.label = "SOR";
  config.app = apps::make_sor({.n = 96, .iterations = 80});
  config.scheme = scheme;
  config.interval = Duration::millis(200);
  config.checkpoints = 0;
  config.verify = true;
  LinkFaultConfig faults;
  faults.drop = 0.2;
  faults.duplicate = 0.1;
  faults.corrupt = 0.05;
  config.link_faults = faults;
  return config;
}

TEST(Transport, ExactlyOnceUnderHeavyFaults) {
  auto config = lossy_sor(Scheme::kCoordNB);
  const auto clean = harness::run_normal(config);  // resets link faults too
  ASSERT_TRUE(clean.digest.has_value());
  EXPECT_EQ(clean.retransmits, 0u);

  const auto faulted = harness::run_experiment(config);
  EXPECT_EQ(faulted.digest, clean.digest)
      << "lossy links changed the application's answer";
  EXPECT_EQ(faulted.invariant_violations, 0u);
  EXPECT_GT(faulted.invariant_checks, 0u);
  EXPECT_GT(faulted.link_drops, 0u);
  EXPECT_GT(faulted.link_duplicates, 0u);
  EXPECT_GT(faulted.link_corrupted, 0u);
  EXPECT_GT(faulted.retransmits, 0u);
  EXPECT_GT(faulted.dups_suppressed, 0u);
  EXPECT_GT(faulted.corrupt_detected, 0u);
  EXPECT_GT(faulted.committed_rounds, 0u);
}

TEST(Transport, FaultedRunsAreDeterministic) {
  const auto report = harness::check_determinism(lossy_sor(Scheme::kCoordNBM));
  EXPECT_TRUE(report.deterministic);
  EXPECT_NE(report.first.trace_hash, 0u);
  EXPECT_GT(report.first.retransmits, 0u);
}

TEST(Transport, FaultStreamVariesTheLossRealization) {
  auto config = lossy_sor(Scheme::kCoordNB);
  const auto a = harness::run_experiment(config);
  config.link_faults->stream = 7;
  const auto b = harness::run_experiment(config);
  EXPECT_EQ(a.digest, b.digest);          // the answer is loss-free either way
  EXPECT_NE(a.trace_hash, b.trace_hash);  // the loss schedule is not
}

// ---------------------------------------------------------------------------
// Control-plane loss: first-copy drops repaired by retransmission.
// ---------------------------------------------------------------------------

// Toy SPMD ring application (same shape as verify_test's): deterministic,
// message-per-iteration, digest-sensitive to any channel anomaly.
struct RingState {
  std::uint32_t iter = 0;
  std::uint64_t acc = 0;
};

chklib::AppFn make_ring_app(std::uint32_t iterations, double flops_per_iter) {
  return [iterations, flops_per_iter](chklib::AppContext& ctx) {
    auto& st = ctx.state<RingState>();
    if (ctx.fresh()) st = RingState{};
    ctx.register_value("iter", st.iter);
    ctx.register_value("acc", st.acc);
    ctx.ready();
    const Rank right = (ctx.rank() + 1) % ctx.nprocs();
    for (; st.iter < iterations; ++st.iter) {
      ctx.checkpoint_here();
      ctx.compute(flops_per_iter);
      ctx.send_value<std::uint32_t>(right, 1, st.iter);
      st.acc += ctx.recv_value<std::uint32_t>(chklib::kAnySource, 1);
    }
    const double digest = ctx.allreduce_sum(static_cast<double>(st.acc) +
                                            static_cast<double>(ctx.rank()));
    if (ctx.rank() == 0) ctx.report_result(digest);
  };
}

struct World {
  des::Simulator sim;
  std::unique_ptr<chklib::Runtime> rt;

  explicit World(std::size_t nodes = 8, std::uint64_t seed = 42) {
    xplorer::MachineConfig mc;
    mc.num_nodes = nodes;
    rt = std::make_unique<chklib::Runtime>(sim, mc, seed);
  }
};

/// Runs a coordinated scheme over the reliable transport with the FIRST
/// control frame matching `kind` swallowed by the link; the transport's
/// retransmission must deliver the second copy and the run must commit.
void run_first_copy_drop(Scheme scheme, ControlKind kind) {
  World w;
  w.rt->set_app("ring", make_ring_app(200, 1e5));
  w.rt->comm().enable_transport();
  bool dropped = false;
  w.rt->comm().transport()->set_control_drop_filter([&dropped, kind](const ControlMsg& msg) {
    if (!dropped && msg.kind == kind) {
      dropped = true;
      return true;
    }
    return false;
  });
  chklib::CoordinatedProtocol proto(
      *w.rt, {.scheme = scheme, .interval = Duration::secs(8), .rounds = 2});
  Monitor monitor(*w.rt, scheme, Policy::kRecord);
  monitor.install();
  proto.start();
  w.rt->start_apps();
  w.rt->run_to_completion();
  const std::string what = std::string(to_string(scheme)) + " losing control kind " +
                           std::to_string(static_cast<int>(kind));
  EXPECT_TRUE(dropped) << what << ": the filter never fired";
  EXPECT_GE(proto.stats().committed_rounds, 1u) << what;
  EXPECT_EQ(proto.stats().aborted_rounds, 0u)
      << what << ": retransmission, not the watchdog, should repair this";
  EXPECT_EQ(monitor.violations(), 0u) << what;
  EXPECT_GT(w.rt->comm().retransmits(), 0u) << what;
}

TEST(ControlLoss, DroppedMarkerIsRetransmitted) {
  for (Scheme scheme : {Scheme::kCoordNB, Scheme::kCoordNBM, Scheme::kCoordNBMS}) {
    run_first_copy_drop(scheme, ControlKind::kChannelMarker);
  }
}

TEST(ControlLoss, DroppedAckIsRetransmitted) {
  for (Scheme scheme : {Scheme::kCoordNB, Scheme::kCoordNBM, Scheme::kCoordNBMS}) {
    run_first_copy_drop(scheme, ControlKind::kCkptAck);
  }
}

TEST(ControlLoss, DroppedCommitIsRetransmitted) {
  for (Scheme scheme : {Scheme::kCoordNB, Scheme::kCoordNBM, Scheme::kCoordNBMS}) {
    run_first_copy_drop(scheme, ControlKind::kCommit);
  }
}

TEST(ControlLoss, DroppedStaggerTokenIsRetransmitted) {
  run_first_copy_drop(Scheme::kCoordNBMS, ControlKind::kToken);
}

// ---------------------------------------------------------------------------
// Watchdogs: a control frame the link keeps eating arrives past the
// watchdog deadline. The transport's RTO starts at 50 ms and doubles up to
// a 1 s cap, so copies leave 0, 0.05, 0.15, 0.35, 0.75, 1.55, 2.55 s after
// the first send: with six copies swallowed the frame lands ~2.55 s late.
// The watchdog repairs the protocol first; the late original is ignored.
// ---------------------------------------------------------------------------

/// Copies of one control frame the link swallows before letting it through.
constexpr int kSwallowedCopies = 6;

TEST(Watchdog, RoundAbortRecoversALostAck) {
  World w;
  w.rt->set_app("ring", make_ring_app(200, 1e5));
  w.rt->comm().enable_transport();
  chklib::CoordinatedProtocol proto(*w.rt, {.scheme = Scheme::kCoordNB,
                                            .interval = Duration::secs(8),
                                            .rounds = 2,
                                            .round_timeout = Duration::secs(2)});
  // Rank 3's epoch-1 ack lands past the 2 s round watchdog, which aborts
  // epoch 1 and re-initiates the round at epoch 2.
  int copies = 0;
  std::uint32_t aborts_when_ack_landed = 0;
  std::set<std::uint32_t> commit_epochs;
  w.rt->comm().transport()->set_control_drop_filter([&](const ControlMsg& msg) {
    if (msg.kind == ControlKind::kCommit) commit_epochs.insert(msg.epoch);
    if (msg.kind != ControlKind::kCkptAck || msg.src != 3 || msg.epoch != 1) return false;
    if (++copies <= kSwallowedCopies) return true;
    if (copies == kSwallowedCopies + 1) aborts_when_ack_landed = proto.stats().aborted_rounds;
    return false;
  });
  Monitor monitor(*w.rt, Scheme::kCoordNB, Policy::kRecord);
  monitor.install();
  proto.start();
  w.rt->start_apps();
  w.rt->run_to_completion();
  ASSERT_GT(copies, kSwallowedCopies) << "the late ack never landed";
  EXPECT_GE(aborts_when_ack_landed, 1u) << "the ack landed before the watchdog fired";
  EXPECT_GE(proto.stats().aborted_rounds, 1u);
  EXPECT_GE(proto.committed_epoch(), 2u) << "the re-initiated round never committed";
  EXPECT_FALSE(commit_epochs.contains(1)) << "the late epoch-1 ack completed its dead round";
  EXPECT_EQ(monitor.violations(), 0u);
}

TEST(Watchdog, TokenRegenerationRecoversALostRingToken) {
  obs::Tracer tracer;  // outlives the runtime (teardown may still emit)
  World w;
  w.rt->set_app("ring", make_ring_app(200, 1e5));
  w.rt->comm().enable_transport();
  w.rt->sim().set_tracer(&tracer);
  chklib::CoordinatedProtocol proto(*w.rt, {.scheme = Scheme::kCoordNBMS,
                                            .interval = Duration::secs(8),
                                            .rounds = 2,
                                            .round_timeout = Duration::secs(5)});
  // The epoch-1 ring token rank 2 passes to rank 3 lands ~2.55 s late. The
  // token watchdog (1.25 s periods, a quarter of the round timeout)
  // re-issues it toward rank 3 first; the round watchdog is the backstop
  // and must NOT fire.
  int copies = 0;
  std::uint32_t regens_when_token_landed = 0;
  std::int64_t landed_ns = 0;
  w.rt->comm().transport()->set_control_drop_filter([&](const ControlMsg& msg) {
    if (msg.kind != ControlKind::kToken || msg.src != 2 || msg.epoch != 1) return false;
    if (++copies <= kSwallowedCopies) return true;
    if (copies == kSwallowedCopies + 1) {
      regens_when_token_landed = proto.stats().tokens_regenerated;
      landed_ns = w.sim.now().to_nanos();
    }
    return false;
  });
  Monitor monitor(*w.rt, Scheme::kCoordNBMS, Policy::kRecord);
  monitor.install();
  proto.start();
  w.rt->start_apps();
  w.rt->run_to_completion();
  ASSERT_GT(copies, kSwallowedCopies) << "the late token never landed";
  EXPECT_GE(regens_when_token_landed, 1u) << "the token landed before the watchdog fired";
  EXPECT_EQ(proto.stats().aborted_rounds, 0u)
      << "the token watchdog should repair the ring without a round abort";
  EXPECT_GE(proto.stats().committed_rounds, 2u);
  EXPECT_EQ(monitor.violations(), 0u);
  // Rank 3 honoured exactly one epoch-1 token, the re-issued one, before
  // the original landed: the ring-token floor dropped the original.
  std::vector<std::int64_t> honoured_ns;
  for (const obs::Event& e : tracer.take().events) {
    if (e.kind == obs::EventKind::kTokenPass && e.rank == 3 && e.arg == 1) {
      honoured_ns.push_back(e.t_ns);
    }
  }
  ASSERT_EQ(honoured_ns.size(), 1u);
  EXPECT_LT(honoured_ns[0], landed_ns);
}

TEST(Watchdog, QuietRoundsNeverTimeOut) {
  // Perfect links, watchdogs armed: no aborts, no regenerated tokens, and
  // the protocol commits normally (the watchdogs are pure insurance).
  World w;
  w.rt->set_app("ring", make_ring_app(200, 1e5));
  chklib::CoordinatedProtocol proto(*w.rt, {.scheme = Scheme::kCoordNBMS,
                                            .interval = Duration::secs(8),
                                            .rounds = 2,
                                            .round_timeout = Duration::secs(30)});
  proto.start();
  w.rt->start_apps();
  w.rt->run_to_completion();
  EXPECT_EQ(proto.stats().aborted_rounds, 0u);
  EXPECT_EQ(proto.stats().tokens_regenerated, 0u);
  EXPECT_GE(proto.stats().committed_rounds, 2u);
}

// ---------------------------------------------------------------------------
// Acceptance sweep: every paper scheme, heavy faults, digests intact.
// ---------------------------------------------------------------------------

TEST(Acceptance, EverySchemeCompletesUnderHeavyFaults) {
  struct Entry {
    const char* label;
    chklib::AppFn app;
  };
  std::vector<Entry> catalog;
  catalog.push_back({"SOR", apps::make_sor({.n = 96, .iterations = 80})});
  catalog.push_back({"GAUSS", apps::make_gauss({.n = 96})});
  catalog.push_back({"NQUEENS", apps::make_nqueens({.n = 9})});
  const Scheme schemes[] = {Scheme::kCoordNB, Scheme::kCoordNBM, Scheme::kCoordNBMS,
                            Scheme::kIndep, Scheme::kIndepM};
  for (const Entry& entry : catalog) {
    harness::ExperimentConfig config;
    config.label = entry.label;
    config.app = entry.app;
    config.verify = true;
    const auto normal = harness::run_normal(config);
    ASSERT_TRUE(normal.digest.has_value()) << entry.label;

    config.interval = Duration::seconds(normal.exec_time_s / 3.0);
    config.checkpoints = 2;
    LinkFaultConfig faults;
    faults.drop = 0.2;
    faults.duplicate = 0.1;
    faults.corrupt = 0.05;
    config.link_faults = faults;
    for (Scheme scheme : schemes) {
      config.scheme = scheme;
      const auto result = harness::run_experiment(config);
      const std::string what =
          std::string(entry.label) + " + " + std::string(to_string(scheme));
      EXPECT_EQ(result.digest, normal.digest) << what;
      EXPECT_GT(result.local_checkpoints, 0u) << what;
      EXPECT_EQ(result.invariant_violations, 0u) << what;
      EXPECT_GT(result.retransmits, 0u) << what;
    }
  }
}

}  // namespace
}  // namespace chk
