// The pinned determinism baselines shared by transport_test and
// storage_fault_test: SOR-384 (and one NQUEENS-14 row) on 8 nodes, seed
// 2026, 3 checkpoints at a 3 s interval. Each row pins the kernel's
// trace_hash and the completion time, and kSor384Digest pins the SOR-384
// result. The plain rows cover every paper scheme; the variant rows cover
// the rest of the save path: the two FIFO-grant schemes, incremental
// deltas, independent GC, sender-based message logging, and one mid-run
// crash each for the grant schemes. The crash instants recover to the
// fault-free digest.
//
// kAppRows add one small run of every other application and of the KV
// service, each under its own scheme. They also pin the event count and
// the result digest: an app's sequential reference reads the same
// constants as the app, so a changed constant passes the reference check
// and only a pinned digest catches it.
//
// kMonitoredRows (checked by membership_test) run with the invariant
// monitor on and also pin its check count, the crash detections and the
// established views.
#pragma once

#include <cstdint>
#include <string>

#include "apps/asp.hpp"
#include "apps/gauss.hpp"
#include "apps/ising.hpp"
#include "apps/nbody.hpp"
#include "apps/nqueens.hpp"
#include "apps/sor.hpp"
#include "apps/tsp.hpp"
#include "harness/catalog.hpp"
#include "harness/experiment.hpp"
#include "svc/kvstore.hpp"

namespace chk::pinned {

enum class Variant {
  kPlain,
  kIncremental,     ///< coordinated incremental checkpointing
  kGc,              ///< independent garbage collection
  kMessageLogging,  ///< sender-based logging: recovery restores the newest images
  kCrash,           ///< rank kCrashRank fails at kCrashAt
};

struct Row {
  const char* label;
  harness::Scheme scheme;
  std::uint64_t trace_hash;
  double exec_time_s;
  Variant variant = Variant::kPlain;
};

inline constexpr chklib::Rank kCrashRank = 3;
inline constexpr des::Duration kCrashAt = des::Duration::secs(9);

using harness::Scheme;

// The plain rows were captured on the tree immediately before the reliable
// transport landed; the variant rows on the tree immediately before the
// save path moved into Protocol. Any drift means a change perturbed the
// executions.
inline const Row kRows[] = {
    {"SOR-384", Scheme::kNone, 0x48cbdcb214e83a01ull, 16.569530568000001},
    {"SOR-384", Scheme::kCoordNB, 0xd93ccedafd07f2bfull, 19.73585765},
    {"SOR-384", Scheme::kCoordNBM, 0xff1f9d266946e0e1ull, 18.087658350000002},
    {"SOR-384", Scheme::kCoordNBMS, 0x61f27678c952f6d0ull, 17.197612419000002},
    {"SOR-384", Scheme::kIndep, 0xc1ebb057981c7b23ull, 20.372140246000001},
    {"SOR-384", Scheme::kIndepM, 0x4f07c72445cb8dbfull, 17.642822625000001},
    {"NQUEENS-14", Scheme::kCoordNBMS, 0x545b6cd50cd8a4edull, 50.346957506000003},
    {"SOR-384", Scheme::kCoordNBS, 0x10fb4292cb95ad21ull, 23.774082335000003},
    {"SOR-384", Scheme::kIndepMS, 0x2b29463c1db9970full, 17.144177967000001},
    {"SOR-384", Scheme::kCoordNBM, 0x8cc755be7e79a28dull, 17.176741933000002,
     Variant::kIncremental},
    // GC takes no simulated time, so this row's hash equals plain Indep_M.
    {"SOR-384", Scheme::kIndepM, 0x4f07c72445cb8dbfull, 17.642822625000001, Variant::kGc},
    {"SOR-384", Scheme::kIndep, 0x1ce5d55dbf03747full, 22.773684419000002,
     Variant::kMessageLogging},
    {"SOR-384", Scheme::kCoordNBS, 0x59b350dce582a808ull, 28.412157325000003, Variant::kCrash},
    {"SOR-384", Scheme::kIndepMS, 0xf77e73ded27f571bull, 27.089245107, Variant::kCrash},
};

/// SOR-384's NORMAL digest, which every SOR-384 row reaches: the app and
/// its sequential reference share one sweep kernel, so only a pinned value
/// catches a change to that kernel. Captured on the tree immediately before
/// the kernel was rewritten on vector lanes.
inline constexpr double kSor384Digest = 180804809892;

/// The row's experiment: the shared base plus its variant's settings.
inline harness::ExperimentConfig config_for(const Row& row) {
  harness::ExperimentConfig config;
  config.label = row.label;
  config.app = harness::find_row(row.label).app;
  config.scheme = row.scheme;
  config.machine.num_nodes = 8;
  config.seed = 2026;
  config.checkpoints = 3;
  config.interval = des::Duration::secs(3);
  switch (row.variant) {
    case Variant::kPlain: break;
    case Variant::kIncremental: config.incremental = true; break;
    case Variant::kGc: config.gc = true; break;
    case Variant::kMessageLogging:
      config.message_logging = true;
      break;
    case Variant::kCrash:
      config.failure = harness::FailureSpec{des::TimePoint::origin() + kCrashAt, kCrashRank};
      break;
  }
  return config;
}

/// A small run of one application: a few milliseconds of host time, 0.3-2.6 s
/// simulated, with the interval short enough that every rank checkpoints
/// three times.
struct AppRow {
  const char* label;
  chklib::AppFn (*app)();
  harness::Scheme scheme;
  des::Duration interval;
  std::uint64_t trace_hash;
  std::uint64_t events;
  double exec_time_s;
  double digest;
};

// Captured on the tree immediately before the app, svc and machine
// parameters nothing varied became constants.
inline const AppRow kAppRows[] = {
    {"ASP-128", [] { return apps::make_asp({.n = 128}); }, Scheme::kCoordNB,
     des::Duration::millis(150), 0x736207efe4ab4526ull, 8880, 1.3611468310000001, 324917},
    {"GAUSS-128", [] { return apps::make_gauss({.n = 128}); }, Scheme::kIndep,
     des::Duration::millis(120), 0xdfeaa643e0a880ebull, 14916, 1.607847596, 548941413},
    {"NBODY-256", [] { return apps::make_nbody({.bodies = 256, .steps = 4}); },
     Scheme::kCoordNBM, des::Duration::millis(120), 0xbcb167e5686b2128ull, 3028,
     1.093164625, 389872467},
    {"TSP-10", [] { return apps::make_tsp({.cities = 10}); }, Scheme::kIndepM,
     des::Duration::millis(100), 0x3f71cf887a765797ull, 8742, 0.47587910500000002, 196},
    {"NQUEENS-11", [] { return apps::make_nqueens({.n = 11}); }, Scheme::kIndepMS,
     des::Duration::millis(60), 0x1c3987ffb45dc33dull, 726, 0.30768297300000003, 2680},
    {"ISING-128", [] { return apps::make_ising({.n = 128, .sweeps = 20}); },
     Scheme::kCoordNBS, des::Duration::millis(250), 0x472fb68114348c7cull, 3754,
     2.5743545839999999, -316},
    {"SVC",
     [] {
       svc::SvcParams params;
       params.arrival_hz = 50.0;
       params.horizon_s = 2.0;
       return svc::make_svc(params);
     },
     Scheme::kCoordNBMS, des::Duration::millis(300), 0x419614a2c53b5050ull, 14246,
     1.9934752140000001, 294574752},
};

inline harness::ExperimentConfig config_for(const AppRow& row) {
  harness::ExperimentConfig config;
  config.label = row.label;
  config.app = row.app();
  config.scheme = row.scheme;
  config.machine.num_nodes = 8;
  config.seed = 2026;
  config.checkpoints = 3;
  config.interval = row.interval;
  return config;
}

inline std::string describe(const AppRow& row) {
  return std::string(row.label) + " + " + std::string(to_string(row.scheme));
}

/// Monitored runs (verify on) that pass through every seam the runtime
/// reaches its membership service, its safe points and its invariant
/// monitor through: a drift in the invariant check count means a monitor
/// call was lost or added, a drift in detections or views means a crash
/// or view change took another path.
enum class Scenario {
  kClean,              ///< SOR-96, 60 iterations, 2 checkpoints 200 ms apart
  kCoordinatorCrash,   ///< binary 0.6 s membership; rank 0 crashes at 0.7 s
  kLossySvc,           ///< svc at 100 Hz, phi membership over 5 % link drop
  kCoordinatorStrikes, ///< NQUEENS-11, strikes aimed at the elected coordinator
};

struct MonitoredRow {
  Scenario scenario;
  harness::Scheme scheme;
  std::uint64_t trace_hash;
  std::uint64_t events;
  double exec_time_s;
  double digest;
  std::uint64_t invariant_checks;
  std::uint64_t detections;
  std::uint64_t views_established;
};

// Captured on the tree immediately before the membership service, the
// safe points and the monitor moved from callbacks to direct calls. The
// lossy svc scenario has no Coord_NBS row: that run never finishes
// (ROADMAP item 5).
inline const MonitoredRow kMonitoredRows[] = {
    {Scenario::kClean, Scheme::kCoordNB, 0xc4d1a779f8c64cf0ull, 6773,
     1.0899716940000002, 32647466090, 4270, 0, 0},
    {Scenario::kClean, Scheme::kCoordNBS, 0xd84182ed7e3e0db6ull, 6940,
     1.3064109700000002, 32647466090, 4286, 0, 0},
    {Scenario::kClean, Scheme::kCoordNBM, 0xa5976409d0df79c3ull, 6783,
     0.79127668800000006, 32647466090, 4270, 0, 0},
    {Scenario::kClean, Scheme::kCoordNBMS, 0x6d425d60fd216addull, 6716,
     0.73942918700000004, 32647466090, 4279, 0, 0},
    {Scenario::kClean, Scheme::kIndep, 0x39ed40be7192af54ull, 6333,
     1.0485000360000001, 32647466090, 3416, 0, 0},
    {Scenario::kClean, Scheme::kIndepM, 0xd2b9803cf97fee36ull, 6382,
     0.79271107100000004, 32647466090, 3416, 0, 0},
    {Scenario::kClean, Scheme::kIndepMS, 0x586832532a953a99ull, 6522,
     0.74730407600000004, 32647466090, 3431, 0, 0},
    {Scenario::kCoordinatorCrash, Scheme::kCoordNB, 0x69d5ac74b2cf81c8ull, 17300,
     3.053085244, 47091149544, 10126, 1, 1},
    {Scenario::kCoordinatorCrash, Scheme::kCoordNBS, 0xebb12dfe330aa5d8ull, 16688,
     3.3301169450000003, 47091149544, 9458, 1, 1},
    {Scenario::kCoordinatorCrash, Scheme::kCoordNBM, 0xbc553e0f766b29f4ull, 17886,
     2.5236639320000003, 47091149544, 10872, 1, 1},
    {Scenario::kCoordinatorCrash, Scheme::kCoordNBMS, 0x466411e4375c972dull, 18105,
     2.4907118220000002, 47091149544, 11025, 1, 1},
    {Scenario::kCoordinatorCrash, Scheme::kIndep, 0xe66f0023b38ebf39ull, 19772,
     4.089555614, 47091149544, 9252, 1, 1},
    {Scenario::kCoordinatorCrash, Scheme::kIndepM, 0x1dd7d611f84fd172ull, 20229,
     2.6961380360000002, 47091149544, 9982, 1, 1},
    {Scenario::kCoordinatorCrash, Scheme::kIndepMS, 0x8dfc40ad5d298d6bull, 20698,
     2.6732341110000002, 47091149544, 10136, 1, 1},
    {Scenario::kLossySvc, Scheme::kCoordNB, 0x29682395454f5ebcull, 35937,
     2.4238033919999999, 331778372, 14532, 0, 0},
    {Scenario::kLossySvc, Scheme::kCoordNBM, 0xa327573c44966b09ull, 37093,
     2.1361023490000002, 331778372, 14519, 0, 0},
    {Scenario::kLossySvc, Scheme::kCoordNBMS, 0x998ee0f8bd450ffcull, 36073,
     2.1585877710000001, 331778372, 14524, 0, 0},
    {Scenario::kLossySvc, Scheme::kIndep, 0xb6d70fc9d9158f55ull, 34452,
     2.1503999670000002, 331778372, 11568, 0, 0},
    {Scenario::kLossySvc, Scheme::kIndepM, 0x1ec1a5e4def2164full, 35309,
     2.1511984590000002, 331778372, 11568, 0, 0},
    {Scenario::kLossySvc, Scheme::kIndepMS, 0xba944d206407994cull, 35766,
     2.0941476190000001, 331778372, 11590, 0, 0},
    {Scenario::kCoordinatorStrikes, Scheme::kCoordNB, 0x81ead331f7ae459dull, 1325,
     1.035530149, 2680, 120, 1, 1},
    {Scenario::kCoordinatorStrikes, Scheme::kCoordNBMS, 0x84f51c1aaaa0e6f6ull, 1334,
     0.9419144490000001, 2680, 128, 1, 1},
};

inline harness::ExperimentConfig config_for(const MonitoredRow& row) {
  harness::ExperimentConfig config;
  config.scheme = row.scheme;
  config.machine.num_nodes = 8;
  config.seed = 2026;
  config.verify = true;
  chklib::membership::MembershipConfig membership;
  switch (row.scenario) {
    case Scenario::kClean:
      config.label = "SOR-96";
      config.app = apps::make_sor({.n = 96, .iterations = 60});
      config.interval = des::Duration::millis(200);
      config.checkpoints = 2;
      break;
    case Scenario::kCoordinatorCrash:
      config.label = "SOR-96";
      config.app = apps::make_sor({.n = 96, .iterations = 120});
      config.interval = des::Duration::millis(300);
      config.checkpoints = 0;
      membership.detect_timeout = des::Duration::millis(600);
      config.membership = membership;
      config.failure =
          harness::FailureSpec{des::TimePoint::origin() + des::Duration::millis(700), 0};
      break;
    case Scenario::kLossySvc: {
      svc::SvcParams params;
      params.arrival_hz = 100.0;
      params.horizon_s = 2.0;
      config.label = "SVC";
      config.app = svc::make_svc(params);
      config.interval = des::Duration::millis(400);
      chklib::LinkFaultConfig faults;
      faults.drop = 0.05;
      config.link_faults = faults;
      membership.detector = chklib::membership::Detector::kPhiAccrual;
      config.membership = membership;
      break;
    }
    case Scenario::kCoordinatorStrikes: {
      config.label = "NQUEENS-11";
      config.app = apps::make_nqueens({.n = 11});
      config.interval = des::Duration::millis(150);
      membership.detect_timeout = des::Duration::millis(600);
      config.membership = membership;
      faultsim::FaultPlan plan;
      plan.mtbf = des::Duration::millis(900);
      plan.max_failures = 2;
      plan.target_coordinator = true;
      config.faults = plan;
      break;
    }
  }
  return config;
}

inline std::string describe(const MonitoredRow& row) {
  static constexpr const char* kScenarioNames[] = {
      "clean SOR-96", "coordinator crash SOR-96", "lossy phi SVC",
      "coordinator strikes NQUEENS-11"};
  return std::string(kScenarioNames[static_cast<int>(row.scenario)]) + " + " +
         std::string(to_string(row.scheme));
}

inline std::string describe(const Row& row) {
  static constexpr const char* kVariantNames[] = {"", " + incremental", " + gc",
                                                  " + message logging", " + crash"};
  return std::string(row.label) + " + " + std::string(to_string(row.scheme)) +
         kVariantNames[static_cast<int>(row.variant)];
}

}  // namespace chk::pinned
