// The pinned determinism baselines shared by transport_test and
// storage_fault_test: SOR-384 (and one NQUEENS-14 row) on 8 nodes, seed
// 2026, 3 checkpoints at a 3 s interval. Each row pins the kernel's
// trace_hash and the completion time. The plain rows cover every paper
// scheme; the variant rows cover the rest of the save path: the two
// FIFO-grant schemes, incremental deltas, independent GC, sender-based
// message logging, and one mid-run crash each for the grant schemes. The
// crash instants recover to the fault-free digest.
#pragma once

#include <cstdint>
#include <string>

#include "harness/catalog.hpp"
#include "harness/experiment.hpp"

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

inline std::string describe(const Row& row) {
  static constexpr const char* kVariantNames[] = {"", " + incremental", " + gc",
                                                  " + message logging", " + crash"};
  return std::string(row.label) + " + " + std::string(to_string(row.scheme)) +
         kVariantNames[static_cast<int>(row.variant)];
}

}  // namespace chk::pinned
