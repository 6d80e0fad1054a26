// The benchmark's workloads: named sets of simulator cells, generated from
// a workload seed, plus the checks every cell's result must pass.
//
// A workload is a list of groups. Each group shares one application and
// one experiment seed; its first cell is the NORMAL (no checkpointing)
// baseline and the rest run checkpoint schemes. Every cell of a group must
// reproduce the NORMAL result digest, and the simulator-free reference
// digest where the application has one.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "svc/kvstore.hpp"

namespace perfbench {

enum class CellKind {
  kNormal,     ///< the group's no-checkpointing baseline
  kCheckpoint, ///< a checkpoint scheme on a run without crashes
  kCrash,      ///< a checkpoint scheme with a crash and rollback recovery
};

struct Cell {
  std::string id;  ///< "<group label>/<scheme>[+crash]", unique in the workload
  std::size_t group = 0;
  CellKind kind = CellKind::kNormal;
  chk::harness::ExperimentConfig config;
  /// Checkpoint interval = this fraction of the NORMAL execution time (the
  /// paper-table recipe); 0 keeps config.interval.
  double interval_of_normal = 0;
  /// svc cells: the merged request metrics rank 0 deposits at drain.
  std::shared_ptr<chk::svc::SvcMetrics> svc;
};

struct Group {
  std::string label;
  /// Simulator-free digest of the group's application; empty when the
  /// application has none.
  std::function<double()> reference;
  /// Layer the reference computation belongs to ("apps" or "svc").
  std::string reference_layer = "apps";
};

struct Workload {
  std::string name;
  std::size_t ranks = 0;
  std::vector<Group> groups;
  std::vector<Cell> cells;  ///< grouped, each group's NORMAL cell first
  /// ckpt_overhead_pct reads the share of rank time checkpoints block
  /// instead of the completion-time overhead (services, whose completion
  /// time the arrival horizon fixes).
  bool overhead_is_blocked_share = false;
  /// Configuration of the set-up probe: the workload's rank count and
  /// fault configuration around an application whose ranks return at once.
  chk::harness::ExperimentConfig setup_config;
};

/// Build a workload from its seed. `tiny` shrinks every cell for the
/// benchmark's self-check; throws std::invalid_argument on an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name, std::uint64_t seed, bool tiny);

/// One cell's outcome in one pass.
struct CellRun {
  bool ran = false;  ///< run_experiment returned (did not throw)
  std::string error;
  chk::harness::ExperimentResult result;
  chk::svc::SvcMetrics svc;
};

/// Run one cell. `normal` is the group's NORMAL outcome from the same pass
/// (null for the NORMAL cell itself).
[[nodiscard]] CellRun run_cell(const Cell& cell, const CellRun* normal, bool traced);

}  // namespace perfbench
