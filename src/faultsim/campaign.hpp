// Fault-injection campaigns: repeated seeded runs of one experiment
// configuration under a stochastic failure process.
//
// A campaign fixes the experiment (app, scheme, interval, machine, base
// seed, fault plan and fault domains) and varies only the fault
// schedules: run i forks the injector's RNG stream and every fault
// domain's stream by kCampaignSeed + i, so the campaign is fully
// reproducible (same seeds ⇒ byte-identical JSON) while the runs sample
// independent failure arrival realizations. The headline statistic is the
// expected completion time under failures — the "which scheme actually
// wins when failures happen" counterpart to the paper's failure-free
// overhead tables.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "harness/experiment.hpp"
#include "obs/json.hpp"

namespace chk::faultsim {

/// The fault-schedule stream family: run i of a campaign uses stream
/// kCampaignSeed + i on top of the experiment seed.
inline constexpr std::uint64_t kCampaignSeed = 1;

struct CampaignConfig {
  /// The experiment every run executes. `base.faults` is required: its
  /// mtbf, max_failures and target_coordinator shape every run's failure
  /// process. Run i sets its stream to kCampaignSeed + i and arms both
  /// targeted strikes; it also forks the stream of each fault domain
  /// present on `base` (link_faults, storage_faults, membership) by
  /// kCampaignSeed + i, so realizations vary per run but reproduce
  /// exactly. `base.failure` is cleared.
  harness::ExperimentConfig base;
  std::uint32_t runs = 5;
  /// Failure-free result digest to verify each run against (any failure
  /// schedule must still compute the same answer).
  std::optional<double> expected_digest;
};

/// One campaign run: its index, whether it reproduced the expected digest,
/// and the experiment's full result (harness::run_metrics names its
/// counters).
struct RunOutcome {
  std::uint32_t run = 0;
  bool digest_ok = false;
  harness::ExperimentResult result;
};

struct CampaignSummary {
  std::uint32_t runs = 0;
  double mean_completion_s = 0;
  double min_completion_s = 0;
  double max_completion_s = 0;
  double mean_recovery_time_s = 0;
  std::uint32_t total_failures = 0;
  std::uint32_t total_mid_write = 0;
  std::uint32_t total_overlap = 0;
  std::uint32_t total_interrupted = 0;
  bool all_verified = false;  ///< every run reproduced the expected digest
};

struct CampaignResult {
  std::vector<RunOutcome> outcomes;  ///< indexed by run
  CampaignSummary summary;
};

/// Execute run `run_index` of the campaign (one full simulated experiment).
/// Every run arms both targeted strikes, mid-write and during-recovery, on
/// top of the Poisson arrivals. Throws std::invalid_argument when
/// `config.base.faults` is unset.
[[nodiscard]] RunOutcome run_one(const CampaignConfig& config, std::uint32_t run_index);

/// Execute all runs sequentially and summarize. Drivers that parallelize
/// across (cell, run) pairs can call run_one directly and summarize().
[[nodiscard]] CampaignResult run_campaign(const CampaignConfig& config);

[[nodiscard]] CampaignSummary summarize(const std::vector<RunOutcome>& outcomes);

/// Deterministic JSON for one campaign (fixed key order, no wall-clock):
/// a run is {run, trace_hash, digest_ok, metrics}.
[[nodiscard]] obs::json::Value outcome_to_json(const RunOutcome& outcome);
[[nodiscard]] obs::json::Value summary_to_json(const CampaignSummary& summary);

}  // namespace chk::faultsim
