// Fault-injection campaigns: repeated seeded runs of one experiment
// configuration under a stochastic failure process.
//
// A campaign fixes the experiment (app, scheme, interval, machine, base
// seed) and varies only the failure schedule: run i forks the injector's
// RNG stream by i, so the campaign is fully reproducible (same seeds ⇒
// byte-identical JSON) while the runs sample independent failure arrival
// realizations. The headline statistic is the expected completion time
// under failures — the "which scheme actually wins when failures happen"
// counterpart to the paper's failure-free overhead tables.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "harness/experiment.hpp"
#include "obs/json.hpp"

namespace chk::faultsim {

struct CampaignConfig {
  /// The experiment every run executes; its `failure`/`faults` fields are
  /// overwritten by the campaign.
  harness::ExperimentConfig base;
  des::Duration mtbf = des::Duration::secs(60);
  std::uint32_t runs = 5;
  /// Selects the failure-schedule stream family; run i uses stream
  /// campaign_seed + i on top of the experiment seed.
  std::uint64_t campaign_seed = 1;
  std::uint32_t max_failures_per_run = 6;
  /// Unreliable links during the campaign runs (composes with the failure
  /// process), carried by the reliable transport. Run i forks the
  /// link-fault stream by campaign_seed + i so loss realizations vary per
  /// run but reproduce exactly.
  std::optional<chklib::LinkFaultConfig> link_faults;
  /// Unreliable stable storage during the campaign runs (composes with the
  /// failure process and the link faults — every fault domain draws from
  /// its own forked stream). Run i forks the storage-fault stream by
  /// campaign_seed + i, mirroring the link-fault discipline.
  std::optional<xplorer::StorageFaultConfig> storage_faults;
  /// Cluster-membership service during the campaign runs: failures route
  /// through heartbeat detection + coordinator election instead of the
  /// oracle. Run i forks the membership stream by campaign_seed + i so
  /// heartbeat phases vary per run but reproduce exactly.
  std::optional<chklib::membership::MembershipConfig> membership;
  /// With membership on: aim every injected strike at the current (elected)
  /// coordinator instead of a uniform victim.
  bool target_coordinator = false;
  /// Checkpoint retention depth forwarded to the experiment (0 = auto).
  std::uint32_t keep_depth = 0;
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
/// top of the Poisson arrivals.
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
