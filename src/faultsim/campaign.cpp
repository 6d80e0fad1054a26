#include "faultsim/campaign.hpp"

#include <algorithm>
#include <limits>

#include "util/format.hpp"

namespace chk::faultsim {

RunOutcome run_one(const CampaignConfig& config, std::uint32_t run_index) {
  harness::ExperimentConfig experiment = config.base;
  experiment.failure.reset();
  FaultPlan plan;
  plan.mtbf = config.mtbf;
  plan.max_failures = config.max_failures_per_run;
  plan.stream = config.campaign_seed + run_index;
  plan.ensure_midwrite = true;
  plan.ensure_during_recovery = true;
  plan.target_coordinator = config.target_coordinator;
  experiment.faults = plan;
  if (config.membership.has_value()) {
    experiment.membership = config.membership;
    experiment.membership->stream = config.campaign_seed + run_index;
  }
  if (config.link_faults.has_value()) {
    experiment.link_faults = config.link_faults;
    experiment.link_faults->stream = config.campaign_seed + run_index;
  }
  if (config.storage_faults.has_value()) {
    experiment.storage_faults = config.storage_faults;
    experiment.storage_faults->stream = config.campaign_seed + run_index;
  }
  experiment.keep_depth = config.keep_depth;

  const harness::ExperimentResult result = harness::run_experiment(experiment);

  RunOutcome outcome;
  outcome.run = run_index;
  outcome.completion_s = result.exec_time_s;
  outcome.trace_hash = result.trace_hash;
  outcome.failures = result.injections.injected;
  outcome.mid_write_failures = result.injections.mid_write;
  outcome.overlap_failures = result.injections.during_recovery;
  outcome.writes_discarded = result.writes_discarded;
  for (const harness::RecoveryReport& rep : result.recoveries) {
    if (rep.interrupted) {
      ++outcome.interrupted_recoveries;
    } else {
      ++outcome.recoveries;
    }
    outcome.recovery_time_s += rep.recovery_latency.to_seconds();
    outcome.bytes_read += rep.bytes_read;
    outcome.bytes_reread += rep.bytes_reread;
    for (std::uint32_t depth : rep.domino_depth) {
      outcome.max_domino_depth = std::max(outcome.max_domino_depth, depth);
    }
    outcome.rolled_to_origin = outcome.rolled_to_origin || rep.rolled_to_origin;
  }
  outcome.digest_ok = result.digest.has_value() &&
                      (!config.expected_digest.has_value() ||
                       *result.digest == *config.expected_digest);
  outcome.retransmits = result.retransmits;
  outcome.dups_suppressed = result.dups_suppressed;
  outcome.corrupt_detected = result.corrupt_detected;
  outcome.link_drops = result.link_drops;
  outcome.aborted_rounds = result.aborted_rounds;
  outcome.io_write_errors = result.io_write_errors;
  outcome.io_read_errors = result.io_read_errors;
  outcome.bitrot_injected = result.bitrot_injected;
  outcome.storage_retries = result.storage_retries;
  outcome.storage_write_failures = result.storage_write_failures;
  outcome.ckpt_write_failures = result.ckpt_write_failures;
  outcome.corrupt_discarded = result.corrupt_discarded;
  outcome.generations_skipped = result.generations_skipped;
  outcome.reclaimed_bytes = result.reclaimed_bytes;
  outcome.views_established = result.views_established;
  outcome.evictions = result.evictions;
  outcome.wrongful_evictions = result.wrongful_evictions;
  outcome.rejoins = result.rejoins;
  outcome.suspicions_cleared = result.suspicions_cleared;
  outcome.detections = result.detections;
  return outcome;
}

CampaignResult run_campaign(const CampaignConfig& config) {
  CampaignResult result;
  result.outcomes.reserve(config.runs);
  for (std::uint32_t i = 0; i < config.runs; ++i) {
    result.outcomes.push_back(run_one(config, i));
  }
  result.summary = summarize(result.outcomes);
  return result;
}

CampaignSummary summarize(const std::vector<RunOutcome>& outcomes) {
  CampaignSummary s;
  s.runs = static_cast<std::uint32_t>(outcomes.size());
  if (outcomes.empty()) return s;
  s.min_completion_s = std::numeric_limits<double>::infinity();
  s.all_verified = true;
  for (const RunOutcome& o : outcomes) {
    s.mean_completion_s += o.completion_s;
    s.min_completion_s = std::min(s.min_completion_s, o.completion_s);
    s.max_completion_s = std::max(s.max_completion_s, o.completion_s);
    s.mean_recovery_time_s += o.recovery_time_s;
    s.total_failures += o.failures;
    s.total_mid_write += o.mid_write_failures;
    s.total_overlap += o.overlap_failures;
    s.total_interrupted += o.interrupted_recoveries;
    s.all_verified = s.all_verified && o.digest_ok;
  }
  s.mean_completion_s /= s.runs;
  s.mean_recovery_time_s /= s.runs;
  return s;
}

obs::json::Value outcome_to_json(const RunOutcome& o) {
  using obs::json::Value;
  Value v = Value::object();
  v.set("run", Value::number(std::uint64_t{o.run}));
  v.set("completion_s", Value::number(o.completion_s));
  v.set("trace_hash", Value::string(util::format("{:016x}", o.trace_hash)));
  v.set("failures", Value::number(std::uint64_t{o.failures}));
  v.set("mid_write_failures", Value::number(std::uint64_t{o.mid_write_failures}));
  v.set("overlap_failures", Value::number(std::uint64_t{o.overlap_failures}));
  v.set("recoveries", Value::number(std::uint64_t{o.recoveries}));
  v.set("interrupted_recoveries", Value::number(std::uint64_t{o.interrupted_recoveries}));
  v.set("recovery_time_s", Value::number(o.recovery_time_s));
  v.set("bytes_read", Value::number(o.bytes_read));
  v.set("bytes_reread", Value::number(o.bytes_reread));
  v.set("writes_discarded", Value::number(o.writes_discarded));
  v.set("max_domino_depth", Value::number(std::uint64_t{o.max_domino_depth}));
  v.set("rolled_to_origin", Value::boolean(o.rolled_to_origin));
  v.set("digest_ok", Value::boolean(o.digest_ok));
  v.set("retransmits", Value::number(o.retransmits));
  v.set("dups_suppressed", Value::number(o.dups_suppressed));
  v.set("corrupt_detected", Value::number(o.corrupt_detected));
  v.set("link_drops", Value::number(o.link_drops));
  v.set("aborted_rounds", Value::number(std::uint64_t{o.aborted_rounds}));
  v.set("io_write_errors", Value::number(o.io_write_errors));
  v.set("io_read_errors", Value::number(o.io_read_errors));
  v.set("bitrot_injected", Value::number(o.bitrot_injected));
  v.set("storage_retries", Value::number(o.storage_retries));
  v.set("storage_write_failures", Value::number(o.storage_write_failures));
  v.set("ckpt_write_failures", Value::number(o.ckpt_write_failures));
  v.set("corrupt_discarded", Value::number(o.corrupt_discarded));
  v.set("generations_skipped", Value::number(std::uint64_t{o.generations_skipped}));
  v.set("reclaimed_bytes", Value::number(o.reclaimed_bytes));
  v.set("views_established", Value::number(o.views_established));
  v.set("evictions", Value::number(o.evictions));
  v.set("wrongful_evictions", Value::number(o.wrongful_evictions));
  v.set("rejoins", Value::number(o.rejoins));
  v.set("suspicions_cleared", Value::number(o.suspicions_cleared));
  v.set("detections", Value::number(o.detections));
  return v;
}

obs::json::Value summary_to_json(const CampaignSummary& s) {
  using obs::json::Value;
  Value v = Value::object();
  v.set("runs", Value::number(std::uint64_t{s.runs}));
  v.set("mean_completion_s", Value::number(s.mean_completion_s));
  v.set("min_completion_s", Value::number(s.min_completion_s));
  v.set("max_completion_s", Value::number(s.max_completion_s));
  v.set("mean_recovery_time_s", Value::number(s.mean_recovery_time_s));
  v.set("total_failures", Value::number(std::uint64_t{s.total_failures}));
  v.set("total_mid_write", Value::number(std::uint64_t{s.total_mid_write}));
  v.set("total_overlap", Value::number(std::uint64_t{s.total_overlap}));
  v.set("total_interrupted", Value::number(std::uint64_t{s.total_interrupted}));
  v.set("all_verified", Value::boolean(s.all_verified));
  return v;
}

}  // namespace chk::faultsim
