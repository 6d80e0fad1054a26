#include "faultsim/campaign.hpp"

#include <algorithm>
#include <limits>

#include "obs/export.hpp"
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

  RunOutcome outcome;
  outcome.run = run_index;
  outcome.result = harness::run_experiment(experiment);
  outcome.digest_ok = outcome.result.digest.has_value() &&
                      (!config.expected_digest.has_value() ||
                       *outcome.result.digest == *config.expected_digest);
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
    const harness::ExperimentResult& r = o.result;
    s.mean_completion_s += r.exec_time_s;
    s.min_completion_s = std::min(s.min_completion_s, r.exec_time_s);
    s.max_completion_s = std::max(s.max_completion_s, r.exec_time_s);
    // Per-run sum first, so the mean adds the same partial sums as the
    // run's recovery/latency_total_s metric.
    double recovery_time_s = 0;
    for (const harness::RecoveryReport& rep : r.recoveries) {
      recovery_time_s += rep.recovery_latency.to_seconds();
      s.total_interrupted += rep.interrupted ? 1 : 0;
    }
    s.mean_recovery_time_s += recovery_time_s;
    s.total_failures += r.injections.injected;
    s.total_mid_write += r.injections.mid_write;
    s.total_overlap += r.injections.during_recovery;
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
  v.set("trace_hash", Value::string(util::format("{:016x}", o.result.trace_hash)));
  v.set("digest_ok", Value::boolean(o.digest_ok));
  v.set("metrics", obs::metrics_to_json(harness::run_metrics(o.result)));
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
