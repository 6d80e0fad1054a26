#include "chklib/comm/link_fault.hpp"

#include <stdexcept>
#include <string>

namespace chk::chklib {

namespace {

void check_prob(const char* name, double p) {
  if (!(p >= 0.0) || !(p < 1.0)) {
    throw std::invalid_argument(std::string(name) +
                                ": probability must be in [0, 1), got " +
                                std::to_string(p));
  }
}

void check_nonneg(const char* name, double v) {
  if (!(v >= 0.0)) {
    throw std::invalid_argument(std::string(name) +
                                ": must be non-negative, got " +
                                std::to_string(v));
  }
}

/// Mean lag of a duplicate copy behind the original.
constexpr double kDupLagMeanS = 5e-4;

std::int64_t to_ns(double seconds) {
  return static_cast<std::int64_t>(seconds * 1e9);
}

}  // namespace

void LinkFaultConfig::validate() const {
  check_prob("link drop", drop);
  check_prob("link duplicate", duplicate);
  check_prob("link corrupt", corrupt);
  check_prob("link delay probability", delay_prob);
  check_nonneg("link delay mean", delay_mean_s);
  check_nonneg("partition period", partition_period_s);
  check_nonneg("partition duration", partition_duration_s);
  if (partition_duration_s > 0 && partition_period_s > 0 &&
      partition_duration_s > partition_period_s) {
    throw std::invalid_argument(
        "partition duration must not exceed the partition period, got " +
        std::to_string(partition_duration_s) + " > " +
        std::to_string(partition_period_s));
  }
}

bool LinkFaultModel::partitioned(std::size_t a, std::size_t b,
                                 std::int64_t now_ns) const noexcept {
  if (!cfg_.partition_enabled()) return false;
  const auto target = static_cast<std::size_t>(cfg_.partition_rank);
  if (a != target && b != target) return false;
  const auto period_ns = to_ns(cfg_.partition_period_s);
  const auto duration_ns = to_ns(cfg_.partition_duration_s);
  if (period_ns <= 0) return false;
  return now_ns % period_ns < duration_ns;
}

LinkFaultModel::Verdict LinkFaultModel::judge() {
  Verdict v;
  // One base draw per enabled fault, in a fixed order; a zero probability
  // short-circuits and draws nothing. Value draws (lag, mask) depend on the
  // flags. The call sequence is a function of the config and the seed.
  v.drop = cfg_.drop > 0 && rng_.bernoulli(cfg_.drop);
  v.duplicate = cfg_.duplicate > 0 && rng_.bernoulli(cfg_.duplicate);
  v.corrupt = cfg_.corrupt > 0 && rng_.bernoulli(cfg_.corrupt);
  const bool delay = cfg_.delay_prob > 0 && rng_.bernoulli(cfg_.delay_prob);
  if (v.drop) {
    // The frame never arrives; nothing downstream to duplicate or corrupt.
    ++drops_;
    return Verdict{.drop = true};
  }
  if (v.duplicate) {
    ++duplicates_;
    v.dup_lag_ns = to_ns(rng_.exponential(kDupLagMeanS));
  }
  if (v.corrupt) {
    ++corrupted_;
    v.corrupt_mask = rng_() | 1u;
  }
  if (delay) {
    ++delayed_;
    v.extra_delay_ns = to_ns(rng_.exponential(cfg_.delay_mean_s));
  }
  return v;
}

}  // namespace chk::chklib
