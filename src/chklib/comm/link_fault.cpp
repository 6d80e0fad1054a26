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

/// Mean lag of a duplicate copy behind the original.
constexpr double kDupLagMeanS = 5e-4;
/// Mean extra delay of a delayed frame.
constexpr double kDelayMeanS = 1e-3;

std::int64_t to_ns(double seconds) {
  return static_cast<std::int64_t>(seconds * 1e9);
}

}  // namespace

void LinkFaultConfig::validate() const {
  check_prob("link drop", drop);
  check_prob("link duplicate", duplicate);
  check_prob("link corrupt", corrupt);
  check_prob("link delay probability", delay_prob);
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
    v.extra_delay_ns = to_ns(rng_.exponential(kDelayMeanS));
  }
  return v;
}

}  // namespace chk::chklib
