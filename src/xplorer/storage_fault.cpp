#include "xplorer/storage_fault.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace chk::xplorer {

namespace {

/// Mean gap between degraded windows and mean window length (exponential).
constexpr double kDegradeGapMeanS = 5.0;
constexpr double kDegradeLenMeanS = 1.0;

void check_prob(const char* name, double p) {
  if (!(p >= 0.0) || !(p < 1.0)) {
    throw std::invalid_argument(std::string(name) +
                                ": probability must be in [0, 1), got " +
                                std::to_string(p));
  }
}

}  // namespace

void StorageFaultConfig::validate() const {
  check_prob("storage write error", write_error);
  check_prob("storage read error", read_error);
  check_prob("storage bitrot", bitrot);
  if (!(degrade_factor >= 1.0)) {
    throw std::invalid_argument("storage degrade factor: must be >= 1, got " +
                                std::to_string(degrade_factor));
  }
}

StorageFaultModel::StorageFaultModel(const StorageFaultConfig& config, util::Rng rng)
    : cfg_(config), rng_(rng), degrade_rng_(rng_.fork(0xD16u)) {
  cfg_.validate();
}

StorageFaultModel::WriteVerdict StorageFaultModel::judge_write() {
  WriteVerdict v;
  v.io_error = cfg_.write_error > 0 && rng_.bernoulli(cfg_.write_error);
  v.bitrot = cfg_.bitrot > 0 && rng_.bernoulli(cfg_.bitrot);
  if (v.bitrot) {
    // Value draws are keyed to the bitrot flag alone, not to whether the
    // write fails; the storage only applies them when the write lands.
    v.rot_offset = rng_();
    v.rot_mask = static_cast<std::uint8_t>(rng_() | 1u);
  }
  if (v.io_error) {
    ++write_errors_;
    v.bitrot = false;  // a failed write leaves nothing to rot
  } else if (v.bitrot) {
    ++bitrot_flagged_;
  }
  return v;
}

StorageFaultModel::ReadVerdict StorageFaultModel::judge_read() {
  ReadVerdict v;
  v.io_error = cfg_.read_error > 0 && rng_.bernoulli(cfg_.read_error);
  if (v.io_error) ++read_errors_;
  return v;
}

double StorageFaultModel::slowdown_at(des::TimePoint now) {
  if (cfg_.degrade_factor <= 1.0) return 1.0;
  while (now >= window_end_) advance_window();
  if (now >= window_start_) {
    ++degraded_ops_;
    return cfg_.degrade_factor;
  }
  return 1.0;
}

void StorageFaultModel::advance_window() {
  const double gap = std::max(1e-9, degrade_rng_.exponential(kDegradeGapMeanS));
  const double len = std::max(1e-9, degrade_rng_.exponential(kDegradeLenMeanS));
  window_start_ = window_end_ + des::Duration::seconds(gap);
  window_end_ = window_start_ + des::Duration::seconds(len);
}

}  // namespace chk::xplorer
