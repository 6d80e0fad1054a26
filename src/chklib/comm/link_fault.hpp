// Configurable unreliable-link model.
//
// The paper's CHK-LIB promises reliable FIFO channels on top of raw Parix
// links; this model supplies the raw-link misbehavior those channels must
// survive: per-frame drop, duplication, corruption and extra queueing
// delay, each an independent Bernoulli draw from a dedicated seed-stable
// RNG stream (same seed, same fault schedule, same trace — the campaign
// discipline of src/faultsim/injector.*). The model only ever judges
// reliable-transport frames (installing it installs the transport, see
// CommSystem::set_link_faults), including acks and retransmissions; when
// no model is installed the comm layer takes its historical fault-free
// path, so the feature is zero-overhead when disabled.
#pragma once

#include <cstdint>

#include "util/rng.hpp"

namespace chk::chklib {

struct LinkFaultConfig {
  /// Per-frame loss probability in [0, 1).
  double drop = 0;
  /// Per-frame duplication probability in [0, 1): a second, clean copy of
  /// the frame arrives 0.5 ms (mean, exponential) later.
  double duplicate = 0;
  /// Per-frame payload-corruption probability in [0, 1): the frame arrives
  /// with flipped bits; the transport checksum catches it and the
  /// retransmit recovers it.
  double corrupt = 0;
  /// Per-frame extra-delay probability in [0, 1); a delayed frame arrives
  /// 1 ms (mean, exponential) later, which can reorder frames on the link
  /// (the transport's sequence numbers put them back in order).
  double delay_prob = 0;
  /// Stream selector forked off the experiment seed, so one experiment
  /// config hosts many campaign runs differing only in the link weather.
  std::uint64_t stream = 0;

  /// True when any fault can actually occur.
  [[nodiscard]] bool enabled() const noexcept {
    return drop > 0 || duplicate > 0 || corrupt > 0 || delay_prob > 0;
  }
  /// Throws std::invalid_argument on probabilities outside [0, 1).
  void validate() const;
};

class LinkFaultModel {
 public:
  /// The model's ruling on one frame arrival. Each fault with a positive
  /// probability takes one Bernoulli draw per verdict, in the fixed order
  /// (drop, duplicate, corrupt, delay), whatever the outcomes; a fault at
  /// probability zero takes none. Value draws (lag, mask) follow only for
  /// flags that fired on a frame that was not dropped. So the stream lines
  /// up across configs that enable the same faults, not across configs
  /// that switch one on or off.
  struct Verdict {
    bool drop = false;
    bool duplicate = false;
    bool corrupt = false;
    std::uint64_t corrupt_mask = 0;   ///< nonzero iff corrupt
    std::int64_t dup_lag_ns = 0;      ///< lag of the duplicate copy
    std::int64_t extra_delay_ns = 0;  ///< 0 = deliver now
  };

  LinkFaultModel(const LinkFaultConfig& config, util::Rng rng)
      : cfg_(config), rng_(rng) {
    cfg_.validate();
  }

  [[nodiscard]] Verdict judge();

  [[nodiscard]] std::uint64_t drops() const noexcept { return drops_; }
  [[nodiscard]] std::uint64_t duplicates() const noexcept { return duplicates_; }
  [[nodiscard]] std::uint64_t corrupted() const noexcept { return corrupted_; }
  [[nodiscard]] std::uint64_t delayed() const noexcept { return delayed_; }

 private:
  LinkFaultConfig cfg_;
  util::Rng rng_;
  std::uint64_t drops_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t corrupted_ = 0;
  std::uint64_t delayed_ = 0;
};

}  // namespace chk::chklib
