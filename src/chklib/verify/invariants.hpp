// Invariant-violation reporting for the protocol checkers.
//
// Checkers funnel every failed invariant through an InvariantSink, which
// prints one diagnostic line to stderr and then acts per policy:
//
//   kThrowDeferred  schedule an immediate kernel event that throws
//                   InvariantViolation, so the error unwinds out of
//                   Simulator::run() on the driving thread regardless of
//                   whether the violation was detected in kernel or
//                   process context (throwing from a simulated process
//                   would unwind its body first and reach run() only as a
//                   SimError naming the process);
//   kAbort          log and std::abort() — the hard-stop mode used when
//                   CHK_INVARIANTS builds run real experiments;
//   kRecord         collect only (used by tests that assert on the
//                   violation list).
//
// The sink always records the violation before acting, so post-mortem
// inspection works in every mode.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "chklib/comm/envelope.hpp"
#include "des/simulator.hpp"
#include "des/time.hpp"

namespace chk::chklib::verify {

/// Thrown (deferred, from kernel context) when an invariant fails under
/// Policy::kThrowDeferred. Derives from SimError so existing catch sites
/// treat it as a fatal structural error, never a simulation outcome.
class InvariantViolation : public des::SimError {
 public:
  using SimError::SimError;
};

enum class Policy : std::uint8_t { kThrowDeferred, kAbort, kRecord };

/// Build-level default: hard abort in CHK_INVARIANTS builds, deferred
/// throw otherwise (tests can always override per sink).
[[nodiscard]] constexpr Policy default_policy() noexcept {
#ifdef CHK_INVARIANTS
  return Policy::kAbort;
#else
  return Policy::kThrowDeferred;
#endif
}

struct Violation {
  std::string checker;  ///< "fifo", "quiescence", "stagger", "integrity", ...
  Rank rank = 0;        ///< rank the violation was observed at
  std::string message;
  des::TimePoint when;
};

class InvariantSink {
 public:
  explicit InvariantSink(des::Simulator& sim, Policy policy = default_policy())
      : sim_(&sim), policy_(policy) {}
  InvariantSink(const InvariantSink&) = delete;
  InvariantSink& operator=(const InvariantSink&) = delete;

  /// Report a failed invariant; acts according to the sink's policy.
  void report(std::string_view checker, Rank rank, std::string message);

  /// Checkers call this once per evaluated invariant (cheap counter that
  /// lets callers prove the checks actually ran).
  void note_check() noexcept { ++checks_; }

  [[nodiscard]] const std::vector<Violation>& violations() const noexcept {
    return violations_;
  }
  [[nodiscard]] std::uint64_t checks() const noexcept { return checks_; }
  [[nodiscard]] Policy policy() const noexcept { return policy_; }

 private:
  des::Simulator* sim_;
  Policy policy_;
  std::vector<Violation> violations_;
  std::uint64_t checks_ = 0;
  bool throw_scheduled_ = false;
};

}  // namespace chk::chklib::verify
