#include "chklib/verify/invariants.hpp"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "util/format.hpp"

namespace chk::chklib::verify {

void InvariantSink::report(std::string_view checker, Rank rank, std::string message) {
  Violation violation;
  violation.checker = std::string(checker);
  violation.rank = rank;
  violation.message = std::move(message);
  violation.when = sim_->now();
  // One stdio call per line: reports from parallel_map workers never
  // interleave.
  std::fputs(util::format("[ERROR] verify: invariant violated [{}] rank {} at {}: {}\n",
                          violation.checker, violation.rank, violation.when.str(),
                          violation.message)
                 .c_str(),
             stderr);
  violations_.push_back(std::move(violation));

  switch (policy_) {
    case Policy::kRecord:
      return;
    case Policy::kAbort:
      std::abort();
    case Policy::kThrowDeferred: {
      if (throw_scheduled_) return;
      throw_scheduled_ = true;
      // Throwing here, inside a simulated process, would unwind the
      // process body and fail the run only as a SimError naming it; a
      // zero-delay kernel event raises the violation itself out of
      // Simulator::run instead.
      const Violation& first = violations_.back();
      sim_->schedule_now([first] {
        throw InvariantViolation(util::format("invariant violated [{}] rank {}: {}",
                                              first.checker, first.rank, first.message));
      });
      return;
    }
  }
}

}  // namespace chk::chklib::verify
