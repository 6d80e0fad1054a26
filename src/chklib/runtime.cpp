#include "chklib/runtime.hpp"

#include "util/format.hpp"

namespace chk::chklib {

Runtime::Runtime(des::Simulator& sim, xplorer::MachineConfig machine_config,
                 std::uint64_t seed)
    : sim_(&sim),
      machine_(sim, std::move(machine_config)),
      comm_(machine_),
      store_(machine_.storage()),
      seed_(seed) {
  ranks_.reserve(machine_.num_nodes());
  for (Rank r = 0; r < machine_.num_nodes(); ++r) {
    auto rank = std::make_unique<RankRuntime>();
    rank->rank = r;
    ranks_.push_back(std::move(rank));
  }
}

void Runtime::set_app(std::string name, AppFn body) {
  app_name_ = std::move(name);
  app_body_ = std::move(body);
}

void Runtime::spawn_rank(Rank r) {
  RankRuntime& rank = *ranks_[r];
  auto& proc = sim_->spawn(util::format("{}-r{}", app_name_, r), [this, &rank](des::Process& self) {
    rank.app_process = &self;
    AppContext ctx(*this, rank, self);
    app_body_(ctx);
    // Final implicit safe point: a round in flight can still capture the
    // finished state, so protocols complete even near the end of a run.
    ctx.checkpoint_here();
    rank.app_process = nullptr;
    ++finished_;
    if (finished_ == num_ranks()) {
      finished_at_ = sim_->now();
      sim_->stop();
    }
  });
  rank.app_process = &proc;  // valid immediately for kill purposes
}

void Runtime::start_apps() {
  if (!app_body_) throw des::SimError("start_apps: no application installed");
  apps_started_ = true;
  finished_ = 0;
  for (Rank r = 0; r < num_ranks(); ++r) spawn_rank(r);
}

void Runtime::restart_apps() {
  finished_ = 0;
  for (Rank r = 0; r < num_ranks(); ++r) {
    RankRuntime& rank = *ranks_[r];
    rank.registry.clear();
    rank.ready = false;
    ++rank.restarts;
    spawn_rank(r);
  }
}

void Runtime::kill_apps() {
  for (auto& rank : ranks_) {
    if (rank->app_process != nullptr) {
      sim_->kill(*rank->app_process);
      rank->app_process = nullptr;
    }
    rank->ready = false;
  }
}

void Runtime::kill_app(Rank r) {
  RankRuntime& rank = *ranks_[r];
  if (rank.app_process != nullptr) {
    sim_->kill(*rank.app_process);
    rank.app_process = nullptr;
  }
  rank.ready = false;
}

des::RunResult Runtime::run_to_completion(std::uint64_t max_events) {
  for (;;) {
    const auto result = sim_->run(des::TimePoint::max(), max_events);
    if (result.reason == des::StopReason::kStopped && apps_done()) return result;
    if (result.reason == des::StopReason::kStopped) continue;  // stop from elsewhere; resume
    throw des::SimError(util::format("run_to_completion: simulation ended ({}) at {} before apps finished",
                                     to_string(result.reason), sim_->now().str()));
  }
}

void AppContext::ready() {
  rank_->ready = true;
  if (rank_->pending_restore.has_value()) {
    rank_->registry.restore(*rank_->pending_restore);
    rank_->pending_restore.reset();
  }
}

}  // namespace chk::chklib
