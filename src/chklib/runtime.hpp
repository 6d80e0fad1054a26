// CHK-LIB runtime: one experiment's machine, communication fabric,
// checkpoint store and per-rank application state.
//
// An application is an AppFn executed by one simulated process per rank.
// The body is written restartable: persistent state lives in the rank's
// RankRuntime (so the checkpointer can capture it while the app runs and
// recovery can restore it between runs), and the body's structure is
//
//   auto& st = ctx.state<MyState>();       // persists across restarts
//   if (ctx.fresh()) { ...initialize st...}
//   ctx.register_vector("grid", st.grid);  // declare recoverable state
//   ctx.ready();                           // restore applied here if rolling back
//   for (; st.iter < n; ++st.iter) {
//     ctx.checkpoint_here();               // safe point: state == resumption point
//     ...compute/communicate...
//   }
//
// checkpoint_here() marks the *safe points* at which pending checkpoint
// requests are honoured (CHK-LIB is a user-defined checkpointing library:
// the application declares where its registered state is consistent). A
// final implicit safe point runs after the body returns.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chklib/ckpt/registry.hpp"
#include "chklib/ckpt/store.hpp"
#include "chklib/comm/comm_system.hpp"
#include "chklib/comm/typed.hpp"
#include "des/process.hpp"
#include "des/simulator.hpp"
#include "util/rng.hpp"
#include "xplorer/machine.hpp"

namespace chk::chklib {

class AppContext;
using AppFn = std::function<void(AppContext&)>;

/// Per-rank persistent runtime: survives application restarts (recovery).
struct RankRuntime {
  Rank rank = 0;
  CheckpointRegistry registry;
  std::shared_ptr<void> app_state;  ///< application's persistent state object
  /// State blob to apply at the next AppContext::ready() (set by recovery).
  std::optional<std::vector<std::byte>> pending_restore;
  bool fresh = true;   ///< true on first start and when rolled back to the initial state
  bool ready = false;  ///< registration complete; checkpoints may capture
  des::Process* app_process = nullptr;
  std::uint32_t restarts = 0;
};

class Runtime {
 public:
  Runtime(des::Simulator& sim, xplorer::MachineConfig machine_config, std::uint64_t seed);
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;
  /// Ends the simulation: every live simulated process is killed and
  /// joined while the communication fabric is still alive (process stacks
  /// hold references into it).
  ~Runtime() { sim_->shutdown(); }

  [[nodiscard]] des::Simulator& sim() noexcept { return *sim_; }
  [[nodiscard]] xplorer::Machine& machine() noexcept { return machine_; }
  [[nodiscard]] CommSystem& comm() noexcept { return comm_; }
  [[nodiscard]] CheckpointStore& store() noexcept { return store_; }
  [[nodiscard]] std::size_t num_ranks() const noexcept { return ranks_.size(); }
  [[nodiscard]] RankRuntime& rank(Rank r) noexcept { return *ranks_[r]; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Deterministic child RNG for a subsystem.
  [[nodiscard]] util::Rng fork_rng(std::uint64_t tag) const { return util::Rng(seed_).fork(tag); }

  /// Install the application (same body on every rank, SPMD style).
  void set_app(std::string name, AppFn body);

  /// Spawn the application processes (fresh start).
  void start_apps();
  /// Recovery path: respawn all application processes; pending_restore /
  /// fresh flags must already be staged by the recovery manager.
  void restart_apps();
  /// Kill all live application processes (failure handling).
  void kill_apps();
  /// Kill one rank's application process (membership crash model: the rank
  /// is down but the cluster has not yet detected it).
  void kill_app(Rank r);

  [[nodiscard]] bool apps_done() const noexcept { return apps_started_ && finished_ == num_ranks(); }
  [[nodiscard]] des::TimePoint apps_finished_at() const noexcept { return finished_at_; }

  /// Rank 0 reports the application's final result digest (verification).
  void report_result(double digest) noexcept { result_digest_ = digest; }
  [[nodiscard]] std::optional<double> result_digest() const noexcept { return result_digest_; }

  /// Run the simulation until every application process finished. Throws
  /// SimError if the simulation idles or deadlocks first.
  des::RunResult run_to_completion(std::uint64_t max_events = std::uint64_t{1} << 40);

 private:
  void spawn_rank(Rank r);

  des::Simulator* sim_;
  xplorer::Machine machine_;
  CommSystem comm_;
  CheckpointStore store_;
  std::uint64_t seed_;
  std::string app_name_ = "app";
  AppFn app_body_;
  std::vector<std::unique_ptr<RankRuntime>> ranks_;
  bool apps_started_ = false;
  std::size_t finished_ = 0;
  des::TimePoint finished_at_;
  std::optional<double> result_digest_;
};

/// The API surface an application body programs against (per invocation).
class AppContext {
 public:
  AppContext(Runtime& runtime, RankRuntime& rank, des::Process& self)
      : runtime_(&runtime),
        rank_(&rank),
        self_(&self),
        endpoint_(&runtime.comm().endpoint(rank.rank)),
        node_(&runtime.machine().node(rank.rank)) {}

  [[nodiscard]] Rank rank() const noexcept { return rank_->rank; }
  [[nodiscard]] std::size_t nprocs() const noexcept { return runtime_->num_ranks(); }
  [[nodiscard]] des::Process& self() noexcept { return *self_; }
  [[nodiscard]] Runtime& runtime() noexcept { return *runtime_; }

  /// True on first start or after a rollback to the initial state: the
  /// application must (re)initialize its persistent state.
  [[nodiscard]] bool fresh() const noexcept { return rank_->fresh; }
  [[nodiscard]] std::uint32_t restarts() const noexcept { return rank_->restarts; }

  /// Persistent state object (survives restarts).
  template <typename T>
  T& state() {
    if (!rank_->app_state) rank_->app_state = std::make_shared<T>();
    return *std::static_pointer_cast<T>(rank_->app_state);
  }

  void register_region(std::string name, std::span<std::byte> bytes) {
    rank_->registry.register_region(std::move(name), bytes);
  }
  template <typename T>
  void register_value(std::string name, T& value) {
    rank_->registry.register_value(std::move(name), value);
  }
  template <typename T>
  void register_vector(std::string name, std::vector<T>& v) {
    rank_->registry.register_vector(std::move(name), v);
  }
  /// Variable-size vector region: checkpoint images track the vector's
  /// current size (see CheckpointRegistry::register_dynamic_vector).
  template <typename T>
  void register_dynamic_vector(std::string name, std::vector<T>& v) {
    rank_->registry.register_dynamic_vector(std::move(name), v);
  }

  /// Registration complete: apply any pending rollback restore and allow
  /// checkpoints to capture from here on.
  void ready();

  /// Safe point: the registered state exactly describes a resumption point
  /// (typically the top of the main loop). Pending checkpoint requests are
  /// executed here, in this process's context — the calling application is
  /// blocked for exactly the scheme's blocking window.
  void checkpoint_here() {
    if (auto* hooks = runtime_->comm().hooks()) hooks->on_safe_point(*self_, rank_->rank);
  }

  /// Deterministic per-rank RNG stream. Applications that must replay
  /// identically across rollbacks keep a util::Rng inside their registered
  /// state instead.
  [[nodiscard]] util::Rng fork_rng(std::uint64_t tag) const {
    return runtime_->fork_rng(0x1000 + rank_->rank).fork(tag);
  }

  // ---- modelled work -------------------------------------------------------
  void compute(double flops) { node_->compute(*self_, flops); }

  // ---- communication (forwarders to the endpoint) ---------------------------
  void send(Rank dst, int tag, std::vector<std::byte> payload) {
    endpoint_->send(*self_, dst, tag, std::move(payload));
  }
  [[nodiscard]] Envelope recv(int src = kAnySource, int tag = kAnyTag) {
    return endpoint_->recv(*self_, src, tag);
  }
  /// recv bounded by the simulation clock: nullopt once `deadline` passes
  /// with no matching message (see Endpoint::recv_until).
  [[nodiscard]] std::optional<Envelope> recv_until(des::TimePoint deadline,
                                                   int src = kAnySource,
                                                   int tag = kAnyTag) {
    return endpoint_->recv_until(*self_, deadline, src, tag);
  }
  /// Non-blocking check for a consumable matching message.
  [[nodiscard]] bool probe(int src = kAnySource, int tag = kAnyTag) const {
    return endpoint_->probe(src, tag);
  }
  /// Current simulated time (for scheduled-arrival bookkeeping).
  [[nodiscard]] des::TimePoint now() const noexcept { return runtime_->sim().now(); }
  template <typename T>
  void send_value(Rank dst, int tag, const T& value) {
    chklib::send_value(*endpoint_, *self_, dst, tag, value);
  }
  template <typename T>
  T recv_value(int src = kAnySource, int tag = kAnyTag) {
    return chklib::recv_value<T>(*endpoint_, *self_, src, tag);
  }
  template <typename T>
  void send_span(Rank dst, int tag, std::span<const T> values) {
    chklib::send_span(*endpoint_, *self_, dst, tag, values);
  }
  template <typename T>
  std::vector<T> recv_vector(int src = kAnySource, int tag = kAnyTag) {
    return chklib::recv_vector<T>(*endpoint_, *self_, src, tag);
  }
  void barrier() { endpoint_->barrier(*self_); }
  std::vector<std::byte> broadcast(Rank root, std::vector<std::byte> data) {
    return endpoint_->broadcast(*self_, root, std::move(data));
  }
  double reduce_sum(Rank root, double value) { return endpoint_->reduce_sum(*self_, root, value); }
  double allreduce_sum(double value) { return endpoint_->allreduce_sum(*self_, value); }
  double reduce_min(Rank root, double value) { return endpoint_->reduce_min(*self_, root, value); }
  double allreduce_min(double value) { return endpoint_->allreduce_min(*self_, value); }
  std::vector<double> reduce_sum_vec(Rank root, std::vector<double> values) {
    return endpoint_->reduce_sum_vec(*self_, root, std::move(values));
  }

  /// Rank 0 reports the verified result digest.
  void report_result(double digest) { runtime_->report_result(digest); }

 private:
  Runtime* runtime_;
  RankRuntime* rank_;
  des::Process* self_;
  Endpoint* endpoint_;
  xplorer::Node* node_;
};

}  // namespace chk::chklib
