#include "xplorer/storage.hpp"

#include <utility>

#include "des/sync.hpp"

namespace chk::xplorer {

StableStorage::StableStorage(des::Simulator& sim, Network& network,
                             const MachineConfig& config)
    : sim_(&sim),
      network_(&network),
      host_node_(config.host_node),
      host_link_(sim, "host-link", config.host_link.bandwidth, config.host_link.latency),
      disk_(sim, "disk", config.disk.bandwidth, config.disk.latency) {}

void StableStorage::set_faults(const StorageFaultConfig& config, util::Rng rng) {
  faults_ = std::make_unique<StorageFaultModel>(config, rng);
}

des::Duration StableStorage::degrade_penalty(std::size_t bytes) {
  if (faults_ == nullptr) return des::Duration::zero();
  const double factor = faults_->slowdown_at(sim_->now());
  if (factor <= 1.0) return des::Duration::zero();
  return disk_.service_time(bytes).scaled(factor - 1.0);
}

void StableStorage::write(NodeId from, std::string key, std::vector<std::byte> data,
                          std::function<void(IoStatus)> on_done) {
  const std::size_t bytes = data.size();
  if (write_hook_) write_hook_(from, key, bytes);
  ++inflight_writes_;
  const std::uint64_t generation = write_generation_;
  // Faults are judged at submission (fixed draw order per operation); a
  // degraded window adds extra disk time after the regular service.
  StorageFaultModel::WriteVerdict verdict;
  if (faults_ != nullptr) verdict = faults_->judge_write();
  const des::Duration penalty = degrade_penalty(bytes);
  // Stage 1: mesh to the host node. Stage 2: host interface link.
  // Stage 3: disk service. Data becomes durable at disk completion — unless
  // a crash invalidated the write's generation first, in which case the
  // pipeline events still drain but the payload is dropped on the floor,
  // or the fault model ruled a transient I/O error, in which case the
  // fully-timed attempt reports kIoError and stores nothing.
  auto state = std::make_shared<std::pair<std::string, std::vector<std::byte>>>(
      std::move(key), std::move(data));
  auto finish = [this, generation, state, verdict,
                 on_done = std::move(on_done)]() mutable {
    if (generation != write_generation_) return;  // discarded by a crash
    --inflight_writes_;
    if (verdict.io_error) {
      ++writes_failed_;
      if (on_done) on_done(IoStatus::kIoError);
      return;
    }
    const std::size_t stored = state->second.size();
    store_now(state->first, std::move(state->second));
    if (verdict.bitrot && stored > 0) {
      // Silent corruption between write and read: the durable image gets
      // one byte flipped, detectable only by the blob's own checksum.
      auto& blob = files_[state->first];
      blob[verdict.rot_offset % blob.size()] ^= std::byte{verdict.rot_mask};
    }
    ++writes_completed_;
    if (on_done) on_done(IoStatus::kOk);
  };
  network_->transfer(from, host_node_, bytes, Traffic::kCheckpoint,
                     [this, bytes, penalty, finish = std::move(finish)]() mutable {
    host_link_.submit(bytes, [this, bytes, penalty, finish = std::move(finish)]() mutable {
      disk_.submit(bytes, [this, penalty, finish = std::move(finish)]() mutable {
        if (penalty > des::Duration::zero()) {
          sim_->schedule_after(penalty, std::move(finish));
        } else {
          finish();
        }
      });
    });
  });
}

std::size_t StableStorage::discard_inflight_writes() noexcept {
  const std::size_t discarded = inflight_writes_;
  ++write_generation_;
  writes_discarded_ += discarded;
  inflight_writes_ = 0;
  return discarded;
}

IoStatus StableStorage::write_blocking(des::Process& self, NodeId from, std::string key,
                                       std::vector<std::byte> data) {
  des::Completion done;
  auto status = std::make_shared<IoStatus>(IoStatus::kOk);
  write(from, std::move(key), std::move(data),
        [status, cb = done.callback()](IoStatus s) {
          *status = s;
          cb();
        });
  done.await(self);
  return *status;
}

void StableStorage::read(NodeId to, const std::string& key,
                         std::function<void(std::vector<std::byte>, IoStatus)> on_read) {
  std::vector<std::byte> data;
  if (const auto it = files_.find(key); it != files_.end()) data = it->second;
  const std::size_t bytes = data.size();
  StorageFaultModel::ReadVerdict verdict;
  if (faults_ != nullptr) verdict = faults_->judge_read();
  const des::Duration penalty = degrade_penalty(bytes);
  if (verdict.io_error) data.clear();
  auto payload = std::make_shared<std::vector<std::byte>>(std::move(data));
  const IoStatus status = verdict.io_error ? IoStatus::kIoError : IoStatus::kOk;
  // The failed read is timed like the successful one would have been: the
  // disk did the work before the error surfaced.
  disk_.submit(bytes, [this, to, bytes, payload, status, penalty,
                       on_read = std::move(on_read)]() mutable {
    auto deliver = [this, to, bytes, payload, status,
                    on_read = std::move(on_read)]() mutable {
      host_link_.submit(bytes, [this, to, bytes, payload, status,
                                on_read = std::move(on_read)]() mutable {
        network_->transfer(host_node_, to, bytes, Traffic::kCheckpoint,
                           [payload, status, on_read = std::move(on_read)] {
          if (on_read) on_read(std::move(*payload), status);
        });
      });
    };
    if (penalty > des::Duration::zero()) {
      sim_->schedule_after(penalty, std::move(deliver));
    } else {
      deliver();
    }
  });
}

std::vector<std::byte> StableStorage::read_blocking(des::Process& self, NodeId to,
                                                    const std::string& key,
                                                    IoStatus* status) {
  des::Completion done;
  auto result = std::make_shared<std::pair<std::vector<std::byte>, IoStatus>>();
  read(to, key, [result, cb = done.callback()](std::vector<std::byte> data, IoStatus s) {
    result->first = std::move(data);
    result->second = s;
    cb();
  });
  done.await(self);
  if (status != nullptr) *status = result->second;
  return std::move(result->first);
}

std::size_t StableStorage::size(const std::string& key) const {
  const auto it = files_.find(key);
  return it == files_.end() ? 0 : it->second.size();
}

void StableStorage::erase(const std::string& key) {
  const auto it = files_.find(key);
  if (it == files_.end()) return;
  total_bytes_ -= it->second.size();
  bytes_reclaimed_ += it->second.size();
  files_.erase(it);
}

std::vector<std::string> StableStorage::keys_with_prefix(const std::string& prefix) const {
  std::vector<std::string> result;
  for (auto it = files_.lower_bound(prefix); it != files_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    result.push_back(it->first);
  }
  return result;
}

void StableStorage::store_now(const std::string& key, std::vector<std::byte> data) {
  bytes_written_ += data.size();
  auto [it, inserted] = files_.try_emplace(key);
  if (!inserted) total_bytes_ -= it->second.size();
  total_bytes_ += data.size();
  it->second = std::move(data);
  peak_bytes_ = std::max(peak_bytes_, total_bytes_);
}

}  // namespace chk::xplorer
