#include "xplorer/storage.hpp"

#include <utility>

#include "des/sync.hpp"

namespace chk::xplorer {

StableStorage::StableStorage(des::Simulator& sim, Network& network,
                             const MachineConfig& config)
    : sim_(&sim),
      network_(&network),
      host_link_(sim, config.host_link.bandwidth, config.host_link.latency),
      disk_(sim, config.disk.bandwidth, config.disk.latency) {}

void StableStorage::set_faults(const StorageFaultConfig& config, util::Rng rng) {
  faults_ = std::make_unique<StorageFaultModel>(config, rng);
}

des::Duration StableStorage::degrade_penalty(std::size_t bytes) {
  if (faults_ == nullptr) return des::Duration::zero();
  const double factor = faults_->slowdown_at(sim_->now());
  if (factor <= 1.0) return des::Duration::zero();
  return disk_.service_time(bytes).scaled(factor - 1.0);
}

IoStatus StableStorage::write_blocking(des::Process& self, NodeId from, FileId file,
                                       std::vector<std::byte> data) {
  const std::size_t bytes = data.size();
  if (write_hook_) write_hook_(from, file, bytes);
  ++inflight_writes_;
  const std::uint64_t generation = write_generation_;
  // Faults are judged at submission (fixed draw order per operation); a
  // degraded window adds extra disk time after the regular service.
  StorageFaultModel::WriteVerdict verdict;
  if (faults_ != nullptr) verdict = faults_->judge_write();
  const des::Duration penalty = degrade_penalty(bytes);
  // The outcome lives outside this frame: a writer killed without a discard
  // (its write still in flight) leaves the pipeline to finish on its own.
  des::Completion done;
  auto status = std::make_shared<IoStatus>(IoStatus::kOk);
  // Stage 1: mesh to the host node. Stage 2: host interface link.
  // Stage 3: disk service. Data becomes durable at disk completion — unless
  // a crash invalidated the write's generation first, in which case the
  // pipeline events still drain but the payload is dropped on the floor,
  // or the fault model ruled a transient I/O error, in which case the
  // fully-timed attempt reports kIoError and stores nothing.
  auto finish = [this, generation, file, data = std::move(data), verdict, status,
                 wake = done.callback()]() mutable {
    if (generation != write_generation_) return;  // discarded by a crash
    --inflight_writes_;
    if (verdict.io_error) {
      *status = IoStatus::kIoError;
      wake();
      return;
    }
    std::vector<std::byte>& blob = store_now(file, std::move(data));
    if (verdict.bitrot && !blob.empty()) {
      // Silent corruption between write and read: the durable image gets
      // one byte flipped, detectable only by the blob's own checksum.
      blob[verdict.rot_offset % blob.size()] ^= std::byte{verdict.rot_mask};
    }
    wake();
  };
  network_->transfer(from, kHostNode, bytes, Traffic::kCheckpoint,
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
  done.await(self);
  return *status;
}

std::size_t StableStorage::discard_inflight_writes() noexcept {
  const std::size_t discarded = inflight_writes_;
  ++write_generation_;
  writes_discarded_ += discarded;
  inflight_writes_ = 0;
  return discarded;
}

std::vector<std::byte> StableStorage::read_blocking(des::Process& self, NodeId to,
                                                    const FileId& file, IoStatus* status) {
  std::vector<std::byte> data;
  if (const auto it = files_.find(file); it != files_.end()) data = it->second;
  const std::size_t bytes = data.size();
  StorageFaultModel::ReadVerdict verdict;
  if (faults_ != nullptr) verdict = faults_->judge_read();
  const des::Duration penalty = degrade_penalty(bytes);
  if (verdict.io_error) data.clear();
  // The failed read is timed like the successful one would have been: the
  // disk did the work before the error surfaced. The data is this frame's
  // snapshot; the pipeline carries only the wake-up, so a loader killed
  // mid-read leaves nothing behind for its late completion to touch.
  des::Completion done;
  disk_.submit(bytes, [this, to, bytes, penalty, wake = done.callback()]() mutable {
    auto deliver = [this, to, bytes, wake = std::move(wake)]() mutable {
      host_link_.submit(bytes, [this, to, bytes, wake = std::move(wake)]() mutable {
        network_->transfer(kHostNode, to, bytes, Traffic::kCheckpoint, std::move(wake));
      });
    };
    if (penalty > des::Duration::zero()) {
      sim_->schedule_after(penalty, std::move(deliver));
    } else {
      deliver();
    }
  });
  done.await(self);
  if (status != nullptr) *status = verdict.io_error ? IoStatus::kIoError : IoStatus::kOk;
  return data;
}

void StableStorage::erase(const FileId& file) {
  const auto it = files_.find(file);
  if (it == files_.end()) return;
  total_bytes_ -= it->second.size();
  bytes_reclaimed_ += it->second.size();
  files_.erase(it);
}

std::vector<std::byte>& StableStorage::store_now(const FileId& file,
                                                 std::vector<std::byte> data) {
  bytes_written_ += data.size();
  auto [it, inserted] = files_.try_emplace(file);
  if (!inserted) total_bytes_ -= it->second.size();
  total_bytes_ += data.size();
  it->second = std::move(data);
  peak_bytes_ = std::max(peak_bytes_, total_bytes_);
  return it->second;
}

}  // namespace chk::xplorer
