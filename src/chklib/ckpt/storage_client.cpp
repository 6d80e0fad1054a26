#include "chklib/ckpt/storage_client.hpp"

#include <utility>

#include "obs/tracer.hpp"

namespace chk::chklib {

namespace {

/// Total tries per operation, the first attempt included.
constexpr std::uint32_t kMaxAttempts = 4;
/// The backoff before retry k is kInitialBackoff * kBackoffMultiplier^(k-1).
constexpr des::Duration kInitialBackoff = des::Duration::millis(50);
constexpr double kBackoffMultiplier = 2.0;
/// Give up once this much time has passed since the operation started,
/// even with attempts left.
constexpr des::Duration kDeadline = des::Duration::secs(30);

}  // namespace

template <typename Attempt>
xplorer::IoStatus StorageClient::with_retries(des::Process& self, Rank rank,
                                              bool app_blocking, Attempt attempt) {
  const des::TimePoint started = self.sim().now();
  des::Duration wait = kInitialBackoff;
  for (std::uint32_t tries = 1;; ++tries) {
    const xplorer::IoStatus status = attempt();
    if (status == xplorer::IoStatus::kOk || tries >= kMaxAttempts) return status;
    const des::TimePoint now = self.sim().now();
    if ((now - started) + wait > kDeadline) return status;
    self.delay(wait);
    retry_wait_ = retry_wait_ + wait;
    if (obs::Tracer* tracer = self.sim().tracer()) {
      tracer->span(obs::EventKind::kStorageRetryWait, static_cast<std::uint16_t>(rank),
                   now.to_nanos(), self.sim().now().to_nanos(), 0, app_blocking ? 1u : 0u);
    }
    ++retries_;
    wait = wait.scaled(kBackoffMultiplier);
  }
}

xplorer::IoStatus StorageClient::write_blocking(des::Process& self, Rank rank,
                                                const xplorer::FileId& file,
                                                std::vector<std::byte> blob,
                                                obs::EventKind kind, std::uint32_t arg,
                                                bool app_blocking) {
  const xplorer::IoStatus status = with_retries(self, rank, app_blocking, [&] {
    const std::int64_t t0 = self.sim().now().to_nanos();
    // Each attempt pays the full pipeline; the blob is copied so a retry
    // still has it.
    const xplorer::IoStatus attempt = storage_->write_blocking(self, rank, file, blob);
    if (obs::Tracer* tracer = self.sim().tracer()) {
      const auto pure = storage_->pure_write_time(rank, blob.size());
      tracer->span(kind, static_cast<std::uint16_t>(rank), t0, self.sim().now().to_nanos(),
                   static_cast<std::uint64_t>(pure.to_nanos()), arg);
    }
    return attempt;
  });
  if (status != xplorer::IoStatus::kOk) ++write_failures_;
  return status;
}

xplorer::IoStatus StorageClient::read_blocking(des::Process& self, Rank rank,
                                               const xplorer::FileId& file,
                                               std::vector<std::byte>* out) {
  std::vector<std::byte> blob;
  const xplorer::IoStatus status = with_retries(self, rank, /*app_blocking=*/false, [&] {
    xplorer::IoStatus attempt = xplorer::IoStatus::kOk;
    blob = storage_->read_blocking(self, rank, file, &attempt);
    return attempt;
  });
  if (status != xplorer::IoStatus::kOk) {
    ++read_failures_;
    if (out != nullptr) out->clear();
    return status;
  }
  if (out != nullptr) *out = std::move(blob);
  return status;
}

}  // namespace chk::chklib
