#include "chklib/ckpt/storage_client.hpp"

#include <string>
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

bool StorageClient::backoff(des::Process& self, Rank rank, std::uint32_t attempt,
                            des::TimePoint started, bool app_blocking) {
  des::Duration wait = kInitialBackoff;
  for (std::uint32_t i = 1; i < attempt; ++i) wait = wait.scaled(kBackoffMultiplier);
  const des::TimePoint now = self.sim().now();
  if ((now - started) + wait > kDeadline) return false;
  const std::int64_t t0 = now.to_nanos();
  self.delay(wait);
  retry_wait_ = retry_wait_ + wait;
  if (obs::Tracer* tracer = self.sim().tracer()) {
    tracer->span(obs::EventKind::kStorageRetryWait, static_cast<std::uint16_t>(rank), t0,
                 self.sim().now().to_nanos(), 0, app_blocking ? 1u : 0u);
  }
  return true;
}

xplorer::IoStatus StorageClient::write_blocking(des::Process& self, Rank rank,
                                                const std::string& key,
                                                std::vector<std::byte> blob,
                                                obs::EventKind kind, std::uint32_t arg,
                                                bool app_blocking) {
  const des::TimePoint started = self.sim().now();
  const std::size_t bytes = blob.size();
  for (std::uint32_t attempt = 1;; ++attempt) {
    const std::int64_t t0 = self.sim().now().to_nanos();
    // Each attempt pays the full pipeline; the blob is copied so a retry
    // still has it.
    const xplorer::IoStatus status =
        storage_->write_blocking(self, rank, key, blob);
    if (obs::Tracer* tracer = self.sim().tracer()) {
      const auto pure = storage_->pure_write_time(rank, bytes);
      tracer->span(kind, static_cast<std::uint16_t>(rank), t0, self.sim().now().to_nanos(),
                   static_cast<std::uint64_t>(pure.to_nanos()), arg);
    }
    if (status == xplorer::IoStatus::kOk) return status;
    if (attempt >= kMaxAttempts || !backoff(self, rank, attempt, started, app_blocking)) {
      ++write_failures_;
      return xplorer::IoStatus::kIoError;
    }
    ++retries_;
  }
}

xplorer::IoStatus StorageClient::read_blocking(des::Process& self, Rank rank,
                                               const std::string& key,
                                               std::vector<std::byte>* out) {
  const des::TimePoint started = self.sim().now();
  for (std::uint32_t attempt = 1;; ++attempt) {
    xplorer::IoStatus status = xplorer::IoStatus::kOk;
    auto blob = storage_->read_blocking(self, rank, key, &status);
    if (status == xplorer::IoStatus::kOk) {
      if (out != nullptr) *out = std::move(blob);
      return status;
    }
    if (attempt >= kMaxAttempts ||
        !backoff(self, rank, attempt, started, /*app_blocking=*/false)) {
      ++read_failures_;
      if (out != nullptr) out->clear();
      return xplorer::IoStatus::kIoError;
    }
    ++retries_;
  }
}

}  // namespace chk::chklib
