// Retrying stable-storage client.
//
// Transient I/O errors (IoStatus::kIoError from the StableStorage fault
// model) are the storage tier's own fault domain; this client is the one
// door every protocol and the recovery manager go through, so the retry
// policy lives in exactly one place, one loop that writes and reads share.
// A failed attempt is retried after an exponentially growing backoff
// (50 ms, doubling) until the budget of 4 attempts or the 30 s deadline
// runs out, at which point the terminal error is surfaced to the caller —
// the protocols decide what a permanently lost write means (abort the
// round, skip the interval), the client never hides one.
//
// Each attempt emits its own traced span (the caller's event kind, aux =
// uncontended write time) and each backoff sleep emits a
// kStorageRetryWait span, so the overhead attribution can split "writing"
// from "waiting to retry" exactly. Fault-free runs take a single attempt
// with zero extra simulator events — bit-identical to the pre-client path.
#pragma once

#include <cstdint>
#include <vector>

#include "chklib/comm/envelope.hpp"
#include "des/process.hpp"
#include "des/time.hpp"
#include "obs/event.hpp"
#include "xplorer/storage.hpp"

namespace chk::chklib {

class StorageClient {
 public:
  explicit StorageClient(xplorer::StableStorage& storage) : storage_(&storage) {}
  StorageClient(const StorageClient&) = delete;
  StorageClient& operator=(const StorageClient&) = delete;

  /// Blocking write with bounded retries. Emits one `kind` span per
  /// attempt (arg = `arg`); backoff sleeps emit kStorageRetryWait spans
  /// with arg = 1 when `app_blocking` (so attribution charges them to the
  /// blocked window) and 0 otherwise.
  xplorer::IoStatus write_blocking(des::Process& self, Rank rank, const xplorer::FileId& file,
                                   std::vector<std::byte> blob, obs::EventKind kind,
                                   std::uint32_t arg, bool app_blocking);

  /// Blocking read with bounded retries. A missing file is not an error:
  /// it returns kOk with an empty blob. Retry sleeps emit
  /// kStorageRetryWait spans with arg = 0 (recovery time is charged
  /// through the caller's enclosing kRecoveryRead span).
  xplorer::IoStatus read_blocking(des::Process& self, Rank rank, const xplorer::FileId& file,
                                  std::vector<std::byte>* out);

  [[nodiscard]] std::uint64_t retries() const noexcept { return retries_; }
  [[nodiscard]] std::uint64_t write_failures() const noexcept { return write_failures_; }
  [[nodiscard]] std::uint64_t read_failures() const noexcept { return read_failures_; }
  /// Total simulated time spent in backoff sleeps.
  [[nodiscard]] des::Duration retry_wait() const noexcept { return retry_wait_; }

 private:
  /// The retry loop: runs `attempt` (one timed storage operation, returning
  /// its status) until it succeeds, sleeping out the backoff between tries,
  /// and returns the last status once the budget or the deadline runs out.
  template <typename Attempt>
  xplorer::IoStatus with_retries(des::Process& self, Rank rank, bool app_blocking,
                                 Attempt attempt);

  xplorer::StableStorage* storage_;
  std::uint64_t retries_ = 0;
  std::uint64_t write_failures_ = 0;
  std::uint64_t read_failures_ = 0;
  des::Duration retry_wait_ = des::Duration::zero();
};

}  // namespace chk::chklib
