// Event-driven FIFO queueing server.
//
// Models any exclusive, serially-served resource with a (latency + size /
// bandwidth) service time: a transputer link carrying packets, the host
// interface, or the stable-storage disk. Jobs complete via callback, so no
// simulated process is tied up driving a transfer — processes that need to
// block on completion park on a semaphore signalled from the callback.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <utility>

#include "des/simulator.hpp"
#include "des/time.hpp"

namespace chk::xplorer {

class FifoServer {
 public:
  FifoServer(des::Simulator& sim, std::string name, double bytes_per_sec,
             des::Duration per_job_latency);
  FifoServer(const FifoServer&) = delete;
  FifoServer& operator=(const FifoServer&) = delete;

  /// Enqueue a job of `bytes`; `on_done` runs in kernel context when the
  /// job finishes service. Jobs are served strictly in submission order.
  void submit(std::size_t bytes, std::function<void()> on_done);

  /// Service time for a job of `bytes` (excluding queueing).
  [[nodiscard]] des::Duration service_time(std::size_t bytes) const noexcept;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] bool idle() const noexcept { return !busy_; }

  // -- accumulated statistics ------------------------------------------------
  [[nodiscard]] des::Duration busy_time() const noexcept { return busy_time_; }
  [[nodiscard]] des::Duration wait_time() const noexcept { return wait_time_; }
  [[nodiscard]] std::uint64_t jobs_completed() const noexcept { return jobs_completed_; }
  [[nodiscard]] std::uint64_t bytes_served() const noexcept { return bytes_served_; }

 private:
  struct Job {
    std::size_t bytes;
    std::function<void()> on_done;
    des::TimePoint submitted;
  };

  void start_next();

  des::Simulator* sim_;
  std::string name_;
  double bytes_per_sec_;
  des::Duration per_job_latency_;
  bool busy_ = false;
  std::deque<Job> queue_;

  des::Duration busy_time_;
  des::Duration wait_time_;
  std::uint64_t jobs_completed_ = 0;
  std::uint64_t bytes_served_ = 0;
};

}  // namespace chk::xplorer
