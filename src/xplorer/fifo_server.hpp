// Event-driven FIFO queueing server.
//
// Models an exclusive, serially-served resource with a (latency + size /
// bandwidth) service time whose jobs carry real continuations: the host
// interface link and the stable-storage disk, whose jobs are the storage
// pipeline's completion steps. (A mesh link's only continuation is
// "forward this packet", so Network queues packet records itself.) Jobs
// complete via callback, so no simulated process is tied up driving a
// transfer — processes that need to block on completion park on a
// semaphore signalled from the callback.
//
// The server holds the job in service itself and the completion event
// captures only `this`. A job's completion is scheduled when it starts
// service, which the trace hash pins.
#pragma once

#include <cstddef>
#include <deque>

#include "des/simulator.hpp"
#include "des/time.hpp"

namespace chk::xplorer {

class FifoServer {
 public:
  FifoServer(des::Simulator& sim, double bytes_per_sec, des::Duration per_job_latency);
  FifoServer(const FifoServer&) = delete;
  FifoServer& operator=(const FifoServer&) = delete;

  /// Enqueue a job of `bytes`; `on_done` runs in kernel context when the
  /// job finishes service. Jobs are served strictly in submission order.
  void submit(std::size_t bytes, des::InlineFn on_done);

  /// Service time for a job of `bytes` (excluding queueing).
  [[nodiscard]] des::Duration service_time(std::size_t bytes) const noexcept;

  // -- accumulated statistics ------------------------------------------------
  [[nodiscard]] des::Duration busy_time() const noexcept { return busy_time_; }
  [[nodiscard]] des::Duration wait_time() const noexcept { return wait_time_; }

 private:
  struct Job {
    std::size_t bytes = 0;
    des::InlineFn on_done;
    des::TimePoint submitted;
  };

  /// Put `job` into service and schedule its completion.
  void start(Job job);
  /// The job in service finishes: start the next one, then run its callback.
  void complete();

  des::Simulator* sim_;
  double bytes_per_sec_;
  des::Duration per_job_latency_;
  bool busy_ = false;
  Job in_service_;
  std::deque<Job> queue_;

  des::Duration busy_time_;
  des::Duration wait_time_;
};

}  // namespace chk::xplorer
