#include "xplorer/fifo_server.hpp"

#include <cmath>

namespace chk::xplorer {

FifoServer::FifoServer(des::Simulator& sim, std::string name, double bytes_per_sec,
                       des::Duration per_job_latency)
    : sim_(&sim),
      name_(std::move(name)),
      bytes_per_sec_(bytes_per_sec),
      per_job_latency_(per_job_latency) {}

des::Duration FifoServer::service_time(std::size_t bytes) const noexcept {
  return per_job_latency_ +
         des::Duration::seconds(static_cast<double>(bytes) / bytes_per_sec_);
}

void FifoServer::submit(std::size_t bytes, std::function<void()> on_done) {
  queue_.push_back(Job{bytes, std::move(on_done), sim_->now()});
  if (!busy_) start_next();
}

void FifoServer::start_next() {
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  Job job = std::move(queue_.front());
  queue_.pop_front();
  wait_time_ += sim_->now() - job.submitted;
  const des::Duration service = service_time(job.bytes);
  busy_time_ += service;
  sim_->schedule_after(service, [this, job = std::move(job)]() mutable {
    ++jobs_completed_;
    bytes_served_ += job.bytes;
    // Complete the job before starting the next so completion callbacks
    // observe a consistent queue; they may themselves submit new jobs.
    auto done = std::move(job.on_done);
    start_next();
    if (done) done();
  });
}

}  // namespace chk::xplorer
