#include "xplorer/fifo_server.hpp"

#include <utility>

namespace chk::xplorer {

FifoServer::FifoServer(des::Simulator& sim, double bytes_per_sec,
                       des::Duration per_job_latency)
    : sim_(&sim), bytes_per_sec_(bytes_per_sec), per_job_latency_(per_job_latency) {}

des::Duration FifoServer::service_time(std::size_t bytes) const noexcept {
  return per_job_latency_ +
         des::Duration::seconds(static_cast<double>(bytes) / bytes_per_sec_);
}

void FifoServer::submit(std::size_t bytes, des::InlineFn on_done) {
  Job job{bytes, std::move(on_done), sim_->now()};
  if (busy_) {
    queue_.push_back(std::move(job));
  } else {
    start(std::move(job));
  }
}

void FifoServer::start(Job job) {
  busy_ = true;
  wait_time_ += sim_->now() - job.submitted;
  const des::Duration service = service_time(job.bytes);
  busy_time_ += service;
  in_service_ = std::move(job);
  sim_->schedule_after(service, [this] { complete(); });
}

void FifoServer::complete() {
  // Complete the job before starting the next so completion callbacks
  // observe a consistent queue; they may themselves submit new jobs.
  des::InlineFn done = std::move(in_service_.on_done);
  if (queue_.empty()) {
    busy_ = false;
  } else {
    Job next = std::move(queue_.front());
    queue_.pop_front();
    start(std::move(next));
  }
  if (done) done();
}

}  // namespace chk::xplorer
