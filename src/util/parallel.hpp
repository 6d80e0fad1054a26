// The one runner for independent jobs (the bench binaries' simulations):
// a worker pool bounded by the hardware concurrency that returns results
// in input order, so output never depends on completion order.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace chk::util {

/// Runs job(0) .. job(count - 1), at most std::thread::hardware_concurrency()
/// at a time (the calling thread is one of the workers), and returns their
/// results indexed like the jobs. Once a job throws, no further job starts;
/// every worker is joined and then the first exception is rethrown.
template <typename Job>
auto parallel_map(std::size_t count, const Job& job) {
  using Result = std::invoke_result_t<const Job&, std::size_t>;
  static_assert(!std::is_same_v<Result, bool>, "std::vector<bool> slots are not thread-safe");
  std::vector<Result> results(count);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  std::exception_ptr first_error;
  const auto work = [&] {
    for (std::size_t i = next++; i < count && !failed; i = next++) {
      try {
        results[i] = job(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
        failed = true;
      }
    }
  };
  const std::size_t workers =
      std::min<std::size_t>(count, std::max(1u, std::thread::hardware_concurrency()));
  {
    std::vector<std::jthread> pool;
    pool.reserve(workers);
    for (std::size_t w = 1; w < workers; ++w) pool.emplace_back(work);
    work();
  }  // joins every worker
  if (first_error) std::rethrow_exception(first_error);
  return results;
}

}  // namespace chk::util
