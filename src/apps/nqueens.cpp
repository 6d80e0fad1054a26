#include "apps/nqueens.hpp"

#include <vector>

namespace chk::apps {

namespace {

struct NQueensState {
  std::uint32_t cursor = 0;  ///< next index into this rank's job list
  std::uint64_t count = 0;
};

/// Bitmask DFS from row 2 given the first two placements; counts solutions
/// and explored nodes.
std::uint64_t dfs(std::uint32_t n, std::uint32_t cols, std::uint32_t diag1,
                  std::uint32_t diag2, std::uint64_t& nodes) {
  ++nodes;
  const std::uint32_t full = (1u << n) - 1;
  if (cols == full) return 1;
  std::uint64_t count = 0;
  std::uint32_t free = full & ~(cols | diag1 | diag2);
  while (free != 0) {
    const std::uint32_t bit = free & (0u - free);
    free ^= bit;
    count += dfs(n, cols | bit, ((diag1 | bit) << 1) & full, (diag2 | bit) >> 1, nodes);
  }
  return count;
}

struct Job {
  std::uint32_t c0, c1;
};

std::vector<Job> all_jobs(std::uint32_t n) {
  std::vector<Job> jobs;
  for (std::uint32_t c0 = 0; c0 < n; ++c0) {
    for (std::uint32_t c1 = 0; c1 < n; ++c1) {
      if (c1 == c0 || c1 + 1 == c0 || c1 == c0 + 1) continue;  // attacking
      jobs.push_back({c0, c1});
    }
  }
  return jobs;
}

std::uint64_t run_job(std::uint32_t n, Job job, std::uint64_t& nodes) {
  const std::uint32_t full = (1u << n) - 1;
  const std::uint32_t b0 = 1u << job.c0;
  const std::uint32_t b1 = 1u << job.c1;
  const std::uint32_t cols = b0 | b1;
  const std::uint32_t diag1 = (((b0 << 1) | b1) << 1) & full;
  const std::uint32_t diag2 = ((b0 >> 1) | b1) >> 1;
  return dfs(n, cols, diag1, diag2, nodes);
}

}  // namespace

AppFn make_nqueens(NQueensParams params) {
  return [params](AppContext& ctx) {
    const auto jobs = all_jobs(params.n);
    // Cyclic deal: rank r owns jobs r, r+P, r+2P, ...
    std::vector<std::uint32_t> mine;
    for (std::uint32_t j = static_cast<std::uint32_t>(ctx.rank());
         j < jobs.size(); j += static_cast<std::uint32_t>(ctx.nprocs())) {
      mine.push_back(j);
    }

    auto& st = ctx.state<NQueensState>();
    if (ctx.fresh()) st = NQueensState{};
    ctx.register_value("cursor", st.cursor);
    ctx.register_value("count", st.count);
    ctx.ready();

    for (; st.cursor < mine.size(); ++st.cursor) {
      ctx.checkpoint_here();
      std::uint64_t nodes = 0;
      const std::uint64_t solutions = run_job(params.n, jobs[mine[st.cursor]], nodes);
      ctx.compute(static_cast<double>(nodes) * kNQueensFlopsPerNode);
      st.count += solutions;
    }

    const double digest = ctx.allreduce_sum(static_cast<double>(st.count));
    if (ctx.rank() == 0) ctx.report_result(digest);
  };
}

std::uint64_t nqueens_reference_count(std::uint32_t n) {
  static constexpr std::uint64_t kCounts[] = {1,  1,   0,    0,    2,     10,    4,
                                              40, 92,  352,  724,  2680,  14200, 73712,
                                              365596};
  if (n < sizeof(kCounts) / sizeof(kCounts[0])) return kCounts[n];
  return 0;
}

}  // namespace chk::apps
