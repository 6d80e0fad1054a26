#include "apps/tsp.hpp"

#include <algorithm>
#include <limits>

namespace chk::apps {

namespace {

constexpr int kTagRequest = 4;
constexpr int kTagJob = 5;
constexpr std::int64_t kNoTour = std::numeric_limits<std::int64_t>::max() / 4;

struct TspMasterState {
  std::uint32_t next_job = 0;
  std::uint32_t workers_done = 0;
  std::int64_t best_known = 0;  // initialized to kNoTour at start
};

/// Master -> worker reply: a job plus the global incumbent bound (sharing
/// the bound keeps pruning — and therefore total work — nearly independent
/// of the job-to-worker schedule).
struct JobReply {
  std::int32_t job = -1;
  std::int64_t bound = 0;
};

struct TspWorkerState {
  std::int64_t best = kNoTour;
  std::uint32_t jobs_done = 0;
};

struct Map {
  std::size_t m;
  std::vector<std::int32_t> d;
  std::int32_t min_edge;

  explicit Map(const TspParams& params) : m(params.cities), d(m * m) {
    min_edge = std::numeric_limits<std::int32_t>::max();
    for (std::size_t a = 0; a < m; ++a) {
      for (std::size_t b = 0; b < m; ++b) {
        d[a * m + b] = tsp_distance(a, b);
        if (a != b) min_edge = std::min(min_edge, d[a * m + b]);
      }
    }
  }
  [[nodiscard]] std::int32_t at(std::size_t a, std::size_t b) const { return d[a * m + b]; }
};

/// Depth-first branch-and-bound over the remaining cities. Returns nodes
/// explored; updates `best` in place.
std::uint64_t dfs(const Map& map, std::uint32_t visited, std::size_t current,
                  std::int64_t length, std::size_t placed, std::int64_t& best) {
  std::uint64_t nodes = 1;
  if (placed == map.m) {
    const std::int64_t total = length + map.at(current, 0);
    if (total < best) best = total;
    return nodes;
  }
  const auto remaining = static_cast<std::int64_t>(map.m - placed);
  if (length + (remaining + 1) * map.min_edge >= best) return nodes;  // bound
  for (std::size_t next = 1; next < map.m; ++next) {
    if ((visited >> next) & 1u) continue;
    nodes += dfs(map, visited | (1u << next), next, length + map.at(current, next),
                 placed + 1, best);
  }
  return nodes;
}

/// Expand job `id` = tour prefix (0, i, j, k); returns nodes explored.
/// Depth-3 prefixes keep jobs small (tens of milliseconds), so the dynamic
/// master/worker assignment stays balanced even when checkpointing skews
/// the request timing.
std::uint64_t run_job(const Map& map, std::uint32_t id, std::int64_t& best) {
  const std::size_t m = map.m;
  const std::size_t i = 1 + id / ((m - 2) * (m - 3));
  std::size_t rest = id % ((m - 2) * (m - 3));
  std::size_t j = 1 + rest / (m - 3);
  if (j >= i) ++j;  // skip i
  std::size_t k = 1 + rest % (m - 3);
  for (std::size_t taken : {std::min(i, j), std::max(i, j)}) {
    if (k >= taken) ++k;  // skip i and j, in ascending order
  }
  const std::uint32_t visited = 1u | (1u << i) | (1u << j) | (1u << k);
  const std::int64_t length = map.at(0, i) + map.at(i, j) + map.at(j, k);
  return dfs(map, visited, k, length, 4, best);
}

std::uint32_t total_jobs(std::size_t m) {
  return static_cast<std::uint32_t>((m - 1) * (m - 2) * (m - 3));
}

}  // namespace

std::int32_t tsp_distance(std::size_t a, std::size_t b) {
  if (a == b) return 0;
  const std::size_t lo = std::min(a, b), hi = std::max(a, b);
  return static_cast<std::int32_t>(hash_int(lo * 8191 + hi, 1, kTspMaxDistance));
}

AppFn make_tsp(TspParams params) {
  return [params](AppContext& ctx) {
    const Map map(params);
    const std::uint32_t jobs = total_jobs(params.cities);

    if (ctx.nprocs() == 1) {
      auto& st = ctx.state<TspWorkerState>();
      if (ctx.fresh()) st = TspWorkerState{};
      ctx.register_value("best", st.best);
      ctx.register_value("jobs_done", st.jobs_done);
      ctx.ready();
      for (; st.jobs_done < jobs; ++st.jobs_done) {
        ctx.checkpoint_here();
        std::int64_t best = st.best;
        const std::uint64_t nodes = run_job(map, st.jobs_done, best);
        ctx.compute(static_cast<double>(nodes) * kTspFlopsPerNode);
        st.best = best;
      }
      ctx.report_result(static_cast<double>(st.best));
      return;
    }

    if (ctx.rank() == 0) {
      // Master: serve job requests until every worker has been retired.
      auto& st = ctx.state<TspMasterState>();
      if (ctx.fresh()) {
        st = TspMasterState{};
        st.best_known = kNoTour;
      }
      ctx.register_value("next_job", st.next_job);
      ctx.register_value("workers_done", st.workers_done);
      ctx.register_value("best_known", st.best_known);
      ctx.ready();
      const auto workers = static_cast<std::uint32_t>(ctx.nprocs() - 1);
      while (st.workers_done < workers) {
        ctx.checkpoint_here();
        const auto request = ctx.recv(chklib::kAnySource, kTagRequest);
        const auto worker_best = chklib::from_bytes<std::int64_t>(request.payload);
        st.best_known = std::min(st.best_known, worker_best);
        JobReply reply;
        reply.bound = st.best_known;
        if (st.next_job < jobs) {
          reply.job = static_cast<std::int32_t>(st.next_job);
          ++st.next_job;
        } else {
          ++st.workers_done;
        }
        ctx.send_value(request.src, kTagJob, reply);
      }
      const double digest = ctx.allreduce_min(static_cast<double>(kNoTour));
      ctx.report_result(digest);
      return;
    }

    // Worker: request, solve, repeat.
    auto& st = ctx.state<TspWorkerState>();
    if (ctx.fresh()) st = TspWorkerState{};
    ctx.register_value("best", st.best);
    ctx.register_value("jobs_done", st.jobs_done);
    ctx.ready();
    for (;;) {
      ctx.checkpoint_here();
      ctx.send_value<std::int64_t>(0, kTagRequest, st.best);
      const auto reply = ctx.recv_value<JobReply>(0, kTagJob);
      if (reply.job < 0) break;
      std::int64_t best = std::min(st.best, reply.bound);
      const std::uint64_t nodes = run_job(map, static_cast<std::uint32_t>(reply.job), best);
      ctx.compute(static_cast<double>(nodes) * kTspFlopsPerNode);
      st.best = best;
      ++st.jobs_done;
    }
    (void)ctx.allreduce_min(static_cast<double>(st.best));
  };
}

double tsp_reference_digest(const TspParams& params) {
  const Map map(params);
  std::int64_t best = kNoTour;
  for (std::uint32_t job = 0; job < total_jobs(params.cities); ++job) {
    (void)run_job(map, job, best);
  }
  return static_cast<double>(best);
}

}  // namespace chk::apps
