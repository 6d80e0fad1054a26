#include "apps/asp.hpp"

#include "apps/lanes.hpp"

namespace chk::apps {

namespace {

struct AspState {
  std::uint32_t k = 0;
  std::vector<std::int32_t> dist;  ///< own rows x n
};

}  // namespace

void asp_relax(std::span<std::int32_t> row, std::span<const std::int32_t> row_k, std::size_t k) {
  const std::int32_t via = row[k];
  if (via >= kAspUnreachable) return;
  const std::size_t n = row.size();
  const i32x4 vias = {via, via, via, via};
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const i32x4 candidate = vias + load<i32x4>(&row_k[j]);
    const i32x4 current = load<i32x4>(&row[j]);
    const i32x4 shorter = candidate < current;  // all ones where the path via k wins
    store(&row[j], (candidate & shorter) | (current & ~shorter));
  }
  for (; j < n; ++j) {
    const std::int32_t candidate = via + row_k[j];
    if (candidate < row[j]) row[j] = candidate;
  }
}

std::int32_t asp_edge_weight(std::size_t i, std::size_t j) {
  if (i == j) return 0;
  // ~25% density of direct edges; everything stays reachable through hubs.
  const std::uint64_t key = static_cast<std::uint64_t>(i) * 1315423911u + j;
  if (hash_int(key, 0, 3) != 0) return kAspUnreachable;
  return static_cast<std::int32_t>(hash_int(key ^ 0xabcdef, 1, kAspMaxWeight));
}

AppFn make_asp(AspParams params) {
  return [params](AppContext& ctx) {
    const std::size_t n = params.n;
    const std::size_t nprocs = ctx.nprocs();
    const Block block = block_range(n, nprocs, ctx.rank());
    const std::size_t rows = block.size();

    auto& st = ctx.state<AspState>();
    if (ctx.fresh()) {
      st.k = 0;
      st.dist.resize(rows * n);
      for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          st.dist[i * n + j] = asp_edge_weight(block.begin + i, j);
        }
      }
    }
    ctx.register_value("k", st.k);
    ctx.register_vector("dist", st.dist);
    ctx.ready();

    for (; st.k < n; ++st.k) {
      ctx.checkpoint_here();
      const Rank owner = block_owner(n, nprocs, st.k);
      std::vector<std::byte> row_bytes;
      if (owner == ctx.rank()) {
        const std::size_t local = st.k - block.begin;
        row_bytes = chklib::to_bytes(
            std::span<const std::int32_t>(&st.dist[local * n], n));
      }
      const auto row_k =
          chklib::vector_from_bytes<std::int32_t>(ctx.broadcast(owner, std::move(row_bytes)));

      ctx.compute(static_cast<double>(rows * n) * kAspFlopsPerCell);
      for (std::size_t i = 0; i < rows; ++i) {
        asp_relax(std::span(st.dist).subspan(i * n, n), row_k, st.k);
      }
    }

    double partial = 0.0;
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        const std::int32_t d = st.dist[i * n + j];
        partial += d >= kAspUnreachable ? 0.0 : static_cast<double>(d);
      }
    }
    const double digest = ctx.allreduce_sum(partial);
    if (ctx.rank() == 0) ctx.report_result(digest);
  };
}

double asp_reference_digest(const AspParams& params) {
  const std::size_t n = params.n;
  std::vector<std::int32_t> dist(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      dist[i * n + j] = asp_edge_weight(i, j);
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    // A copy of row k, as the app receives it: the kernel's rows never alias.
    const auto source = std::span(dist).subspan(k * n, n);
    const std::vector<std::int32_t> row_k(source.begin(), source.end());
    for (std::size_t i = 0; i < n; ++i) asp_relax(std::span(dist).subspan(i * n, n), row_k, k);
  }
  double digest = 0.0;
  for (std::int32_t d : dist) digest += d >= kAspUnreachable ? 0.0 : static_cast<double>(d);
  return digest;
}

}  // namespace chk::apps
