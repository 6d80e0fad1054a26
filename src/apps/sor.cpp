#include "apps/sor.hpp"

#include <cmath>

namespace chk::apps {

namespace {

constexpr int kTagUp = 1;    // sent towards lower rank
constexpr int kTagDown = 2;  // sent towards higher rank

/// Order-independent digest: quantized sum of the interior cells.
double quantize(double v) { return static_cast<double>(std::llround(v * 1048576.0)); }

struct SorState {
  std::uint32_t iter = 0;
  std::vector<double> grid;  ///< (rows + 2) x n, halo rows at 0 and rows+1
};

}  // namespace

AppFn make_sor(SorParams params) {
  return [params](AppContext& ctx) {
    const std::size_t n = params.n;
    const std::size_t nprocs = ctx.nprocs();
    const Block block = block_range(n, nprocs, ctx.rank());
    const std::size_t rows = block.size();

    auto& st = ctx.state<SorState>();
    if (ctx.fresh()) {
      st.iter = 0;
      st.grid.assign((rows + 2) * n, 0.0);
      if (ctx.rank() == 0) {
        // top boundary row (the halo of the first rank is the fixed edge)
        for (std::size_t j = 0; j < n; ++j) st.grid[j] = kSorTopBoundary;
      }
    }
    ctx.register_value("iter", st.iter);
    ctx.register_vector("grid", st.grid);
    ctx.ready();

    auto cell = [&](std::size_t i, std::size_t j) -> double& { return st.grid[i * n + j]; };
    std::vector<double> next(rows * n);  // scratch; never read across iterations

    const Rank up = ctx.rank() > 0 ? ctx.rank() - 1 : 0;
    const Rank down = ctx.rank() + 1 < nprocs ? ctx.rank() + 1 : 0;
    const bool has_up = ctx.rank() > 0;
    const bool has_down = ctx.rank() + 1 < nprocs;

    for (; st.iter < params.iterations; ++st.iter) {
      ctx.checkpoint_here();
      // Halo exchange: boundary-owning ranks keep their fixed halos.
      if (has_up) {
        ctx.send_span<double>(up, kTagUp, std::span<const double>(&cell(1, 0), n));
      }
      if (has_down) {
        ctx.send_span<double>(down, kTagDown, std::span<const double>(&cell(rows, 0), n));
      }
      if (has_up) {
        const auto halo = ctx.recv_vector<double>(static_cast<int>(up), kTagDown);
        for (std::size_t j = 0; j < n; ++j) cell(0, j) = halo[j];
      }
      if (has_down) {
        const auto halo = ctx.recv_vector<double>(static_cast<int>(down), kTagUp);
        for (std::size_t j = 0; j < n; ++j) cell(rows + 1, j) = halo[j];
      }

      ctx.compute(static_cast<double>(rows * (n - 2)) * kSorFlopsPerPoint);
      const double w = kSorOmega;
      for (std::size_t i = 1; i <= rows; ++i) {
        for (std::size_t j = 1; j + 1 < n; ++j) {
          const double around =
              cell(i - 1, j) + cell(i + 1, j) + cell(i, j - 1) + cell(i, j + 1);
          next[(i - 1) * n + j] = (1.0 - w) * cell(i, j) + w * 0.25 * around;
        }
      }
      for (std::size_t i = 1; i <= rows; ++i) {
        for (std::size_t j = 1; j + 1 < n; ++j) cell(i, j) = next[(i - 1) * n + j];
      }
    }

    double partial = 0.0;
    for (std::size_t i = 1; i <= rows; ++i) {
      for (std::size_t j = 0; j < n; ++j) partial += quantize(cell(i, j));
    }
    const double digest = ctx.allreduce_sum(partial);
    if (ctx.rank() == 0) ctx.report_result(digest);
  };
}

double sor_reference_digest(const SorParams& params) {
  const std::size_t n = params.n;
  std::vector<double> grid((n + 2) * n, 0.0);
  auto cell = [&](std::size_t i, std::size_t j) -> double& { return grid[i * n + j]; };
  for (std::size_t j = 0; j < n; ++j) cell(0, j) = kSorTopBoundary;
  std::vector<double> next(n * n);
  const double w = kSorOmega;
  for (std::uint32_t iter = 0; iter < params.iterations; ++iter) {
    for (std::size_t i = 1; i <= n; ++i) {
      for (std::size_t j = 1; j + 1 < n; ++j) {
        const double around =
            cell(i - 1, j) + cell(i + 1, j) + cell(i, j - 1) + cell(i, j + 1);
        next[(i - 1) * n + j] = (1.0 - w) * cell(i, j) + w * 0.25 * around;
      }
    }
    for (std::size_t i = 1; i <= n; ++i) {
      for (std::size_t j = 1; j + 1 < n; ++j) cell(i, j) = next[(i - 1) * n + j];
    }
  }
  double digest = 0.0;
  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t j = 0; j < n; ++j) digest += quantize(cell(i, j));
  }
  return digest;
}

}  // namespace chk::apps
