#include "apps/sor.hpp"

#include <algorithm>
#include <cmath>

#include "apps/lanes.hpp"

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

/// One relaxed point from its old value and its four old neighbours.
template <typename T>
T relax(T c, T up, T down, T left, T right) {
  return (1.0 - kSorOmega) * c + kSorOmega * 0.25 * (up + down + left + right);
}

/// Relaxes columns 1..n-2 of `mid` into `out`, two columns per vector.
void relax_row(const double* up, const double* mid, const double* down, double* out,
               std::size_t n) {
  std::size_t j = 1;
  for (; j + 2 < n; j += 2) {
    store(out + j, relax(load<f64x2>(mid + j), load<f64x2>(up + j), load<f64x2>(down + j),
                         load<f64x2>(mid + j - 1), load<f64x2>(mid + j + 1)));
  }
  if (j + 1 < n) out[j] = relax(mid[j], up[j], down[j], mid[j - 1], mid[j + 1]);
}

}  // namespace

void sor_sweep(std::span<double> grid, std::size_t rows, std::size_t n) {
  if (rows == 0 || n < 3) return;
  // Row i is relaxed into one half of the buffer while row i - 1 waits in
  // the other: row i still reads the old row i - 1, so that row is written
  // back only after row i is done.
  std::vector<double> buffer(2 * n);
  double* const cells = grid.data();
  for (std::size_t i = 1; i <= rows; ++i) {
    relax_row(cells + (i - 1) * n, cells + i * n, cells + (i + 1) * n, &buffer[(i % 2) * n], n);
    if (i > 1) std::copy_n(&buffer[((i - 1) % 2) * n + 1], n - 2, cells + (i - 1) * n + 1);
  }
  std::copy_n(&buffer[(rows % 2) * n + 1], n - 2, cells + rows * n + 1);
}

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
      sor_sweep(st.grid, rows, n);
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
  std::fill_n(grid.begin(), n, kSorTopBoundary);
  for (std::uint32_t iter = 0; iter < params.iterations; ++iter) sor_sweep(grid, n, n);
  double digest = 0.0;
  for (std::size_t i = n; i < (n + 1) * n; ++i) digest += quantize(grid[i]);
  return digest;
}

}  // namespace chk::apps
