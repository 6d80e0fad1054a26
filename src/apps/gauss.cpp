#include "apps/gauss.hpp"

#include <cmath>

#include "apps/lanes.hpp"

namespace chk::apps {

namespace {

struct GaussState {
  std::uint32_t k = 0;        ///< forward elimination progress
  std::uint32_t kb = 0;       ///< back substitution progress (counts down from n via n-1-kb)
  std::uint8_t phase = 0;     ///< 0 = eliminate, 1 = substitute
  std::vector<double> rows;   ///< my rows, each n+1 wide (augmented with b)
  std::vector<double> x;      ///< solution vector, filled during substitution
};

double matrix_entry(std::size_t n, std::size_t i, std::size_t j) {
  double v = hash_unit(i * n + j) - 0.5;
  if (i == j) v += static_cast<double>(n);  // diagonal dominance
  return v;
}

double rhs_entry(std::size_t n, std::size_t i) { return hash_unit(0xb0b0 + i * n); }

double quantize(double v) { return static_cast<double>(std::llround(v * 1048576.0)); }

}  // namespace

void gauss_eliminate(std::span<double> row, std::span<const double> pivot, std::size_t k) {
  const std::size_t width = row.size();
  const double factor = row[k] / pivot[k];
  row[k] = 0.0;
  const f64x2 factors = {factor, factor};
  std::size_t j = k + 1;
  for (; j + 2 <= width; j += 2) {
    store(&row[j], load<f64x2>(&row[j]) - factors * load<f64x2>(&pivot[j]));
  }
  if (j < width) row[j] -= factor * pivot[j];
}

double gauss_back_substitute(std::span<const double> row, std::span<const double> x,
                             std::size_t k) {
  const std::size_t n = x.size();
  double acc = row[n];
  for (std::size_t j = k + 1; j < n; ++j) acc -= row[j] * x[j];
  return acc / row[k];
}

AppFn make_gauss(GaussParams params) {
  return [params](AppContext& ctx) {
    const std::size_t n = params.n;
    const std::size_t nprocs = ctx.nprocs();
    const std::size_t width = n + 1;
    // Cyclic distribution: rank owns rows rank, rank+P, rank+2P, ...
    const std::size_t my_rows = (n + nprocs - 1 - ctx.rank()) / nprocs;

    auto& st = ctx.state<GaussState>();
    if (ctx.fresh()) {
      st.k = 0;
      st.kb = 0;
      st.phase = 0;
      st.rows.resize(my_rows * width);
      st.x.assign(n, 0.0);
      for (std::size_t local = 0; local < my_rows; ++local) {
        const std::size_t i = ctx.rank() + local * nprocs;
        for (std::size_t j = 0; j < n; ++j) st.rows[local * width + j] = matrix_entry(n, i, j);
        st.rows[local * width + n] = rhs_entry(n, i);
      }
    }
    ctx.register_value("k", st.k);
    ctx.register_value("kb", st.kb);
    ctx.register_value("phase", st.phase);
    ctx.register_vector("rows", st.rows);
    ctx.register_vector("x", st.x);
    ctx.ready();

    auto local_of = [&](std::size_t global) { return (global - ctx.rank()) / nprocs; };
    auto owner_of = [&](std::size_t global) { return static_cast<Rank>(global % nprocs); };

    if (st.phase == 0) {
      for (; st.k < n; ++st.k) {
        ctx.checkpoint_here();
        const Rank owner = owner_of(st.k);
        std::vector<std::byte> pivot_bytes;
        if (owner == ctx.rank()) {
          pivot_bytes = chklib::to_bytes(std::span<const double>(
              &st.rows[local_of(st.k) * width], width));
        }
        const auto pivot =
            chklib::vector_from_bytes<double>(ctx.broadcast(owner, std::move(pivot_bytes)));

        // Eliminate my rows with global index > k.
        std::size_t eliminated = 0;
        for (std::size_t local = 0; local < my_rows; ++local) {
          const std::size_t i = ctx.rank() + local * nprocs;
          if (i <= st.k) continue;
          ++eliminated;
        }
        ctx.compute(static_cast<double>(eliminated) * static_cast<double>(width - st.k) *
                    kGaussFlopsPerElement);
        for (std::size_t local = 0; local < my_rows; ++local) {
          const std::size_t i = ctx.rank() + local * nprocs;
          if (i <= st.k) continue;
          gauss_eliminate(std::span(st.rows).subspan(local * width, width), pivot, st.k);
        }
      }
      st.phase = 1;
    }

    // Back substitution: x_{n-1}, x_{n-2}, ... each broadcast by its owner.
    for (; st.kb < n; ++st.kb) {
      ctx.checkpoint_here();
      const std::size_t k = n - 1 - st.kb;
      const Rank owner = owner_of(k);
      std::vector<std::byte> xk_bytes;
      if (owner == ctx.rank()) {
        ctx.compute(static_cast<double>(n - k) * 2.0);
        const auto row = std::span<const double>(st.rows).subspan(local_of(k) * width, width);
        xk_bytes = chklib::to_bytes<double>(gauss_back_substitute(row, st.x, k));
      }
      st.x[k] = chklib::from_bytes<double>(ctx.broadcast(owner, std::move(xk_bytes)));
    }

    double partial = 0.0;
    if (ctx.rank() == 0) {
      for (double v : st.x) partial += quantize(v * 1000.0);
    }
    const double digest = ctx.allreduce_sum(partial);
    if (ctx.rank() == 0) ctx.report_result(digest);
  };
}

double gauss_reference_digest(const GaussParams& params) {
  const std::size_t n = params.n;
  const std::size_t width = n + 1;
  std::vector<double> a(n * width);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a[i * width + j] = matrix_entry(n, i, j);
    a[i * width + n] = rhs_entry(n, i);
  }
  auto row = [&](std::size_t i) { return std::span(a).subspan(i * width, width); };
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = k + 1; i < n; ++i) gauss_eliminate(row(i), row(k), k);
  }
  std::vector<double> x(n, 0.0);
  for (std::size_t kb = 0; kb < n; ++kb) {
    const std::size_t k = n - 1 - kb;
    x[k] = gauss_back_substitute(row(k), x, k);
  }
  double digest = 0.0;
  for (double v : x) digest += static_cast<double>(std::llround(v * 1000.0 * 1048576.0));
  return digest;
}

}  // namespace chk::apps
