#include "apps/nbody.hpp"

#include <cmath>

#include "apps/lanes.hpp"

namespace chk::apps {

namespace {

constexpr int kTagRing = 3;

struct NbodyState {
  std::uint32_t iter = 0;
  std::vector<double> px, py, vx, vy, mass;
};

void init_block(NbodyState& st, std::size_t begin, std::size_t count) {
  st.px.resize(count);
  st.py.resize(count);
  st.vx.assign(count, 0.0);
  st.vy.assign(count, 0.0);
  st.mass.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t g = begin + i;
    st.px[i] = hash_unit(3 * g + 1);
    st.py[i] = hash_unit(3 * g + 2);
    st.mass[i] = 0.5 + hash_unit(3 * g + 3);
  }
}

std::vector<double> pack_block(const NbodyState& st) {
  std::vector<double> out(3 * st.px.size());
  for (std::size_t i = 0; i < st.px.size(); ++i) {
    out[3 * i] = st.px[i];
    out[3 * i + 1] = st.py[i];
    out[3 * i + 2] = st.mass[i];
  }
  return out;
}

double quantize(double v) { return static_cast<double>(std::llround(v * 1048576.0)); }

double digest_block(const NbodyState& st) {
  double acc = 0.0;
  for (std::size_t i = 0; i < st.px.size(); ++i) {
    acc += quantize(st.px[i]) + quantize(st.py[i]) + quantize(st.vx[i]) + quantize(st.vy[i]);
  }
  return acc;
}

}  // namespace

void nbody_accumulate(std::span<const double> px, std::span<const double> py,
                      std::span<const double> other, bool self_block, std::span<double> fx,
                      std::span<double> fy) {
  const std::size_t mine = px.size();
  const std::size_t theirs = other.size() / 3;
  const double eps2 = kNbodySoftening * kNbodySoftening;
  // Two bodies i per vector; an odd last body fills both lanes, and lane 1
  // is dropped. Each lane sums over j in ascending order.
  for (std::size_t i0 = 0; i0 < mine; i0 += 2) {
    const std::size_t i1 = i0 + 1 < mine ? i0 + 1 : i0;
    const f64x2 x = {px[i0], px[i1]};
    const f64x2 y = {py[i0], py[i1]};
    f64x2 ax = {0.0, 0.0};
    f64x2 ay = {0.0, 0.0};
    for (std::size_t j = 0; j < theirs; ++j) {
      const f64x2 dx = other[3 * j] - x;
      const f64x2 dy = other[3 * j + 1] - y;
      const f64x2 r2 = dx * dx + dy * dy + eps2;
      const f64x2 root = {std::sqrt(r2[0]), std::sqrt(r2[1])};
      const f64x2 inv = 1.0 / (r2 * root);
      const f64x2 s = other[3 * j + 2] * inv;
      f64x2 tx = s * dx;
      f64x2 ty = s * dy;
      if (self_block) {
        // A body exerts no force on itself. Its lane adds +0.0 instead,
        // which is exact: the sum starts at +0.0 and, rounding to
        // nearest, never becomes -0.0.
        if (j == i0) tx[0] = ty[0] = 0.0;
        if (j == i1) tx[1] = ty[1] = 0.0;
      }
      ax += tx;
      ay += ty;
    }
    fx[i0] += ax[0];
    fy[i0] += ay[0];
    if (i1 != i0) {
      fx[i1] += ax[1];
      fy[i1] += ay[1];
    }
  }
}

AppFn make_nbody(NbodyParams params) {
  return [params](AppContext& ctx) {
    const std::size_t nprocs = ctx.nprocs();
    const Block block = block_range(params.bodies, nprocs, ctx.rank());

    auto& st = ctx.state<NbodyState>();
    if (ctx.fresh()) {
      st.iter = 0;
      init_block(st, block.begin, block.size());
    }
    ctx.register_value("iter", st.iter);
    ctx.register_vector("px", st.px);
    ctx.register_vector("py", st.py);
    ctx.register_vector("vx", st.vx);
    ctx.register_vector("vy", st.vy);
    ctx.register_vector("mass", st.mass);
    ctx.ready();

    const Rank right = (ctx.rank() + 1) % nprocs;
    const Rank left = (ctx.rank() + nprocs - 1) % nprocs;

    for (; st.iter < params.steps; ++st.iter) {
      ctx.checkpoint_here();
      std::vector<double> fx(st.px.size(), 0.0), fy(st.px.size(), 0.0);
      std::vector<double> buffer = pack_block(st);
      for (std::size_t shift = 0; shift < nprocs; ++shift) {
        ctx.compute(static_cast<double>(st.px.size()) *
                    static_cast<double>(buffer.size() / 3) * kNbodyFlopsPerPair);
        nbody_accumulate(st.px, st.py, buffer, shift == 0, fx, fy);
        if (shift + 1 < nprocs) {
          ctx.send_span<double>(right, kTagRing, std::span<const double>(buffer));
          buffer = ctx.recv_vector<double>(static_cast<int>(left), kTagRing);
        }
      }
      ctx.compute(static_cast<double>(st.px.size()) * kNbodyFlopsPerBody);
      for (std::size_t i = 0; i < st.px.size(); ++i) {
        st.vx[i] += kNbodyDt * fx[i] / st.mass[i];
        st.vy[i] += kNbodyDt * fy[i] / st.mass[i];
        st.px[i] += kNbodyDt * st.vx[i];
        st.py[i] += kNbodyDt * st.vy[i];
      }
    }

    const double digest = ctx.allreduce_sum(digest_block(st));
    if (ctx.rank() == 0) ctx.report_result(digest);
  };
}

double nbody_reference_digest(const NbodyParams& params, std::size_t nprocs) {
  // Mimic the per-rank block structure and ring accumulation order so the
  // floating-point result matches the parallel run exactly.
  std::vector<NbodyState> blocks(nprocs);
  for (std::size_t r = 0; r < nprocs; ++r) {
    const Block b = block_range(params.bodies, nprocs, r);
    init_block(blocks[r], b.begin, b.size());
  }
  for (std::uint32_t step = 0; step < params.steps; ++step) {
    std::vector<std::vector<double>> forces_x(nprocs), forces_y(nprocs);
    for (std::size_t r = 0; r < nprocs; ++r) {
      forces_x[r].assign(blocks[r].px.size(), 0.0);
      forces_y[r].assign(blocks[r].px.size(), 0.0);
      for (std::size_t shift = 0; shift < nprocs; ++shift) {
        const std::size_t src = (r + nprocs - shift) % nprocs;
        nbody_accumulate(blocks[r].px, blocks[r].py, pack_block(blocks[src]), shift == 0,
                         forces_x[r], forces_y[r]);
      }
    }
    for (std::size_t r = 0; r < nprocs; ++r) {
      NbodyState& st = blocks[r];
      for (std::size_t i = 0; i < st.px.size(); ++i) {
        st.vx[i] += kNbodyDt * forces_x[r][i] / st.mass[i];
        st.vy[i] += kNbodyDt * forces_y[r][i] / st.mass[i];
        st.px[i] += kNbodyDt * st.vx[i];
        st.py[i] += kNbodyDt * st.vy[i];
      }
    }
  }
  double digest = 0.0;
  for (const auto& block : blocks) digest += digest_block(block);
  return digest;
}

}  // namespace chk::apps
