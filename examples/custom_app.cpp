// Writing your own checkpointable application against the CHK-LIB API.
//
// The application below estimates pi by a distributed midpoint rule. It
// shows the full authoring pattern:
//   * persistent state via ctx.state<T>() (survives rollback restarts),
//   * (re)initialization guarded by ctx.fresh(),
//   * state registration + ctx.ready(),
//   * ctx.checkpoint_here() at the top of the main loop (the safe point),
//   * modelled computation via ctx.compute(flops),
//   * communication and a final reduction.
//
//   ./custom_app [--scheme=Coord_NBM] [--slices=2000000] [--chunks=50]
#include <cstdio>
#include <stdexcept>

#include "harness/experiment.hpp"
#include "util/cli.hpp"

namespace {

using namespace chk;
using chklib::AppContext;

struct PiState {
  std::uint32_t chunk = 0;
  double partial = 0.0;
};

chklib::AppFn make_pi_app(std::uint64_t slices, std::uint32_t chunks) {
  return [slices, chunks](AppContext& ctx) {
    auto& st = ctx.state<PiState>();
    if (ctx.fresh()) st = PiState{};
    ctx.register_value("chunk", st.chunk);
    ctx.register_value("partial", st.partial);
    ctx.ready();

    // Interleaved slice ownership: rank r integrates slices r, r+P, ...
    const double h = 1.0 / static_cast<double>(slices);
    for (; st.chunk < chunks; ++st.chunk) {
      ctx.checkpoint_here();  // safe point: state fully describes progress
      const std::uint64_t begin = slices * st.chunk / chunks;
      const std::uint64_t end = slices * (st.chunk + 1) / chunks;
      double acc = 0.0;
      std::uint64_t mine = 0;
      for (std::uint64_t i = begin + ctx.rank(); i < end; i += ctx.nprocs()) {
        const double x = (static_cast<double>(i) + 0.5) * h;
        acc += 4.0 / (1.0 + x * x);
        ++mine;
      }
      ctx.compute(static_cast<double>(mine) * 6.0);  // 6 flops per slice
      st.partial += acc * h;
    }

    const double pi = ctx.allreduce_sum(st.partial);
    if (ctx.rank() == 0) ctx.report_result(pi);
  };
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  harness::ExperimentConfig config;
  config.label = "PI";
  config.app =
      make_pi_app(static_cast<std::uint64_t>(cli.get_int("slices", 2'000'000, 1, 1'000'000'000)),
                  static_cast<std::uint32_t>(cli.get_int("chunks", 50, 1, 1'000'000)));
  config.scheme = chklib::scheme_from_string(cli.get("scheme", "Coord_NBM"));
  config.verify = util::verify_requested(cli);
  cli.reject_unread();

  const auto normal = harness::run_normal(config);
  config.interval = des::Duration::seconds(normal.exec_time_s / 4.0);

  // Also survive a failure, for good measure.
  config.failure = harness::FailureSpec{
      des::TimePoint::origin() + des::Duration::seconds(normal.exec_time_s * 0.5), 1};
  config.checkpoints = 0;
  const auto result = harness::run_experiment(config);

  std::printf("pi = %.12f (failure-free %.12f)\n", result.digest.value(),
              normal.digest.value());
  std::printf("normal %.2f s; with %s + one failure %.2f s; %zu recovery\n",
              normal.exec_time_s, std::string(to_string(config.scheme)).c_str(),
              result.exec_time_s, result.recoveries.size());
  if (result.digest != normal.digest) {
    std::fputs("ERROR: results differ\n", stderr);
    return 1;
  }
  std::puts("Recovered result identical. This is the whole authoring contract.");
  return 0;
} catch (const std::invalid_argument& err) {
  return util::usage_error(argv[0], err);
}
