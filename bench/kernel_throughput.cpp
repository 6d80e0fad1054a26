// DES-kernel throughput: raw events/sec as a first-class, regression-gated
// benchmark.
//
// At 1000+ ranks with transport timers and tracing armed, the kernel's
// event queue and allocation behaviour are the hot path — before the five
// schemes can be measured at scale, the simulator itself must be. Each
// cell of the sweep builds a Simulator + Network + reliable Transport at
// one rank count, drives an ack-heavy neighbour-ring message workload
// (every cumulative ack cancels and re-arms the sender's RTO timer — the
// exact churn pattern that used to bloat the heap with dead events), plus
// an optional synthetic watchdog-style timer-churn load, with tracing on
// or off. The measured wall-clock events/sec goes to stdout: each cell runs
// five times, and the table prints the median rate with its min-max. Under
// --quick each cell runs once and no rate is printed (its cells are too
// small to time). The JSON artifact holds only simulation-deterministic
// fields (event counts, trace hashes, queue high-water marks, compaction
// counts), so repeats are byte-identical and CI can `cmp` them across
// commits.
//
//   ./kernel_throughput [--ranks=8,64,256] [--churn=0,8] [--iters=300]
//                       [--json-out=BENCH_kernel.json] [--quick]
//
// Every message carries a 32-byte payload, and think times derive from
// seed 2026.
//
// Invariants checked in-driver (the run fails otherwise):
//   * tracing on/off never changes trace_hash or the executed-event count;
//   * a timed repeat of a cell reproduces its schedule exactly;
//   * every sent envelope is delivered exactly once;
//   * the queue's live size stays O(armed timers): the dead fraction is
//     bounded by the kernel's compaction threshold, not by traffic volume.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <chrono>  // chklint:allow(no-ambient-nondeterminism): wall-clock events/sec is the measurement; none of it reaches the JSON artifact.
#include <stdexcept>
#include <string>
#include <vector>

#include "chklib/comm/transport.hpp"
#include "des/process.hpp"
#include "des/simulator.hpp"
#include "obs/json.hpp"
#include "obs/export.hpp"
#include "obs/tracer.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "xplorer/config.hpp"
#include "xplorer/network.hpp"

namespace {

using namespace chk;

/// Payload bytes of every message, and the seed of the think times.
constexpr std::size_t kPayloadBytes = 32;
constexpr std::uint64_t kSeed = 2026;

struct CellConfig {
  std::size_t ranks = 8;
  std::size_t churn = 0;  ///< watchdog-style timers re-armed per iteration
  bool tracing = false;
  std::size_t iters = 300;
};

struct CellResult {
  std::uint64_t events = 0;
  std::uint64_t trace_hash = 0;
  std::int64_t end_time_ns = 0;
  std::uint64_t delivered = 0;
  std::size_t queue_peak = 0;
  std::uint64_t compactions = 0;
  std::uint64_t timers_armed = 0;
  std::uint64_t timers_cancelled = 0;
  double wall_s = 0;  ///< wall clock; stdout only, never serialized
  [[nodiscard]] double events_per_sec() const {
    return wall_s > 0 ? static_cast<double>(events) / wall_s : 0.0;
  }
  /// Every field but the wall clock matches: the same schedule ran.
  [[nodiscard]] bool same_schedule(const CellResult& o) const {
    return events == o.events && trace_hash == o.trace_hash && end_time_ns == o.end_time_ns &&
           delivered == o.delivered && queue_peak == o.queue_peak &&
           compactions == o.compactions && timers_armed == o.timers_armed &&
           timers_cancelled == o.timers_cancelled;
  }
};

/// Runs of each cell outside --quick. One run of a 256-rank cell swings by
/// a third between runs of one binary; the median of five is steadier, and
/// the printed min-max shows what is left of the spread.
constexpr int kTimedRuns = 5;

/// "median (min-max)" of the rates, rounded to whole events per second.
std::string rate_spread(std::vector<double> rates) {
  std::sort(rates.begin(), rates.end());
  return util::format("{:.0f} ({:.0f}-{:.0f})", rates[rates.size() / 2], rates.front(),
                      rates.back());
}

/// Deterministic per-(rank, iteration) think-time in [1, 5] us: enough
/// spread that sends interleave rather than batch, pure arithmetic so the
/// schedule is a function of the seed alone.
des::Duration think_time(std::size_t rank, std::size_t iter) {
  std::uint64_t state = kSeed ^ (static_cast<std::uint64_t>(rank) << 32) ^ iter;
  const std::uint64_t h = util::splitmix64(state);
  return des::Duration::nanos(1'000 + static_cast<std::int64_t>(h % 4'000));
}

CellResult run_cell(const CellConfig& cc) {
  des::Simulator sim;
  obs::Tracer tracer;
  if (cc.tracing) sim.set_tracer(&tracer);

  xplorer::MachineConfig mc;
  mc.num_nodes = cc.ranks;
  xplorer::Network net(sim, mc);
  chklib::Transport transport(sim, net);

  CellResult out;
  transport.set_deliver_app([&out](chklib::Envelope) { ++out.delivered; });

  // One process per rank: think, send to the ring neighbour (the ack path
  // cancels + re-arms the sender's RTO timer per delivery), and churn the
  // synthetic watchdog timers.
  std::vector<std::vector<des::EventHandle>> watchdogs(cc.ranks);
  for (std::size_t r = 0; r < cc.ranks; ++r) {
    watchdogs[r].resize(cc.churn);
    sim.spawn(util::format("rank{}", r), [&, r](des::Process& self) {
      for (std::size_t i = 0; i < cc.iters; ++i) {
        self.delay(think_time(r, i));
        chklib::Envelope env;
        env.src = r;
        env.dst = (r + 1) % cc.ranks;
        env.seq = i;
        env.payload.resize(kPayloadBytes);
        transport.send_app(std::move(env));
        // Watchdog churn: cancel last iteration's timers, arm fresh ones
        // far in the future. None ever fires — each becomes a dead heap
        // entry the kernel must reclaim without waiting 50 ms.
        for (des::EventHandle& h : watchdogs[r]) {
          h.cancel();
          h = sim.schedule_after(des::Duration::millis(50), [] {});
        }
      }
      for (des::EventHandle& h : watchdogs[r]) h.cancel();
    });
  }

  // chklint:allow(no-ambient-nondeterminism): wall-clock events/sec is the
  // measurement itself; none of it reaches the JSON artifact.
  const auto wall_start = std::chrono::steady_clock::now();
  const des::RunResult run = sim.run();
  const auto wall_end = std::chrono::steady_clock::now();  // chklint:allow(no-ambient-nondeterminism): see above.
  if (run.reason != des::StopReason::kIdle) {
    throw std::runtime_error(util::format("cell did not drain: {}", to_string(run.reason)));
  }

  out.events = sim.events_executed();
  out.trace_hash = sim.trace_hash();
  out.end_time_ns = sim.now().to_nanos();
  out.queue_peak = sim.queue_peak();
  out.compactions = sim.compactions();
  out.timers_armed = transport.stats().rto_armed;
  out.timers_cancelled = transport.stats().rto_cancelled;
  out.wall_s =
      std::chrono::duration<double>(wall_end - wall_start).count();
  return out;
}

/// A strict integer list flag whose every value must lie in [min, max].
std::vector<std::size_t> get_sizes(const util::Cli& cli, const std::string& key,
                                   const std::string& fallback, std::int64_t min,
                                   std::int64_t max) {
  std::vector<std::size_t> out;
  for (const std::int64_t v : cli.get_list<std::int64_t>(key, fallback)) {
    if (v < min || v > max) {
      throw std::invalid_argument(
          util::format("--{}: expected an integer in [{},{}], got {}", key, min, max, v));
    }
    out.push_back(static_cast<std::size_t>(v));
  }
  return out;
}

}  // namespace

// The cells run one after another: each measures wall-clock events/sec,
// which concurrent cells would distort.
int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  const bool quick = cli.get_bool("quick", false);

  const std::vector<std::size_t> ranks =
      get_sizes(cli, "ranks", quick ? "8,64" : "8,64,256", 2, 4096);
  const std::vector<std::size_t> churns = get_sizes(cli, "churn", "0,8", 0, 1024);
  const auto iters =
      static_cast<std::size_t>(cli.get_int("iters", quick ? 60 : 300, 1, 1'000'000));
  const std::string json_out = cli.get("json-out", "BENCH_kernel.json");
  cli.reject_unread();

  struct Row {
    CellConfig config;
    CellResult traced;    ///< the first run of each kind
    CellResult untraced;
    std::vector<double> traced_rates;  ///< events/sec of every run
    std::vector<double> untraced_rates;
  };
  bool all_ok = true;
  std::vector<Row> rows;
  for (const std::size_t r : ranks) {
    for (const std::size_t c : churns) {
      Row row;
      row.config = CellConfig{.ranks = r, .churn = c, .tracing = false, .iters = iters};
      CellConfig traced_config = row.config;
      traced_config.tracing = true;
      for (int run = 0; run < (quick ? 1 : kTimedRuns); ++run) {
        const CellResult untraced = run_cell(row.config);
        const CellResult traced = run_cell(traced_config);
        if (run == 0) {
          row.untraced = untraced;
          row.traced = traced;
        } else if (!untraced.same_schedule(row.untraced) || !traced.same_schedule(row.traced)) {
          std::fprintf(stderr,
                       "kernel_throughput: a repeat changed the schedule at ranks=%zu churn=%zu\n",
                       r, c);
          all_ok = false;
        }
        row.untraced_rates.push_back(untraced.events_per_sec());
        row.traced_rates.push_back(traced.events_per_sec());
      }
      rows.push_back(std::move(row));
    }
  }

  for (const Row& row : rows) {
    // Tracing is observation only: identical schedule, identical hash.
    if (row.traced.trace_hash != row.untraced.trace_hash ||
        row.traced.events != row.untraced.events ||
        row.traced.end_time_ns != row.untraced.end_time_ns) {
      std::fprintf(stderr, "kernel_throughput: tracing perturbed the schedule at ranks=%zu churn=%zu\n",
                   row.config.ranks, row.config.churn);
      all_ok = false;
    }
    // Exactly-once delivery of the whole request set.
    const auto expected = static_cast<std::uint64_t>(row.config.ranks * iters);
    if (row.traced.delivered != expected || row.untraced.delivered != expected) {
      std::fprintf(stderr, "kernel_throughput: lost deliveries at ranks=%zu churn=%zu\n",
                   row.config.ranks, row.config.churn);
      all_ok = false;
    }
    // Dead-event bound: the queue never holds more than compaction allows —
    // O(live timers), not O(cancelled traffic history).
    const std::uint64_t cancelled =
        row.untraced.timers_cancelled + static_cast<std::uint64_t>(row.config.churn) * iters * row.config.ranks;
    const std::size_t live_bound =
        row.config.ranks * (row.config.churn + 8) + 256;
    if (cancelled > 4 * live_bound && row.untraced.queue_peak > 2 * live_bound) {
      std::fprintf(stderr,
                   "kernel_throughput: heap bloat at ranks=%zu churn=%zu "
                   "(peak %zu vs live bound %zu, %llu cancels)\n",
                   row.config.ranks, row.config.churn, row.untraced.queue_peak,
                   live_bound, static_cast<unsigned long long>(cancelled));
      all_ok = false;
    }
  }

  // A --quick cell runs a few thousand events in about a millisecond, far
  // too short to time: its rate swings several-fold between runs of one
  // binary, so the quick table leaves the rate columns out.
  std::vector<std::string> header{"ranks", "churn", "events"};
  if (!quick) header.insert(header.end(), {"ev/s (plain)", "ev/s (traced)"});
  header.insert(header.end(), {"queue peak", "compactions", "rto arm/cancel"});
  util::Table table(std::move(header));
  for (const Row& row : rows) {
    std::vector<std::string> cells{std::to_string(row.config.ranks),
                                   std::to_string(row.config.churn),
                                   std::to_string(row.untraced.events)};
    if (!quick) {
      cells.push_back(rate_spread(row.untraced_rates));
      cells.push_back(rate_spread(row.traced_rates));
    }
    cells.push_back(std::to_string(row.untraced.queue_peak));
    cells.push_back(std::to_string(row.untraced.compactions));
    cells.push_back(util::format("{}/{}", row.untraced.timers_armed,
                                 row.untraced.timers_cancelled));
    table.add_row(std::move(cells));
  }
  std::fputs(table
                 .render(quick ? std::string("kernel_throughput --quick (no events/sec: these "
                                             "cells are too small to time)")
                               : util::format("kernel_throughput (events/sec on this machine's "
                                              "wall clock: median (min-max) of {} runs)",
                                              kTimedRuns))
                 .c_str(),
             stdout);

  // Deterministic artifact: simulation-schedule facts only (no wall clock).
  obs::json::Value doc = obs::json::Value::object();
  doc.set("table", obs::json::Value::string("kernel_throughput"));
  doc.set("seed", obs::json::Value::number(kSeed));
  doc.set("iters", obs::json::Value::number(static_cast<std::uint64_t>(iters)));
  doc.set("payload", obs::json::Value::number(std::uint64_t{kPayloadBytes}));
  doc.set("all_ok", obs::json::Value::boolean(all_ok));
  obs::json::Value cells = obs::json::Value::array();
  for (const Row& row : rows) {
    obs::json::Value cell = obs::json::Value::object();
    cell.set("ranks", obs::json::Value::number(static_cast<std::uint64_t>(row.config.ranks)));
    cell.set("churn", obs::json::Value::number(static_cast<std::uint64_t>(row.config.churn)));
    cell.set("events", obs::json::Value::number(row.untraced.events));
    cell.set("trace_hash", obs::json::Value::string(util::format("{:016x}", row.untraced.trace_hash)));
    cell.set("end_time_ns", obs::json::Value::number(row.untraced.end_time_ns));
    cell.set("delivered", obs::json::Value::number(row.untraced.delivered));
    cell.set("queue_peak", obs::json::Value::number(static_cast<std::uint64_t>(row.untraced.queue_peak)));
    cell.set("compactions", obs::json::Value::number(row.untraced.compactions));
    cell.set("rto_armed", obs::json::Value::number(row.untraced.timers_armed));
    cell.set("rto_cancelled", obs::json::Value::number(row.untraced.timers_cancelled));
    cell.set("traced_matches", obs::json::Value::boolean(
        row.traced.trace_hash == row.untraced.trace_hash));
    cells.push_back(std::move(cell));
  }
  doc.set("cells", std::move(cells));
  obs::write_text_file(json_out, doc.dump() + "\n");
  std::printf("wrote %s\n", json_out.c_str());
  return all_ok ? 0 : 1;
} catch (const std::invalid_argument& err) {
  return util::usage_error(argv[0], err);
}
