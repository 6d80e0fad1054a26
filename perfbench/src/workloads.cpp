#include "workloads.hpp"

#include <exception>
#include <optional>
#include <stdexcept>
#include <utility>

#include "apps/asp.hpp"
#include "apps/gauss.hpp"
#include "apps/nbody.hpp"
#include "apps/nqueens.hpp"
#include "apps/sor.hpp"
#include "apps/tsp.hpp"
#include "harness/catalog.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using chk::des::Duration;
using chk::harness::ExperimentConfig;
using chk::harness::Scheme;

/// The five schemes of the paper's tables, in table order.
constexpr Scheme kSchemes[] = {Scheme::kCoordNB, Scheme::kCoordNBM, Scheme::kCoordNBMS,
                               Scheme::kIndep, Scheme::kIndepM};

/// Schemes that get crash cells. The buffered coordinated schemes
/// (Coord_NBM, Coord_NBMS) are left out: some crash instants stall their
/// recovery for good (a deadlock on the oracle path, a watchdog livelock
/// with membership or lossy links; see perfbench/README.md), and a cell
/// that cannot finish measures nothing.
constexpr Scheme kCrashSchemes[] = {Scheme::kCoordNB, Scheme::kIndep, Scheme::kIndepM};

/// Experiment seed of group `index`: every random stream of a cell (svc
/// arrivals, independent-scheme jitter, link faults, crash placement) is
/// forked from it, so the workload seed alone fixes every input.
std::uint64_t group_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t state = seed * 0x100000001b3ull + index;
  return chk::util::splitmix64(state);
}

/// Uniform draw in [0, 1) from a seed and a tag.
double unit_draw(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t state = seed ^ (tag * 0xbf58476d1ce4e5b9ull);
  return static_cast<double>(chk::util::splitmix64(state) >> 11) * 0x1.0p-53;
}

/// What one group of cells is built from.
struct GroupSpec {
  std::string label;
  ExperimentConfig base;
  std::function<double()> reference;
  std::string reference_layer = "apps";
  double interval_of_normal = 0;
  /// svc groups: parameters to rebuild the app per cell (each cell gets its
  /// own metrics sink).
  std::optional<chk::svc::SvcParams> svc;
  /// Configure a checkpointed cell without crashes.
  std::function<void(ExperimentConfig&)> checkpoint_faults;
  /// Configure a crash cell; unset = the group has none.
  std::function<void(ExperimentConfig&)> crash_faults;
};

/// Adds a group: its NORMAL cell plus one cell per scheme (and, with
/// `crash_faults`, one per crash scheme that crashes a rank once).
void add_group(Workload& w, GroupSpec spec) {
  const std::size_t g = w.groups.size();
  w.groups.push_back(Group{spec.label, spec.reference, spec.reference_layer});
  auto make_cell = [&](std::string suffix, CellKind kind, Scheme scheme) {
    Cell cell;
    cell.id = spec.label + "/" + std::move(suffix);
    cell.group = g;
    cell.kind = kind;
    cell.config = spec.base;
    cell.config.scheme = scheme;
    if (spec.svc.has_value()) {
      chk::svc::SvcParams params = *spec.svc;
      cell.svc = std::make_shared<chk::svc::SvcMetrics>();
      params.sink = cell.svc;
      cell.config.app = chk::svc::make_svc(params);
    }
    if (kind != CellKind::kNormal) cell.interval_of_normal = spec.interval_of_normal;
    return cell;
  };
  w.cells.push_back(make_cell("NORMAL", CellKind::kNormal, Scheme::kNone));
  for (const Scheme scheme : kSchemes) {
    Cell cell = make_cell(std::string(to_string(scheme)), CellKind::kCheckpoint, scheme);
    if (spec.checkpoint_faults) spec.checkpoint_faults(cell.config);
    w.cells.push_back(std::move(cell));
  }
  if (spec.crash_faults) {
    for (const Scheme scheme : kCrashSchemes) {
      Cell cell = make_cell(std::string(to_string(scheme)) + "+crash", CellKind::kCrash, scheme);
      spec.crash_faults(cell.config);
      w.cells.push_back(std::move(cell));
    }
  }
}

/// Simulator-free reference digest of a Table 2/3 catalog row, by label
/// (the parameters mirror harness/catalog.cpp); empty for ISING, which has
/// no reference.
std::function<double()> catalog_reference(const std::string& label, std::size_t ranks) {
  const auto dash = label.find('-');
  const std::string app = label.substr(0, dash);
  const std::size_t n = dash == std::string::npos ? 0 : std::stoul(label.substr(dash + 1));
  if (app == "SOR") return [n] { return chk::apps::sor_reference_digest({.n = n, .iterations = 100}); };
  if (app == "GAUSS") return [n] { return chk::apps::gauss_reference_digest({.n = n}); };
  if (app == "ASP") return [n] { return chk::apps::asp_reference_digest({.n = n}); };
  if (app == "NBODY") {
    return [n, ranks] {
      return chk::apps::nbody_reference_digest({.bodies = n, .steps = 10}, ranks);
    };
  }
  if (app == "TSP") return [] { return chk::apps::tsp_reference_digest({}); };
  if (app == "NQUEENS") {
    return [n] {
      return static_cast<double>(chk::apps::nqueens_reference_count(static_cast<std::uint32_t>(n)));
    };
  }
  return {};
}

/// paper_tables: the Table 2/3 catalog rows on 8 ranks, NORMAL plus the
/// five schemes, fault-free, three checkpoints at a quarter of the NORMAL
/// execution time (the table benches' recipe). The two ISING rows are left
/// out: they are pure application compute without a reference digest and
/// would triple the pass length.
Workload paper_tables(std::uint64_t seed, bool tiny) {
  Workload w;
  w.name = "paper_tables";
  w.ranks = 8;
  std::vector<chk::harness::BenchRow> rows;
  if (tiny) {
    rows.push_back({"SOR-128", chk::apps::make_sor({.n = 128, .iterations = 20}), 0});
    rows.push_back({"GAUSS-96", chk::apps::make_gauss({.n = 96}), 0});
  } else {
    for (auto& row : chk::harness::table23_rows()) {
      if (row.label.rfind("ISING", 0) != 0) rows.push_back(std::move(row));
    }
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    GroupSpec spec;
    spec.label = rows[i].label;
    spec.base.label = rows[i].label;
    spec.base.app = rows[i].app;
    spec.base.machine.num_nodes = w.ranks;
    spec.base.seed = group_seed(seed, i);
    spec.base.checkpoints = 3;
    spec.interval_of_normal = 0.25;
    if (tiny) {
      const std::size_t n = i == 0 ? 128 : 96;
      spec.reference = i == 0 ? std::function<double()>([n] {
        return chk::apps::sor_reference_digest({.n = n, .iterations = 20});
      })
                              : std::function<double()>([n] {
                                  return chk::apps::gauss_reference_digest({.n = n});
                                });
    } else {
      spec.reference = catalog_reference(rows[i].label, w.ranks);
    }
    add_group(w, std::move(spec));
  }
  return w;
}

/// rank_scale: the kernel_scale_test cell at 256 ranks — SOR n=256, six
/// iterations, two checkpoints 200 ms apart — as NORMAL plus five schemes.
Workload rank_scale(std::uint64_t seed, bool tiny) {
  Workload w;
  w.name = "rank_scale";
  w.ranks = tiny ? 16 : 256;
  const chk::apps::SorParams sor{.n = tiny ? 64u : 256u, .iterations = tiny ? 3u : 6u};
  GroupSpec spec;
  spec.label = "SOR-scale";
  spec.base.label = spec.label;
  spec.base.app = chk::apps::make_sor(sor);
  spec.base.machine.num_nodes = w.ranks;
  spec.base.seed = group_seed(seed, 0);
  spec.base.checkpoints = 2;
  spec.base.interval = Duration::millis(tiny ? 2 : 200);
  spec.reference = [sor] { return chk::apps::sor_reference_digest(sor); };
  add_group(w, std::move(spec));
  return w;
}

/// svc_faults: the KV store on 8 ranks, open-loop Poisson arrivals, phi-
/// accrual membership on every checkpointed cell. Each scheme runs one cell
/// over 5 % lossy links under the reliable transport; each crash scheme
/// runs one more cell, on perfect links, that crashes a seed-drawn rank
/// once at a seed-drawn instant.
Workload svc_faults(std::uint64_t seed, bool tiny) {
  Workload w;
  w.name = "svc_faults";
  w.ranks = 8;
  w.overhead_is_blocked_share = true;
  chk::svc::SvcParams params;
  params.arrival_hz = tiny ? 60.0 : 300.0;
  params.horizon_s = tiny ? 1.0 : 4.0;
  const double interval_s = tiny ? 0.2 : 0.8;

  chk::chklib::membership::MembershipConfig membership;
  membership.detector = chk::chklib::membership::Detector::kPhiAccrual;
  membership.detect_timeout = Duration::millis(600);
  membership.hb_period = Duration::millis(250);

  GroupSpec spec;
  spec.label = "svc";
  spec.base.label = spec.label;
  spec.base.machine.num_nodes = w.ranks;
  spec.base.seed = group_seed(seed, 0);
  spec.base.interval = Duration::seconds(interval_s);
  spec.base.checkpoints = 0;  // checkpoint until the service drains
  spec.svc = params;
  spec.reference_layer = "svc";
  spec.reference = [params, ranks = w.ranks, s = spec.base.seed] {
    return chk::svc::svc_reference_digest(params, ranks, s);
  };
  spec.checkpoint_faults = [membership](ExperimentConfig& c) {
    chk::chklib::LinkFaultConfig links;
    links.drop = 0.05;
    c.link_faults = links;
    c.reliable_transport = true;
    c.membership = membership;
  };
  // The crash lands in the middle 40 % of the arrival horizon, after the
  // first checkpoint and well before the drain.
  const double crash_at = params.horizon_s * (0.3 + 0.4 * unit_draw(spec.base.seed, 1));
  const auto crash_rank =
      static_cast<chk::chklib::Rank>(unit_draw(spec.base.seed, 2) * static_cast<double>(w.ranks));
  spec.crash_faults = [membership, crash_at, crash_rank](ExperimentConfig& c) {
    c.membership = membership;
    c.failure = chk::harness::FailureSpec{
        chk::des::TimePoint::origin() + Duration::seconds(crash_at), crash_rank};
  };
  add_group(w, std::move(spec));
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed, bool tiny) {
  Workload w;
  if (name == "paper_tables") {
    w = paper_tables(seed, tiny);
  } else if (name == "rank_scale") {
    w = rank_scale(seed, tiny);
  } else if (name == "svc_faults") {
    w = svc_faults(seed, tiny);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  // A cell that has not finished after this many events is livelocked;
  // stop it and count it as failed instead of hanging the run.
  for (Cell& cell : w.cells) cell.config.max_events = std::uint64_t{1} << 23;
  // Set-up probe: the first scheme cell's machine, scheme and fault
  // configuration, with ranks that return at once and no crash.
  w.setup_config = w.cells.at(1).config;
  w.setup_config.label = "setup";
  w.setup_config.app = [](chk::chklib::AppContext&) {};
  w.setup_config.failure.reset();
  w.setup_config.faults.reset();
  return w;
}

CellRun run_cell(const Cell& cell, const CellRun* normal, bool traced) {
  CellRun out;
  ExperimentConfig config = cell.config;
  config.observe = traced;
  config.verify = traced;
  if (cell.interval_of_normal > 0 && normal != nullptr && normal->ran) {
    config.interval = Duration::seconds(normal->result.exec_time_s * cell.interval_of_normal);
  }
  if (cell.svc) *cell.svc = chk::svc::SvcMetrics{};
  try {
    out.result = chk::harness::run_experiment(config);
    out.ran = true;
  } catch (const std::exception& err) {
    out.error = err.what();
  }
  if (cell.svc) out.svc = *cell.svc;
  return out;
}

}  // namespace perfbench
