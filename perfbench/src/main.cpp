// perfbench: host cost and simulated overhead of the simulator on named
// workloads, with a traced pass that splits the host time by layer.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--no-pin] [--pinned <file>] [--pin-out <file>]
//             [--spans-out <file>]
//
// A run builds the workload's cells from the seed, then repeats untraced
// passes over every cell, each after a batch of the set-up probe, until
// --seconds have gone by. With --trace 1 it adds one traced pass (obs tracer and verify
// monitor on, spans recorded around every call into a layer) and the
// per-layer probes. Every cell is checked; the last line of stdout is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Metrics are
// the end-to-end set with --trace 0 and the per-layer set with --trace 1.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <sched.h>

#include "obs/attribution.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "probes.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using chk::obs::json::Value;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  bool pin = true;
  std::string pinned;
  std::string pin_out;
  std::string spans_out;
};

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (arg == "--tiny") {
      o.tiny = true;
    } else if (arg == "--no-pin") {
      o.pin = false;
    } else if (arg == "--pinned") {
      o.pinned = value();
    } else if (arg == "--pin-out") {
      o.pin_out = value();
    } else if (arg == "--spans-out") {
      o.spans_out = value();
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(o.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
  return o;
}

/// Pins the process to one CPU; rank threads spawned later inherit the
/// mask. The simulator runs one thread at a time, so one CPU loses no
/// parallelism, and baton handoffs between threads on one CPU avoid
/// cross-CPU wake-ups. On a shared host the CPUs' handoff costs differ
/// from moment to moment, so the CPU with the cheapest handoff at start-up
/// is chosen by a short des.switch probe on each. Returns the CPU, or -1
/// when the mask could not be changed.
int pin_to_one_cpu(double& switch_ns) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  int best = -1;
  double best_ns = 0;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) continue;
    const double ns = probe_switch_ns(2000);
    if (best < 0 || ns < best_ns) {
      best = c;
      best_ns = ns;
    }
  }
  if (best < 0) return -1;
  switch_ns = best_ns;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(best, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0 ? best : -1;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// 10th percentile. Set-up times within one run are bimodal, and the
/// share of each mode changes from run to run: the median jumps between
/// the modes, the low decile stays on the fast one.
double low_decile(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 10];
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// One pass over every cell of the workload.
struct Pass {
  std::vector<CellRun> runs;
  std::vector<double> cell_wall_s;
  double wall_s = 0;
  double cpu_s = 0;
  double sys_s = 0;
  double switches = 0;
  double events = 0;
};

/// Host costs of the obs layer, measured on the traced pass.
struct ObsCost {
  std::uint64_t trace_events = 0;
  double attribute_s = 0;
  double export_s = 0;
  std::vector<chk::obs::AttributionReport> attribution;  ///< per cell
};

Pass run_pass(const Workload& w, bool traced, SpanLog& log, ObsCost* obs_cost) {
  Pass pass;
  pass.runs.resize(w.cells.size());
  pass.cell_wall_s.resize(w.cells.size());
  if (obs_cost != nullptr) obs_cost->attribution.resize(w.cells.size());
  std::vector<std::size_t> normal_of(w.groups.size(), 0);
  const Usage u0 = Usage::now();
  const auto start = Clock::now();
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    const Cell& cell = w.cells[i];
    const int id = static_cast<int>(i);
    Scope cell_span(log, "bench.cell", id);
    if (cell.kind == CellKind::kNormal) normal_of[cell.group] = i;
    const CellRun* normal = cell.kind == CellKind::kNormal ? nullptr : &pass.runs[normal_of[cell.group]];
    const auto cell_start = Clock::now();
    {
      Scope run_span(log, "harness.run_experiment", id);
      pass.runs[i] = run_cell(cell, normal, traced);
    }
    pass.cell_wall_s[i] = seconds_since(cell_start);
    CellRun& run = pass.runs[i];
    pass.events += static_cast<double>(run.result.events);
    if (obs_cost != nullptr && run.ran && run.result.obs.has_value()) {
      const chk::obs::Trace& trace = run.result.obs->trace;
      obs_cost->trace_events += trace.events.size();
      auto t = Clock::now();
      {
        Scope s(log, "obs.attribute", id);
        obs_cost->attribution[i] = chk::obs::attribute(trace, w.ranks);
      }
      obs_cost->attribute_s += seconds_since(t);
      t = Clock::now();
      {
        Scope s(log, "obs.export", id);
        const std::string chrome = chk::obs::to_chrome_trace(trace, w.ranks).dump();
        const std::string metrics = chk::obs::metrics_to_json(run.result.obs->metrics).dump();
        if (chrome.empty() || metrics.empty()) throw std::logic_error("empty export");
      }
      obs_cost->export_s += seconds_since(t);
      // The event stream is not needed past this point; keep memory flat.
      run.result.obs->trace = chk::obs::Trace{};
    }
  }
  pass.wall_s = seconds_since(start);
  const Usage u1 = Usage::now();
  pass.cpu_s = (u1.user_s - u0.user_s) + (u1.sys_s - u0.sys_s);
  pass.sys_s = u1.sys_s - u0.sys_s;
  pass.switches = static_cast<double>(u1.voluntary_switches - u0.voluntary_switches);
  return pass;
}

/// Pinned trace hashes: {"<workload>": {"<seed>": {"<cell id>": "0x..."}}}.
std::map<std::string, std::string> load_pins(const Options& o) {
  std::map<std::string, std::string> pins;
  if (o.pinned.empty() || o.tiny) return pins;
  std::ifstream in(o.pinned);
  if (!in) return pins;
  std::stringstream text;
  text << in.rdbuf();
  const Value doc = Value::parse(text.str());
  const std::string seed = std::to_string(o.seed);
  if (!doc.contains(o.workload) || !doc.at(o.workload).contains(seed)) return pins;
  for (const auto& [cell, hash] : doc.at(o.workload).at(seed).members()) {
    pins[cell] = hash.as_string();
  }
  return pins;
}

struct Verdicts {
  std::vector<std::vector<std::string>> reasons;  ///< per cell
  std::size_t failed() const {
    return static_cast<std::size_t>(std::count_if(reasons.begin(), reasons.end(),
                                                  [](const auto& r) { return !r.empty(); }));
  }
};

Verdicts check(const Workload& w, const std::vector<Pass>& passes, const Pass* traced,
               const std::vector<std::optional<double>>& references,
               const std::map<std::string, std::string>& pins) {
  Verdicts v;
  v.reasons.resize(w.cells.size());
  const Pass& first = passes.front();
  std::vector<std::optional<double>> normal_digest(w.groups.size());
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    if (w.cells[i].kind == CellKind::kNormal && first.runs[i].ran) {
      normal_digest[w.cells[i].group] = first.runs[i].result.digest;
    }
  }
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    const Cell& cell = w.cells[i];
    auto& why = v.reasons[i];
    const CellRun& run = first.runs[i];
    for (const Pass& p : passes) {
      if (!p.runs[i].ran) why.push_back("threw: " + p.runs[i].error);
    }
    if (!why.empty()) continue;
    const auto& r = run.result;
    for (const Pass& p : passes) {
      const auto& o = p.runs[i].result;
      if (o.trace_hash != r.trace_hash || o.events != r.events || o.exec_time_s != r.exec_time_s) {
        why.push_back("pass-to-pass trace_hash/events/exec_time_s differ");
        break;
      }
    }
    if (!r.digest.has_value()) {
      why.push_back("no result digest");
    } else {
      if (normal_digest[cell.group] != r.digest) why.push_back("digest differs from NORMAL");
      if (references[cell.group].has_value() && *references[cell.group] != *r.digest) {
        why.push_back("digest differs from the simulator-free reference");
      }
    }
    if (cell.svc && (run.svc.issued == 0 || run.svc.completed != run.svc.issued)) {
      why.push_back("svc completed != issued");
    }
    if (const auto pin = pins.find(cell.id); pin != pins.end() && pin->second != hex(r.trace_hash)) {
      why.push_back("trace_hash " + hex(r.trace_hash) + " != pinned " + pin->second);
    }
    if (traced != nullptr) {
      const CellRun& t = traced->runs[i];
      if (!t.ran) {
        why.push_back("traced pass threw: " + t.error);
      } else {
        if (t.result.invariant_violations > 0) why.push_back("invariant violations");
        if (t.result.trace_hash != r.trace_hash || t.result.events != r.events ||
            t.result.exec_time_s != r.exec_time_s) {
          why.push_back("traced pass differs from untraced (trace_hash/events/exec_time_s)");
        }
      }
    }
  }
  return v;
}

/// Metric sink: prints "name value unit" and collects the JSON object.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    std::printf("  %-32s %.6g %s\n", name.c_str(), value, unit.c_str());
    Value m = Value::object();
    m.set("value", Value::number(value));
    m.set("unit", Value::string(unit));
    doc_.set(name, std::move(m));
  }
  [[nodiscard]] Value take() { return std::move(doc_); }

 private:
  Value doc_ = Value::object();
};

chk::obs::HistogramSnapshot merged_latency(const Workload& w, const Pass& pass) {
  chk::obs::HistogramSnapshot snap;
  snap.edges = chk::obs::LogHistogram::make_edges(chk::svc::kLatMinExp, chk::svc::kLatMaxExp, 1e-9);
  snap.counts.assign(chk::svc::kLatBuckets, 0);
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    if (!w.cells[i].svc || w.cells[i].kind == CellKind::kNormal) continue;
    const auto& counts = pass.runs[i].svc.latency_counts;
    for (std::size_t b = 0; b < counts.size() && b < snap.counts.size(); ++b) {
      snap.counts[b] += counts[b];
      snap.total_count += counts[b];
    }
    snap.sum += static_cast<double>(pass.runs[i].svc.latency_sum_ns) * 1e-9;
  }
  return snap;
}

int run(const Options& o) {
  double cpu_switch_ns = 0;
  const int cpu = o.pin ? pin_to_one_cpu(cpu_switch_ns) : -1;
  Workload w = make_workload(o.workload, o.seed, o.tiny);
  SpanLog log(o.trace);
  std::printf("perfbench workload=%s seed=%llu cells=%zu ranks=%zu trace=%d cpu=%d (%.0f ns/switch)%s\n",
              w.name.c_str(), static_cast<unsigned long long>(o.seed), w.cells.size(), w.ranks,
              o.trace ? 1 : 0, cpu, cpu_switch_ns, o.tiny ? " tiny" : "");

  // Set-up probe: machine build, rank spawn and teardown. One batch comes
  // before the first pass and a short one before each later pass, so the
  // repetitions sample the whole run rather than its first second.
  std::vector<double> setup;
  auto setup_batch = [&](std::size_t min_reps, double min_s) {
    Scope s(log, "bench.setup");
    const auto batch_start = Clock::now();
    std::size_t reps = 0;
    while (reps < min_reps || (seconds_since(batch_start) < min_s && reps < 1000)) {
      Scope run_span(log, "harness.run_experiment");
      const auto start = Clock::now();
      const auto result = chk::harness::run_experiment(w.setup_config);
      setup.push_back(seconds_since(start));
      ++reps;
      if (result.exec_time_s != 0) throw std::logic_error("set-up probe app did not return at once");
    }
  };

  // Untraced passes: the end-to-end host metrics.
  std::vector<Pass> passes;
  const auto measure_start = Clock::now();
  {
    SpanLog off(false);
    do {
      if (passes.empty()) {
        setup_batch(o.tiny ? 3 : 11, o.tiny ? 0.0 : 0.5);
      } else if (!o.tiny) {
        setup_batch(3, 0.2);
      }
      passes.push_back(run_pass(w, /*traced=*/false, off, nullptr));
    } while (seconds_since(measure_start) < o.seconds);
  }
  const double peak_rss_mb = static_cast<double>(Usage::now().max_rss_kib) / 1024.0;

  // Simulator-free references.
  std::vector<std::optional<double>> references(w.groups.size());
  double reference_s = 0;
  {
    Scope s(log, "bench.references");
    for (std::size_t g = 0; g < w.groups.size(); ++g) {
      if (!w.groups[g].reference) continue;
      Scope ref_span(log, w.groups[g].reference_layer + ".reference_digest");
      const auto start = Clock::now();
      references[g] = w.groups[g].reference();
      reference_s += seconds_since(start);
    }
  }

  // Traced pass.
  std::optional<Pass> traced;
  ObsCost obs_cost;
  if (o.trace) {
    Scope s(log, "bench.traced_pass");
    traced = run_pass(w, /*traced=*/true, log, &obs_cost);
  }

  const auto pins = load_pins(o);
  const Verdicts verdicts = check(w, passes, traced ? &*traced : nullptr, references, pins);
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    for (const std::string& why : verdicts.reasons[i]) {
      std::printf("FAILED %s: %s\n", w.cells[i].id.c_str(), why.c_str());
    }
  }
  const std::size_t failed = verdicts.failed();
  const Pass& first = passes.front();

  // Simulated overhead: mean over the checkpointed crash-free cells of the
  // completion-time overhead, or for a service (whose completion time the
  // arrival horizon fixes) of the share of rank time checkpoints block.
  double overhead_sum = 0;
  std::size_t overhead_cells = 0;
  std::vector<double> normal_exec(w.groups.size(), 0);
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    const Cell& cell = w.cells[i];
    const auto& r = first.runs[i].result;
    const double normal = normal_exec[cell.group];
    if (cell.kind == CellKind::kNormal) normal_exec[cell.group] = r.exec_time_s;
    if (cell.kind != CellKind::kCheckpoint || normal <= 0) continue;
    if (w.overhead_is_blocked_share) {
      const double blocked = r.app_blocked_s + r.frozen_stall_s + r.interference_s;
      overhead_sum += blocked / (normal * static_cast<double>(w.ranks)) * 100.0;
    } else {
      overhead_sum += (r.exec_time_s / normal - 1.0) * 100.0;
    }
    ++overhead_cells;
  }
  const double overhead_pct = overhead_cells == 0 ? 0 : overhead_sum / static_cast<double>(overhead_cells);

  auto over_passes = [&](auto field) {
    std::vector<double> v;
    for (const Pass& p : passes) v.push_back(field(p));
    return median(v);
  };
  const double wall_s = over_passes([](const Pass& p) { return p.wall_s; });
  const bool has_svc = std::any_of(w.cells.begin(), w.cells.end(), [](const Cell& c) { return c.svc != nullptr; });
  const auto latency = merged_latency(w, first);

  std::printf("passes=%zu failed=%zu/%zu failed_frac=%.6g\n", passes.size(), failed, w.cells.size(),
              static_cast<double>(failed) / static_cast<double>(w.cells.size()));
  std::printf("pass wall_s:");
  for (const Pass& p : passes) std::printf(" %.4f", p.wall_s);
  std::printf("\n");
  if (has_svc) {
    std::printf("svc_p99_ms=%.6g sim_ms (merged over %llu requests of the checkpointed cells)\n",
                chk::obs::histogram_quantile(latency, 0.99) * 1e3,
                static_cast<unsigned long long>(latency.total_count));
  }

  Metrics metrics;
  if (!o.trace) {
    std::printf("end-to-end (untraced passes; host medians over passes):\n");
    metrics.add("wall_s", wall_s, "s");
    metrics.add("events_per_s", over_passes([](const Pass& p) { return p.events / p.wall_s; }), "ev/s");
    metrics.add("cpu_s", over_passes([](const Pass& p) { return p.cpu_s; }), "s");
    metrics.add("peak_rss_mb", peak_rss_mb, "MiB");
    metrics.add("setup_s", low_decile(setup), "s");
    metrics.add("ckpt_overhead_pct", overhead_pct, "%");
  } else {
    // Per-layer counts, summed over the cells of one (untraced) pass.
    double sum_bytes = 0, sum_images = 0, app_msgs = 0, ctl_msgs = 0, retx = 0, drops = 0;
    double disk_wait = 0, link_busy = 0, rec_count = 0, rec_latency = 0, rec_bytes = 0;
    double heartbeats = 0, detections = 0, wrongful = 0, detect_sum = 0, detect_n = 0;
    double checks = 0, violations = 0, issued = 0, completed = 0;
    std::vector<double> image_bytes;
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
      const auto& r = first.runs[i].result;
      sum_bytes += static_cast<double>(r.bytes_written);
      sum_images += static_cast<double>(r.image_log.size());
      for (const auto& img : r.image_log) image_bytes.push_back(static_cast<double>(img.bytes));
      app_msgs += static_cast<double>(r.app_messages);
      ctl_msgs += static_cast<double>(r.control_messages);
      retx += static_cast<double>(r.retransmits);
      drops += static_cast<double>(r.link_drops);
      disk_wait += r.disk_wait_s;
      link_busy += r.link_busy_s;
      rec_count += static_cast<double>(r.recoveries.size());
      for (const auto& rec : r.recoveries) {
        rec_latency += rec.recovery_latency.to_seconds();
        rec_bytes += static_cast<double>(rec.bytes_read);
      }
      heartbeats += static_cast<double>(r.heartbeats_sent);
      detections += static_cast<double>(r.detections);
      wrongful += static_cast<double>(r.wrongful_evictions);
      for (const std::int64_t ns : r.detection_latency_ns) {
        detect_sum += static_cast<double>(ns) * 1e-9;
        detect_n += 1;
      }
      issued += static_cast<double>(first.runs[i].svc.issued);
      completed += static_cast<double>(first.runs[i].svc.completed);
      const auto& t = traced->runs[i].result;
      checks += static_cast<double>(t.invariant_checks);
      violations += static_cast<double>(t.invariant_violations);
    }
    chk::obs::RankBuckets attrib;
    for (const auto& report : obs_cost.attribution) {
      const auto& b = report.total;
      attrib.sync_wait_s += b.sync_wait_s;
      attrib.mem_copy_s += b.mem_copy_s;
      attrib.stable_write_s += b.stable_write_s;
      attrib.storage_contention_s += b.storage_contention_s;
      attrib.frozen_stall_s += b.frozen_stall_s;
      attrib.interference_s += b.interference_s;
      attrib.recovery_s += b.recovery_s;
      attrib.retransmit_wait_s += b.retransmit_wait_s;
      attrib.svc_queue_wait_s += b.svc_queue_wait_s;
      attrib.membership_wait_s += b.membership_wait_s;
      attrib.blocked_total_s += b.blocked_total_s;
    }
    // Overhead rank-seconds the buckets leave unexplained (as in
    // overhead_breakdown): the checkpointed cells' (exec - NORMAL exec) *
    // ranks minus their rank-time buckets. svc queue wait is request time,
    // not rank time, so it stays out of the subtraction.
    double unattributed = 0;
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
      const Cell& cell = w.cells[i];
      if (cell.kind == CellKind::kNormal) continue;
      const auto& b = obs_cost.attribution[i].total;
      const double lost = (first.runs[i].result.exec_time_s - normal_exec[cell.group]) *
                          static_cast<double>(w.ranks);
      unattributed += lost - (b.bucket_sum_s() - b.svc_queue_wait_s);
    }

    // Probes, sized to this workload.
    double switch_ns = 0, event_ns = 0, capture_npb = 0, serialize_npb = 0;
    const std::size_t probe_bytes =
        image_bytes.empty() ? 4096 : static_cast<std::size_t>(median(image_bytes));
    {
      Scope s(log, "bench.probes");
      {
        Scope p(log, "des.probe_switch");
        switch_ns = probe_switch_ns(o.tiny ? 2000 : 20000);
      }
      {
        Scope p(log, "des.probe_event");
        event_ns = probe_event_ns(o.tiny ? 100000 : 1000000);
      }
      {
        Scope p(log, "ckpt.probe_capture");
        capture_npb = probe_capture_ns_per_byte(probe_bytes);
      }
      {
        Scope p(log, "ckpt.probe_serialize");
        serialize_npb = probe_serialize_ns_per_byte(probe_bytes);
      }
    }

    const double switches = over_passes([](const Pass& p) { return p.switches; });
    double normal_wall = 0;
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
      if (w.cells[i].kind != CellKind::kNormal) continue;
      std::vector<double> v;
      for (const Pass& p : passes) v.push_back(p.cell_wall_s[i]);
      normal_wall += median(v);
    }
    double traced_wall = 0;
    for (const Span& s : log.spans()) {
      if (s.name == "harness.run_experiment" && s.cell >= 0) traced_wall += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }

    std::printf("per-layer (counts: one untraced pass; attrib/verify/obs: the traced pass):\n");
    metrics.add("des.events", first.events, "count");
    metrics.add("des.ctx_switches", switches, "count");
    metrics.add("des.sys_s", over_passes([](const Pass& p) { return p.sys_s; }), "s");
    metrics.add("des.switch_ns", switch_ns, "ns");
    metrics.add("des.event_ns", event_ns, "ns");
    metrics.add("des.share", (switches * switch_ns + first.events * event_ns) * 1e-9 / wall_s, "ratio");
    metrics.add("apps.reference_s", reference_s, "s");
    metrics.add("apps.share", normal_wall > 0 ? reference_s / normal_wall : 0, "ratio");
    metrics.add("ckpt.bytes_written", sum_bytes, "B");
    metrics.add("ckpt.images", sum_images, "count");
    metrics.add("ckpt.image_bytes_median", static_cast<double>(probe_bytes), "B");
    metrics.add("ckpt.capture_ns_per_byte", capture_npb, "ns/B");
    metrics.add("ckpt.serialize_ns_per_byte", serialize_npb, "ns/B");
    metrics.add("ckpt.share", sum_bytes * (capture_npb + serialize_npb) * 1e-9 / wall_s, "ratio");
    metrics.add("comm.app_messages", app_msgs, "count");
    metrics.add("comm.control_messages", ctl_msgs, "count");
    metrics.add("comm.retransmits", retx, "count");
    metrics.add("comm.link_drops", drops, "count");
    metrics.add("xplorer.disk_wait_s", disk_wait, "sim_s");
    metrics.add("xplorer.link_busy_s", link_busy, "sim_s");
    metrics.add("attrib.sync_wait_s", attrib.sync_wait_s, "sim_s");
    metrics.add("attrib.mem_copy_s", attrib.mem_copy_s, "sim_s");
    metrics.add("attrib.stable_write_s", attrib.stable_write_s, "sim_s");
    metrics.add("attrib.storage_contention_s", attrib.storage_contention_s, "sim_s");
    metrics.add("attrib.frozen_stall_s", attrib.frozen_stall_s, "sim_s");
    metrics.add("attrib.interference_s", attrib.interference_s, "sim_s");
    metrics.add("attrib.recovery_s", attrib.recovery_s, "sim_s");
    metrics.add("attrib.retransmit_wait_s", attrib.retransmit_wait_s, "sim_s");
    metrics.add("attrib.svc_queue_wait_s", attrib.svc_queue_wait_s, "sim_s");
    metrics.add("attrib.membership_wait_s", attrib.membership_wait_s, "sim_s");
    metrics.add("attrib.unattributed_s", unattributed, "sim_s");
    metrics.add("recovery.count", rec_count, "count");
    metrics.add("recovery.latency_s", rec_latency, "sim_s");
    metrics.add("recovery.bytes_read", rec_bytes, "B");
    metrics.add("membership.heartbeats_sent", heartbeats, "count");
    metrics.add("membership.detections", detections, "count");
    metrics.add("membership.wrongful_evictions", wrongful, "count");
    metrics.add("membership.detection_latency_s", detect_n > 0 ? detect_sum / detect_n : 0, "sim_s");
    metrics.add("verify.checks", checks, "count");
    metrics.add("verify.violations", violations, "count");
    metrics.add("svc.issued", issued, "count");
    metrics.add("svc.completed", completed, "count");
    metrics.add("svc.p50_ms", chk::obs::histogram_quantile(latency, 0.50) * 1e3, "sim_ms");
    metrics.add("svc.p99_ms", chk::obs::histogram_quantile(latency, 0.99) * 1e3, "sim_ms");
    metrics.add("svc.p999_ms", chk::obs::histogram_quantile(latency, 0.999) * 1e3, "sim_ms");
    metrics.add("obs.trace_events", static_cast<double>(obs_cost.trace_events), "count");
    metrics.add("obs.attribute_s", obs_cost.attribute_s, "s");
    metrics.add("obs.export_s", obs_cost.export_s, "s");
    metrics.add("obs.overhead_frac", traced_wall / wall_s - 1.0, "ratio");

    std::printf("host self time by layer (spans around the benchmark's calls):\n");
    for (const auto& [layer, t] : log.layer_times()) {
      std::printf("  %-10s total %.4f s  self %.4f s\n", layer.c_str(), t.total_s, t.self_s);
    }
    if (!o.spans_out.empty()) {
      Value doc = Value::object();
      doc.set("workload", Value::string(w.name));
      doc.set("seed", Value::number(o.seed));
      Value cells = Value::array();
      for (const Cell& c : w.cells) cells.push_back(Value::string(c.id));
      doc.set("cells", std::move(cells));
      Value spans = Value::array();
      for (const Span& s : log.spans()) {
        Value sv = Value::object();
        sv.set("name", Value::string(s.name));
        sv.set("layer", Value::string(SpanLog::layer_of(s.name)));
        sv.set("start_ns", Value::number(s.start_ns));
        sv.set("end_ns", Value::number(s.end_ns));
        sv.set("parent", Value::number(static_cast<std::int64_t>(s.parent)));
        sv.set("cell", Value::number(static_cast<std::int64_t>(s.cell)));
        spans.push_back(std::move(sv));
      }
      doc.set("spans", std::move(spans));
      chk::obs::write_text_file(o.spans_out, doc.dump() + "\n");
      std::printf("spans written to %s\n", o.spans_out.c_str());
    }
  }

  if (!o.pin_out.empty()) {
    Value cells = Value::object();
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
      cells.set(w.cells[i].id, Value::string(hex(first.runs[i].result.trace_hash)));
    }
    Value doc = Value::object();
    doc.set("workload", Value::string(w.name));
    doc.set("seed", Value::string(std::to_string(o.seed)));
    doc.set("clean", Value::boolean(failed == 0));
    doc.set("cells", std::move(cells));
    chk::obs::write_text_file(o.pin_out, doc.dump() + "\n");
  }

  Value result = Value::object();
  result.set("correct", Value::boolean(failed == 0));
  result.set("attempted", Value::number(static_cast<std::uint64_t>(w.cells.size())));
  result.set("failed", Value::number(static_cast<std::uint64_t>(failed)));
  result.set("metrics", metrics.take());
  std::printf("%s\n", result.dump().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  try {
    options = perfbench::parse_args(argc, argv);
  } catch (const std::exception& err) {
    std::fprintf(stderr, "perfbench: %s\n", err.what());
    return 2;
  }
  try {
    return perfbench::run(options);
  } catch (const std::exception& err) {
    std::fprintf(stderr, "perfbench: %s\n", err.what());
    return 1;
  }
}
