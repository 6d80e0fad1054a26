#!/usr/bin/env python3
"""Validate one JSON artifact of a bench run.

  python3 tools/check_bench_json.py <kind> <file>

Kinds: trace, metrics, breakdown (the overhead_breakdown exports), campaign,
campaign-linkloss, campaign-storagefault, membership, svc, svc-membership
and kernel. Per-run counters are read from each cell's "metrics" object,
the harness::run_metrics snapshot ({counters, gauges, histograms} keyed by
metric name). Exits 1 with the failed assertion on stderr.
"""
import json
import sys

PAPER_SCHEMES = {"Coord_NB", "Indep", "Coord_NBM", "Indep_M", "Coord_NBMS"}

# The attribution buckets that partition every rank's overhead (chklint's
# bucket-partition-registration rule checks that each bucket emitted by
# buckets_to_json is listed here).
BUCKETS = ("sync_wait_s", "mem_copy_s", "stable_write_s", "storage_contention_s",
           "logging_s", "interference_s", "recovery_s", "retransmit_wait_s",
           "storage_retry_wait_s", "svc_queue_wait_s", "membership_wait_s")


def counter(cell, name):
    return cell["metrics"]["counters"][name]


def gauge(cell, name):
    return cell["metrics"]["gauges"][name]


def require(cell, keys=(), counters=(), gauges=(), histograms=()):
    """Asserts the cell has every key and every named metric."""
    assert set(keys) <= cell.keys(), (set(keys) - cell.keys(), cell.get("scheme"))
    metrics = cell["metrics"]
    for section, names in (("counters", counters), ("gauges", gauges),
                           ("histograms", histograms)):
        missing = set(names) - metrics[section].keys()
        assert not missing, (section, missing)


def check_digest(cell):
    assert cell["digest_ok"] is True, ("digest mismatch", cell.get("scheme"))


def check_no_violations(cell):
    assert counter(cell, "verify/violations") == 0, ("invariant violation", cell.get("scheme"))


def check_partition(buckets):
    """The buckets must sum to the measured per-rank overhead."""
    assert abs(sum(buckets[b] for b in BUCKETS) - buckets["total_s"]) < 1e-6, buckets


def campaign_runs(doc):
    assert doc["table"] == "campaign"
    runs = [o for row in doc["rows"] for c in row["cells"] for o in c["runs"]]
    assert runs, "empty sweep"
    for run in runs:
        check_digest(run)
    return runs


def check_trace(doc):
    assert isinstance(doc["traceEvents"], list) and doc["traceEvents"], "empty trace"
    for event in doc["traceEvents"]:
        assert event["ph"] in ("X", "i", "M"), event
        if event["ph"] != "M":
            assert {"name", "ts", "pid", "tid", "args"} <= event.keys(), event
    assert len(doc["otherData"]["trace_hash"]) == 16
    return f"trace validates: {len(doc['traceEvents'])} events"


def check_metrics(doc):
    snap = doc["metrics"]
    for section in ("counters", "gauges", "histograms"):
        assert section in snap, section
    hist = snap["histograms"]["ckpt/window_s"]
    assert len(hist["counts"]) == len(hist["edges"]) + 1
    attribution = doc["attribution"]
    for rank in attribution["ranks"] + [attribution["total"]]:
        for bucket in BUCKETS:
            assert bucket in rank, bucket
    return "metrics validate"


def check_breakdown(doc):
    assert len(doc["schemes"]) == 7
    for scheme in doc["schemes"]:
        check_partition(scheme["attribution"]["total"])
    return "breakdown validates: every scheme's buckets sum to its overhead"


def check_campaign(doc):
    assert doc["all_verified"] is True, "a campaign run failed digest verification"
    assert doc["rows"], "empty sweep"
    for row in doc["rows"]:
        assert row["mtbf_s"] > 0 and row["normal_exec_s"] > 0, row["app"]
        assert {c["scheme"] for c in row["cells"]} == PAPER_SCHEMES, row["app"]
        for cell in row["cells"]:
            summary = cell["summary"]
            assert summary["runs"] == len(cell["runs"]) == doc["runs"]
            assert summary["all_verified"] is True, (row["app"], cell["scheme"])
            assert summary["mean_completion_s"] >= row["normal_exec_s"]
    for run in campaign_runs(doc):
        require(run, keys=("run", "trace_hash", "digest_ok"),
                counters=("faults/injected", "faults/mid_write", "faults/during_recovery",
                          "recovery/failures", "recovery/interrupted",
                          "recovery/bytes_read", "recovery/bytes_reread",
                          "recovery/writes_discarded", "recovery/max_domino_depth",
                          "recovery/rolled_to_origin"),
                gauges=("run/exec_time_s", "recovery/latency_total_s"))
        assert counter(run, "faults/injected") >= 2, run
        assert counter(run, "faults/mid_write") >= 1, run
        assert counter(run, "faults/during_recovery") >= 1, run
        # Every strike produced exactly one recovery report (completed or
        # interrupted).
        assert counter(run, "recovery/failures") == counter(run, "faults/injected"), run
        assert counter(run, "recovery/bytes_reread") <= counter(run, "recovery/bytes_read")
        assert len(run["trace_hash"]) == 16
    return ("campaign validates: every run verified, >=2 failures/run, "
            "with mid-write and during-recovery strikes present in each")


def check_campaign_linkloss(doc):
    assert doc["link_loss"] == 0.05 and doc["link_dup"] == 0.02
    assert doc["all_verified"] is True, "a lossy run failed digest verification"
    runs = campaign_runs(doc)
    for run in runs:
        require(run, counters=("comm/retransmits", "comm/dups_suppressed",
                               "comm/corrupt_detected", "comm/link_drops",
                               "ckpt/aborted_rounds"))
        assert counter(run, "comm/link_drops") > 0, "the fault model never dropped a frame"
        assert counter(run, "comm/retransmits") > 0, "the transport never repaired a loss"
    retransmits = sum(counter(r, "comm/retransmits") for r in runs)
    return f"lossy campaign validates: {len(runs)} runs, {retransmits} retransmits"


def check_campaign_storagefault(doc):
    assert doc["io_error"] == 0.1 and doc["bitrot"] == 0.02
    assert doc["io_degrade"] == 1.5
    assert doc["all_verified"] is True, "a faulty-storage run failed digest verification"
    runs = campaign_runs(doc)
    for run in runs:
        require(run, counters=("storage/io_write_errors", "storage/io_read_errors",
                               "storage/bitrot_injected", "storage/retries",
                               "storage/write_failures", "ckpt/write_failures",
                               "ckpt/corrupt_discarded", "recovery/generations_skipped",
                               "storage/reclaimed_bytes"))
        assert counter(run, "storage/io_write_errors") + \
            counter(run, "storage/io_read_errors") > 0, \
            "the fault model never failed an operation"
        assert counter(run, "storage/retries") > 0, "the client never retried"
    retries = sum(counter(r, "storage/retries") for r in runs)
    fallbacks = sum(counter(r, "recovery/generations_skipped") for r in runs)
    return (f"faulty-storage campaign validates: {len(runs)} runs, {retries} retries, "
            f"{fallbacks} generation fallbacks")


MEMBERSHIP_COUNTERS = (
    "membership/heartbeats_sent", "membership/suspicions", "membership/suspicions_cleared",
    "membership/views_established", "membership/evictions",
    "membership/wrongful_evictions", "membership/rejoins", "membership/crashes",
    "membership/detections", "membership/forced_recoveries", "ckpt/aborted_rounds",
    "ckpt/committed_rounds", "comm/retransmits", "verify/violations")


def check_membership(doc):
    assert doc["table"] == "membership"
    assert doc["all_verified"] is True, "a cell failed digest or invariant checks"
    assert doc["rows"], "empty sweep"
    detectors = set()
    for row in doc["rows"]:
        detectors.add(row["detector"])
        # Each row carries the knob of its detector, never the other's.
        if row["detector"] == "binary":
            assert "detect_timeout_s" in row and "phi_threshold" not in row, row
        else:
            assert row["detector"] == "phi", row
            assert "phi_threshold" in row and "detect_timeout_s" not in row, row
        assert {c["scheme"] for c in row["cells"]} == PAPER_SCHEMES, row
        for cell in row["cells"]:
            require(cell, keys=("scheme", "detection_latency_s", "digest_ok"),
                    counters=MEMBERSHIP_COUNTERS, gauges=("run/exec_time_s",),
                    histograms=("membership/detection_latency_s",))
            check_digest(cell)
            check_no_violations(cell)
            assert counter(cell, "membership/heartbeats_sent") > 0
            if row["loss"] == 0:
                assert counter(cell, "membership/evictions") == 0, "clean links evicted a rank"
    assert detectors == {"binary", "phi"}, detectors
    losses = sorted({r["loss"] for r in doc["rows"]})
    # Headline A/B at the heaviest loss: the most aggressive binary timeout
    # must wrongly evict (and fence, and rejoin) live ranks...
    timeouts = sorted(r["detect_timeout_s"] for r in doc["rows"]
                      if r["detector"] == "binary" and r["loss"] == losses[-1])
    storm = [c for r in doc["rows"]
             if r["detector"] == "binary"
             and r["detect_timeout_s"] == timeouts[0] and r["loss"] == losses[-1]
             for c in r["cells"]]
    assert storm and any(counter(c, "membership/wrongful_evictions") > 0 for c in storm), \
        "the aggressive-timeout/heavy-loss corner never misfired"
    assert all(counter(c, "membership/rejoins") > 0
               for c in storm if counter(c, "membership/wrongful_evictions")), \
        "a fenced rank never rejoined"
    # ...while phi-accrual on the very same links evicts nobody.
    phi = [c for r in doc["rows"]
           if r["detector"] == "phi" and r["loss"] == losses[-1]
           for c in r["cells"]]
    assert phi, "no phi rows at the heaviest loss"
    assert all(counter(c, "membership/wrongful_evictions") == 0 for c in phi), \
        "phi-accrual wrongly evicted a live rank under loss"
    assert doc["binary_aggressive_wrongful"] == \
        sum(counter(c, "membership/wrongful_evictions") for c in storm)
    assert doc["phi_wrongful_at_max_loss"] == 0
    # Real crash: both detectors find the dead coordinator, elect a
    # successor, and phi is no more than 2x slower than binary.
    coord = {"Coord_NB", "Coord_NBM", "Coord_NBMS"}
    by_det = {}
    for cell in doc["coordinator_kill"]:
        check_digest(cell)
        assert counter(cell, "membership/crashes") == 1
        assert counter(cell, "membership/detections") == 1
        assert counter(cell, "membership/wrongful_evictions") == 0
        assert counter(cell, "membership/views_established") >= 1, "no successor was elected"
        assert counter(cell, "membership/forced_recoveries") == 0, "the deadman fired"
        by_det.setdefault(cell["detector"], {})[cell["scheme"]] = \
            cell["detection_latency_s"][0]
    assert set(by_det) == {"binary", "phi"}
    for det in by_det.values():
        assert set(det) == coord
    for scheme in coord:
        assert by_det["phi"][scheme] <= 2 * by_det["binary"][scheme], \
            f"phi detection too slow on {scheme}"
    return (f"membership validates: {len(doc['rows'])} sweep rows, "
            f"{doc['binary_aggressive_wrongful']} wrongful evictions under binary "
            f"{timeouts[0]}s at loss {losses[-1]}, zero under phi; kill latencies "
            f"binary/phi {by_det['binary']['Coord_NB']:.2f}/{by_det['phi']['Coord_NB']:.2f}s")


def check_svc(doc):
    assert doc["table"] == "svc_latency"
    assert doc["all_verified"] is True, "a run broke the LWW digest or conservation"
    assert doc["rows"], "empty sweep"
    faulty_rows = [r for r in doc["rows"] if r["mtbf_s"] > 0]
    assert faulty_rows, "sweep has no faulty point"
    for row in doc["rows"]:
        assert {c["scheme"] for c in row["cells"]} == PAPER_SCHEMES
        for cell in row["cells"]:
            require(cell, keys=("scheme", "issued", "completed", "lat_p50_s", "lat_p99_s",
                                "lat_p999_s", "lat_mean_s", "lat_max_s", "lat_counts",
                                "queue_wait_s", "recoveries", "image_log", "digest_ok"),
                    gauges=("run/exec_time_s", "recovery/latency_total_s"))
            check_digest(cell)
            assert cell["issued"] == cell["completed"] > 0
            assert sum(cell["lat_counts"]) == cell["completed"]
            assert cell["lat_p50_s"] <= cell["lat_p99_s"] <= cell["lat_p999_s"]
            assert cell["image_log"], "no measured checkpoint-image curve"
            assert len({img["bytes"] for img in cell["image_log"]}) > 1, \
                "shard image bytes never moved"
            if row["mtbf_s"] > 0 and cell["recoveries"]:
                assert cell["lat_max_s"] >= max(r["downtime_s"] for r in cell["recoveries"])
    # Every faulty row must show a measured recovery window somewhere
    # (independent schemes account restart latency as zero).
    for row in faulty_rows:
        assert any(c["recoveries"] for c in row["cells"]), "no failures fired"
        assert any(gauge(c, "recovery/latency_total_s") > 0 for c in row["cells"])
    downtime = sum(gauge(c, "recovery/latency_total_s") for r in faulty_rows for c in r["cells"])
    return f"svc validates: {len(doc['rows'])} rows, {downtime:.3f}s total recovery downtime"


def check_svc_membership(doc):
    assert doc["table"] == "svc_latency"
    assert doc["membership"] is True and doc["detector"] == "phi"
    assert doc["all_verified"] is True
    kills = doc["coordinator_kill"]
    assert {c["scheme"] for c in kills} == PAPER_SCHEMES
    for cell in kills:
        assert counter(cell, "membership/crashes") == 1, cell["scheme"]
        assert counter(cell, "membership/views_established") == 1, \
            "expected exactly one view change"
        assert counter(cell, "membership/detections") == 1
        assert counter(cell, "membership/wrongful_evictions") == 0
        assert cell["partition_exact"] is True, \
            "membership_wait broke the blocked-time partition"
        assert cell["membership_wait_s"] > 0, "failover cost vanished"
        check_digest(cell)
        check_no_violations(cell)
        assert cell["lat_p50_s"] <= cell["lat_p99_s"] <= cell["lat_p999_s"]
    return (f"svc membership validates: coordinator killed under traffic in "
            f"{len(kills)} schemes, one view change each, blocked-time partition exact")


def check_kernel(doc):
    assert doc["table"] == "kernel_throughput"
    assert doc["all_ok"] is True, "a cell failed an in-driver check"
    assert doc["cells"], "empty sweep"
    cell_keys = {"ranks", "churn", "events", "trace_hash", "end_time_ns", "delivered",
                 "queue_peak", "compactions", "rto_armed", "rto_cancelled",
                 "traced_matches"}
    churned = 0
    for cell in doc["cells"]:
        assert cell_keys <= cell.keys(), cell
        assert len(cell["trace_hash"]) == 16
        assert cell["traced_matches"] is True, "tracing perturbed the schedule"
        assert cell["events"] > 0 and cell["delivered"] > 0
        assert cell["rto_cancelled"] <= cell["rto_armed"]
        if cell["churn"] > 0:
            churned += 1
            # The heap-bloat regression gate: dead watchdog + RTO entries
            # must be reclaimed, not held to their fire time.
            live_bound = cell["ranks"] * (cell["churn"] + 8) + 256
            assert cell["queue_peak"] <= 4 * live_bound, cell
            assert cell["compactions"] > 0, "compactor never fired"
    assert churned > 0, "sweep has no churn cells"
    return (f"kernel validates: {len(doc['cells'])} cells, "
            f"{sum(c['events'] for c in doc['cells'])} events, "
            f"{sum(c['rto_cancelled'] for c in doc['cells'])} dead timers reclaimed")


CHECKS = {
    "trace": check_trace,
    "metrics": check_metrics,
    "breakdown": check_breakdown,
    "campaign": check_campaign,
    "campaign-linkloss": check_campaign_linkloss,
    "campaign-storagefault": check_campaign_storagefault,
    "membership": check_membership,
    "svc": check_svc,
    "svc-membership": check_svc_membership,
    "kernel": check_kernel,
}


def main(argv):
    if len(argv) != 3 or argv[1] not in CHECKS:
        print(f"usage: {argv[0]} <{'|'.join(CHECKS)}> <file>", file=sys.stderr)
        return 2
    with open(argv[2]) as f:
        doc = json.load(f)
    print(f"{argv[2]}: {CHECKS[argv[1]](doc)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
