#!/usr/bin/env python3
"""Build and run the simulator benchmark (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload paper_tables --seed 1 --seconds 20 --trace 0
      One run: builds perfbench/ into .bench_build/perfbench, then prints the
      metrics; the last stdout line is the JSON result.
  python3 perfbench/run.py --workload rank_scale --repeat 10 [--first-seed 1] [--pin]
      Steadiness mode: one run per seed, then the median, quartiles, min and
      max of every end-to-end metric, and its spread against the bound in
      BENCHMARK.json. --pin adds the clean runs' trace hashes to pinned.json.
  python3 perfbench/run.py --self-check
      Tiny-size check of the benchmark itself.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
PINNED = HERE / "pinned.json"
WORKLOADS = ["paper_tables", "rank_scale", "svc_faults"]
# Longest a single benchmark run may take before it counts as hung.
RUN_TIMEOUT_S = 175

# Per-layer metrics measured on the host; every other metric is simulated
# and must repeat exactly for a given seed.
HOST_METRICS = {
    "des.ctx_switches", "des.sys_s", "des.switch_ns", "des.event_ns", "des.share",
    "apps.reference_s", "apps.share", "ckpt.capture_ns_per_byte",
    "ckpt.serialize_ns_per_byte", "ckpt.share", "obs.attribute_s", "obs.export_s",
    "obs.overhead_frac",
}
HOST_END_TO_END = {"wall_s", "events_per_s", "cpu_s", "peak_rss_mb", "setup_s"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark; build output goes to stderr."""
    BUILD.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "Makefile").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def run_binary(args):
    """Runs perfbench; returns (exit code, stdout text)."""
    try:
        proc = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1, err.stdout or ""
    return proc.returncode, proc.stdout


def last_json(text):
    lines = [line for line in text.strip().splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1], object_pairs_hook=unique_keys)


def unique_keys(pairs):
    keys = [k for k, _ in pairs]
    dupes = {k for k in keys if keys.count(k) > 1}
    if dupes:
        raise ValueError(f"duplicate keys {sorted(dupes)}")
    return dict(pairs)


def one_run(workload, seed, seconds, trace, extra=()):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--pinned", str(PINNED)]
    if trace:
        args += ["--spans-out", str(BUILD / f"spans-{workload}-{seed}.json")]
    return run_binary(args + list(extra))


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def repeat(workload, count, first_seed, seconds, pin):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    pins = json.loads(PINNED.read_text()) if PINNED.exists() else {}
    clean = True
    for seed in range(first_seed, first_seed + count):
        pin_file = BUILD / f"pin-{workload}-{seed}.json"
        code, out = one_run(workload, seed, seconds, 0, ["--pin-out", str(pin_file)])
        if code != 0:
            log(f"seed {seed}: exit code {code}")
            clean = False
            continue
        result = last_json(out)
        clean = clean and result["correct"] and result["failed"] == 0
        line = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        log(f"seed {seed}: failed {result['failed']}/{result['attempted']} {line}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        pin_doc = json.loads(pin_file.read_text())
        if pin and pin_doc["clean"]:
            pins.setdefault(workload, {})[str(seed)] = pin_doc["cells"]
    print(f"{workload}: {count} runs, seeds {first_seed}..{first_seed + count - 1}")
    print(f"{'metric':20} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} {'max':>12}"
          f" {'iqr/med':>8} {'bound':>6}")
    for name, vals in values.items():
        med, q1, q3, rel = spread(vals)
        print(f"{name:20} {med:12.6g} {q1:12.6g} {q3:12.6g} {min(vals):12.6g}"
              f" {max(vals):12.6g} {rel:8.4f} {bounds.get(name, float('nan')):6}")
    if pin:
        PINNED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        print(f"pinned trace hashes written to {PINNED.relative_to(ROOT)}")
    return 0 if clean else 1


def self_times(dump):
    """Self time per layer from a span dump: span minus its child spans."""
    spans = dump["spans"]
    child = [0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end_ns"] - s["start_ns"]
    out = {}
    for i, s in enumerate(spans):
        out[s["layer"]] = out.get(s["layer"], 0) + s["end_ns"] - s["start_ns"] - child[i]
    return out


def self_check():
    """Tiny-size runs of every workload, checking output format and determinism."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    problems = []

    def expect(cond, what):
        if not cond:
            problems.append(what)
            log(f"FAIL {what}")

    for workload in WORKLOADS:
        results = {}
        for trace, names in ((0, e2e), (1, per_layer)):
            runs = []
            for attempt in range(2):
                spans = BUILD / f"selfcheck-spans-{workload}.json"
                args = ["--workload", workload, "--seed", "7", "--seconds", "0.1",
                        "--trace", str(trace), "--tiny"]
                # The second invocation runs unpinned: pinning must not
                # change a simulated metric.
                if attempt == 1:
                    args.append("--no-pin")
                if trace:
                    args += ["--spans-out", str(spans)]
                code, out = run_binary(args)
                expect(code == 0, f"{workload} trace={trace}: exit code {code}")
                if code != 0:
                    break
                try:
                    result = last_json(out)
                except ValueError as err:
                    expect(False, f"{workload} trace={trace}: bad result line ({err})")
                    break
                expect(result["correct"] and result["failed"] == 0,
                       f"{workload} trace={trace}: cells failed")
                metrics = result["metrics"]
                expect(sorted(metrics) == sorted(names),
                       f"{workload} trace={trace}: metric set differs from BENCHMARK.json")
                for name, m in metrics.items():
                    expect(isinstance(m.get("unit"), str) and m["unit"],
                           f"{workload}: {name} has no unit")
                    printed = sum(1 for line in out.splitlines()
                                  if line.split()[:1] == [name])
                    expect(printed == 1, f"{workload}: {name} printed {printed} times")
                if trace:
                    try:
                        dump = json.loads(spans.read_text())
                    except (OSError, ValueError) as err:
                        expect(False, f"{workload}: span dump unreadable ({err})")
                    else:
                        expect(len(dump["spans"]) > 0, f"{workload}: span dump is empty")
                        for layer, ns in self_times(dump).items():
                            expect(ns >= 0, f"{workload}: layer {layer} self time {ns} < 0")
                runs.append(metrics)
            results[trace] = runs
        for trace, runs in results.items():
            if len(runs) != 2:
                continue
            for name in runs[0]:
                if name in HOST_METRICS or name in HOST_END_TO_END:
                    continue
                expect(runs[0][name] == runs[1].get(name),
                       f"{workload}: simulated metric {name} differs between invocations")
        log(f"self-check {workload}: done")
    print("self-check: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--pin", action="store_true")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"perfbench: build failed: {err}")
        return 1

    if args.self_check:
        return self_check()
    if args.repeat > 0:
        return repeat(args.workload, args.repeat, args.first_seed, args.seconds, args.pin)
    code, out = one_run(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
