#!/usr/bin/env python3
"""pmte end-to-end benchmark (see perfbench/DESIGN.md).

  python3 perfbench/run.py --workload embed|serve_tenants|live_update
                           --seed N --seconds S --trace 0|1 [--tiny]

Run from the repository root.  Builds the library and the driver from
source (Release) into $CARGO_TARGET_DIR/perfbench (default .bench_build),
runs one workload and prints, as the last line of stdout, one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics (from the traced pass, see ledger.py) with
--trace 1.  Host metadata is printed on the line before it.  --tiny shrinks
every size so the whole benchmark runs in seconds (selftest.py uses it).
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import ledger  # noqa: E402

ROOT = HERE.parent
THREADS = 2  # pinned on every workload (DESIGN.md, "Noise")
DRIVER_TIMEOUT_S = 170

# One scenario (driver/scenario.hpp), three mixes.  Every workload runs
# build → save → map → serve → update → republish on fresh graph instances
# drawn from the seed; each puts its weight on other layers.
WORKLOADS = {
    # Construction: the paper's oracle pipeline on a graph with a large
    # shortest-path diameter, a new graph embedded every round.
    "embed": {
        "family": "geometric", "n": 512, "pipeline": "oracle",
        "tenants": "zipf:min:65536,uniform:median:0,bfs_local:min:0",
        "live-n": 128, "live-tenants": "uniform:median:0",
        "build-every": 1, "batches-per-round": 256, "updates-per-round": 16,
        "live-session": 16, "stretch-samples": 8, "min-rounds": 8,
    },
    # The read path: four interleaved tenants over a large sequential-
    # pipeline ensemble whose tables overflow L2, closed loop, one client.
    "serve_tenants": {
        "family": "gnm", "n": 4096, "pipeline": "sequential",
        "tenants": "zipf:min:65536,uniform:median:0,bfs_local:min:0,"
                   "zipf:median:65536",
        "live-n": 128, "live-tenants": "uniform:min:0",
        "build-every": 8, "batches-per-round": 16, "updates-per-round": 1,
        "live-session": 8, "stretch-samples": 2, "min-rounds": 8,
    },
    # Writes beside reads: edge-weight updates on a maintained oracle
    # ensemble, each made visible to its tenants before the next one.
    "live_update": {
        "family": "gnm", "n": 512, "pipeline": "sequential",
        "tenants": "bfs_local:min:0",
        "live-n": 384, "live-tenants": "zipf:min:65536,uniform:median:0",
        "build-every": 2, "batches-per-round": 16, "updates-per-round": 1,
        "live-session": 8, "stretch-samples": 4, "min-rounds": 8,
    },
}

TINY = {"n": 128, "live-n": 64, "batch": 256, "setup-reps": 1, "stretch-samples": 2, "min-rounds": 2,
        "live-session": 4}

END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "embed_s": "s",
    "stretch_weighted": "ratio", "batch_p50_ms": "ms", "batch_p90_ms": "ms",
    "update_warm_ms": "ms", "update_cold_ms": "ms",
}


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_driver():
    """Configure + build perfbench_driver; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (
            ROOT / "src" / "CMakeLists.txt").is_file():
        fail("library sources not found under %s (run from the repository "
             "root of a full checkout)" % ROOT, 2)
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / \
        "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    cache = build_dir / "CMakeCache.txt"
    if cache.is_file() and str(HERE) not in cache.read_text():
        cache.unlink()  # configured from another checkout
    log_path = build_dir / "build.log"
    jobs = str(min(os.cpu_count() or 1, 4))
    with open(log_path, "w") as log:
        for cmd in (["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", str(build_dir), "--target",
                     "perfbench_driver", "-j", jobs]):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                sys.stderr.write(log_path.read_text()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return build_dir / "perfbench_driver", build_dir / "work"


def cpu_ticks():
    """Host-wide (busy, steal) jiffies from /proc/stat; (0, 0) elsewhere."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    idle = fields[3] + fields[4]
    steal = fields[7] if len(fields) > 7 else 0
    return sum(fields[:8]) - idle - steal, steal


def end_to_end_metrics(r):
    warm, cold = ledger.split_updates(r["updates"])
    samples = {
        "setup_s": ledger.median(r["setup_s"]),
        "peak_rss_mb": r["peak_rss_mb"],
        "embed_s": ledger.median(r["build_s"]),
        "stretch_weighted": ledger.median(r["stretch_weighted"]),
        "batch_p50_ms": ledger.median(r["batch_ms"]),
        "batch_p90_ms": ledger.percentile(r["batch_ms"], 90),
        "update_warm_ms": ledger.median(warm),
        "update_cold_ms": ledger.median(cold),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in samples.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)

    driver, work = build_driver()
    work = work / args.workload
    work.mkdir(parents=True, exist_ok=True)
    spec = dict(WORKLOADS[args.workload])
    if args.tiny:
        spec.update(TINY)
    result_path = work / ("result-trace%d.json" % args.trace)
    spans_path = work / "spans.jsonl"
    cmd = [str(driver)] + ["--%s=%s" % kv for kv in spec.items()] + [
        "--seed=%d" % args.seed, "--seconds=%g" % args.seconds,
        "--trace=%d" % args.trace,
        "--work-dir=%s" % work, "--out=%s" % result_path,
        "--spans=%s" % spans_path]
    env = dict(os.environ, OMP_NUM_THREADS=str(THREADS), OMP_DYNAMIC="false")
    busy0, steal0 = cpu_ticks()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        fail("driver exited with %d" % proc.returncode)
    busy1, steal1 = cpu_ticks()
    with open(result_path) as f:
        r = json.load(f)

    if args.trace:
        metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in
                   ledger.per_layer_metrics(ledger.load_spans(spans_path),
                                            r).items()}
    else:
        metrics = end_to_end_metrics(r)
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    positive = args.trace or all(m["value"] > 0 for m in metrics.values())
    for msg in r["failures"]:
        print("check failed: " + msg, file=sys.stderr)
    # Stolen CPU time during the run, as a share of the time the host gave
    # or took from this VM's CPUs: a noisy neighbour shows up here.
    given = (busy1 - busy0) + (steal1 - steal0)
    meta = dict(r["meta"], workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace, rounds=r["rounds"],
                replayed_rounds=r["replayed_rounds"],
                steal_pct=round(100.0 * (steal1 - steal0) / given, 2)
                if given > 0 else 0.0)
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": r["failed"] == 0 and finite and bool(positive),
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
