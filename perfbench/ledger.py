#!/usr/bin/env python3
"""Per-layer ledger of a traced perfbench run.

The traced pass writes one span per line (driver/spans.hpp):
  {"id", "name", "parent", "op", "start_ns", "end_ns", "args": {...}}
A span's layer is the part of its name before the first dot (hopset,
simgraph, oracle, frt, index, serialize, parallel, router, kernel, server,
dynamic, ...).  Its self time is its duration minus the part of that
interval its children cover (children of the parallel tree phase overlap,
so the covered part is the union of their intervals).

Usage:
  python3 perfbench/ledger.py SPANS.jsonl [--result RESULT.json]

prints the span table (count, total, self and median time per span name,
then self time per layer) and the per-layer metrics, each ratio with its
base.  run.py uses per_layer_metrics() for the --trace 1 result line.
"""

import argparse
import json
import math
import statistics
import sys


def load_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def percentile(values, q):
    """q-th percentile (0..100), linear between closest ranks."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return percentile(values, 50)


def split_updates(updates):
    """(warm, cold) latencies: warm iff UpdateStats::incremental, i.e. the
    G'-level weight did not grow — not the graph-level factor."""
    warm = [u["ms"] for u in updates if u["incremental"]]
    cold = [u["ms"] for u in updates if not u["incremental"]]
    return warm, cold


def duration_ns(span):
    return span["end_ns"] - span["start_ns"]


def covered_ns(start, end, intervals):
    """Length of [start, end) covered by the union of `intervals`."""
    total = 0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """{span id: self time in ns}."""
    children = {}
    for s in spans:
        if s["parent"]:
            children.setdefault(s["parent"], []).append(
                (s["start_ns"], s["end_ns"]))
    return {
        s["id"]: duration_ns(s) - covered_ns(
            s["start_ns"], s["end_ns"], children.get(s["id"], []))
        for s in spans
    }


def layer_of(name):
    return name.split(".", 1)[0]


def span_table(spans):
    """Rows (name, count, total_ms, self_ms, median_ms), by self time."""
    selfs = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    rows = []
    for name, group in by_name.items():
        durs = [duration_ns(s) / 1e6 for s in group]
        rows.append((name, len(group), sum(durs),
                     sum(selfs[s["id"]] for s in group) / 1e6, median(durs)))
    return sorted(rows, key=lambda r: -r[3])


def layer_self_ms(spans):
    selfs = self_times(spans)
    out = {}
    for s in spans:
        layer = layer_of(s["name"])
        out[layer] = out.get(layer, 0.0) + selfs[s["id"]] / 1e6
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def _named(spans, name):
    return [s for s in spans if s["name"] == name]


def _durs_ms(spans, name):
    return [duration_ns(s) / 1e6 for s in _named(spans, name)]


def _ratio(num, den, what):
    if den <= 0:
        raise ValueError("no base for " + what)
    return num / den


def per_layer_metrics(spans, result):
    """{metric: {"value", "unit", "base"}} from a traced run's spans and
    the same run's result JSON (timed-pass samples)."""
    out = {}

    def put(name, value, unit, base=""):
        out[name] = {"value": value, "unit": unit, "base": base}

    by_id = {s["id"]: s for s in spans}
    kids = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)

    put("hopset.build_ms", median(_durs_ms(spans, "hopset.build")), "ms")
    put("hopset.edges",
        median([s["args"]["edges"] for s in _named(spans, "hopset.build")]),
        "count")
    put("simgraph.build_ms", median(_durs_ms(spans, "simgraph.build")), "ms")

    le = _named(spans, "oracle.le_lists")
    trees = _named(spans, "oracle.trees")
    put("oracle.tree_ms", median(_durs_ms(spans, "oracle.le_lists")), "ms",
        "median le_lists_oracle call, one tree")
    put("oracle.relaxations",
        median([s["args"]["relaxations"] for s in trees]), "count",
        "per ensemble (all trees)")
    put("oracle.semiring_ops",
        median([s["args"]["semiring_ops"] for s in trees]), "count",
        "per ensemble (all trees)")
    put("oracle.base_iterations",
        median([s["args"]["base_iterations"] for s in le]), "count",
        "per tree")
    skipped = sum(s["args"]["levels_skipped"] for s in le)
    decided = sum(s["args"]["levels_skipped"] + s["args"]["levels_warm"] +
                  s["args"]["levels_full"] for s in le)
    put("oracle.level_skip_ratio", _ratio(skipped, decided, "level skips"),
        "ratio", "%d skipped / %d level decisions" % (skipped, decided))
    put("oracle.work_per_mlogn", median([
        s["args"]["semiring_ops"] /
        (s["args"]["trees"] * s["args"]["m"] * math.log2(s["args"]["n"]))
        for s in trees]), "ratio",
        "semiring ops per tree / (m log2 n), m and n of the input graph")

    put("frt.tree_build_ms", median(_durs_ms(spans, "frt.tree_build")), "ms")
    put("index.build_ms", median(_durs_ms(spans, "index.build")), "ms")
    nodes_per_op = {}
    for s in _named(spans, "index.build"):
        nodes_per_op[s["op"]] = nodes_per_op.get(s["op"], 0) + s["args"]["nodes"]
    put("index.nodes", median(list(nodes_per_op.values())), "count",
        "flat nodes per ensemble")
    put("index.rebuild_ms", median(_durs_ms(spans, "index.rebuild")), "ms",
        "FrtIndex::build of one maintained tree")

    put("serialize.save_ms", median(_durs_ms(spans, "serialize.save")), "ms")
    put("serialize.map_ms", median(_durs_ms(spans, "serialize.map")), "ms")
    put("serialize.artefact_mb", median(
        [s["args"]["artefact_mb"] for s in _named(spans, "serialize.save")]),
        "MB")
    put("serialize.bulk_bytes_copied", max(
        s["args"]["bulk_bytes_copied"] for s in _named(spans, "serialize.map")),
        "bytes", "max over mapped loads")

    imbalance = []
    for phase in spans:
        if phase["name"] not in ("oracle.trees", "sequential.trees"):
            continue
        per_tree = [duration_ns(t) for t in kids.get(phase["id"], [])
                    if t["name"] == "frt.tree"]
        imbalance.append(max(per_tree) / statistics.fmean(per_tree))
    put("parallel.tree_imbalance", median(imbalance), "ratio",
        "max / mean tree time per ensemble")
    first_build = min((s for s in _named(spans, "ensemble.build")
                       if by_id.get(s["parent"], {}).get("name") == "op.build"),
                      key=lambda s: s["start_ns"])
    one = _named(spans, "parallel.build_1thread")[0]
    put("parallel.speedup",
        _ratio(duration_ns(one), duration_ns(first_build), "speedup"),
        "ratio", "%.1f ms at 1 thread / %.1f ms at %d threads" % (
            duration_ns(one) / 1e6, duration_ns(first_build) / 1e6,
            result["meta"]["threads"]))

    put("router.route_us",
        median([d * 1e3 for d in _durs_ms(spans, "router.route")]), "us",
        "per batch")
    kernels = [s for s in spans if s["name"].startswith("kernel.query_batch.")]
    for kind in ("uniform", "bfs_local", "zipf"):
        group = [s for s in kernels if s["name"].endswith("." + kind)]
        ns = sum(duration_ns(s) for s in group)
        computed = sum(s["args"]["computed"] for s in group)
        put("kernel.pair_ns." + kind, _ratio(ns, computed, kind), "ns",
            "%.1f ms / %d computed pairs" % (ns / 1e6, computed))
    batches = _named(spans, "replay.batch")
    probes = sum(s["args"]["lca_probes"] for s in kernels)
    put("kernel.lca_probes", _ratio(probes, len(batches), "probes"),
        "count", "%d probes / %d batches" % (probes, len(batches)))
    cached = [s for s in kernels if s["args"]["cached"]]
    hits = sum(s["args"]["cache_hits"] for s in cached)
    misses = sum(s["args"]["cache_misses"] for s in cached)
    conflicts = sum(s["args"]["cache_conflicts"] for s in cached)
    put("cache.hit_ratio", _ratio(hits, hits + misses, "hits"), "ratio",
        "%d hits / %d cacheable pairs" % (hits, hits + misses))
    put("cache.conflict_ratio", _ratio(conflicts, misses, "conflicts"),
        "ratio", "%d conflicts / %d misses" % (conflicts, misses))

    shard = []
    for b in batches:
        d = [duration_ns(k) for k in kids.get(b["id"], [])
             if k["name"].startswith("kernel.")]
        shard.append(max(d) / statistics.fmean(d))
    put("server.shard_imbalance", median(shard), "ratio",
        "max / mean shard time per batch")
    put("server.batch_p99_ms", percentile(result["batch_ms"], 99), "ms",
        "p99 of %d untraced-pass batches" % len(result["batch_ms"]))
    put("server.load_ms", median(_durs_ms(spans, "server.load")), "ms")
    put("server.flip_batch_ms", median(_durs_ms(spans, "server.flip_batch")),
        "ms", "first batch after a stage_swap")

    upd = _named(spans, "dynamic.update")
    warm = [s for s in upd if s["args"]["incremental"]]
    cold = [s for s in upd if not s["args"]["incremental"]]
    put("dynamic.update_ms.warm",
        median([duration_ns(s) / 1e6 for s in warm]), "ms",
        "%d warm updates" % len(warm))
    put("dynamic.update_ms.cold",
        median([duration_ns(s) / 1e6 for s in cold]), "ms",
        "%d cold updates" % len(cold))
    put("dynamic.snapshot_ms", median(_durs_ms(spans, "dynamic.snapshot")),
        "ms")
    put("dynamic.relaxations.warm",
        median([s["args"]["relaxations"] for s in warm]), "count",
        "per warm update")
    for key in ("levels_recomputed", "levels_skipped", "trees_rebuilt"):
        put("dynamic." + key,
            statistics.fmean(s["args"][key] for s in upd), "count",
            "mean per update over %d updates" % len(upd))

    # Tracing overhead: the traced ops against the same ops untraced.  The
    # first op.build is setup's (not a timed-pass sample).
    builds = sorted(_named(spans, "op.build"), key=lambda s: s["start_ns"])[1:]
    traced = sum(duration_ns(s) for s in builds) + sum(
        duration_ns(s) for s in spans if s["name"] in ("op.batch", "op.update"))
    untraced = 1e9 * sum(result["build_s"]) + 1e6 * (
        sum(result["batch_ms"]) + sum(result["flip_ms"]) +
        sum(u["ms"] for u in result["updates"]))
    put("trace.overhead_pct", 100.0 * (traced / untraced - 1.0), "%",
        "%.1f ms traced / %.1f ms untraced, same ops" % (
            traced / 1e6, untraced / 1e6))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("spans")
    ap.add_argument("--result", help="result JSON of the same traced run")
    args = ap.parse_args(argv)
    spans = load_spans(args.spans)
    print("%-32s %7s %11s %11s %10s" % ("span", "count", "total_ms",
                                        "self_ms", "median_ms"))
    for name, count, total, self_ms, med in span_table(spans):
        print("%-32s %7d %11.2f %11.2f %10.3f" % (name, count, total, self_ms,
                                                  med))
    print("\n%-32s %11s" % ("layer", "self_ms"))
    for layer, ms in layer_self_ms(spans).items():
        print("%-32s %11.2f" % (layer, ms))
    if args.result:
        with open(args.result) as f:
            result = json.load(f)
        print("\n%-32s %14s %-6s %s" % ("metric", "value", "unit", "base"))
        for name, v in per_layer_metrics(spans, result).items():
            print("%-32s %14.6g %-6s %s" % (name, v["value"], v["unit"],
                                            v["base"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
