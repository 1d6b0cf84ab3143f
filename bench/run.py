"""lattik benchmark: one workload, end-to-end metrics or a traced per-layer run.

Usage, from the repository root:

    python3 bench/run.py --workload adjunction_sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

A run repeats passes until ``--seconds`` have elapsed, at least one.  A pass
imports lattik afresh and builds its inputs (set-up), then runs every item of
the workload once (the timed phase).  With ``--trace 1`` every untraced pass
is followed by a traced one and the per-layer metrics are reported instead.
Stdout ends with a ``meta`` line (environment, digest, item counts) and the
result line; a readable summary goes to stderr.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

from clock import ReferenceClock  # noqa: E402
from tracer import COUNTED, SPANNED, Tracer, leftover_wrappers  # noqa: E402
from workloads import WORKLOADS, fresh_import  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units():
    units = {}
    for name in SPANNED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in COUNTED:
        units[f"{name}.calls"] = "count"
    units["order.enumerate_morphisms.results"] = "count"
    units["topology.enumerate_continuous.yield"] = "ratio"
    units["corpus.dedup_yield"] = "ratio"
    units["ideals.ideal_masks.yield"] = "ratio"
    units["tensor.random_tensor_lattice.accept_ratio"] = "ratio"
    units["trace_overhead_frac"] = "ratio"
    return units


# Set-ups per pass; setup_s is the median over all of a run's set-ups.
SETUPS_PER_PASS = 3


@dataclass
class Pass:
    """Timings (reference-clock seconds) and outcome of one pass."""

    setup_s: list
    wall_s: float
    cpu_s: float
    raw_wall_s: float
    item_s: list
    failed: int
    digest: str
    units: int
    counters: dict = None
    self_s: dict = None
    leftovers: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)


def run_pass(workload, seed, clock, tracer=None):
    """Set up (fresh import + inputs) a few times, then run every item once."""
    setup_s = []
    for _ in range(SETUPS_PER_PASS):
        gc.collect()
        t0 = clock.now()
        lk = fresh_import()
        inputs = workload.setup(lk, seed)
        setup_s.append(clock.now() - t0)
    gc.collect()
    if tracer:
        tracer.install(lk.modules)
    try:
        w0, r0, c0, h0 = clock.now(), time.perf_counter(), time.process_time(), clock.handler_s
        (item_s, failed), out = workload.run(lk, inputs, tracer, clock.now)
        wall_s = clock.now() - w0
        raw_wall_s = time.perf_counter() - r0
        handler_s = clock.handler_s - h0
        cpu_raw = time.process_time() - c0
    finally:
        if tracer:
            tracer.restore()
    # CPU seconds outside the clock's handler, scaled like the wall time
    cpu_s = (cpu_raw - handler_s) * wall_s / (raw_wall_s - handler_s)
    digest, units = workload.finish(out)
    p = Pass(setup_s, wall_s, cpu_s, raw_wall_s, item_s, failed, digest, units)
    if hasattr(workload, "notes"):
        p.notes = workload.notes(out)
    if tracer:
        p.counters = tracer.counters()
        p.self_s = tracer.self_seconds(clock.at)
        p.leftovers = leftover_wrappers(lk.modules)
    return p


def measure(workload, seed, seconds, trace):
    """Passes until ``seconds`` elapse.

    Returns (untraced passes, traced passes, first tracer, clock).
    """
    untraced, traced = [], []
    first_tracer = None
    with ReferenceClock() as clock:
        start = time.perf_counter()
        while not untraced or time.perf_counter() - start < seconds:
            untraced.append(run_pass(workload, seed, clock))
            if trace:
                tracer = Tracer()
                traced.append(run_pass(workload, seed, clock, tracer))
                if first_tracer is None:
                    first_tracer = tracer
    return untraced, traced, first_tracer, clock


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[k - 1]


def end_to_end(untraced):
    latencies = sorted(x for p in untraced for x in p.item_s)
    return {
        "setup_s": statistics.median(s for p in untraced for s in p.setup_s),
        "wall_s": statistics.median(p.wall_s for p in untraced),
        "cpu_s": statistics.median(p.cpu_s for p in untraced),
        "items_per_s": statistics.median(p.units / p.wall_s for p in untraced),
        "item_p50_ms": percentile(latencies, 0.50) * 1e3,
        "item_p99_ms": percentile(latencies, 0.99) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(untraced, traced):
    out = dict(traced[0].counters)
    for name in SPANNED:
        out[f"{name}.self_s"] = statistics.median(p.self_s[name] for p in traced)
    out["trace_overhead_frac"] = (
        statistics.median(p.wall_s for p in traced)
        / statistics.median(p.wall_s for p in untraced)
        - 1
    )
    return out


def commit_id():
    """The checked-out commit read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name, seed, seconds, trace, workload=None):
    """Measure one workload; returns (meta, result) as printed."""
    workload = workload or WORKLOADS[name]()
    untraced, traced, first_tracer, clock = measure(workload, seed, seconds, trace)
    passes = untraced + traced
    attempted = sum(len(p.item_s) for p in passes)
    failed = sum(p.failed for p in passes)
    digests = sorted({p.digest for p in passes})
    leftovers = sorted({w for p in traced for w in p.leftovers})
    counts_repeat = all(p.counters == traced[0].counters for p in traced)
    meta = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit_id(),
        "platform": f"{platform.system()}-{platform.release()}-{platform.machine()}",
        "passes": len(untraced),
        "traced_passes": len(traced),
        "items_per_pass": len(untraced[0].item_s),
        "pass_wall_s": [p.wall_s for p in untraced],
        "pass_raw_wall_s": [p.raw_wall_s for p in untraced],
        "reference_ms": statistics.median(clock.samples) * 1e3,
        "units_per_pass": untraced[0].units,
        **untraced[0].notes,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "digest": digests[0] if len(digests) == 1 else digests,
    }
    if trace:
        meta["counts_repeat"] = counts_repeat
        meta["wrappers_left"] = leftovers
        spans = ROOT / ".bench_out" / f"spans-{name}-seed{seed}.csv.gz"
        first_tracer.write_spans(spans, clock.at)
        meta["spans_file"] = str(spans.relative_to(ROOT))
        values, units = per_layer(untraced, traced), per_layer_units()
        traced_wall = statistics.median(p.wall_s for p in traced)
        meta["self_share"] = {n: values[f"{n}.self_s"] / traced_wall for n in SPANNED}
    else:
        values, units = end_to_end(untraced), END_TO_END_UNITS
    result = {
        "correct": failed == 0 and len(digests) == 1 and not leftovers,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    return meta, result


def summarize(meta, result):
    """Readable lines for stderr."""
    lines = [
        f"# {meta['workload']} seed={meta['seed']} passes={meta['passes']} "
        f"items/pass={meta['items_per_pass']} failed={meta['failed']}/{meta['attempted']} "
        f"correct={result['correct']} digest={str(meta['digest'])[:16]}"
    ]
    for key, m in result["metrics"].items():
        lines.append(f"  {key:48s} {m['value']:>14.6g} {m['unit']}")
    if "self_share" in meta:
        lines.append("  self-time share of traced wall:")
        for n, share in sorted(meta["self_share"].items(), key=lambda kv: -kv[1]):
            if share >= 0.005:
                lines.append(f"    {n:46s} {share:6.1%}")
    return "\n".join(lines)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "lattik" / "__init__.py").is_file():
        print(f"bench: no lattik sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        meta, result = run_workload(name, args.seed, args.seconds, args.trace)
        print(summarize(meta, result), file=sys.stderr)
        print(json.dumps({"meta": meta}))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
        if len(names) > 1:
            print(json.dumps(result))
    print(json.dumps(combined if len(names) > 1 else result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
