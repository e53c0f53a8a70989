"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload count-deep --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/`` and fails (exit 2, no result line) when that is missing.  Every
workload is a closed loop with one client: each query starts when the
previous one has finished, all inside this process.

``--trace 0`` measures the end-to-end metrics.  It repeats the workload's
query list until ``--seconds`` would be exceeded (at least ``MIN_PASSES``
times) and reports per-query medians, summed.  After each pass it times
``SETUP_PER_PASS`` fresh interpreters importing the package and building
the CLI parser, so the set-up samples are spread over the whole run.

``--trace 1`` runs the list once untraced and twice traced (see
``tracing.py``), reports the per-layer metrics of the traced passes, checks
that their exact counts repeat, and writes the spans of the first traced
pass to ``.perfbench/spans-<workload>.json``.

Metric names and units come from ``BENCHMARK.json``.  Every output is
checked against ``oracle``; a wrong output, nonzero exit or exception
counts as a failed query and never stops the run.
"""
from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PER_PASS = 3
MIN_PASSES = 3
# Exact counts that must repeat between two traced passes of the same code.
REPEATED_COUNTS = ("generate.vectors", "perms.contain_calls", "counting.pool_starts",
                   "verify.rows", "cli.out_bytes")
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from forest_patterns import cli; cli.build_parser()")


def time_setup() -> float:
    """Wall time of a fresh interpreter that imports the package and builds
    the CLI parser."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-E", "-s", "-c", SETUP_CODE, str(SRC)],
                   check=True, timeout=120, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def cpu_seconds() -> float:
    """User+sys CPU of this process and its finished children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_pass(queries, tracer=None) -> list[tuple[float, float, str | None]]:
    """Run every query once; returns (wall s, cpu s, error or None) per query."""
    results = []
    for q in queries:
        c0, t0 = cpu_seconds(), perf_counter()
        try:
            if tracer is None:
                out = q.run()
            else:
                with tracer.span("query", q.label):
                    out = q.run()
        except Exception:
            out, error = None, traceback.format_exc(limit=3).strip().splitlines()[-1]
        wall, cpu = perf_counter() - t0, cpu_seconds() - c0
        if out is not None:
            try:
                error = q.check(out)
            except Exception:
                error = "check raised " + traceback.format_exc(limit=3).strip().splitlines()[-1]
            if tracer is not None:
                tracer.counts["cli.out_bytes"] += len(out.text.encode())
        if error:
            print(f"FAILED {q.label}: {error}", file=sys.stderr)
        results.append((wall, cpu, error))
    return results


def end_to_end(queries, seconds: float) -> tuple[dict, list]:
    time_setup()  # may write bytecode; not a sample
    setups: list[float] = []
    passes: list[list] = []
    start = perf_counter()
    while True:
        passes.append(run_pass(queries))
        pass_wall = sum(r[0] for r in passes[-1])
        setups += [time_setup() for _ in range(SETUP_PER_PASS)]
        if len(passes) >= MIN_PASSES and perf_counter() - start + pass_wall > seconds:
            break
    walls = [statistics.median(p[i][0] for p in passes) for i in range(len(queries))]
    cpus = [statistics.median(p[i][1] for p in passes) for i in range(len(queries))]
    for q, w, c in zip(queries, walls, cpus):
        print(f"{w:8.3f}s wall {c:8.3f}s cpu  {q.label}", file=sys.stderr)
    print(f"{len(passes)} passes of {len(queries)} queries", file=sys.stderr)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    wall_s = sum(walls)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "throughput": sum(q.units for q in queries) / wall_s,
        "cpu_s": sum(cpus),
        "peak_rss_mb": max(own, kids) / 1024,
    }
    return metrics, [r for p in passes for r in p]


def per_layer(queries, workload: str, seed: int) -> tuple[dict, list, list[str]]:
    import tracing

    untraced = run_pass(queries)
    tracers, traced = [], []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracing.patched(tracer):
            traced.append(run_pass(queries, tracer))
        tracers.append(tracer)
    first, second = (tracing.layer_metrics(t) for t in tracers)
    problems = [f"{k} differs between traced passes: {first[k]} vs {second[k]}"
                for k in REPEATED_COUNTS if first[k] != second[k]]
    if workload == "enumerate-map" and first["counting.calls"]:
        problems.append(f"enumerate-map made {first['counting.calls']} counting calls")
    metrics = {k: (first[k] + second[k]) / 2 for k in first}
    traced_wall = statistics.mean(sum(r[0] for r in p) for p in traced)
    metrics["trace.overhead_ratio"] = traced_wall / sum(r[0] for r in untraced)

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    spans = tracers[0]
    (out_dir / f"spans-{workload}.json").write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "fields": ["parent", "layer", "name", "start_s", "end_s"],
        "spans": spans.spans,
        "dropped": spans.dropped,
    }))
    return metrics, untraced + traced[0] + traced[1], problems


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "forest_patterns" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'forest_patterns'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    queries = workloads.WORKLOADS[args.workload](random.Random(args.seed))
    problems: list[str] = []
    if args.trace:
        values, results, problems = per_layer(queries, args.workload, args.seed)
        wanted = spec["per_layer"]
    else:
        values, results = end_to_end(queries, args.seconds)
        wanted = spec["end_to_end"]
    for problem in problems:
        print(f"TRACE CHECK: {problem}", file=sys.stderr)
    failed = sum(1 for r in results if r[2])
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(results),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
