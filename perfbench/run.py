"""Benchmark of the distmagic library and CLI.

One closed-loop client (one process, one thread; each op starts when the
previous one has finished) runs the op list drawn from the seed pass after
pass, always finishing a pass, until --seconds of op time has been measured.
Every op's output is checked after the op, outside the timed region.  Every
op is deterministic, so its latency is the best of its runs across the
passes: bursts of contention from other work on a shared host only slow a
run, and the passes of one run spread over its whole length.

    python3 perfbench/run.py --workload search-certify --seed 1 --seconds 20 --trace 0

With --trace 0 the end-to-end metrics are measured untraced.  With --trace 1
untraced and traced passes alternate: the traced passes give the per-layer
metrics (per pass) and the ratio of the two gives the tracing overhead.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_LAUNCHES = 21  # set-up launches per run
TAIL_BEYOND = 10  # op_tail_ms is the highest percentile with this many ops beyond it
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"))


@dataclass
class Record:
    op: str
    seconds: float
    error: str | None
    units: object


def launch(imports) -> float:
    """Wall time of one fresh interpreter importing what the workload needs."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import {', '.join(imports)}"
    start = perf_counter()
    subprocess.run([sys.executable, "-I", "-c", code], check=True)
    return perf_counter() - start


def run_pass(ops, tracer=None) -> list[Record]:
    records = []
    for op in ops:
        if tracer is not None:
            tracer.op, tracer.paused = op.id, False
        start = perf_counter()
        try:
            result, error = op.run(), None
        except Exception:
            result, error = None, traceback.format_exc()
        seconds = perf_counter() - start
        if tracer is not None:
            tracer.paused = True
        units = None
        if error is None:
            try:
                error = op.check(result)
                units = op.units(result)
            except Exception:
                error = traceback.format_exc()
        records.append(Record(op.id, seconds, error, units))
    return records


def busy(passes) -> float:
    return sum(r.seconds for records in passes for r in records)


def end_to_end(workload, passes, setups):
    unit_name, unit, rate = workload.unit_metric
    n, runs = len(passes[0]), len(passes)
    # every op is deterministic, so its latency is the best of its runs, one
    # per pass: contention from other work on the host only ever slows a run
    best = [min(records[i].seconds for records in passes) for i in range(n)]
    op_ms = sorted(seconds * 1e3 for seconds in best)
    tail_rank = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    records = [r for records in passes for r in records]
    failed = sum(r.error is not None for r in records)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": n / sum(best),
        "op_p50_ms": statistics.median(op_ms),
        "op_tail_ms": op_ms[tail_rank],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    per_op = f"{n} ops, each the best of {runs} passes"
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters importing "
                   + ", ".join(workload.imports),
        "ops_per_s": f"ops per second of best op time, {per_op}",
        "op_p50_ms": per_op,
        "op_tail_ms": f"p{100 * (tail_rank + 1) / n:.1f} "
                      f"({n - tail_rank - 1} of {n} ops beyond), {per_op}",
        "peak_rss_mb": "peak resident set of the benchmark process",
    }
    units = [r.units for r in passes[0] if r.error is None]
    extra = {
        "fail_ratio": (failed / len(records), "ratio", f"{failed}/{len(records)} op runs failed"),
        unit_name: (rate(units, sum(best)), unit, workload.note),
    }
    return metrics, notes, extra


def print_line(name, value, unit, note=""):
    print(f"  {name:<34} {value:>16.6g} {unit:<6} {note}")


def main(argv=None) -> int:
    # imported here because they import distmagic, which __main__ puts on the path
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="minimal op lists, for smoke tests")
    args = parser.parse_args(argv)

    from tracing import METRICS, Tracer

    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.quick, OUT)
    try:
        if args.trace:
            tracer = Tracer()
            plain, traced = [], []
            while not plain or busy(plain) + busy(traced) < args.seconds:
                plain.append(run_pass(workload.ops))
                tracer.install()
                try:
                    traced.append(run_pass(workload.ops, tracer))
                finally:
                    tracer.uninstall()
            passes = plain + traced
            values = tracer.metrics(len(traced), busy(traced) / busy(plain) - 1)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in METRICS}
            tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            # set-up launches are spread evenly over the run's op time; the
            # first launch is not counted because it writes bytecode caches
            launch(workload.imports)
            setups, passes = [], []
            while not passes or busy(passes) < args.seconds:
                while (len(setups) < SETUP_LAUNCHES
                       and busy(passes) >= len(setups) * args.seconds / SETUP_LAUNCHES):
                    setups.append(launch(workload.imports))
                passes.append(run_pass(workload.ops))
            setups += [launch(workload.imports) for _ in range(SETUP_LAUNCHES - len(setups))]
            values, notes, extra = end_to_end(workload, passes, setups)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    finally:
        workload.cleanup()

    records = [r for records in passes for r in records]
    failures = [r for r in records if r.error is not None]
    print(f"workload {args.workload}  seed {args.seed}  closed loop, 1 client  "
          f"{len(passes)} passes  attempted {len(records)}  failed {len(failures)}")
    for name, entry in metrics.items():
        print_line(name, entry["value"], entry["unit"], "" if args.trace else notes.get(name, ""))
    if args.trace:
        print(f"  traced {len(traced)} of {len(passes)} passes; counts and times are per pass."
              "  Lazy adjacency (Graph._adjacency) is charged to whichever layer first calls"
              " neighbors().")
    else:
        for name, (value, unit, note) in extra.items():
            print_line(name, value, unit, note)
    for finding in sorted(workload.findings):
        print(f"reference disagreement (not an op failure) {finding}")
    for r in failures:
        print(f"FAILED op {r.op}: {r.error.strip().splitlines()[-1]}")
    print(json.dumps({"correct": not failures, "attempted": len(records),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    if not (SRC / "distmagic" / "__init__.py").is_file():
        print(f"error: no distmagic sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.exit(main())
