"""hiercoop benchmark.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sweep_grid|sweep_edge|cli_mix \\
        --seed N --seconds S --trace 0|1

--trace 0 measures the end-to-end metrics with no instrumentation. --trace 1
is a separate run that wraps hiercoop's public functions (see tracer.py) and
reports the per-layer metrics. Both runs check every op's output. The last
line of stdout is one JSON object: correct, attempted, failed, metrics; the
line before it gives the details behind the metrics (sample counts, the
length of one reference unit, wall-unit figures, the full call table).
Metric names and units come from BENCHMARK.json. See bench/README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from refunit import reference_unit
from tracer import CallStats, Tracer, leftover_wrappers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: Files of the program and of its checks that the benchmark needs.
REQUIRED = (
    ROOT / "BENCHMARK.json",
    SRC / "hiercoop" / "cli.py",
    ROOT / "tests" / "golden" / "sweep_21pt.csv",
)

#: Set-up probes behind the setup_s median, each a pair of fresh child
#: processes (setup_probe.py, then setup_ref.py). They run spread evenly over
#: the timed loop, between ops, so the median covers the whole run.
SETUP_PROBES = 21

#: Seconds that setup_ref.py is taken to last: setup_s is each probe's set-up
#: time over its reference set-up's time, times this. Frozen with setup_ref.py.
SETUP_REF_NOMINAL_S = 0.075

#: Fewest timed ops in a run: the 90th percentile keeps ten samples beyond it.
MIN_OPS = 110

#: A timed loop that has not reached MIN_OPS by this time gives up; a traced
#: run has two loops and the whole run must end within 180 s.
MAX_RUN_S = 70.0


@dataclass
class Samples:
    """Timings of one timed loop.

    ref_s holds one more entry than op_s: the reference units run before
    the first op, between ops and after the last op. setup holds the
    set-up probes' (set-up, reference set-up) times, when the loop ran any.
    """

    op_s: list[float] = field(default_factory=list)
    ref_s: list[float] = field(default_factory=list)
    setup: list[tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    @property
    def ratios(self) -> list[float]:
        """Each op's time over the mean of the two reference units beside it."""
        refs = self.ref_s
        return [op * 2.0 / (refs[i] + refs[i + 1]) for i, op in enumerate(self.op_s)]


def percentiles(values: list[float]) -> tuple[float, float]:
    """(median, 90th percentile); refuses fewer than ten samples beyond the 90th."""
    n = len(values)
    if n - math.ceil(0.9 * n) < 10:
        raise ValueError(f"{n} samples leave fewer than ten beyond the 90th percentile")
    return statistics.median(values), statistics.quantiles(values, n=10)[8]


def timed_loop(
    wl,
    seconds: float,
    failures: list[str],
    period: int = 1,
    probe: Callable[[], tuple[float, float]] | None = None,
) -> Samples:
    """Cycle through the ops for `seconds`, with a reference unit before each
    op and one after the last.

    With a set-up `probe`, also calls it SETUP_PROBES times, spread evenly
    over the run, between ops. Stops at the first multiple of `period` ops
    after the time is up, all probes have run and at least MIN_OPS ops have
    run, so call counts cover whole cycles.
    """
    clock = time.perf_counter
    out = Samples()
    ops = wl.ops
    probes = SETUP_PROBES if probe else 0
    start = clock()
    deadline = start + seconds
    i = 0
    while True:
        if len(out.setup) < probes and clock() >= start + len(out.setup) * seconds / probes:
            out.setup.append(probe())
        t0 = clock()
        reference_unit()
        t1 = clock()
        out.ref_s.append(t1 - t0)
        if t1 >= deadline and i >= MIN_OPS and i % period == 0 and len(out.setup) == probes:
            break
        if t1 - start > MAX_RUN_S:
            failures.append(f"only {i} ops ran in {MAX_RUN_S:g} s")
            out.failed += 1
            break
        op = ops[i % len(ops)]
        i += 1
        t2 = clock()
        result = wl.run(op)
        out.op_s.append(clock() - t2)
        out.attempted += 1
        bad = wl.check(op, result)
        if bad:
            out.failed += 1
            failures.extend(bad)
    return out


def _child_seconds(cmd: list[str]) -> float:
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def setup_probe(name: str, seed: int) -> Callable[[], tuple[float, float]]:
    """A function that times one set-up and then the reference set-up, each
    in a fresh child process."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed)]
    ref_cmd = [sys.executable, str(BENCH / "setup_ref.py")]
    return lambda: (_child_seconds(cmd), _child_seconds(ref_cmd))


def setup_metrics(setup: list[tuple[float, float]]) -> dict[str, float]:
    """setup_s, and the wall figures behind it for the detail line.

    The host's speed drifts by half between batches of runs, and set-up
    time with it; the quotient by the adjacent reference set-up repeats.
    """
    ratio = statistics.median(s / r for s, r in setup)
    return {
        "setup_s": ratio * SETUP_REF_NOMINAL_S,
        "setup_ratio": ratio,
        "setup_wall_s": statistics.median(s for s, _ in setup),
        "setup_ref_wall_s": statistics.median(r for _, r in setup),
    }


def accuracy(wl, failures: list[str]) -> list[float]:
    """Correct digits of every covered output against the 50-digit reference."""
    import exact

    try:
        cases = wl.accuracy_cases()
    except (ValueError, KeyError) as exc:
        failures.append(f"unreadable output: {exc!r}")
        cases = []
    cache: dict[tuple[int, float, float], dict] = {}
    out = []
    for value, n, R, Q, metric in cases:
        ref = cache.get((n, R, Q))
        if ref is None:
            ref = cache[(n, R, Q)] = exact.reference(n, R, Q)
        out.append(exact.digits(value, ref[metric]))
    if not out:
        failures.append("no output to check accuracy on")
        out.append(0.0)
    return out


def timing_metrics(samples: Samples) -> dict[str, float]:
    ratio_p50, ratio_p90 = percentiles(samples.ratios)
    op_p50, op_p90 = percentiles(samples.op_s)
    return {
        "op_p50_ref": ratio_p50,
        "op_p90_ref": ratio_p90,
        "op_p50_us": op_p50 * 1e6,
        "op_p90_us": op_p90 * 1e6,
        "ops_per_s": len(samples.op_s) / sum(samples.op_s),
        "ref_unit_us": statistics.median(samples.ref_s) * 1e6,
    }


def layer_metric(name: str, tracer, ops: int, rows: float) -> float:
    """Value of a per-layer metric named layer.function.kind."""
    key, _, kind = name.rpartition(".")
    st = tracer.stats.get(key, CallStats())
    if kind == "calls_per_row":
        return st.calls / rows
    if kind == "calls_per_op":
        return st.calls / ops
    if kind == "us_per_row":
        return st.total_s * 1e6 / rows
    if kind == "us_per_call":
        return st.total_s * 1e6 / st.calls if st.calls else 0.0
    if kind == "self_us_per_call":
        return st.self_s * 1e6 / st.calls if st.calls else 0.0
    raise KeyError(f"unknown per-layer metric {name}")


#: Call counts per row that a sweep_grid traced run must reproduce exactly.
SWEEP_GRID_CALLS_PER_ROW = {
    "throughput.optimal_modified": 4.0,
    "optimizer.layer_choice": 4.0,
    "throughput.original_throughput": 3.0,
    "explorer.ratio_original": 2.0,
}


def traced_run(
    wl, seconds: float, names: list[str], failures: list[str]
) -> tuple[list[Samples], dict, dict]:
    """An untraced half, then a traced half over whole count periods.

    Returns both halves' samples, the values of the per-layer metrics
    `names` and the details.
    """
    untraced = timed_loop(wl, seconds / 2, failures)
    with Tracer() as tracer:
        unwrapped = tracer.unwrapped_bindings()
        traced = timed_loop(wl, seconds / 2, failures, period=wl.count_period)
    if unwrapped:
        failures.append(f"tracer left bindings unwrapped: {unwrapped}")
    leftover = leftover_wrappers()
    if leftover:
        failures.append(f"tracer did not restore: {leftover}")

    ops = len(traced.op_s)
    rows = ops * wl.rows_per_op
    values = {
        "trace_overhead": statistics.median(traced.ratios) / statistics.median(untraced.ratios)
    }
    for name in names:
        if name.count(".") == 2:
            values[name] = layer_metric(name, tracer, ops, rows)
    if wl.name == "sweep_grid":
        for key, want in SWEEP_GRID_CALLS_PER_ROW.items():
            got = layer_metric(f"{key}.calls_per_row", tracer, ops, rows)
            if got != want:
                failures.append(f"{key}: {got!r} calls per row, expected {want!r}")
    details = {
        "untraced_ops": len(untraced.op_s),
        "traced_ops": ops,
        "traced_rows": rows,
        "calls_total_us_self_us": {
            key: [st.calls, round(st.total_s * 1e6, 1), round(st.self_s * 1e6, 1)]
            for key, st in sorted(tracer.stats.items())
            if st.calls
        },
    }
    return [untraced, traced], values, details


def main(argv: list[str] | None = None) -> int:
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"bench: not a hiercoop checkout, missing {missing}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))
    import hiercoop
    import workloads

    if Path(hiercoop.__file__).resolve().parent != SRC / "hiercoop":
        print(f"bench: imported hiercoop from {hiercoop.__file__}, not {SRC}", file=sys.stderr)
        return 2

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    probe = None if args.trace else setup_probe(args.workload, args.seed)
    if probe:
        probe()  # warm-up child: a fresh checkout compiles its bytecode here
    wl = workloads.build(args.workload, args.seed, ROOT)
    failures: list[str] = []
    warm_failed = 0
    for op in wl.ops:  # untimed warm-up; its outputs become the expected ones
        bad = wl.check(op, wl.run(op))
        warm_failed += bool(bad)
        failures += bad
    # what set-up and warm-up left alive is not the ops' garbage to scan
    gc.collect()
    gc.freeze()

    details: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace:
        wanted = spec["per_layer"]
        loops, values, extra = traced_run(
            wl, args.seconds, [m["name"] for m in wanted], failures
        )
        details.update(extra)
    else:
        samples = timed_loop(wl, args.seconds, failures, probe=probe)
        loops = [samples]
        values = timing_metrics(samples)
        # ru_maxrss is in KiB on Linux; read it before mpmath is imported
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values.update(setup_metrics(samples.setup))
        digits = accuracy(wl, failures)
        values["acc_digits_min"] = min(digits)
        values["acc_digits_p50"] = statistics.median(digits)
        n = len(samples.op_s)
        details.update(
            op_samples=n,
            beyond_p50=n - math.ceil(0.5 * n),
            beyond_p90=n - math.ceil(0.9 * n),
            setup_samples=len(samples.setup),
            accuracy_samples=len(digits),
        )
        wanted = spec["end_to_end"]

    attempted = len(wl.ops) + sum(loop.attempted for loop in loops)
    failed = warm_failed + sum(loop.failed for loop in loops)
    values["err_ratio"] = failed / attempted
    gated = {m["name"] for m in wanted}
    details["other_metrics"] = {k: v for k, v in values.items() if k not in gated}
    for line in failures[:20]:
        print(f"bench: check failed: {line}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
