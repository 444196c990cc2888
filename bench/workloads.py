"""The benchmark's three workloads: their inputs, their op and their checks.

Every workload is a list of ops, each a fixed, uniform unit of work, so the
ops of one workload cost about the same. The seed only permutes the op order
(and, for cli_mix, is the verify seed); the program receives the generated
inputs and nothing else.

* sweep_grid: explorer.compare_schemes over a log grid of n from 4 to 2**62
  at (R, Q) = (1, 1) and (1, 24). One op is one stride-interleaved slice of
  the grid at both rate pairs, so every op spans the whole n range.
* sweep_edge: the same kind of grid and slicing at Q/R = 0.25 + 1e-3, 1e-6
  and 1e-9, next to the domain edge, where the depth scan runs to the layer
  cap and accuracy is lowest.
* cli_mix: in-process hiercoop.cli.main with stdout captured. One op runs
  the five-command batch below once, in an order the seed permutes.

Ops call hiercoop through module attributes, looked up at call time, so a
traced run sees the calls into explorer.compare_schemes and cli.main.
"""
from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import hiercoop.cli
from hiercoop import NetworkConfig, derive, explorer

#: Smallest and largest network size of the sweep grids.
N_MIN, N_MAX = 4, 2**62

#: Multihop baseline constant passed to compare_schemes.
C_MH = 1.0

#: The cli_mix batch; "{seed}" is replaced by the workload seed.
CLI_BATCH: tuple[tuple[str, ...], ...] = (
    ("analyze", "--n", "131072"),
    ("analyze", "--n", "20000", "--rate-q", "24", "--format", "jsonl"),
    ("tradeoff", "--n", "200", "--area", "100", "--alpha", "4",
     "--candidate", "2:1:1", "--candidate", "1:1:1"),
    ("sweep", "--grid", "1024:1073741824:21:log", "--c-mh", "1"),
    ("verify", "--seed", "{seed}"),
)

#: Metrics whose accuracy is checked against the 50-digit reference.
ACC_METRICS = ("T1_smooth", "T_orig", "ratio", "per_pair")

#: Rows of the cli_mix sweep, for per-row trace counts.
CLI_SWEEP_ROWS = 21

#: Golden stdout of the cli_mix sweep, relative to the checkout root.
GOLDEN_SWEEP = Path("tests") / "golden" / "sweep_21pt.csv"


def log_grid(points: int) -> list[int]:
    """points strictly increasing integers, log-spaced from N_MIN to N_MAX."""
    grid: list[int] = []
    prev = N_MIN - 1
    for i in range(points):
        n = max(round(N_MIN * (N_MAX / N_MIN) ** (i / (points - 1))), prev + 1)
        grid.append(n)
        prev = n
    return grid


@dataclass(frozen=True)
class Workload:
    """Inputs and behaviour of one workload, built by build()."""

    name: str
    ops: list
    """Op inputs in the seeded order; the timed loop cycles through them."""

    run: Callable[[object], object]
    """Runs one op; this call is the timed window."""

    check: Callable[[object, object], list[str]]
    """(op, output) -> failed checks, empty when right. The first output
    seen for an op input becomes the expected one for later runs."""

    accuracy_cases: Callable[[], list[tuple[float, int, float, float, str]]]
    """(value, n, R, Q, metric) for every ACC_METRICS value checked so far."""

    rows_per_op: float
    """Sweep rows one op produces, for per-row trace counts."""

    count_period: int
    """Ops after which every call count has gone through a whole cycle."""


def _sweep_workload(
    name: str, seed: int, rates: tuple[tuple[float, float], ...], points: int, slices: int
) -> Workload:
    if points % slices:
        raise ValueError(f"{points} grid points do not split into {slices} equal slices")
    grid = log_grid(points)
    cfg = NetworkConfig(n=N_MIN)
    params = [derive(R, Q) for R, Q in rates]
    order = list(range(slices))
    random.Random(seed).shuffle(order)
    ops = [(k, grid[k::slices]) for k in order]
    expected: dict[int, list] = {}

    def run(op: tuple[int, list[int]]) -> list:
        return [explorer.compare_schemes(op[1], cfg, p, C_MH) for p in params]

    def check(op: tuple[int, list[int]], out: list) -> list[str]:
        bad = [f"{name} n={row.n}: {row.error}" for rows in out for row in rows if row.error]
        if expected.setdefault(op[0], out) != out:
            bad.append(f"{name} slice {op[0]}: rows differ from the warm-up pass")
        return bad

    def accuracy_cases() -> list[tuple[float, int, float, float, str]]:
        return [
            (row.extras[m], row.n, p.R, p.Q, m)
            for per_rate in expected.values()
            for p, rows in zip(params, per_rate)
            for row in rows
            if row.error is None
            for m in ACC_METRICS
        ]

    return Workload(
        name=name,
        ops=ops,
        run=run,
        check=check,
        accuracy_cases=accuracy_cases,
        rows_per_op=len(rates) * points / slices,
        count_period=slices,
    )


def _run_cli(argv: tuple[str, ...]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = hiercoop.cli.main(list(argv))
    return code, buf.getvalue()


def _cli_workload(seed: int, root: Path) -> Workload:
    golden = (root / GOLDEN_SWEEP).read_text(encoding="utf-8")
    batch = [tuple(a.replace("{seed}", str(seed)) for a in argv) for argv in CLI_BATCH]
    ops = [tuple(p) for p in itertools.permutations(batch)]
    random.Random(seed).shuffle(ops)
    expected: dict[tuple[str, ...], str] = {}

    def run(op: tuple[tuple[str, ...], ...]) -> list[tuple[int, str]]:
        return [_run_cli(argv) for argv in op]

    def check(op: tuple[tuple[str, ...], ...], out: list[tuple[int, str]]) -> list[str]:
        bad = []
        for argv, (code, text) in zip(op, out):
            cmd = " ".join(argv)
            if code != 0:
                bad.append(f"{cmd}: exit code {code}")
            elif expected.setdefault(argv, text) != text:
                bad.append(f"{cmd}: stdout differs from the warm-up op")
            elif argv[0] == "sweep" and text != golden:
                bad.append(f"{cmd}: stdout differs from {GOLDEN_SWEEP}")
            elif argv[0] == "verify" and not text.endswith("verify: PASS\n"):
                bad.append(f"{cmd}: no 'verify: PASS' line")
        return bad

    def accuracy_cases() -> list[tuple[float, int, float, float, str]]:
        # the printed sweep rows and both analyze reports, at 12 printed digits
        cases = []
        for argv, text in expected.items():
            if argv[0] == "sweep":
                for rec in csv.DictReader(io.StringIO(text)):
                    cases += [(float(rec[m]), int(rec["n"]), 1.0, 1.0, m) for m in ACC_METRICS]
            elif argv[0] == "analyze":
                if "jsonl" in argv:
                    rec = json.loads(text)
                else:
                    rec = dict(line.split(" = ", 1) for line in text.splitlines())
                R, Q, n = float(rec["R"]), float(rec["Q"]), int(rec["n"])
                cases += [(float(rec[m]), n, R, Q, m) for m in ACC_METRICS]
        return cases

    return Workload(
        name="cli_mix",
        ops=ops,
        run=run,
        check=check,
        accuracy_cases=accuracy_cases,
        rows_per_op=CLI_SWEEP_ROWS,
        count_period=1,
    )


#: name -> function(seed, checkout root) that builds it; why each exists is in README.md.
WORKLOADS: dict[str, Callable[[int, Path], Workload]] = {
    "sweep_grid": lambda seed, root: _sweep_workload(
        "sweep_grid", seed, ((1.0, 1.0), (1.0, 24.0)), points=1000, slices=100
    ),
    "sweep_edge": lambda seed, root: _sweep_workload(
        "sweep_edge", seed,
        ((1.0, 0.25 + 1e-3), (1.0, 0.25 + 1e-6), (1.0, 0.25 + 1e-9)),
        points=480, slices=160,
    ),
    "cli_mix": lambda seed, root: _cli_workload(seed, root),
}


def build(name: str, seed: int, root: Path) -> Workload:
    """The workload's inputs for this seed; part of the measured set-up."""
    return WORKLOADS[name](seed, root)
