"""Self-test of the tracer. Usage, from the root of a checkout:

    python3 bench/selftest.py

Checks that installing the tracer wraps every binding of every public
hiercoop function (layer_choice in optimizer, throughput, cli and the
package root among them), that one whole sweep_grid pass counts exactly
4, 4, 3 and 2 calls per row for optimal_modified, layer_choice,
original_throughput and ratio_original, and that restoring puts every
original back. Prints "selftest: PASS" and exits 0, or lists the failures
and exits 1.
"""
from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(1, str(ROOT / "src"))

import hiercoop  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, leftover_wrappers, public_functions  # noqa: E402

#: Namespaces that bind layer_choice; a wrapper missing from any undercounts.
LAYER_CHOICE_HOMES = ("hiercoop", "hiercoop.optimizer", "hiercoop.throughput", "hiercoop.cli")


def main() -> int:
    failures: list[str] = []
    originals = public_functions()
    wl = workloads.build("sweep_grid", 0, ROOT)

    with Tracer() as tracer:
        failures += [f"not wrapped: {b}" for b in tracer.unwrapped_bindings()]
        for home in LAYER_CHOICE_HOMES:
            if sys.modules[home].layer_choice is originals["optimizer.layer_choice"]:
                failures.append(f"not wrapped: {home}.layer_choice")
        for op in wl.ops:
            failures += wl.check(op, wl.run(op))
    rows = len(wl.ops) * wl.rows_per_op
    for key, want in run.SWEEP_GRID_CALLS_PER_ROW.items():
        got = tracer.stats[key].calls / rows
        if got != want:
            failures.append(f"{key}: {got!r} calls per row, expected {want!r}")

    failures += [f"not restored: {b}" for b in leftover_wrappers()]
    if hiercoop.layer_choice is not originals["optimizer.layer_choice"]:
        failures.append("not restored: hiercoop.layer_choice")

    for line in failures:
        print(f"selftest: {line}", file=sys.stderr)
    print(f"selftest: {'FAIL' if failures else 'PASS'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
