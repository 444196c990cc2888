"""Child process that measures one set-up: import hiercoop.cli, build inputs.

Usage: python3 bench/setup_probe.py WORKLOAD SEED

Prints the set-up time in seconds. Interpreter start and the import of the
benchmark's own modules are left out, because the program controls neither.
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(1, str(ROOT / "src"))


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    start = time.perf_counter()
    import hiercoop.cli  # noqa: F401  (the import is what is measured)
    imported = time.perf_counter()
    import workloads
    building = time.perf_counter()
    workloads.build(name, seed, ROOT)
    built = time.perf_counter()
    print(repr((imported - start) + (built - building)))


if __name__ == "__main__":
    main()
