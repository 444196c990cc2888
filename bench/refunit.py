"""The reference unit that every ``*_ref`` metric is divided by.

reference_unit() is a fixed, stdlib-only piece of interpreter work that
mixes the two kinds of work the workloads do: a closed-form depth scan
(float powers and logs, a small frozen dataclass per candidate, rejected
candidates raised and caught, "%.12g" formatting of each row) and option
parsing (string tests, splits, int/float conversion, f-string output). It
calls no hiercoop code. The benchmark runs it once right before every timed
op, in the same thread, and reports the op's wall time divided by the
unit's wall time. The host's speed drifts; a unit of similar work drifts
with it, so the quotient repeats where wall time does not.

The body is frozen. Editing it changes the length of the unit and so
redefines every ``*_ref`` metric; such an edit must be its own change,
followed by a fresh baseline, never part of a change that claims a gain.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class _Point:
    h: int
    x: float
    y: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.y):
            raise ValueError(f"value is not finite: {self.y}")


class _Reject(ValueError):
    pass


def _value(h: int, x: float) -> _Point:
    e = (h - 1.0) / h
    top = 2.0 * (x * 40.0) ** e / 8.0**e
    if top < 2.0:
        raise _Reject(f"top {top:.6g} below 2 at h={h}")
    pre = 1.0 / (h * (1.0 + 1.0 / x) ** e * 4.0 ** ((h - 1) / 2.0))
    return _Point(h=h, x=x, y=pre * (x / 2.0) ** e)


_ARGV = (
    "--n 131072 --rate-q 24 --area 1.5 --alpha 3 --grid 1024:4096:3:log --format jsonl"
).split()


def _parse(argv: list[str]) -> dict[str, object]:
    opts: dict[str, object] = {}
    it = iter(argv)
    for flag in it:
        if not flag.startswith("--"):
            raise _Reject(flag)
        raw = next(it)
        key = flag[2:].replace("-", "_")
        try:
            opts[key] = int(raw)
        except ValueError:
            try:
                opts[key] = float(raw)
            except ValueError:
                opts[key] = raw.split(":") if ":" in raw else raw
    return opts


def reference_unit() -> int:
    """Run one reference unit and return the length of the text it built."""
    lines = []
    for i in range(1, 25):
        x = 1.8**i
        best = None
        for h in range(2, 9):
            try:
                p = _value(h, x)
            except _Reject:
                continue
            if best is None or p.y > best.y:
                best = p
        row = {"x": x, "h": best.h, "y": best.y, "lg": math.log(x) / math.sqrt(x)}
        lines.append(",".join("%.12g" % v for v in row.values()))
    for _ in range(12):
        opts = _parse(_ARGV)
        lines.append(" ".join(f"{k} = {v}" for k, v in sorted(opts.items())))
    return len("\n".join(lines))
