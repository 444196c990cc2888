"""Cross-scheme comparison sweeps and divergence probes.

The headline claim is that the two-phase scheme's advantage over the
three-phase one grows without bound: the ratio of their depth-optimized
throughputs is

    (beta1 * sqrt(log_beta(beta1)) / (c_n * beta))
        * beta ** (2 * (1 - sqrt(log_beta(beta1))) * sqrt(log_beta(n/2)))

and the exponent is positive because beta1 < beta. Limits are not directly
testable, so the claim is exercised as strict monotonicity on finite grids.
ratio_original evaluates both the direct division and the closed form and
raises DomainError when they disagree; the check is an explicit test, so it
also runs under -O.

compare_schemes assembles one row of named metrics per grid point. Scheme
columns hold the interference-limited values; the area factor travels in
its own column so every row keeps ratio == T1_smooth / T_orig regardless of
regime. Rows that fail carry the message in .error and the sweep continues.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .area import _demand, _split, area_from_exponent, check_area_exponent
from .errors import DomainError
from .params import NetworkConfig, SchemeParams, _check_node_count
from .throughput import (
    _multihop,
    _smooth_memo,
    check_multihop_constant,
    optimal_modified,
    original_throughput,
    per_pair_rate,
)

#: Relative tolerance for the two-route ratio cross-check.
RATIO_ROUTE_TOL = 1e-9


class SweepRow(NamedTuple):
    """Metrics for one network size; extras is empty when error is set."""

    n: int
    extras: dict[str, float]
    error: str | None = None


def ratio_original_closed_form(n: int, params: SchemeParams) -> float:
    """Throughput ratio of the two schemes from the closed-form expression.

    Raises DomainError when the expression leaves float range.
    """
    ratio = _smooth_memo(n, params)[2]
    if not math.isfinite(ratio):
        raise DomainError(f"closed-form ratio is not finite at n={n}")
    return ratio


def ratio_original(n: int, params: SchemeParams) -> float:
    """Two-phase over three-phase depth-optimized throughput (smooth depth).

    Computed by direct division and checked against the closed-form route
    to RATIO_ROUTE_TOL; a disagreement raises DomainError, as do a route
    that leaves float range and a three-phase throughput that underflows
    to 0. The routes share c_n and both depths, but no power of n/2 or of
    beta, so a slip in any power shows as a disagreement.
    """
    modified = optimal_modified(n, params).smooth.value
    original = original_throughput(n, params)
    if not original > 0.0:
        raise DomainError(f"three-phase throughput underflows to {original:g} at n={n}")
    direct = modified / original
    closed = ratio_original_closed_form(n, params)
    if not (math.isfinite(direct) and abs(direct - closed) <= RATIO_ROUTE_TOL * direct):
        raise DomainError(f"ratio routes disagree at n={n}")
    return direct


def check_log_base(a: float) -> None:
    """Raise DomainError unless a, ratio_log_adjusted's log base, exceeds 1
    and is finite: log_a(n) is 0 at a = inf."""
    if not 1.0 < a < math.inf:
        raise DomainError(f"log base must exceed 1 and be finite, got {a}")


def ratio_log_adjusted(n: int, a: float, params: SchemeParams) -> float:
    """ratio_original divided by log_a(n); still diverges, just slower."""
    check_log_base(a)
    return ratio_original(n, params) / (math.log(n) / math.log(a))


def compare_schemes(
    n_grid: list[int],
    cfg: NetworkConfig,
    params: SchemeParams,
    c_mh: float,
    log_base: float = 10.0,
    nu: float | None = None,
) -> list[SweepRow]:
    """One SweepRow of named metrics per grid point.

    Metrics: T1_smooth, T1_int (absent when no integer depth fits), T_orig,
    multihop, ratio, ratio_log_adj, per_pair, area_factor. The area grows as
    n**nu when nu is given, else stays at cfg.area. area_factor is classify's
    factor, min(1, c0*n/area**(alpha/2)). The grid must be strictly
    increasing, and a constant that no row can use raises DomainError once,
    before the first row, with its owner's message: an empty grid, nu not
    finite and >= 0, c_mh not positive, log_base not finite and above 1,
    then a fixed area whose area**(alpha/2) overflows. A row whose
    computation raises or produces a non-finite value is annotated and the
    sweep moves on; its error names, first, an n that NetworkConfig
    refuses, then an overflowing n**nu or its area**(alpha/2), a failed
    metric and a non-finite metric.
    """
    if not n_grid:
        raise DomainError("sweep grid is empty")
    if nu is not None:
        check_area_exponent(nu)
    check_multihop_constant(c_mh)
    check_log_base(log_base)
    alpha, c0 = cfg.alpha, cfg.c0
    if nu is None:
        demand = _demand(cfg.area, alpha)
    rows: list[SweepRow] = []
    prev: int | None = None
    isfinite = math.isfinite  # read once, not once per metric of every row
    for n in n_grid:
        if prev is not None and n <= prev:
            raise DomainError(f"grid must increase strictly, got {n} after {prev}")
        prev = n
        try:
            # a bad n is named before n**nu is taken of it
            _check_node_count(n)
            if nu is not None:
                demand = _demand(area_from_exponent(n, nu), alpha)
            both = optimal_modified(n, params)
            extras = {"T1_smooth": both.smooth.value}
            if both.integer is not None:
                extras["T1_int"] = both.integer.value
            extras["T_orig"] = original_throughput(n, params)
            extras["multihop"] = _multihop(n, c_mh)
            extras["ratio"] = ratio_original(n, params)
            extras["ratio_log_adj"] = ratio_log_adjusted(n, log_base, params)
            extras["per_pair"] = per_pair_rate(n, params)
            extras["area_factor"] = _split(n, c0, demand)[1]
            for key, value in extras.items():
                if not isfinite(value):
                    raise DomainError(f"metric {key} is not finite at n={n}")
        except (ValueError, OverflowError) as exc:
            rows.append(tuple.__new__(SweepRow, (n, {}, str(exc))))
        else:
            rows.append(tuple.__new__(SweepRow, (n, extras, None)))
    return rows
