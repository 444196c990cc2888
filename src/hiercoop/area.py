"""Extended-area behavior: regime split and power-limited attenuation.

On a unit area the scheme is interference-limited and the scaling law
applies as is. Stretching the same n nodes over area A raises the
near-neighbor distance, and once A**(alpha/2) outgrows c0*n the network
becomes power-limited: every rate picks up the factor c0*n/A**(alpha/2).
The boundary is inclusive on the dense side, so factor = min(1, ...) is
continuous and equals 1 exactly at the crossover. _demand and _split own
that arithmetic on plain numbers, and _demand alone refuses a geometry
whose demand overflows; classify composes them for one NetworkConfig.

c0 absorbs hardware constants (power budget, noise level, bandwidth); the
tradeoff helper sweeps candidate (c0, R, Q) triples supplied by the caller.
"""
from __future__ import annotations

import enum
import math
from typing import NamedTuple

from .errors import DomainError
from .params import NetworkConfig, check_network_size, derive
from .throughput import smooth_modified


class Regime(enum.Enum):
    """Which resource caps the rate on the given area."""

    DENSE = "dense"
    SPARSE = "sparse"


class RegimeReport(NamedTuple):
    """Classification of one network geometry."""

    regime: Regime
    factor: float
    """Rate attenuation min(1, c0*n / area**(alpha/2))."""
    threshold: float
    """Signed margin c0*n - area**(alpha/2); nonnegative exactly when dense."""


def _demand(area: float, alpha: float) -> float:
    """area**(alpha/2), the power demand that c0*n is weighed against.

    Raises DomainError when it overflows a float.
    """
    try:
        return area ** (alpha / 2.0)
    except OverflowError:
        raise DomainError(
            f"area**(alpha/2) overflows at area={area:g}, alpha={alpha:g}"
        ) from None


#: _split's answer on the dense side, shared rather than rebuilt per call.
_DENSE = (Regime.DENSE, 1.0)


def _split(n: int, c0: float, demand: float) -> tuple[Regime, float]:
    """(regime, factor) of n nodes against the demand: factor = min(1, c0*n/demand).

    The boundary counts as dense.
    """
    supply = c0 * n
    # divide only on the sparse side: a tiny area underflows demand to 0
    if demand <= supply:
        return _DENSE
    return Regime.SPARSE, supply / demand


def classify(cfg: NetworkConfig) -> RegimeReport:
    """Dense/sparse split for one geometry; the boundary counts as dense.

    Raises DomainError when area**(alpha/2) overflows a float.
    """
    demand = _demand(cfg.area, cfg.alpha)
    regime, factor = _split(cfg.n, cfg.c0, demand)
    return RegimeReport(regime, factor, cfg.c0 * cfg.n - demand)


def check_area_exponent(nu: float) -> None:
    """Raise DomainError unless nu, the exponent of area_from_exponent, is >= 0 and finite."""
    if not 0.0 <= nu < math.inf:
        raise DomainError(f"area exponent must be >= 0 and finite, got {nu}")


def area_from_exponent(n: int, nu: float) -> float:
    """Area n**nu for sweeps that grow the area with the network.

    Raises DomainError when n < MIN_NODES, nu is not finite and >= 0 or n**nu
    overflows a float.
    """
    check_network_size(n)
    check_area_exponent(nu)
    try:
        return float(n) ** nu
    except OverflowError:
        raise DomainError(f"n**nu overflows at n={n}, nu={nu:g}") from None


class CandidateOutcome(NamedTuple):
    """One (c0, R, Q) triple's result in a tradeoff sweep.

    value is the smooth throughput times area_factor, min(1, c0*n/area**(alpha/2))
    for the candidate's c0; both are None, and error holds the reason, when the
    candidate failed.
    """

    c0: float
    R: float
    Q: float
    value: float | None
    area_factor: float | None
    error: str | None


def c0_tradeoff(
    cfg: NetworkConfig, candidates: list[tuple[float, float, float]]
) -> list[CandidateOutcome]:
    """Evaluate candidate (c0, R, Q) triples on a fixed geometry.

    A geometry whose area**(alpha/2) overflows raises DomainError before any
    candidate. Successes come first, best attenuated throughput on top;
    candidates whose c0 or rate pair is out of domain, or whose throughput
    is not finite, follow with the error message instead of a value.
    """
    demand = _demand(cfg.area, cfg.alpha)
    outcomes: list[CandidateOutcome] = []
    for c0, R, Q in candidates:
        try:
            # NetworkConfig checks c0 before derive checks the rates
            NetworkConfig(cfg.n, cfg.area, cfg.alpha, c0)
            smooth = smooth_modified(cfg.n, derive(R, Q))
            factor = _split(cfg.n, c0, demand)[1]
            value = smooth.value * factor
            if not math.isfinite(value):
                raise DomainError("throughput is not finite")
        except ValueError as exc:
            outcomes.append(CandidateOutcome(c0, R, Q, None, None, str(exc)))
        else:
            outcomes.append(CandidateOutcome(c0, R, Q, value, factor, None))
    successes = [o for o in outcomes if o.error is None]
    failures = [o for o in outcomes if o.error is not None]
    successes.sort(key=lambda o: o.value, reverse=True)
    return successes + failures
