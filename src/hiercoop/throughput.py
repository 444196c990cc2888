"""Aggregate throughput of the hierarchical schemes.

The modified (two-phase) scheme serves n*M1 source blocks in three slot
groups: cooperative exchange within top clusters (P1), one long-range
transmission per source (P2), and the re-encoded exchange that replaces
the original's separate delivery phase (P3 = P1 * Q/R). Dividing bits
served by total slots and optimizing M1, then the depth h, yields the
closed forms below. Slot counts are for a unit block of one bit; a block of
L bits takes L times as many fluid slots, so L cancels from every throughput.

Two conventions coexist and are reported side by side:

* smooth: depth treated as the real number smooth_depth(n) = sqrt(lg) with
  lg = log_beta1(n/2), giving beta1*R/(c_n*sqrt(lg)) * (n/2)**(1 - 2/sqrt(lg)).
  smooth_modified computes it alone, with no depth search.
* integer: depth from layer_choice, throughput from the per-depth closed
  form. Only this one respects the upper bound at every n; the smooth
  curve may poke above it when sqrt(lg) < 1/c_n. layer_throughput gives
  None at a depth that does not fit n.

original_throughput is the three-phase counterpart kept for head-to-head
sweeps; multihop_baseline is the flat nearest-neighbor reference.

smooth_modified, optimal_modified's smooth half, original_throughput and
explorer.ratio_original_closed_form read one one-entry memo, _smooth_memo, of
the last (n, params): a repeat with the same n and params objects reuses it,
so the back-to-back repeats of a sweep row or an analyze report compute once.
An equal but distinct n or params computes afresh, nothing is reused across
network sizes, and a call that raises stores nothing. That kernel,
_smooth_forms, checks n once, takes n/2 and x = log(n/2) once, and reads both
smooth depths from x: smooth_depth's sqrt(x/log_beta1) and
original_optimal_layers's sqrt(x/log_beta), each in the float operations of
its public definition.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError, InfeasibleError
from .optimizer import LayerChoice, depth_optimum, layer_choice, minimal_delay
from .params import TIME_SHARING_FACTOR, SchemeParams, check_network_size, smooth_depth


class ThroughputReport(NamedTuple):
    """One throughput figure plus the pieces it was assembled from."""

    value: float
    """Aggregate rate in bits per slot."""

    h_used: float
    """Layer count behind the figure; real-valued for the smooth convention."""

    M1_used: float | None
    """Top cluster size, when one was materialized."""

    phase_slots: tuple[float, float, float] | None
    """(P1, P2, P3) slot counts, when the figure came from an explicit design."""

    pre_constant: float
    """value / (n/2)**exponent, the scaling-law front factor."""

    exponent: float
    """Exponent of n/2 in the scaling law."""

    c_n: float | None = None
    """Slowly varying correction (1 + R/Q)**(1 - 1/sqrt(lg)), smooth only."""


class ModifiedThroughput(NamedTuple):
    """Smooth and integer-depth readings of the two-phase scheme."""

    smooth: ThroughputReport
    integer: LayerChoice | None
    """The depth choice itself (h_exact, h_approx, h_int, M1, value); its
    per-depth report is layer_throughput(h_int, n, params)."""


def throughput_given_M1(h: int, M1: float, n: int, params: SchemeParams) -> ThroughputReport:
    """Throughput of an explicit (h, M1) design at the equal-term sizes.

    Builds the three phase groups and divides bits served by slots spent;
    no balancing of M1 is applied, so this is the curve layer_throughput
    maximizes.
    """
    check_network_size(n)
    if not M1 <= n:
        raise InfeasibleError(f"top cluster {M1:g} exceeds n={n}")
    exchange = TIME_SHARING_FACTOR * minimal_delay(h, M1, params).slots
    long_range = 2.0 * n / params.R
    re_exchange = exchange * params.Q / params.R
    total = exchange + long_range + re_exchange
    return _depth_report(
        h, n, float(M1), n * M1 / total, (exchange, long_range, re_exchange)
    )


def layer_throughput(h: int, n: int, params: SchemeParams) -> ThroughputReport | None:
    """Best throughput at a fixed integer depth: M1 balanced, sizes equal-term.

    Closed form R / (h * (1+R/Q)**((h-1)/h) * c**((h-1)/2)) * (n/2)**((h-1)/h);
    agrees with throughput_given_M1 at the balanced M1 to 1e-9. None when
    depth h does not fit n nodes, as for depth_optimum.
    """
    best = depth_optimum(h, n, params)
    return None if best is None else _depth_report(h, n, *best)


def _depth_report(
    h: int, n: int, M1: float, value: float, phase_slots: tuple[float, float, float] | None = None
) -> ThroughputReport:
    exponent = (h - 1.0) / h
    return tuple.__new__(
        ThroughputReport,
        (value, float(h), M1, phase_slots, value / (n / 2.0) ** exponent, exponent, None),
    )


def smooth_modified(n: int, params: SchemeParams) -> ThroughputReport:
    """Smooth-convention throughput of the two-phase scheme.

    Uses h = sqrt(log_beta1(n/2)) as a real number; no depth is searched.
    """
    return _smooth_memo(n, params)[0]


#: (n, params, forms) of the last _smooth_forms call that returned. It holds
#: the key objects themselves, so neither can be freed and its id reused; the
#: fresh object() in the empty entry is an n that no caller can pass.
_smooth_last: tuple[object, object, object] = (object(), None, None)


def _smooth_memo(n: int, params: SchemeParams) -> tuple[ThroughputReport, float, float]:
    """_smooth_forms(n, params), reused while n and params are the same objects.

    The entry is read once and replaced whole, so threads that race on it
    cost a recomputation, never a key paired with another call's forms.
    """
    global _smooth_last
    last_n, last_params, forms = _smooth_last
    if n is last_n and params is last_params:
        return forms
    forms = _smooth_forms(n, params)
    _smooth_last = (n, params, forms)
    return forms


def _smooth_forms(n: int, params: SchemeParams) -> tuple[ThroughputReport, float, float]:
    """(smooth_modified, original_throughput, closed-form ratio) at (n, params).

    n is checked once, and n/2 and x = log(n/2) are taken once. Each smooth depth
    comes from x in the float operations of its public definition and keeps
    its bits: the two-phase root sqrt(x/log_beta1) is smooth_depth(n, params)
    (in params), the three-phase depth sqrt(x/log_beta) is
    original_optimal_layers(n, params). c_n is evaluated once, and no depth
    is searched; log(beta) and sqrt(log_beta(beta1)) are the
    SchemeParams fields log_beta and depth_ratio, taken once per rate pair.
    Each public form reads this kernel alone, through _smooth_memo, so the
    public calls per sweep row stay as they were. Tests call it as the cold
    reference.
    The two ratio routes share c_n and both depths but no power of n/2 or of
    beta. It raises only check_network_size's errors. Up to n = 2**62 no
    power overflows: beta's is at most exp(2*sqrt(log(2**61)*log(beta))) <
    exp(347), c_n's base is below 5, and the exponents on n/2 are below 1.
    Past 2**62 beta's power stays in range for derive()d params, but may
    overflow for directly built ones whose beta is far above beta1. It is
    inf there, so the two smooth throughputs still answer and
    explorer.ratio_original_closed_form refuses the ratio as not finite.
    """
    check_network_size(n)
    half = n / 2.0
    x = math.log(half)
    root = math.sqrt(x / params.log_beta1)
    c_n = (1.0 + params.R / params.Q) ** (1.0 - 1.0 / root)
    exponent = 1.0 - 2.0 / root
    pre = params.beta1 * params.R / (c_n * root)
    smooth = tuple.__new__(
        ThroughputReport, (pre * half ** exponent, root, None, None, pre, exponent, c_n)
    )
    h = math.sqrt(x / params.log_beta)
    original = params.beta * params.R / h * half ** (1.0 - 2.0 / h)
    front = params.beta1 * params.depth_ratio / (c_n * params.beta)
    try:
        power = params.beta ** (2.0 * (1.0 - params.depth_ratio) * h)
    except OverflowError:
        power = math.inf
    return smooth, original, front * power


def optimal_modified(n: int, params: SchemeParams) -> ModifiedThroughput:
    """Depth-optimized throughput of the two-phase scheme.

    The smooth report is smooth_modified's. The integer half is the very
    LayerChoice that layer_choice(n, params) returns, None when no depth fits.
    """
    return tuple.__new__(
        ModifiedThroughput, (_smooth_memo(n, params)[0], layer_choice(n, params))
    )


def upper_bound(n: int, params: SchemeParams) -> float:
    """Envelope beta1 * R * (n/2)**(1 - 2/sqrt(lg)) over integer-depth curves.

    Every layer_throughput(h, n, ...) that is not None, one per depth that
    fits n, stays at or below this; the smooth convention does not, so never
    test it against this bound.
    """
    root = smooth_depth(n, params)  # checks n before n/2 is taken
    return params.beta1 * params.R * (n / 2.0) ** (1.0 - 2.0 / root)


def original_optimal_layers(n: int, params: SchemeParams) -> float:
    """Real-valued optimal depth sqrt(log_beta(n/2)) of the three-phase scheme."""
    check_network_size(n)
    return math.sqrt(math.log(n / 2.0) / params.log_beta)


def original_throughput(n: int, params: SchemeParams) -> float:
    """Smooth-depth throughput of the three-phase scheme.

    beta * R / sqrt(log_beta(n/2)) * (n/2)**(1 - 2/sqrt(log_beta(n/2))) with
    beta = sqrt(K)*sqrt(1 + Q/R), K = params.TIME_SHARING_FACTOR, a form
    inferred rather than derived; the extra delivery phase is what moves
    beta1 to beta and drops the c_n correction.
    """
    return _smooth_memo(n, params)[1]


def check_multihop_constant(c_mh: float) -> None:
    """Raise DomainError unless c_mh, multihop_baseline's constant, is positive and finite."""
    if not (math.isfinite(c_mh) and c_mh > 0):
        raise DomainError(f"multihop constant must be positive, got {c_mh}")


def multihop_baseline(n: int, c_mh: float) -> float:
    """Nearest-neighbor relaying reference c_mh * sqrt(n).

    The constant absorbs bandwidth and path-loss details, so callers must
    supply it explicitly.
    """
    check_multihop_constant(c_mh)
    check_network_size(n)
    return _multihop(n, c_mh)


def _multihop(n: int, c_mh: float) -> float:
    # multihop_baseline past its checks, for a sweep that made them already
    return c_mh * math.sqrt(n)


def per_pair_rate(n: int, params: SchemeParams) -> float:
    """Smooth-convention throughput share of one source-destination pair.

    Equals beta1*R/(c_n*sqrt(lg)) * (1/2) * beta1**(-2*sqrt(lg)); almost flat
    in n, which is the scheme's selling point.
    """
    return optimal_modified(n, params).smooth.value / n
