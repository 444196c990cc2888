"""Optimal hierarchy shaping for a fixed rate pair.

Three nested choices, each with a closed-form answer:

* For fixed depth h and top size M1, the slot bracket is a sum of h-1
  positive terms whose product does not depend on the lower layer sizes, so
  the minimum is where all terms are equal. That pins every layer size and
  gives minimal_delay.
* For fixed depth h and node budget n, the top size that balances the
  cooperative exchange slots, K = params.TIME_SHARING_FACTOR times the
  equal-term delay each, against the long-range slots satisfies
  n = 2K * (1 + Q/R) * c**((h-2)/2) * (M1/2)**(h/(h-1)); depth_optimum
  gives it with the throughput at that size. As K*(1 + Q/R) = c*(1 + R/Q),
  the throughput there reads K only through c.
* The depth itself is the bounded argmax of the per-depth throughput over
  feasible integers. With a = log(c)/2 and A = log(n/2) - log(1 + R/Q)
  the log of that throughput is const - log h - a*h - A/h, whose
  derivative (A - h - a*h**2)/h**2 is positive below the root
  h* = 2A/(1 + sqrt(1 + 4aA)) and negative above it when c > 1. So the
  best feasible depth is the nearest feasible one on either side of h*,
  and no other depth needs evaluating. LayerChoice reports h* as h_exact.
  A and a read the SchemeParams fields log_1_plus_R_over_Q and half_log_c,
  taken once per rate pair.
* Depth h fits n nodes exactly when the balanced top size puts at least
  MIN_CLUSTER nodes in the equal-term bottom layer, that is when
  n >= 2K * (1 + Q/R) * c**((h-2)*(h+1)/2). For c > 1 that bound grows with
  h, so the depths that fit are a run 2..H. The nearest feasible depth
  above h* is then floor(h*) + 1 or none at all, and the nearest one below
  is the first that fits walking down from floor(h*).
* Every factor of the depth-h closed form but the powers of n depends on
  the rate pair and h alone. Each SchemeParams keeps them per depth in a
  table that _depth_factors fills, entry h on the first read of depth h,
  with the switch point s_h below. So one depth evaluation takes three
  powers: n**e for M1, (M1/2)**(1/(h-1)) for the bottom layer and
  (n/2)**e for the value. The fit check and minimal_delay read the same
  entry, and every figure keeps the bits of a per-call evaluation.
* Which of the two wins is a closed-form test in log n: depth h + 1 beats
  depth h exactly when A > s_h = h*(h+1)*(log1p(1/h) + a), and a tie
  A = s_h goes to depth h. That test alone picks the depth: the search
  evaluates only the side of s_h that A is on, compares no values, and
  reads no R, so the scale of the rates does not move the depth. Where
  rounding could decide the test, the depth taken loses under 1e-14 in
  log throughput (_search_depth states the bound).
* For derive()d params, c = K*Q/R, the fit law reads A >= a*h*(h-1), so
  the largest depth that fits is H = floor((1 + sqrt(1 + 4A/a))/2). The
  depth the test picks fits with at least 2 nats to spare in log n
  (_search_depth gives the margin), unless it is depth 2 at n near
  2K * (1 + Q/R), where no depth fits; so H never binds the choice.

A depth that does not fit is an answer, not an error: depth_optimum returns
None for it, and the search skips it. When no depth fits, layer_choice
returns None. The calls that take a fixed top size (optimal_cluster_sizes,
minimal_delay) raise InfeasibleError with the reason instead.

Brute-force counterparts of all three (grid search, golden section,
coordinate descent) live in the test suite and must land on the same
answers.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InfeasibleError, PlanError
from .params import (
    MAX_LAYERS,
    MIN_CLUSTER,
    TIME_SHARING_FACTOR,
    SchemeParams,
    check_layer_count,
    check_network_size,
    validate_plan,
)
from .recurrence import DelaySlots


def _size_at(i: int, h: int, M1: float, params: SchemeParams) -> float:
    # equal-term layer size, valid for 1 <= i <= h-1 (M1 itself at i = 1)
    return (
        2.0
        * params.c ** (-((i - 1) * (h - i)) / 2.0)
        * (M1 / 2.0) ** ((h - i) / (h - 1.0))
    )


class _Depth(NamedTuple):
    """The factors of the depth-h closed form that read no n: entry h of a
    SchemeParams's depth table. Each is the float that a per-call evaluation
    takes first, so a product with a power of n keeps its bits."""

    e: float
    """(h-1)/h, the exponent of n in M1 and of n/2 in the value."""

    top_scale: float
    """2 * load**(-e), load = 2K * (1 + Q/R) * c**((h-2)/2): M1 = top_scale * n**e."""

    bottom_scale: float
    """2 * c**(-(h-2)/2): the bottom layer is bottom_scale * (M1/2)**bottom_power."""

    bottom_power: float
    """1/(h-1)."""

    c_power: float
    """c**((h-2)/2), the load's power of c and minimal_delay's; inf past float range."""

    pre: float
    """R / (h * (1+R/Q)**e * c**((h-1)/2)): the value is pre * (n/2)**e."""

    switch: float
    """s_h = h*(h+1)*(log1p(1/h) + a): depth h + 1 beats depth h exactly when A > s_h."""


def _depth_factors(h: int, params: SchemeParams) -> _Depth:
    # entry h of params' depth table, computed and stored on its first read;
    # h in 2..MAX_LAYERS. Each factor takes the float operations, in their
    # order, of an evaluation that takes every power per call, so every
    # figure keeps its bits. Nothing here raises. Threads that race to fill
    # an entry compute equal ones, and the last write stands.
    e = (h - 1.0) / h
    try:
        c_power = params.c ** ((h - 2) / 2.0)
    except OverflowError:
        c_power = math.inf
    # a load past float range drives M1 to 0, below MIN_CLUSTER; 2*K is an
    # exact int, so the product takes the float operations of 8.0 * ... at K = 4
    load = 2 * TIME_SHARING_FACTOR * (1.0 + params.Q / params.R) * c_power
    try:
        pre = params.R / (h * (1.0 + params.R / params.Q) ** e * params.c ** ((h - 1) / 2.0))
    except OverflowError:
        # never read: depth h fits only when n >= 2K*(1 + Q/R)*c**((h-2)*(h+1)/2)
        # (module docstring), at least the square of the c**((h-1)/2) that
        # overflowed here (h >= 3), so no n that converts to float fits, and
        # no evaluation gets past the fit check to the value; 0.0 is the
        # limit, as at c = inf
        pre = 0.0
    depth = params._depths[h] = _Depth(
        e,
        2.0 * load ** (-e),
        2.0 * params.c ** (-(h - 2) / 2.0),
        1 / (h - 1.0),
        c_power,
        pre,
        h * (h + 1) * (math.log1p(1.0 / h) + params.half_log_c),
    )
    return depth


def _check_fit(h: int, M1: float, params: SchemeParams) -> _Depth:
    # the equal-term bottom layer, M1 itself at h=2, must hold at least
    # MIN_CLUSTER nodes; as c > 1 the layers above it are then larger.
    # Returns depth h's table entry
    depth = params._depths[h] or _depth_factors(h, params)
    bottom = depth.bottom_scale * (M1 / 2.0) ** depth.bottom_power
    if bottom < MIN_CLUSTER:
        raise InfeasibleError(
            f"depth h={h} does not fit below M1={M1:g}: bottom cluster size "
            f"{bottom:.6g} is below {MIN_CLUSTER:g}"
        )
    return depth


def _check_top(h: int, M1: float) -> None:
    # the layer count, then a top cluster of at least MIN_CLUSTER nodes
    check_layer_count(h)
    if not (math.isfinite(M1) and M1 >= MIN_CLUSTER):
        raise InfeasibleError(f"top cluster must hold >= {MIN_CLUSTER:g} nodes, got {M1}")


def optimal_cluster_sizes(h: int, M1: float, params: SchemeParams) -> tuple[float, ...]:
    """Equal-term layer sizes below a given top size.

    Args:
        h: layer count, integer >= 2.
        M1: top-layer cluster size, >= 2.
        params: derived rate constants.

    Returns:
        The validated cluster sizes (M1, ..., M_{h-1}), top-down, whose
        bracket terms are all equal.

    Raises:
        InfeasibleError: the bottom layer would drop below MIN_CLUSTER nodes.
        PlanError: h out of range.
    """
    _check_top(h, M1)
    _check_fit(h, M1, params)
    return validate_plan([M1, *(_size_at(i, h, M1, params) for i in range(2, h))])


def minimal_delay(h: int, M1: float, params: SchemeParams) -> DelaySlots:
    """Slot count of a unit block at the equal-term optimum.

    Evaluates (2*M1/R) * (h-1) * c**((h-2)/2) * (M1/2)**(1/(h-1)) directly,
    decomposed into its h-1 equal terms; it must match delay_closed_form
    over optimal_cluster_sizes to 1e-12.
    """
    _check_top(h, M1)
    depth = _check_fit(h, M1, params)
    term = (
        2.0
        * M1
        * (1.0 / params.R)
        * depth.c_power
        * (M1 / 2.0) ** (1.0 / (h - 1))
    )
    return tuple.__new__(DelaySlots, ((h - 1) * term, (term,) * (h - 1)))


def depth_optimum(h: int, n: int, params: SchemeParams) -> tuple[float, float] | None:
    """(M1, throughput) at depth h: the balanced top size and the closed form
    R / (h * (1+R/Q)**((h-1)/h) * c**((h-1)/2)) * (n/2)**((h-1)/h).

    M1 solves n = 2K * (1 + Q/R) * c**((h-2)/2) * (M1/2)**(h/(h-1)), with
    K = params.TIME_SHARING_FACTOR; at this size the phase groups stand in
    the ratio (P1 + P3) : P2 = (h-1) : 1.

    Returns None when the depth does not fit n nodes: M1 < MIN_CLUSTER or a
    bottom layer under MIN_CLUSTER. M1 never reaches n: Q/R > 1/K and c > 1
    put the load 2K * (1 + Q/R) * c**((h-2)/2) above 2(K + 1), and
    M1 = 2 * (n/load)**((h-1)/h) with n >= 4 is then below
    n / sqrt(2(K + 1)), 0.32 n at K = 4. Raises PlanError for h out of
    range and DomainError for n below MIN_NODES.
    """
    check_layer_count(h)
    check_network_size(n)
    return _depth_optimum(h, n, params)


def _depth_optimum(h: int, n: int, params: SchemeParams) -> tuple[float, float] | None:
    # depth_optimum past its checks: h in 2..MAX_LAYERS, n >= MIN_NODES; the
    # factors that read no n come from params' depth table
    e, top_scale, bottom_scale, bottom_power, _, pre, _ = (
        params._depths[h] or _depth_factors(h, params)
    )
    M1 = top_scale * float(n) ** e
    if M1 < MIN_CLUSTER or bottom_scale * (M1 / 2.0) ** bottom_power < MIN_CLUSTER:
        return None
    return M1, pre * (n / 2.0) ** e


class LayerChoice(NamedTuple):
    """Depth selection for one network size."""

    h_exact: float
    """Stationary point h* of the per-depth throughput (module docstring); 0.0 if none."""

    h_approx: float
    """smooth_depth(n) = sqrt(log_beta1(n/2)), the large-n shortcut for h_exact."""

    h_int: int
    """Bounded argmax of per-depth throughput over feasible depths in 2..h_max
    (default MAX_LAYERS). The switch-point test picks floor(h*) + 1 or the
    first depth that fits walking down from floor(h*), and only that side
    is evaluated. It reads no R. Within rounding of a switch point it may
    take the other of the two depths, at a loss under 1e-14 in log
    throughput. A LayerChoice always has one: when no depth fits,
    layer_choice returns None instead."""

    M1: float
    """Balanced top cluster size at h_int."""

    value: float
    """Throughput at h_int, as depth_optimum gives it."""


def layer_choice(n: int, params: SchemeParams, h_max: int | None = None) -> LayerChoice | None:
    """Pick the number of layers for n nodes, or None when no depth fits.

    h_int is the best feasible integer depth in 2..h_max (default
    MAX_LAYERS). Per-depth throughput rises below the stationary point h*
    of its closed form and falls above it, and the depths that fit form a
    run 2..H (see the module docstring); both take c > 1, which every
    SchemeParams has. With split = floor(h*) clamped to 2..h_max, the
    winner is split + 1 when it is within h_max, fits, and is greater, else
    the first depth that fits walking down from split. The switch-point
    test A > s_split in log n says which is greater, a tie going to split,
    and the search evaluates that side alone. No values are compared and the test reads no R, so
    h_int, M1 and h_exact depend on the rates through Q/R alone, even
    where the value overflows to inf or rounds to 0. Within rounding of
    s_split the test may take the other depth, at a loss under 1e-14 in
    log throughput (_search_depth derives the bound).

    Every new set of arguments is checked, and a repeat of the last set,
    which passed, returns the stored answer: the checks and the search run
    once for the last (n, params, h_max) and are reused while the same n,
    params and h_max objects repeat, as they do across the depth-optimized
    figures of one sweep row. An equal but distinct n or params is searched
    afresh. The reused LayerChoice is the same object each time, and it is
    an immutable tuple. A search that finds no feasible depth is reused
    too: each call returns None and builds nothing. A call that raises
    stores nothing. The entry is read once and replaced whole, so threads
    that race on it cost a search, never a key paired with another's answer.

    Raises:
        DomainError: n < MIN_NODES.
        PlanError: an explicit h_max outside 2..MAX_LAYERS.
    """
    global _search_last
    if h_max is None:
        h_max = MAX_LAYERS
    elif not (isinstance(h_max, int) and 2 <= h_max <= MAX_LAYERS):
        check_network_size(n)  # a bad n is named before a bad cap
        raise PlanError("h_max", f"depth cap must be an integer in 2..{MAX_LAYERS}, got {h_max!r}")
    last_n, last_params, last_h_max, choice = _search_last
    if n is last_n and params is last_params and h_max is last_h_max:
        return choice
    choice = _search_depth(n, params, h_max)
    _search_last = (n, params, h_max, choice)
    return choice


#: (n, params, h_max, choice) of the last search that returned. It holds the
#: key objects themselves, so none can be freed and its id reused; the fresh
#: object() in the empty entry is an n that no caller can pass.
_search_last: tuple[object, object, object, object] = (object(), None, None, None)


def _search_depth(n: int, params: SchemeParams, h_max: int) -> LayerChoice | None:
    """layer_choice on a checked cap, unmemoized: the remaining checks, then
    the search. Returns None when no depth fits. Tests call it as the cold
    reference.

    The log of the depth-h value is const - log h - (h-1)*a + (1 - 1/h)*A,
    so the log value of depth split + 1 less that of depth split is
    (A - s_split) / (split*(split+1)), with
    s_split = split*(split+1)*(log1p(1/split) + a) and split the clamped
    floor(h*). That sign alone picks the depth: split + 1 when split is
    below h_max, A > s_split and split + 1 fits; otherwise the first depth
    that fits walking down from split (if split + 1 does not fit, no deeper
    depth fits). Only the depth taken is evaluated, unless the walk passes
    depths that do not fit, and no two values are compared. Neither A nor
    s_split reads R, so neither does the choice: values that overflow to
    inf or round to 0 leave it where it is.

    Fit margin: for derive()d params (c = K*Q/R) depth h fits exactly when
    A >= a*h*(h-1). As A = h* + a*(h*)**2, floor(h*) fits by h + a*h >= 2
    nats, and depth h + 1, taken when A > s_h, by h*(h+1)*log1p(1/h) > 2.4.
    The walk down is kept for directly built params; on derived ones it never moves.

    n is checked once and x = log(n/2) is taken once, and both of its
    readings come from x: h_approx = sqrt(x/log_beta1), in the float
    operations of smooth_depth(n, params) (in params), so with its bits, and
    A = x - params.log_1_plus_R_over_Q. a is params.half_log_c: the
    constructor takes both rate-pair logs once, in the float operations a
    per-call log would take, so they carry the same bits.
    s_split is the switch field of depth split's table entry, taken once per
    rate pair and depth in the same way.

    Tie contract: A = s_split takes split, and near it the float test may
    take either depth. A < log(2**61) < 43, so the test can err only where
    s_split < 43 too. There each of A and s_split comes from a few float
    operations, each within an ulp, on numbers below 43 in size, and is
    within 4 * 43 * 2**-53 < 2e-14 of its exact value. So a wrong pick
    needs |A - s_split| < 4e-14, and the depth it takes then trails the
    better one by |A - s_split| / (split*(split+1)) < 4e-14 / 6, under
    1e-14 in natural-log throughput. That holds up to n = 2**62; past it,
    up to float range, A < 710 and the same steps bound the loss by 2e-13.
    """
    check_network_size(n)
    x = math.log(n / 2.0)
    h_approx = math.sqrt(x / params.log_beta1)

    # h* from the c that depth_optimum uses, in a form that neither cancels
    # as c -> 1 nor fails when c overflows to inf (h* = 0)
    A = x - params.log_1_plus_R_over_Q
    a = params.half_log_c
    h_exact = 2.0 * A / (1.0 + math.sqrt(1.0 + 4.0 * a * A)) if A > 0.0 else 0.0
    # floor(h*) clamped to 2..h_max; the conditionals cost less than min(max(...))
    h = math.floor(h_exact)
    h = 2 if h < 2 else h_max if h > h_max else h
    # A > s_h: depth h + 1 wins where it fits; the depths that fit are a run
    # 2..H, so if it does not, the best is the first that fits from h down
    if (
        h < h_max
        and A > (params._depths[h] or _depth_factors(h, params)).switch
        and (best := _depth_optimum(h + 1, n, params)) is not None
    ):
        return tuple.__new__(LayerChoice, (h_exact, h_approx, h + 1, *best))
    while (best := _depth_optimum(h, n, params)) is None:
        if h == 2:
            return None
        h -= 1
    return tuple.__new__(LayerChoice, (h_exact, h_approx, h, *best))
