"""Slot-count accounting for the layered exchange schedule.

A hierarchy is its tuple of cluster sizes (M1, ..., M_{h-1}), top-down; see
params.validate_plan. Every slot count here is for a unit block: each source
holds one bit, and a block of L bits takes L times as many fluid slots. No
throughput depends on L, since bits served and slots spent both scale by it.

The slot count of an h-layer hierarchy obeys a linear recursion. The top
layer spends (M1/M2) * 2*M1 / R slots relaying blocks between itself and
the layer below, then hands each cluster one level down an inflated block
of (Q/R) * (M1/M2) bits; neighboring clusters at that level time-share the
channel in groups of K = params.TIME_SHARING_FACTOR. A single bottom-layer
cluster with blocks of b bits finishes its all-to-all exchange directly in
(b/R) * M**2 slots.

Each layer down thus multiplies the slot count by K*Q/R, the c of
SchemeParams, and unrolling the recursion gives

    slots = (2*M1/R) * ( M1/M2 + c*M2/M3 + ... + c**(h-3) * M_{h-2}/M_{h-1}
                         + c**(h-2) * M_{h-1}/2 )

delay_recursive walks the recursion using Q and R directly;
delay_closed_form evaluates the bracket using the stored c. The two routes
share no arithmetic, so their agreement is a real consistency check. Each
route is validate_plan, then its kernel, _walk(sizes, R, Q/R) or
_bracket(sizes, c, R), then the DelaySlots record. The verify suites run
the kernels alone, once per case: recursion_vs_closed_form runs both on a
plan it builds valid, and am_gm_equal_terms runs _bracket on the plan
optimal_cluster_sizes has just checked.

Both routes share one overflow contract: a slot count that leaves float
range raises OverflowError naming the layer at which the running count
does; delay_closed_form names the power of c instead when that overflows.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .params import TIME_SHARING_FACTOR, SchemeParams, validate_plan


class DelaySlots(NamedTuple):
    """Total slot count plus its per-layer additive decomposition.

    The records built once per sweep row or verify case (this one,
    LayerChoice, ThroughputReport, ModifiedThroughput, SweepRow) are built
    with tuple.__new__(cls, values), which skips the Python-level __new__
    that NamedTuple generates and costs half as much. Such a call passes
    every field, defaults included, and checks no arity itself:
    test_package's test_positionally_built_records_hold_every_field pins it.
    """

    slots: float
    decomposition: tuple[float, ...]


def _overflow(terms: list[float]) -> OverflowError:
    # names the first layer at which the running slot count leaves float range
    total = 0.0
    for layer, term in enumerate(terms, 1):
        total += term
        if not math.isfinite(total):
            break
    return OverflowError(f"slot count leaves float range at layer {layer} of {len(terms) + 1}")


def delay_recursive(sizes: tuple[float, ...], params: SchemeParams) -> DelaySlots:
    """Evaluate the recursion level by level.

    The decomposition entry at index i is the slot share contributed by
    layer i+1 of the hierarchy, including the time-sharing multiplier
    accumulated on the way down.

    Raises OverflowError naming the layer at which the slot count leaves
    float range.
    """
    return tuple.__new__(DelaySlots, _walk(validate_plan(sizes), params.R, params.Q / params.R))


def _walk(sizes: tuple[float, ...], R: float, inflation: float) -> tuple[float, tuple[float, ...]]:
    # delay_recursive's (slots, decomposition) for a plan validate_plan
    # accepts, with inflation = Q/R
    # block load in bits at the current layer: one bit at the top
    load = 1.0
    # TIME_SHARING_FACTOR**i, an exact int
    scale = 1
    decomposition = []
    # a left fold from 0.0, which sum() of floats is not from Python 3.12 on
    total = 0.0
    walk = iter(sizes)
    top = next(walk)
    for below in walk:
        step = top / below
        term = scale * (step * 2.0 * top * (load / R))
        decomposition.append(term)
        total += term
        load = load * inflation * step
        scale *= TIME_SHARING_FACTOR
        top = below
    term = scale * ((load / R) * (top * top))
    decomposition.append(term)
    total += term
    if not math.isfinite(total):
        raise _overflow(decomposition)
    return total, tuple(decomposition)


def delay_closed_form(sizes: tuple[float, ...], params: SchemeParams) -> DelaySlots:
    """Evaluate the closed-form bracket; one decomposition entry per layer.

    Raises OverflowError naming the power of c that leaves float range, or
    else the layer at which the slot count does.
    """
    return tuple.__new__(DelaySlots, _bracket(validate_plan(sizes), params.c, params.R))


def _bracket(sizes: tuple[float, ...], c: float, R: float) -> tuple[float, tuple[float, ...]]:
    # delay_closed_form's (slots, decomposition) for a plan validate_plan accepted
    lead = 2.0 * sizes[0] * (1.0 / R)
    last = len(sizes) - 1
    terms = []
    # a left fold from 0.0, as in _walk
    total = 0.0
    try:
        for i in range(last):
            term = lead * c**i * sizes[i] / sizes[i + 1]
            terms.append(term)
            total += term
        term = lead * c**last * sizes[-1] / 2.0
    except OverflowError:
        # len(terms) is the index of the term whose power overflowed
        raise OverflowError(f"c**{len(terms)} overflows at c={c:g}") from None
    terms.append(term)
    total += term
    if not math.isfinite(total):
        raise _overflow(terms)
    return total, tuple(terms)
