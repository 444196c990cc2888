"""Built-in oracle suites behind the verify subcommand.

Each suite checks one analytical identity numerically on either a seeded
random population or a fixed grid. It is a function (params, seed) that
returns one relative error per case, in case order, each the largest of
that case's comparisons:

* recursion_vs_closed_form: the level-by-level recursion (driven by Q and R)
  against the unrolled bracket (driven by the stored c), in one pass per
  case: _rel_err of the totals, then a running max of the term errors.
  The public delay_recursive checks each drawn plan, as a user's call
  would, and the bracket kernel recurrence._bracket reads that same plan,
  so a case checks its plan once and builds one record.
  The only suite that trips when c is inconsistent with Q/R.
* am_gm_equal_terms: at the optimizer's layer sizes all bracket terms are
  equal and minimal_delay matches their sum.
* phase_balance: at the balanced top size, exchange plus re-exchange slots
  come to (h-1) times the long-range slots. A depth that does not fit
  (depth_optimum gives None) is no case.
* bound_checks: every feasible integer-depth throughput sits under the
  envelope (one-sided; only excess above the bound counts as error). A
  depth that does not fit has no throughput (None) and is no case.
* ratio_two_routes: the quotient of the scheme throughputs vs the ratio
  formula, smooth convention, so no depth is searched.

SUITES declares the run order and each tolerance once: 1e-12 for identities
rational in the inputs, 1e-9 where exp/log round-trips enter, and for
ratio_two_routes the bound ratio_original enforces on the same two routes.
run_all alone judges: a suite passes when it ran a case and its worst case
error is within tolerance. _rel_err refuses non-finite operands and a zero
reference with OverflowError, so no case error is NaN or infinite. Both slot
routes raise OverflowError themselves when a slot count leaves float range,
so the terms of the totals they return are finite too, and the bracket
terms, each at least 2*M1/R, are never 0. run_all reports those
OverflowErrors, and ratio_original_closed_form's DomainError for a closed
form past float range, as a DomainError naming the suite and the rate pair.
The n grids of phase_balance and bound_checks start where depth 2 fits,
n >= 8*(1 + Q/R), and stop at N_MAX; if none is left the suite raises
InfeasibleError (verify: exit 3).

am_gm_equal_terms, phase_balance and bound_checks walk depths upward, h
outer, and a size (a top size M1 for am_gm_equal_terms) that depth h does
not fit leaves the walk for every deeper depth. That skips only depths that
do not fit, so the case list, its order and the first error raised are
those of a scan over every pair. For n it is the run property: the depths
that fit n are a run 2..H, proved in the optimizer module docstring for
c > 1, which every SchemeParams has, and pinned by test_optimizer's
test_depths_that_fit_are_a_run_from_two_set_by_the_law. For M1 the
equal-term bottom layer 2 * c**(-(h-2)/2) * (M1/2)**(1/(h-1)) shrinks as h
grows, so optimal_cluster_sizes refuses every depth above the first it
refuses; test_depths_a_top_size_fits_are_a_run_from_two pins that.
"""
from __future__ import annotations

import math
import random
from typing import NamedTuple

from .errors import DomainError, InfeasibleError
from .explorer import RATIO_ROUTE_TOL, ratio_original_closed_form
from .optimizer import depth_optimum, minimal_delay, optimal_cluster_sizes
from .params import N_MAX, SchemeParams
from .recurrence import _bracket, delay_recursive
from .throughput import (
    layer_throughput,
    original_throughput,
    smooth_modified,
    throughput_given_M1,
    upper_bound,
)

RATIONAL_TOL = 1e-12
TRANSCENDENTAL_TOL = 1e-9

_RANDOM_CASES = 200  # random hierarchies drawn by recursion_vs_closed_form


class SuiteResult(NamedTuple):
    """Outcome of one oracle suite."""

    name: str
    passed: bool
    worst_rel_err: float
    cases: int
    tolerance: float


def _rel_err(value: float, reference: float) -> float:
    # |value - reference| / reference of one case, refusing operands past float
    # range and a reference that underflowed to 0
    if not (math.isfinite(value) and math.isfinite(reference) and reference != 0.0):
        raise OverflowError(f"case value {value:g} against reference {reference:g}")
    return abs(value - reference) / reference


def _sizes(suite: str, params: SchemeParams, exponents: range | list[float]) -> list[int]:
    # n = 2**x, shifted up by whole octaves until the first n reaches
    # 8*(1 + Q/R), where depth 2 starts to fit; none above N_MAX
    need = 8.0 * (1.0 + params.Q / params.R)
    if not need <= N_MAX:
        raise InfeasibleError(
            f"suite {suite} has no case at R={params.R:g}, Q={params.Q:g}: "
            f"depth 2 needs n >= {need:g} > 2**62"
        )
    shift = max(0, math.ceil(math.log2(need)) - exponents[0])
    return [n for n in (round(2.0 ** (shift + x)) for x in exponents) if n <= N_MAX]


def recursion_vs_closed_form(params: SchemeParams, seed: int) -> list[float]:
    """Random geometric hierarchies, recursion vs bracket, sum and per term."""
    rng = random.Random(seed)
    # the draws of rng.uniform(a, b), which is a + (b - a) * rng.random(), and of
    # rng.randint(2, 6), which is 2 + getrandbits(3) redrawn while >= 5, without their calls
    draw, bits = rng.random, rng.getrandbits
    errors = []
    for _ in range(_RANDOM_CASES):
        k = bits(3)
        while k >= 5:
            k = bits(3)
        h = 2 + k
        sizes = [2.0 + (64.0 - 2.0) * draw()]
        for _ in range(h - 2):
            sizes.append(sizes[-1] * (1.5 + (8.0 - 1.5) * draw()))
        sizes.reverse()
        walked = delay_recursive(sizes, params)
        # the plan delay_recursive has just checked; the same floats it holds
        total, terms = _bracket(sizes, params.c, params.R)
        worst = _rel_err(walked.slots, total)
        for value, reference in zip(walked.decomposition, terms):
            err = abs(value - reference) / reference
            if err > worst:
                worst = err
        errors.append(worst)
    return errors


def am_gm_equal_terms(params: SchemeParams, seed: int) -> list[float]:
    """Equal-term sizes really equalize the bracket, and minimal_delay agrees."""
    errors = []
    tops = (32.0, 512.0, 4096.0, 131072.0)
    for h in range(2, 7):
        fits = []
        for M1 in tops:
            try:
                sizes = optimal_cluster_sizes(h, M1, params)
            except InfeasibleError:
                continue
            fits.append(M1)
            total, terms = _bracket(sizes, params.c, params.R)
            mean = total / len(terms)
            worst = 0.0
            for t in terms:
                err = _rel_err(t, mean)
                worst = err if err > worst else worst
            err = _rel_err(total, minimal_delay(h, M1, params).slots)
            errors.append(err if err > worst else worst)
        tops = fits
    return errors


def phase_balance(params: SchemeParams, seed: int) -> list[float]:
    """(P1 + P3) == (h-1) * P2 at the balanced top size."""
    errors = []
    sizes = _sizes("phase_balance", params, range(12, 31, 2))
    for h in range(2, 7):
        fits = []
        for n in sizes:
            best = depth_optimum(h, n, params)
            if best is None:
                continue
            fits.append(n)
            p1, p2, p3 = throughput_given_M1(h, best[0], n, params).phase_slots
            errors.append(_rel_err(p1 + p3, (h - 1) * p2))
        sizes = fits
    return errors


def bound_checks(params: SchemeParams, seed: int) -> list[float]:
    """Integer-depth throughput never exceeds the envelope (one-sided).

    The envelope is evaluated once per size, and a size leaves the depth
    walk at the first depth that does not fit it. Every case's error goes
    through _rel_err, so an infinite value overflows even under the bound.
    """
    errors = []
    sizes = _sizes("bound_checks", params, [8.0 + 32.0 * i / 29.0 for i in range(30)])
    walk = [(n, upper_bound(n, params)) for n in sizes]
    for h in range(2, 13):
        fits = []
        for n, cap in walk:
            report = layer_throughput(h, n, params)
            if report is None:
                continue
            fits.append((n, cap))
            err = _rel_err(report.value, cap)
            errors.append(err if report.value > cap else 0.0)
        walk = fits
    return errors


def ratio_two_routes(params: SchemeParams, seed: int) -> list[float]:
    """Direct division of the scheme throughputs vs the closed-form ratio."""
    errors = []
    for n in (2**k for k in range(10, 45, 2)):
        direct = smooth_modified(n, params).value / original_throughput(n, params)
        errors.append(_rel_err(ratio_original_closed_form(n, params), direct))
    return errors


#: (suite, tolerance) in run order; run_all judges every suite against its row
SUITES = (
    (recursion_vs_closed_form, RATIONAL_TOL),
    (am_gm_equal_terms, TRANSCENDENTAL_TOL),
    (phase_balance, TRANSCENDENTAL_TOL),
    (bound_checks, RATIONAL_TOL),
    (ratio_two_routes, RATIO_ROUTE_TOL),
)


def run_all(params: SchemeParams, seed: int = 0) -> list[SuiteResult]:
    """Judge every SUITES row in order; deterministic for a given params and seed.

    Raises DomainError naming the suite and the rate pair when a suite
    leaves float range, InfeasibleError when no n <= N_MAX fits.
    """
    results = []
    for suite, tol in SUITES:
        try:
            errors = suite(params, seed)
        except (OverflowError, DomainError) as exc:
            raise DomainError(
                f"suite {suite.__name__} overflowed at "
                f"R={params.R:g}, Q={params.Q:g}: {exc}"
            ) from exc
        # zero cases means the suite never exercised anything: a failure
        worst, cases = max(errors, default=0.0), len(errors)
        results.append(SuiteResult(suite.__name__, cases > 0 and worst <= tol, worst, cases, tol))
    return results
