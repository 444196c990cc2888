"""Built-in oracle suites: they pass on honest params and catch corruption."""
import collections
import math
import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from hiercoop import (
    DomainError, InfeasibleError, SchemeParams, SuiteResult, derive, run_all, selfcheck,
)
from hiercoop.explorer import RATIO_ROUTE_TOL
from hiercoop.params import validate_plan
from hiercoop.recurrence import delay_closed_form, delay_recursive
from hiercoop.selfcheck import (
    RATIONAL_TOL,
    TRANSCENDENTAL_TOL,
    _rel_err,
    recursion_vs_closed_form,
)
import memos
from strategies import ABOVE_ONE, corrupt_params, search_params


def _with_c(c):
    # beta1 and beta consistent with R = Q = 1, c as given
    return SchemeParams(R=1.0, Q=1.0, beta1=2.0, beta=2.0 * math.sqrt(2.0), c=c)


SUITE_ORDER = [
    "recursion_vs_closed_form",
    "am_gm_equal_terms",
    "phase_balance",
    "bound_checks",
    "ratio_two_routes",
]


class TestRunAll:
    def test_all_suites_pass_at_unit_rates(self, unit_params):
        results = run_all(unit_params)
        assert [r.name for r in results] == SUITE_ORDER
        for r in results:
            assert r.passed, f"{r.name} failed: worst={r.worst_rel_err}"
            assert r.cases > 0
            assert r.worst_rel_err <= r.tolerance

    def test_cases_are_counted_per_case_not_per_comparison(self, unit_params):
        # recursion_vs_closed_form and am_gm_equal_terms make several
        # comparisons per case; each case still counts once
        assert [r.cases for r in run_all(unit_params)] == [200, 12, 34, 108, 18]

    @pytest.mark.parametrize("ratio", [0.3, 2.0, 10.0])
    def test_all_suites_pass_across_rate_ratios(self, ratio):
        params = derive(1.0, ratio)
        results = run_all(params, seed=3)
        assert all(r.passed for r in results)

    @pytest.mark.parametrize("ratio", [1e10, 1e17])
    def test_size_grids_start_where_depth_2_fits(self, ratio):
        results = run_all(derive(1.0, ratio))
        assert all(r.passed and r.cases > 0 for r in results)

    def test_no_size_up_to_the_cap_fits(self):
        with pytest.raises(InfeasibleError, match=r"suite phase_balance .* Q=1e\+20: "):
            run_all(derive(1.0, 1e20))

    def test_deterministic_for_a_fixed_seed(self, unit_params):
        assert run_all(unit_params, seed=7) == run_all(unit_params, seed=7)

    def test_seed_moves_the_randomized_suite(self, unit_params):
        first = run_all(unit_params, seed=0)[0]
        second = run_all(unit_params, seed=1)[0]
        assert first.name == "recursion_vs_closed_form"
        assert first.worst_rel_err != second.worst_rel_err
        assert first.passed and second.passed

    def test_tolerances_are_wired_to_the_right_suites(self, unit_params):
        by_name = {r.name: r for r in run_all(unit_params)}
        assert by_name["recursion_vs_closed_form"].tolerance == RATIONAL_TOL
        assert by_name["bound_checks"].tolerance == RATIONAL_TOL
        # fractional powers of c enter these three, so they get the looser bar
        assert by_name["am_gm_equal_terms"].tolerance == TRANSCENDENTAL_TOL
        assert by_name["phase_balance"].tolerance == TRANSCENDENTAL_TOL
        assert by_name["ratio_two_routes"].tolerance == TRANSCENDENTAL_TOL
        # the bound ratio_original enforces on the same two routes
        assert by_name["ratio_two_routes"].tolerance == RATIO_ROUTE_TOL


class TestFaultInjection:
    def test_corrupted_geometry_constant_is_caught(self):
        # beta1, beta consistent with R = Q = 1 but c nudged off 4.0: only the
        # recursion-vs-closed-form suite touches the stored c on both routes
        # of the same quantity, so it alone must trip
        bad = SchemeParams(
            R=1.0, Q=1.0, beta1=2.0, beta=2.0 * math.sqrt(2.0), c=4.25
        )
        results = run_all(bad, seed=0)
        by_name = {r.name: r for r in results}
        assert not by_name["recursion_vs_closed_form"].passed
        assert by_name["recursion_vs_closed_form"].worst_rel_err > RATIONAL_TOL
        for name in SUITE_ORDER[1:]:
            assert by_name[name].passed, f"{name} should not depend on c alone"

    @pytest.mark.parametrize("c", [ABOVE_ONE, 1.0 + 1e-9], ids=["ulp", "1e-9"])
    def test_constant_just_above_one_is_judged_not_refused(self, c):
        # c at or below 1 is refused by SchemeParams (tests/test_domain.py); just
        # above it, the slot routes and the envelope both see the inconsistent
        # c, and the judge says so
        assert [r.passed for r in run_all(_with_c(c), seed=0)] == [False, True, True, False, True]

    def test_recursion_suite_on_its_own_answers_at_the_smallest_c(self):
        # called without run_all, the first suite meets only the c that
        # SchemeParams admits (at c = 0 it would divide by a zero bracket
        # term); from the smallest of them no bracket term is 0
        errors = recursion_vs_closed_form(_with_c(ABOVE_ONE), 0)
        assert len(errors) == 200 and all(math.isfinite(e) for e in errors)

    def test_corruption_is_visible_at_low_case_count_too(self):
        bad = SchemeParams(
            R=1.0, Q=1.0, beta1=2.0, beta=2.0 * math.sqrt(2.0), c=4.25
        )
        assert max(recursion_vs_closed_form(bad, 5)[:20]) > RATIONAL_TOL


def _judge(monkeypatch, errors, tol=1e-9):
    """run_all's verdict on a lone fake suite that returns errors."""
    def fake(params, seed):
        return errors

    monkeypatch.setattr(selfcheck, "SUITES", ((fake, tol),))
    (result,) = run_all(derive(1.0, 1.0))
    assert isinstance(result, SuiteResult)
    assert (result.name, result.cases, result.tolerance) == ("fake", len(errors), tol)
    return result


class TestNonFiniteErrors:
    def test_nan_case_error_fails_its_suite(self, monkeypatch):
        # _rel_err keeps every real suite from returning NaN; the judge still
        # fails one, since nan <= tol is false
        assert _judge(monkeypatch, [math.nan]).passed is False

    @pytest.mark.parametrize(
        "value, reference", [(math.inf, math.inf), (1.0, math.inf), (math.nan, 1.0)]
    )
    def test_case_past_float_range_is_an_overflow(self, value, reference):
        with pytest.raises(OverflowError):
            _rel_err(value, reference)

    @pytest.mark.parametrize("value", [1.0, 0.0])
    def test_zero_reference_is_refused_as_a_non_finite_operand_is(self, value):
        with pytest.raises(OverflowError, match="against reference 0$"):
            _rel_err(value, 0.0)

    def test_reference_that_underflows_names_the_suite_and_the_rate_pair(self):
        # in the domain, yet the direct ratio of ratio_two_routes rounds to 0:
        # a DomainError from run_all, not a ZeroDivisionError
        params = SchemeParams(
            R=7.482914677239627e208,
            Q=2.717171250004728e209,
            beta1=6.985335229520463e73,
            beta=1.1301318133243202e163,
            c=4.974135289277334e50,
        )
        msg = r"^suite ratio_two_routes overflowed at R=7\.48291e\+208, Q=2\.71717e\+209: "
        with pytest.raises(DomainError, match=msg):
            run_all(params)

    def test_closed_form_ratio_past_float_range_names_the_suite_and_the_rate_pair(self):
        # ratio_original_closed_form refuses its own overflow with a DomainError;
        # run_all reports it as it reports an overflowing case
        params = SchemeParams(
            R=5.266335238035451e-134,
            Q=6.517655930761541e-117,
            beta1=1e308,
            beta=math.nextafter(1.0, 2.0),
            c=1.9278344623919566e20,
        )
        msg = (
            r"^suite ratio_two_routes overflowed at R=5\.26634e-134, Q=6\.51766e-117: "
            r"closed-form ratio is not finite at n=1024$"
        )
        with pytest.raises(DomainError, match=msg):
            run_all(params)

    def test_slot_routes_past_float_range_overflow(self):
        # at Q/R = 1.7e308 the slot count of a deep plan leaves float range,
        # and the route that meets it first names the layer
        with pytest.raises(OverflowError, match=r"^slot count leaves float range at layer \d+ of "):
            recursion_vs_closed_form(derive(1.0, 1.7e308), 0)


def _record_plans(mp):
    # the plans recursion_vs_closed_form hands the walk kernel, in case order
    plans = []
    walk = selfcheck._walk

    def recorded(sizes, R, inflation):
        plans.append(list(sizes))
        return walk(sizes, R, inflation)

    mp.setattr(selfcheck, "_walk", recorded)
    return plans


def _uniform_draws(seed, low):
    # the plans of rng.randint(2, 6) layers, bottom rng.uniform(low, 64.0), each
    # size above it rng.uniform(1.5, 8.0) times the one below, top-down
    rng = random.Random(seed)
    drawn = []
    for _ in range(200):
        h = rng.randint(2, 6)
        sizes = [rng.uniform(low, 64.0)]
        for _ in range(h - 2):
            sizes.append(sizes[-1] * rng.uniform(1.5, 8.0))
        drawn.append(sizes[::-1])
    return drawn


def _hexes(plans):
    # every size of every plan by float.hex
    return [[m.hex() for m in s] for s in plans]


def _per_comparison(params, cases):
    # the judge by its definition: one _rel_err per total and per term pair
    errors = []
    for sizes in cases:
        w, b = delay_recursive(sizes, params), delay_closed_form(sizes, params)
        terms = map(_rel_err, w.decomposition, b.decomposition)
        errors.append(max(_rel_err(w.slots, b.slots), *terms))
    return errors


def _hexed(f, *args):
    # (True, every case error by float.hex) or (False, the type and text of the error)
    try:
        return True, [e.hex() for e in f(*args)]
    except (ArithmeticError, DomainError, InfeasibleError) as exc:
        return False, (type(exc), str(exc))


class TestOnePassJudge:
    @settings(max_examples=200, deadline=None)
    @given(params=search_params() | corrupt_params(), seed=st.integers(0, 2**32))
    @example(params=derive(1e300, 1e300), seed=0)
    @example(params=derive(1e-300, 1e-300), seed=0)
    def test_case_errors_are_the_per_comparison_definition(self, params, seed):
        # the suite's one pass over the two kernels gives every case error of
        # the public routes bit for bit, or the same error
        with pytest.MonkeyPatch.context() as mp:
            cases = _record_plans(mp)
            got = _hexed(recursion_vs_closed_form, params, seed)
        assert got == _hexed(_per_comparison, params, cases)


class TestResultPlumbing:
    def test_zero_cases_never_passes(self, monkeypatch):
        empty = _judge(monkeypatch, [])
        assert empty.passed is False and empty.worst_rel_err == 0.0

    def test_worst_at_tolerance_still_passes(self, monkeypatch):
        assert _judge(monkeypatch, [1e-9]).passed is True
        assert _judge(monkeypatch, [2e-9]).passed is False

    def test_worst_is_the_largest_case_error(self, monkeypatch):
        result = _judge(monkeypatch, [1e-12, 5e-10, 3e-11])
        assert result.passed is True and result.worst_rel_err == 5e-10


class TestWork:
    def test_verify_builds_few_infeasible_errors(self, monkeypatch):
        # a depth that does not fit is None, not an error: the errors left come
        # from optimal_cluster_sizes in am_gm_equal_terms, one per top size at
        # the first depth it does not fit, after which that size leaves the walk
        built = []
        init = InfeasibleError.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(InfeasibleError, "__init__", counted)
        run_all(derive(1.0, 1.0), 0)
        assert len(built) == 4

    def test_bound_checks_evaluates_the_envelope_once_per_size(self, monkeypatch):
        # 30 sizes, 108 cases at unit rates: one envelope per size, not per case
        sizes = []
        bound = selfcheck.upper_bound

        def counted(n, params):
            sizes.append(n)
            return bound(n, params)

        monkeypatch.setattr(selfcheck, "upper_bound", counted)
        assert len(selfcheck.bound_checks(derive(1.0, 1.0), 0)) == 108
        assert len(sizes) == len(set(sizes)) == 30

    def test_each_suite_calls_the_public_routes_once_per_case(self, monkeypatch):
        # the suites judge the public routes, never a copy of their arithmetic
        calls = collections.Counter()
        # the first two suites run the bracket kernel, _bracket, on a plan
        # that is valid by construction or that the equal-term sizing has
        # just checked; the first runs the walk kernel, _walk, on it too
        routes = ("_walk", "_bracket", "layer_throughput",
                  "throughput_given_M1", "optimal_cluster_sizes", "minimal_delay")
        for name in routes:
            def counted(*args, real=getattr(selfcheck, name), name=name):
                calls[sys._getframe(1).f_code.co_name, name] += 1
                return real(*args)

            monkeypatch.setattr(selfcheck, name, counted)
        run_all(derive(1.0, 1.0), 0)
        assert calls == {
            ("recursion_vs_closed_form", "_walk"): 200,
            ("recursion_vs_closed_form", "_bracket"): 200,
            ("am_gm_equal_terms", "optimal_cluster_sizes"): 16,
            ("am_gm_equal_terms", "_bracket"): 12,
            ("am_gm_equal_terms", "minimal_delay"): 12,
            ("phase_balance", "throughput_given_M1"): 34,
            ("bound_checks", "layer_throughput"): 138,
        }

    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 2**70])
    def test_random_hierarchies_are_the_uniform_draws(self, monkeypatch, seed):
        # recursion_vs_closed_form draws rng.randint's and rng.uniform's values without their calls
        seen = _record_plans(monkeypatch)
        recursion_vs_closed_form(derive(1.0, 1.0), seed)
        assert _hexes(seen) == _hexes(_uniform_draws(seed, 2.0))

    @pytest.mark.parametrize("Q", [1.0, 24.0, 0.3])
    def test_drawn_plans_are_valid_by_construction(self, monkeypatch, Q):
        # the suite runs the kernels on no checked plan: validate_plan returns
        # every plan it draws unchanged
        seen = _record_plans(monkeypatch)
        for seed in [*range(51), 2**70]:
            recursion_vs_closed_form(derive(1.0, Q), seed)
        assert len(seen) == 52 * 200
        assert _hexes(seen) == _hexes(map(validate_plan, seen))

    def test_drawn_bottoms_read_the_cluster_floor(self, monkeypatch):
        # the bottom draw is rng.uniform(MIN_CLUSTER, 64.0): a raised floor
        # raises every bottom size with it
        monkeypatch.setattr(selfcheck, "MIN_CLUSTER", 3.0)
        seen = _record_plans(monkeypatch)
        recursion_vs_closed_form(derive(1.0, 1.0), 0)
        assert min(s[-1] for s in seen) >= 3.0
        assert _hexes(seen) == _hexes(_uniform_draws(0, 3.0))

    def test_ratio_two_routes_runs_no_depth_search(self, unit_params):
        # it reads only the smooth figure, which needs no depth
        with memos.counted() as traffic:
            selfcheck.ratio_two_routes(unit_params, 0)
        assert traffic.searches == 0

    def test_ratio_two_routes_fails_a_smooth_depth_read_at_n(self, monkeypatch, unit_params):
        # smooth_depth taken at log(n) rather than log(n/2): no other suite reads
        # the public depth but bound_checks, through a one-sided envelope
        monkeypatch.setattr(
            selfcheck, "smooth_depth", lambda n, p: math.sqrt(math.log(n) / p.log_beta1)
        )
        by_name = {r.name: r for r in run_all(unit_params)}
        assert not by_name["ratio_two_routes"].passed
        assert by_name["ratio_two_routes"].worst_rel_err > 1e-3
