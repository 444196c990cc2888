"""Layer sizing, top-size balancing, and depth selection."""
import math
import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from hiercoop import (
    MAX_LAYERS,
    DomainError,
    InfeasibleError,
    PlanError,
    SchemeParams,
    depth_optimum,
    derive,
    layer_choice,
    layer_throughput,
    minimal_delay,
    optimal_cluster_sizes,
    optimal_modified,
    throughput_given_M1,
    validate_plan,
)
from hiercoop import optimizer
from hiercoop.optimizer import _search_depth
import memos
from hiercoop.params import check_layer_count
from hiercoop.recurrence import delay_closed_form
from oracles import (
    Refused,
    balanced_top_by_formula,
    best_depth_by_scan,
    coordinate_descent_min,
    depth_log_values,
    depth_optimum_per_call,
    golden_max,
    grid_min,
    minimal_delay_per_call,
    search_per_call,
)
from strategies import ABOVE_ONE, corrupt_params, rate_params, search_params


class TestClusterSizes:
    def test_three_layer_sizes_land_on_integers_at_unit_rates(self, unit_params):
        assert optimal_cluster_sizes(3, 512.0, unit_params) == (512.0, 16.0)

    def test_two_layer_plan_is_just_the_top(self, unit_params):
        assert optimal_cluster_sizes(2, 100.0, unit_params) == (100.0,)
        # the smallest cluster, MIN_CLUSTER nodes, is a top
        assert optimal_cluster_sizes(2, 2.0, unit_params) == (2.0,)

    def test_four_layer_sizes(self, unit_params):
        sizes = optimal_cluster_sizes(4, 4096.0, unit_params)
        assert sizes[0] == 4096.0
        assert sizes[1] == pytest.approx(80.63494719327186, rel=1e-12)
        assert sizes[2] == pytest.approx(6.3496042078727974, rel=1e-12)

    def test_depth_that_cannot_fit_is_rejected(self, unit_params):
        # one message for every depth-fit check: h, M1 and the bottom size
        msg = r"^depth h=6 does not fit below M1=32: bottom cluster size 0\.2176\d* is below 2$"
        with pytest.raises(InfeasibleError, match=msg):
            optimal_cluster_sizes(6, 32.0, unit_params)
        with pytest.raises(InfeasibleError, match=msg):
            minimal_delay(6, 32.0, unit_params)

    @settings(max_examples=300)
    @given(
        M1=st.sampled_from([32.0, 512.0, 4096.0, 131072.0]) | st.floats(2.0, 2.0**62),
        params=search_params(),
    )
    @example(M1=32.0, params=derive(1.0, 0.25 + 2**-54))  # c = 1 + 2**-52
    @example(M1=131072.0, params=derive(1.0, 1.0))
    def test_depths_a_top_size_fits_are_a_run_from_two(self, M1, params):
        # the equal-term bottom layer shrinks as h grows: once a depth does
        # not fit M1, no deeper one does, and each refusal is an InfeasibleError
        fits = []
        for h in range(2, MAX_LAYERS + 1):
            try:
                optimal_cluster_sizes(h, M1, params)
            except InfeasibleError:
                continue
            fits.append(h)
        assert fits == list(range(2, len(fits) + 2))

    def test_tiny_top_cluster_is_rejected(self, unit_params):
        with pytest.raises(InfeasibleError):
            optimal_cluster_sizes(3, 1.5, unit_params)

    @pytest.mark.parametrize("M1", [math.nan, math.inf])
    @pytest.mark.parametrize("sizing", [optimal_cluster_sizes, minimal_delay])
    def test_non_finite_top_cluster_is_rejected(self, unit_params, sizing, M1):
        with pytest.raises(InfeasibleError, match=rf"^top cluster must hold >= 2 nodes, got {M1}$"):
            sizing(3, M1, unit_params)

    def test_depth_validation(self, unit_params):
        with pytest.raises(PlanError):
            optimal_cluster_sizes(1, 8.0, unit_params)
        with pytest.raises(PlanError):
            optimal_cluster_sizes(65, 2.0**64, unit_params)

    @pytest.mark.parametrize("h", [1, 3.0, MAX_LAYERS + 1])
    def test_depth_is_refused_as_a_plan_refuses_it(self, unit_params, h):
        # one layer-count rule: every per-depth function raises the plan's error
        with pytest.raises(PlanError) as want:
            check_layer_count(h)
        if isinstance(h, int):
            with pytest.raises(PlanError) as plan:
                validate_plan(tuple(2.0 ** (h - i) for i in range(h - 1)))
            assert str(plan.value) == str(want.value)
        calls = (
            lambda: optimal_cluster_sizes(h, 8.0, unit_params),
            lambda: minimal_delay(h, 8.0, unit_params),
            lambda: depth_optimum(h, 1024, unit_params),
        )
        for call in calls:
            with pytest.raises(PlanError) as got:
                call()
            assert str(got.value) == str(want.value)

    @given(h=st.integers(2, 6), M1=st.floats(16.0, 1e6), params=rate_params())
    def test_bracket_terms_are_equalized(self, h, M1, params):
        try:
            sizes = optimal_cluster_sizes(h, M1, params)
        except InfeasibleError:
            return
        terms = delay_closed_form(sizes, params).decomposition
        mean = sum(terms) / len(terms)
        for t in terms:
            assert t == pytest.approx(mean, rel=1e-9)


class TestGridAndDescentOracles:
    def test_grid_search_confirms_the_middle_size(self, unit_params):
        def bracket(m2):
            return delay_closed_form((512.0, m2), unit_params).slots

        arg, val = grid_min(bracket, 2.0, 511.75, 0.25)
        assert arg == pytest.approx(16.0, rel=0.01)
        assert val == pytest.approx(65536.0, rel=1e-3)

    def test_coordinate_descent_confirms_the_four_layer_sizes(self, unit_params):
        def bracket(ms):
            m2, m3 = ms
            if not 4096.0 > m2 > m3 >= 2.0:
                return math.inf
            return delay_closed_form((4096.0, m2, m3), unit_params).slots

        sizes, val = coordinate_descent_min(
            bracket, (256.0, 16.0), [(2.0, 4000.0), (2.0, 200.0)]
        )
        optimal = optimal_cluster_sizes(4, 4096.0, unit_params)
        assert sizes[0] == pytest.approx(optimal[1], rel=0.01)
        assert sizes[1] == pytest.approx(optimal[2], rel=0.01)
        best = minimal_delay(4, 4096.0, unit_params).slots
        assert val == pytest.approx(best, rel=1e-3)


class TestMinimalDelay:
    def test_three_layer_reference_point(self, unit_params):
        out = minimal_delay(3, 512.0, unit_params)
        assert out.slots == pytest.approx(65536.0, rel=1e-12)
        assert out.decomposition == (32768.0, 32768.0)

    def test_two_layers_collapse_to_the_base_exchange(self, unit_params):
        assert minimal_delay(2, 8.0, unit_params).slots == pytest.approx(
            64.0, rel=1e-12
        )

    def test_beats_an_off_optimum_plan(self, unit_params):
        best = minimal_delay(3, 512.0, unit_params).slots
        worse = delay_closed_form((512.0, 8.0), unit_params).slots
        assert worse == pytest.approx(81920.0, rel=1e-12)
        assert best < worse

    def test_matches_the_bracket_at_the_optimal_sizes(self, unit_params):
        for h in (2, 3, 4, 5):
            for M1 in (64.0, 512.0, 4096.0):
                try:
                    sizes = optimal_cluster_sizes(h, M1, unit_params)
                except InfeasibleError:
                    continue
                direct = minimal_delay(h, M1, unit_params).slots
                bracket = delay_closed_form(sizes, unit_params).slots
                assert direct == pytest.approx(bracket, rel=1e-12)

    def test_guards(self, unit_params):
        with pytest.raises(InfeasibleError):
            minimal_delay(3, 1.5, unit_params)
        with pytest.raises(InfeasibleError):
            minimal_delay(6, 32.0, unit_params)
        with pytest.raises(PlanError):
            minimal_delay(1, 8.0, unit_params)

    @pytest.mark.parametrize("h,M1", [(3, 512.0), (4, 4096.0), (5, 131072.0)])
    @pytest.mark.parametrize("factor", [0.5, 0.9, 1.1, 2.0])
    def test_perturbing_any_layer_never_helps(self, unit_params, h, M1, factor):
        optimal = optimal_cluster_sizes(h, M1, unit_params)
        best = delay_closed_form(optimal, unit_params).slots
        for i in range(1, len(optimal)):
            sizes = list(optimal)
            sizes[i] *= factor
            try:
                slots = delay_closed_form(sizes, unit_params).slots
            except PlanError:
                continue  # the perturbation broke the ordering; nothing to compare
            assert slots >= best * (1.0 - 1e-12)


class TestBalancedTopSize:
    def test_two_layer_reference_point(self, unit_params):
        assert depth_optimum(2, 131072, unit_params)[0] == pytest.approx(
            181.01933598375618, rel=1e-12
        )

    def test_three_layer_reference_point(self, unit_params):
        # analytically 512; floating point lands within an ulp
        assert depth_optimum(3, 131072, unit_params)[0] == pytest.approx(
            512.0, rel=1e-12
        )

    @pytest.mark.parametrize("h", [2, 3, 4])
    @pytest.mark.parametrize("k", [14, 20, 26])
    def test_balancing_identity_reconstructs_n(self, unit_params, h, k):
        n = 2**k
        M1 = depth_optimum(h, n, unit_params)[0]
        qr = unit_params.Q / unit_params.R
        recon = (
            8.0
            * (1.0 + qr)
            * unit_params.c ** ((h - 2) / 2.0)
            * (M1 / 2.0) ** (h / (h - 1.0))
        )
        assert recon == pytest.approx(float(n), rel=1e-9)

    def test_golden_section_confirms_the_balanced_top(self, unit_params):
        n = 131072
        for h in (2, 3):

            def gain(m1, h=h):
                try:
                    return throughput_given_M1(h, m1, n, unit_params).value
                except InfeasibleError:
                    return 0.0

            arg, val = golden_max(gain, 2.0, 5000.0)
            M1 = depth_optimum(h, n, unit_params)[0]
            assert arg == pytest.approx(M1, rel=0.01)
            assert val == pytest.approx(gain(M1), rel=1e-3)

    def test_balanced_size_below_a_cluster_is_infeasible(self, unit_params):
        # at n = 4 the balancing equation yields M1 = 1; at n = 16 it yields
        # exactly 2, the smallest cluster, which fits
        assert depth_optimum(2, 4, unit_params) is None
        assert depth_optimum(2, 16, unit_params) == (2.0, 0.5)

    def test_balanced_size_cannot_swallow_the_network(self):
        # the tiny c that once drove the balanced size past n is refused
        # (tests/test_domain.py), and at c > 1, Q/R > 1/4 the load tops 10, so
        # M1 = 2 (n/load)**((h-1)/h) stays below n/3 at the edge of the domain
        edge = derive(1.0, math.nextafter(0.25, 1.0))
        edge = SchemeParams(R=1.0, Q=edge.Q, beta1=edge.beta1, beta=edge.beta, c=ABOVE_ONE)
        fits = 0
        for h in range(2, MAX_LAYERS + 1):
            for n in (*range(4, 65), 2**20, 2**40, 2**62):
                best = depth_optimum(h, n, edge)
                if best is not None:
                    assert best[0] < n / 3.0, (h, n)
                    fits += 1
        assert fits > 100

    def test_load_past_float_range_is_infeasible_not_an_overflow(self):
        # c**((h-2)/2) overflows; the balanced size it implies is below a cluster
        huge = derive(1.0, 1e100)
        assert depth_optimum(12, 2**40, huge) is None

    def test_network_too_small(self, unit_params):
        with pytest.raises(DomainError):
            depth_optimum(2, 3, unit_params)


class TestLayerChoice:
    def test_reference_size(self, unit_params):
        choice = layer_choice(131072, unit_params)
        assert choice.h_approx == 4.0  # log_2(65536) is exactly 16
        assert choice.h_exact == pytest.approx(3.218239037209938, rel=1e-12)
        assert choice.h_int == 3
        assert choice.M1 == pytest.approx(512.0, rel=1e-12)
        assert choice.value == pytest.approx(256.0 / 3.0, rel=1e-12)
        assert (choice.M1, choice.value) == depth_optimum(3, 131072, unit_params)

    def test_integer_depth_beats_every_feasible_alternative(self, unit_params):
        n = 131072
        best = layer_throughput(layer_choice(n, unit_params).h_int, n, unit_params).value
        for h in range(2, 9):
            report = layer_throughput(h, n, unit_params)
            if report is None:
                continue
            assert best >= report.value

    def test_exact_depth_sits_below_the_shortcut(self, unit_params):
        # the stationarity root is dragged down by the (1 + R/Q) term
        for k in (14, 20, 26, 32):
            choice = layer_choice(2**k, unit_params)
            assert choice.h_exact < choice.h_approx

    def test_no_feasible_depth_is_none(self):
        p = derive(1.0, 100.0)  # huge Q/R forces giant clusters
        assert layer_choice(4, p) is None
        assert layer_choice(4, p) is None  # served from the memo
        assert optimal_modified(4, p).integer is None

    def test_depth_cap_is_respected(self, unit_params):
        assert layer_choice(2**40, unit_params, h_max=2).h_int == 2

    def test_repeated_calls_share_one_immutable_choice(self):
        # the same n and params objects reuse the last search; an equal rate
        # pair in another object searches afresh and finds an equal choice
        params = derive(1.0, 1.0)
        first = layer_choice(131072, params)
        assert layer_choice(131072, params) is first
        with pytest.raises(AttributeError):
            first.h_int = 4
        again = layer_choice(131072, derive(1.0, 1.0))
        assert again == first and again is not first
        assert layer_choice(131072, params).h_int == 3

    @pytest.mark.parametrize("h_max", [-5, 0, 1, MAX_LAYERS + 1])
    def test_explicit_depth_cap_out_of_range_is_refused(self, unit_params, h_max):
        with pytest.raises(PlanError, match="h_max"):
            layer_choice(10**6, unit_params, h_max=h_max)

    def test_default_depth_cap_stops_at_the_layer_cap(self):
        # near Q/R = 1/4, h_approx is far above the default cap, MAX_LAYERS
        choice = layer_choice(2**62, derive(1.0, 0.25 + 1e-9))
        assert choice.h_approx > MAX_LAYERS
        assert 2 <= choice.h_int <= MAX_LAYERS

    def test_network_too_small(self, unit_params):
        with pytest.raises(DomainError):
            layer_choice(3, unit_params)


def _depth_cap(n, params, h_max):
    # layer_choice's default cap when h_max is None
    return MAX_LAYERS if h_max is None else h_max


def _full_scan(n, params, h_max):
    """(h, M1, value) from depth_optimum at every depth in 2..h_max, first
    of equal values kept: the search layer_choice must reproduce."""
    best = None
    for h in range(2, h_max + 1):
        fit = depth_optimum(h, n, params)
        if fit is None:
            continue
        M1, value = fit
        if best is None or value > best[2]:
            best = (h, M1, value)
    return best


def _walk_is_clear(n, params, h_max, h_exact):
    """Whether the best depth rests on values that rounding cannot reorder:
    of the first depth that fits walking down from the clamped floor(h*) and
    depth floor(h*) + 1, each that fits has a finite value, and when both
    fit the two are normal floats more than 1e-12 apart relative. Only there
    must layer_choice's pick be _full_scan's bit for bit."""
    split = min(max(math.floor(h_exact), 2), h_max)
    h = split
    while (below := depth_optimum(h, n, params)) is None and h > 2:
        h -= 1
    above = depth_optimum(split + 1, n, params) if split < h_max else None
    values = sorted(fit[1] for fit in (below, above) if fit is not None)
    if not all(math.isfinite(v) for v in values):
        return False
    return len(values) < 2 or (
        values[0] >= sys.float_info.min and values[1] - values[0] > 1e-12 * values[1]
    )


def _check_near_the_argmax(got, n, params, h_max):
    # None exactly when no depth fits; else h_int's 60-digit log value is
    # within 1e-14 of the best fitting depth's, and (M1, value) is
    # depth_optimum's at h_int bit for bit
    values = depth_log_values(n, params.R, params.Q, params.c, h_max)
    if got is None:
        assert not values
        return
    best = max(values.values())
    assert values[got.h_int] == best or best - values[got.h_int] < 1e-14, (got.h_int, values)
    fit = depth_optimum(got.h_int, n, params)
    assert (got.M1.hex(), got.value.hex()) == (fit[0].hex(), fit[1].hex())


class TestDepthSearch:
    """layer_choice evaluates only the depths next to the stationary point;
    it must land where trying every depth lands, None included."""

    @settings(max_examples=400)
    @given(
        n=st.integers(4, 2**62),
        params=search_params(),
        h_max=st.none() | st.integers(2, MAX_LAYERS),
    )
    @example(n=2**62, params=derive(1.0, 0.25 + 1e-3), h_max=None)
    @example(n=2**62, params=derive(1.0, 0.25 + 1e-6), h_max=None)
    @example(n=2**62, params=derive(1.0, 0.25 + 1e-9), h_max=None)
    @example(n=10**6, params=derive(1.0, 0.25 + 1e-9), h_max=7)
    @example(
        n=131072,
        params=SchemeParams(R=1.0, Q=1.0, beta1=2.0, beta=2.0 * math.sqrt(2.0), c=4.25),
        h_max=None,
    )
    @example(n=2**40, params=derive(1.0, 4.49e307), h_max=None)
    @example(n=2**60, params=derive(1e300, 1e300), h_max=None)
    def test_search_matches_the_full_scan(self, n, params, h_max):
        # exactly where rounding cannot reorder the compared values; within
        # the tie contract's bound of the 60-digit argmax everywhere
        cap = _depth_cap(n, params, h_max)
        want = _full_scan(n, params, cap)
        got = layer_choice(n, params, h_max=h_max)
        oracle = best_depth_by_scan(n, params.R, params.Q, params.c, cap)
        _check_near_the_argmax(got, n, params, cap)
        if want is None:
            assert got is None
            assert oracle is None
            return
        if _walk_is_clear(n, params, cap, got.h_exact):
            assert (got.h_int, got.M1, got.value) == want
            assert got.h_int == oracle

    @settings(max_examples=200)
    @given(
        n=st.integers(4, 2**62),
        params=search_params(),
        h_max=st.none() | st.integers(2, MAX_LAYERS),
    )
    def test_repeated_call_matches_the_first_and_the_full_scan(self, n, params, h_max):
        # the second call is served from the last-arguments memo
        first = layer_choice(n, params, h_max=h_max)
        again = layer_choice(n, params, h_max=h_max)
        cap = _depth_cap(n, params, h_max)
        want = _full_scan(n, params, cap)
        if want is None:
            assert first is None and again is None
            return
        assert again == first
        if _walk_is_clear(n, params, cap, again.h_exact):
            assert (again.h_int, again.M1, again.value) == want
        else:
            _check_near_the_argmax(again, n, params, cap)

    def test_params_off_by_one_field_are_not_served_the_last_answer(self):
        n = 131072
        clean = layer_choice(n, derive(1.0, 1.0))
        bad = SchemeParams(
            R=1.0, Q=1.0, beta1=2.0, beta=2.0 * math.sqrt(2.0), c=4.0 * (1.0 + 1e-6)
        )
        got = layer_choice(n, bad)
        assert (got.h_int, got.M1, got.value) == _full_scan(n, bad, _depth_cap(n, bad, None))
        assert got.value != clean.value

    @pytest.mark.parametrize("h_max", [3.0, True, [3]])
    def test_cap_of_the_wrong_type_is_refused_after_a_valid_one(self, unit_params, h_max):
        # a list cap is no key for the memo, and must not reach it
        layer_choice(10**6, unit_params, h_max=3)
        with pytest.raises(PlanError, match="h_max"):
            layer_choice(10**6, unit_params, h_max=h_max)

    # bad rates never reach the search: SchemeParams refuses them
    # (tests/test_domain.py::TestConstructorOwnsTheDomain)
    @pytest.mark.parametrize("n,params", [(3, derive(1.0, 1.0))], ids=["n"])
    def test_bad_size_or_rates_are_named_before_a_bad_cap(self, n, params):
        with pytest.raises(DomainError, match="need n >= 4"):
            layer_choice(n, params, h_max=-5)

    def test_a_failing_search_raises_again_and_stores_nothing(self, unit_params):
        with memos.counted() as traffic:
            before = optimizer._search_last
            for _ in range(2):
                with pytest.raises(DomainError, match="need n >= 4"):
                    layer_choice(3, unit_params)
        assert traffic.searches == 2
        assert optimizer._search_last is before

    def test_repeat_call_runs_no_check_again(self, monkeypatch, unit_params):
        # the checks run once per new (n, params, cap); the default cap is MAX_LAYERS
        calls = []
        real = optimizer.smooth_depth

        def counted(n, params):
            calls.append(n)
            return real(n, params)

        monkeypatch.setattr(optimizer, "smooth_depth", counted)
        memos.empty()
        first = layer_choice(131072, unit_params)
        assert layer_choice(131072, unit_params, h_max=MAX_LAYERS) is first
        assert layer_choice(131072, unit_params) is first
        assert calls == [131072]
        layer_choice(131072, unit_params, h_max=3)
        assert calls == [131072, 131072]

    def test_overflowed_value_does_not_move_the_depth(self):
        # at R = 1e300 and n = 2**60 depths 3..8 all overflow to inf; the
        # choice reads no R, so it stays at the 60-digit argmax, 7, as at
        # R = 1, and not at the smallest depth whose value is inf, 3
        params = derive(1e300, 1e300)
        choice = layer_choice(2**60, params)
        assert (choice.h_int, choice.value) == (7, math.inf)
        assert depth_optimum(2, 2**60, params)[1] < math.inf
        assert layer_choice(2**60, derive(1.0, 1.0)).h_int == 7
        values = depth_log_values(2**60, params.R, params.Q, params.c, MAX_LAYERS)
        assert max(values, key=values.get) == 7
        assert values[7] - values[3] > 0.1

    def test_search_stops_at_the_depth_above_floor_h_star(self, monkeypatch):
        # h* = 1.80 at n = 20000, Q/R = 24: A lies far below the switch point
        # s_2, so depth 2 wins where it fits and depth 3 is not evaluated
        depths = []
        real = optimizer._depth_optimum

        def counted(h, n, params):
            depths.append(h)
            return real(h, n, params)

        monkeypatch.setattr(optimizer, "_depth_optimum", counted)
        assert layer_choice(20000, derive(1.0, 24.0)).h_int == 2
        assert depths == [2]

    def test_on_derived_params_no_depth_above_two_is_found_short(self, monkeypatch):
        # the fit margin in _search_depth's docstring: on derive()d params
        # floor(h*) and the depth the test switches to both fit, so the walk
        # down never moves and only depth 2 can fail to fit
        short = []
        real = optimizer._depth_optimum

        def recorded(h, n, params):
            best = real(h, n, params)
            if best is None and h > 2:
                short.append((h, n, params))
            return best

        monkeypatch.setattr(optimizer, "_depth_optimum", recorded)
        rng = random.Random(15)
        for _ in range(20000):
            # search_params' derived range: R from 1e-300 to 1e300, Q/R from
            # 0.25 + 1e-12 up to 1e200
            log_r = rng.uniform(-300.0, 300.0)
            R = 10.0**log_r
            params = derive(R, R * (0.25 + 10.0 ** rng.uniform(-12.0, min(200.0, 307.0 - log_r))))
            n = round(2.0 ** rng.uniform(2.0, 62.0))
            _search_depth(n, params, rng.randint(2, MAX_LAYERS))
        assert short == []

    def test_a_rounding_tie_may_take_the_deeper_depth(self):
        # A lies 3.6e-15 above s_31 in floats, within rounding: the test takes
        # depth 32, which trails depth 31 by 3.8e-19 in 60-digit log value,
        # inside the tie contract's 1e-14
        n, params = 476407152774835, derive(1.0, 0.2500000000739399)
        assert layer_choice(n, params).h_int == 32
        values = depth_log_values(n, params.R, params.Q, params.c, MAX_LAYERS)
        assert max(values, key=values.get) == 31
        assert 0.0 < values[31] - values[32] < 1e-14

    def test_subnormal_values_do_not_move_the_depth(self):
        # at R = 5 * 2**-1074 every value rounds to 0.0; the test in log n
        # takes depth 5, the 60-digit argmax, where the first of the equal
        # values, depth 4, trails it by 0.31
        n = 127675758068010176
        params = derive(5 * 2.0**-1074, 20 * 2.0**-1074)
        choice = layer_choice(n, params)
        assert (choice.h_int, choice.value) == (5, 0.0)
        values = depth_log_values(n, params.R, params.Q, params.c, MAX_LAYERS)
        assert max(values, key=values.get) == 5
        assert values[5] - values[4] > 0.3

    @settings(max_examples=100)
    @given(
        n=st.integers(4, 2**62),
        k=st.sampled_from([1.0, 3.0, 24.0, 0.25 + 1e-9]),
    )
    @example(n=2**60, k=1.0)
    @example(n=127675758068010176, k=4.0)
    def test_depth_choice_reads_no_rate_scale(self, n, k):
        # (h_exact, h_int, M1) at R = 2**j, Q = k * 2**j, for every j where
        # the pair keeps Q/R == k exactly
        seen = set()
        for j in range(-1074, 1024):
            R = math.ldexp(1.0, j)
            if k * R / R != k:
                continue
            choice = layer_choice(n, derive(R, k * R))
            seen.add(choice and (choice.h_exact.hex(), choice.h_int, choice.M1.hex()))
        assert len(seen) == 1, seen

    @pytest.mark.parametrize(
        "R,Q",
        [
            (1.0, 1.0),
            (1.0, 24.0),
            (1.0, 0.25 + 1e-3),
            (1.0, 0.25 + 1e-6),
            (1.0, 0.25 + 1e-9),
            (1e300, 1e300),
            (5 * 2.0**-1074, 20 * 2.0**-1074),
        ],
        ids=["1.0", "24.0", "edge-1e-3", "edge-1e-6", "edge-1e-9", "R=1e300", "R=5x2**-1074"],
    )
    def test_each_search_on_a_log_grid_evaluates_one_depth(self, monkeypatch, R, Q):
        # sweep_grid's and sweep_edge's rates, and rates whose values
        # overflow to inf or round to 0
        calls = []
        real = optimizer._depth_optimum

        def counted(h, n, params):
            calls.append(h)
            return real(h, n, params)

        monkeypatch.setattr(optimizer, "_depth_optimum", counted)
        params = derive(R, Q)
        prev = 3
        for i in range(1000):
            n = prev = max(round(4 * (2.0**60) ** (i / 999)), prev + 1)
            calls.clear()
            layer_choice(n, params)
            assert len(calls) == 1, (n, calls)

    @settings(max_examples=300)
    @given(n=st.integers(4, 2**62), params=search_params())
    @example(n=2**40, params=derive(1.0, 4.49e307))
    @example(n=2**62, params=derive(1.0, 0.25 + 1e-9))
    @example(
        n=2**40,
        params=SchemeParams(R=1.0, Q=1.0, beta1=2.0, beta=2.0 * math.sqrt(2.0), c=math.inf),
    )
    def test_depths_that_fit_are_a_run_from_two_set_by_the_law(self, n, params):
        # depth h fits n exactly when n >= 8 (1 + Q/R) c**((h-2)(h+1)/2); the
        # law is checked in logs wherever rounding cannot decide it
        fits = [h for h in range(2, MAX_LAYERS + 1) if depth_optimum(h, n, params) is not None]
        H = len(fits) + 1
        assert fits == list(range(2, H + 1))
        room = math.log(n) - math.log(8.0) - math.log1p(params.Q / params.R)
        log_c = math.log(params.c)
        for h in range(2, MAX_LAYERS + 1):
            # c drops out at h = 2, where 0 * log(c) would be NaN for c = inf
            need = 0.0 if h == 2 else (h - 2) * (h + 1) / 2.0 * log_c
            if abs(room - need) > 1e-9:
                assert (h <= H) == (room >= need), h


_ONE_PLUS = SchemeParams(R=1.0, Q=1.0, beta1=2.0, beta=2.0 * math.sqrt(2.0), c=ABOVE_ONE)


class TestDepthOptimum:
    """A depth that does not fit is None, where the model's fit rule fails."""

    @settings(max_examples=300)
    @given(n=st.integers(4, 2**62), params=search_params())
    @example(
        n=2**40,
        params=SchemeParams(R=1.0, Q=1.0, beta1=2.0, beta=2.0 * math.sqrt(2.0), c=math.inf),
    )
    @example(n=2**40, params=_ONE_PLUS)
    @example(n=4, params=_ONE_PLUS)
    @example(n=2**62, params=derive(1.0, 0.25 + 1e-9))
    def test_none_exactly_where_the_formula_does_not_fit(self, n, params):
        for h in range(2, MAX_LAYERS + 1):
            got = depth_optimum(h, n, params)
            M1 = balanced_top_by_formula(h, n, params.R, params.Q, params.c)
            if M1 is None:
                assert got is None, h
            else:
                assert got is not None, h
                assert got[0].hex() == M1.hex(), h

    def test_undersized_network_still_raises(self, unit_params):
        # n = 4 is a network whose depths do not fit; n = 3 is no network
        assert depth_optimum(2, 4, unit_params) is None
        with pytest.raises(DomainError):
            depth_optimum(2, 3, unit_params)


def _with_c(c):
    return SchemeParams(R=1.0, Q=1.0, beta1=2.0, beta=2.0 * math.sqrt(2.0), c=c)


class TestNonPositiveC:
    """SchemeParams refuses c <= 1 or NaN with one DomainError naming c
    (tests/test_domain.py), so no layer-sizing route takes a power of such
    a c; from the smallest c it admits up to inf, each route answers."""

    @pytest.mark.parametrize("h", [2, 3, 4])
    def test_each_route_answers_from_the_smallest_c_to_inf(self, h):
        # below it c**x is complex, 0**-x divides by zero, and NaN slots pass
        # for a number: the constructor refuses each before any route runs
        for params in (_with_c(ABOVE_ONE), _with_c(math.inf)):
            routes = [
                lambda: (depth_optimum(h, 2**40, params) or (None, None))[1],
                lambda: optimal_cluster_sizes(h, 512.0, params)[-1],
                lambda: minimal_delay(h, 512.0, params).slots,
                lambda: getattr(layer_throughput(h, 2**40, params), "value", None),
                lambda: throughput_given_M1(h, 512.0, 2**40, params).value,
            ]
            for route in routes:
                try:
                    value = route()
                except InfeasibleError:
                    continue  # at c = inf no layer below the top fits
                # at c = inf a depth-2 value of order 1/sqrt(c) rounds to 0
                assert value is None or 0.0 <= value < math.inf, (params.c, h)

    def test_depth_search_answers_at_the_smallest_c(self):
        # the search's rule, c > 1, is now the domain's, checked once
        assert layer_choice(2**40, _with_c(ABOVE_ONE)).h_int >= 2

    def test_layer_count_and_top_size_are_named_first(self):
        params = _with_c(ABOVE_ONE)
        with pytest.raises(PlanError):
            depth_optimum(1, 2**40, params)
        with pytest.raises(DomainError, match="need n >= 4"):
            depth_optimum(2, 3, params)
        with pytest.raises(InfeasibleError, match="top cluster"):
            minimal_delay(3, 1.5, params)


def _outcome(call):
    # the floats of a result by their bits, tuples field by field, or the
    # error's type and text; a per-call reference's Refused stands for the
    # InfeasibleError the package raises with that text
    try:
        got = call()
    except Refused as exc:
        return "InfeasibleError", str(exc)
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__, str(exc)
    return _hex(got)


def _hex(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(map(_hex, value))
    return value


def _layer_report_per_call(h, n, p):
    # layer_throughput's report over the per-call depth arithmetic
    best = depth_optimum_per_call(h, n, p.R, p.Q, p.c)
    if best is None:
        return None
    M1, value = best
    e = (h - 1.0) / h
    return value, float(h), M1, None, value / (n / 2.0) ** e, e, None


class TestDepthTable:
    """Each SchemeParams keeps, per depth h, the factors of the depth-h closed
    form that read no n, filled on the first read of depth h. Every figure
    keeps the bits of the per-call arithmetic, whichever depths were read
    first and in whatever order."""

    @settings(max_examples=300)
    @given(
        params=search_params() | corrupt_params(),
        h=st.integers(2, MAX_LAYERS),
        n=st.integers(2, 62).flatmap(lambda k: st.integers(4, 2**k)),
        M1=st.floats(1.0, 2.0**62) | st.sampled_from([math.inf, math.nan]),
        h_max=st.integers(2, MAX_LAYERS),
        first=st.lists(st.integers(2, MAX_LAYERS), max_size=8),
    )
    @example(params=_with_c(math.inf), h=3, n=2**40, M1=512.0, h_max=MAX_LAYERS, first=[])
    @example(params=_with_c(math.inf), h=2, n=2**40, M1=512.0, h_max=MAX_LAYERS, first=[3, 2])
    @example(params=derive(1.0, 4.49e307), h=MAX_LAYERS, n=2**62, M1=2.0**62, h_max=MAX_LAYERS,
             first=[MAX_LAYERS, 2])
    @example(params=derive(1.0, 0.25 + 1e-9), h=MAX_LAYERS, n=2**62, M1=2.0**61,
             h_max=MAX_LAYERS, first=[63, 64, 62])
    @example(params=derive(1.0, 1.0), h=3, n=131072, M1=512.0, h_max=MAX_LAYERS, first=[4, 3])
    def test_every_route_keeps_the_per_call_bits(self, params, h, n, M1, h_max, first):
        p = params
        for d in first:
            depth_optimum(d, 2**40, p)
        want = {
            "depth_optimum": _outcome(lambda: depth_optimum_per_call(h, n, p.R, p.Q, p.c)),
            "layer_choice": _outcome(lambda: search_per_call(n, p.R, p.Q, p.c, p.log_beta1, h_max)),
            "layer_throughput": _outcome(lambda: _layer_report_per_call(h, n, p)),
            "minimal_delay": _outcome(lambda: minimal_delay_per_call(h, M1, p.R, p.c)),
        }
        # the first round may fill entries, the second reads them
        for _ in range(2):
            got = {
                "depth_optimum": _outcome(lambda: depth_optimum(h, n, p)),
                "layer_choice": _outcome(lambda: _search_depth(n, p, h_max)),
                "layer_throughput": _outcome(lambda: layer_throughput(h, n, p)),
                "minimal_delay": _outcome(lambda: minimal_delay(h, M1, p)),
            }
            assert got == want
        assert _outcome(lambda: layer_choice(n, p, h_max)) == want["layer_choice"]

    def test_the_first_read_of_a_depth_fills_its_entry_alone(self):
        params = derive(1.0, 1.0)
        assert params._depths == [None] * (MAX_LAYERS + 1)
        depth_optimum(5, 2**40, params)
        assert [h for h, entry in enumerate(params._depths) if entry] == [5]
        minimal_delay(3, 512.0, params)
        assert [h for h, entry in enumerate(params._depths) if entry] == [3, 5]
        entry = params._depths[5]
        depth_optimum(5, 2**50, params)
        assert params._depths[5] is entry

    def test_each_rate_pair_has_a_table_of_its_own(self):
        one, other = derive(1.0, 1.0), derive(1.0, 24.0)
        depth_optimum(3, 2**40, one)
        assert one._depths[3] is not None and other._depths[3] is None
        depth_optimum(3, 2**40, other)
        assert one._depths[3] != other._depths[3]
        assert one._depths[3] == optimizer._depth_factors(3, derive(1.0, 1.0))
