"""Throughput closed forms, conventions, bounds, and baselines."""
import math

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hiercoop import (
    DomainError,
    InfeasibleError,
    PlanError,
    SchemeParams,
    delay_recursive,
    depth_optimum,
    derive,
    layer_choice,
    layer_throughput,
    minimal_delay,
    multihop_baseline,
    optimal_cluster_sizes,
    optimal_modified,
    original_optimal_layers,
    original_throughput,
    per_pair_rate,
    ratio_original,
    smooth_modified,
    throughput_given_M1,
    upper_bound,
)
from hiercoop import throughput
from hiercoop.recurrence import delay_closed_form
from oracles import depth_constants_50_digits, slots_by_tree_walk
from strategies import plans


class TestExplicitDesign:
    def test_phase_slots_at_the_reference_point(self, unit_params):
        report = throughput_given_M1(3, 512.0, 131072, unit_params)
        p1, p2, p3 = report.phase_slots
        assert p1 == pytest.approx(262144.0, rel=1e-12)
        assert p2 == pytest.approx(262144.0, rel=1e-12)
        assert p3 == pytest.approx(262144.0, rel=1e-12)
        assert report.value == pytest.approx(256.0 / 3.0, rel=1e-12)
        assert report.exponent == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_value_is_bits_served_over_slots_spent(self, unit_params):
        n, M1 = 2**20, 300.0
        report = throughput_given_M1(4, M1, n, unit_params)
        bits = n * M1
        assert report.value == pytest.approx(bits / sum(report.phase_slots), rel=1e-12)

    def test_re_exchange_slots_scale_the_exchange_by_the_rate_ratio(self):
        p = derive(1.0, 3.0)
        report = throughput_given_M1(3, 200.0, 2**16, p)
        p1, _, p3 = report.phase_slots
        assert p3 == pytest.approx(3.0 * p1, rel=1e-12)

    @staticmethod
    def _value_for_blocks_of(L):
        # bits over slots of the (3, 512) design at unit rates for L-bit blocks,
        # with the exchange slots from the tree-walk oracle at sizes (512, 16)
        n, M1 = 131072, 512.0
        exchange = 4.0 * slots_by_tree_walk((512.0, 16.0), L, 1.0, 1.0)
        return n * M1 * L / (exchange + 2.0 * n * L + exchange)

    @pytest.mark.parametrize("L", [0.5, 1.0, 8.0])
    def test_throughput_is_block_size_free(self, unit_params, L):
        base = throughput_given_M1(3, 512.0, 131072, unit_params).value
        assert self._value_for_blocks_of(L) == base

    def test_block_size_freedom_at_an_awkward_scale(self, unit_params):
        base = throughput_given_M1(3, 512.0, 131072, unit_params).value
        assert self._value_for_blocks_of(7.0) == pytest.approx(base, rel=1e-12)

    def test_whole_network_as_one_cluster_is_legal(self, unit_params):
        assert throughput_given_M1(2, 2048.0, 2048, unit_params).value > 0.0

    def test_guards(self, unit_params):
        with pytest.raises(InfeasibleError):
            throughput_given_M1(3, 2049.0, 2048, unit_params)
        with pytest.raises(DomainError):
            throughput_given_M1(2, 2.0, 3, unit_params)
        with pytest.raises(PlanError):
            throughput_given_M1(1, 8.0, 1024, unit_params)


class TestPerDepthCurve:
    def test_depth_three_beats_depth_four_at_the_reference_size(self, unit_params):
        t3 = layer_throughput(3, 131072, unit_params).value
        t4 = layer_throughput(4, 131072, unit_params).value
        assert t3 == pytest.approx(256.0 / 3.0, rel=1e-12)
        assert t4 == pytest.approx(76.10925536017415, rel=1e-12)
        assert t3 > t4

    @pytest.mark.parametrize("h", range(2, 9))
    def test_closed_form_matches_the_explicit_phases(self, unit_params, h):
        # every depth 2..8 fits n = 2**62 at unit rates
        n = 2**62
        report = layer_throughput(h, n, unit_params)
        assert report is not None
        explicit = throughput_given_M1(h, report.M1_used, n, unit_params)
        assert explicit.value == pytest.approx(report.value, rel=1e-9)

    def test_balanced_top_size_is_reported(self, unit_params):
        report = layer_throughput(3, 131072, unit_params)
        assert report.M1_used == pytest.approx(
            depth_optimum(3, 131072, unit_params)[0], rel=1e-15
        )
        assert report.phase_slots is None

    def test_two_layer_front_factor_is_size_free(self, unit_params):
        # at h=2 the exponent is 1/2 and the front factor collapses to
        # R / (2 * sqrt(1 + R/Q) * sqrt(c)), independent of n
        expected = unit_params.R / (
            2.0
            * math.sqrt(1.0 + unit_params.R / unit_params.Q)
            * math.sqrt(unit_params.c)
        )
        for n in (64, 4096, 10**6):
            report = layer_throughput(2, n, unit_params)
            assert report.pre_constant == pytest.approx(expected, rel=1e-12)
            assert report.exponent == 0.5

    def test_front_factor_decays_with_depth(self, unit_params):
        n = 2**30
        pres = [layer_throughput(h, n, unit_params).pre_constant for h in range(2, 6)]
        assert all(b < a for a, b in zip(pres, pres[1:]))

    def test_exponent_climbs_toward_one_with_depth(self, unit_params):
        n = 2**30
        exps = [layer_throughput(h, n, unit_params).exponent for h in range(2, 6)]
        assert all(b > a for a, b in zip(exps, exps[1:]))
        assert all(e < 1.0 for e in exps)


class TestModifiedScheme:
    def test_reference_size_reports_both_conventions(self, unit_params):
        both = optimal_modified(131072, unit_params)
        assert both.integer is not None
        assert both.integer.value == pytest.approx(256.0 / 3.0, rel=1e-12)
        assert both.integer.h_int == 3
        assert both.smooth.value == pytest.approx(76.10925536017415, rel=1e-12)
        assert both.smooth.h_used == 4.0  # sqrt(log_2 65536) exactly
        assert both.smooth.M1_used is None

    def test_smooth_value_meets_the_integer_curve_when_the_log_is_a_square(
        self, unit_params
    ):
        # log_2(131072/2) = 16 makes the smooth depth the integer 4, so the
        # smooth value must coincide with the depth-4 closed form
        smooth = optimal_modified(131072, unit_params).smooth.value
        assert smooth == layer_throughput(4, 131072, unit_params).value

    @pytest.mark.parametrize("ratio", [0.25 + 1e-9, 1.0, 24.0])
    def test_smooth_half_is_smooth_modified(self, ratio):
        # against the smooth kernel computed cold, not the memo entry
        # optimal_modified read
        params = derive(1.0, ratio)
        for i in range(100):
            n = round(2.0 ** (2.0 + 60.0 * i / 99.0))
            smooth = optimal_modified(n, params).smooth
            assert smooth == throughput._smooth_forms(n, params)[0]

    @pytest.mark.parametrize("c", [1.0, 1.0 - 1e-9])
    def test_smooth_figure_does_not_read_c(self, unit_params, c):
        # SchemeParams refuses a c at or below one (tests/test_domain.py); one
        # above it, off 4Q/R, leaves the smooth figure, which searches no
        # depth, where it was
        bad = SchemeParams(R=1.0, Q=1.0, beta1=2.0, beta=2.0 * math.sqrt(2.0), c=c + 1.0)
        for n in (131072, 200):
            assert smooth_modified(n, bad) == smooth_modified(n, unit_params)

    def test_smooth_correction_term(self, unit_params):
        c_n = optimal_modified(131072, unit_params).smooth.c_n
        assert c_n == pytest.approx(2.0**0.75, rel=1e-12)

    def test_smooth_correction_grows_but_stays_under_its_limit(self, unit_params):
        values = [optimal_modified(10**k, unit_params).smooth.c_n for k in (3, 6, 9)]
        assert values[0] < values[1] < values[2] < 2.0

    def test_integer_report_is_absent_when_no_depth_fits(self):
        for n, ratio in ((4, 100.0), (100, 24.0)):
            p = derive(1.0, ratio)
            assert layer_choice(n, p) is None
            assert optimal_modified(n, p).integer is None

    def test_integer_half_is_the_layer_choice(self, unit_params):
        choice = optimal_modified(131072, unit_params).integer
        assert choice is layer_choice(131072, unit_params)
        # its per-depth report is one call away
        report = layer_throughput(choice.h_int, 131072, unit_params)
        assert (report.value, report.M1_used) == (choice.value, choice.M1)

    def test_smooth_exponent_approaches_one_from_below(self, unit_params):
        exps = [optimal_modified(2**k, unit_params).smooth.exponent for k in (10, 20, 40)]
        assert all(b > a for a, b in zip(exps, exps[1:]))
        assert all(e < 1.0 for e in exps)

    def test_tiny_network_rejected(self, unit_params):
        with pytest.raises(DomainError):
            optimal_modified(3, unit_params)


class TestUpperBound:
    def test_envelope_at_the_reference_size(self, unit_params):
        assert upper_bound(131072, unit_params) == 512.0
        assert upper_bound(131072, unit_params) > layer_throughput(
            3, 131072, unit_params
        ).value

    def test_integer_depth_curves_stay_under_the_envelope(self, unit_params):
        checked = 0
        for h in range(2, 13):
            for i in range(30):
                n = round(2.0 ** (8.0 + 32.0 * i / 29.0))
                report = layer_throughput(h, n, unit_params)
                if report is None:
                    continue
                assert report.value <= upper_bound(n, unit_params) * (1.0 + 1e-12)
                checked += 1
        assert checked > 100

    def test_envelope_exponent_is_the_best_inner_exponent(self):
        # with lg = k**2 the inner exponent 1 - 1/h - h/lg peaks at h = k
        # and the peak equals the envelope exponent 1 - 2/k
        for k in (2, 3, 4, 5):
            lg = float(k * k)
            exps = {h: 1.0 - 1.0 / h - h / lg for h in range(2, 2 * k + 2)}
            best = max(exps, key=exps.get)
            assert best == k
            assert exps[k] == pytest.approx(1.0 - 2.0 / k, abs=1e-12)

    def test_network_too_small(self, unit_params):
        with pytest.raises(DomainError):
            upper_bound(3, unit_params)


class TestOriginalScheme:
    def test_depth_at_the_textbook_point(self):
        assert original_optimal_layers(20000, derive(1.0, 24.0)) == 2.0

    def test_depth_at_the_unit_log_point(self):
        assert original_optimal_layers(20, derive(1.0, 24.0)) == 1.0

    def test_depth_at_the_reference_size(self, unit_params):
        got = original_optimal_layers(131072, unit_params)
        assert got == pytest.approx(math.sqrt(32.0 / 3.0), rel=1e-12)

    def test_depth_guards(self):
        # SchemeParams refuses a depth base of 1 or below (tests/test_domain.py);
        # the depth checks n
        with pytest.raises(DomainError):
            original_optimal_layers(3, derive(1.0, 1.0))

    def test_throughput_at_the_reference_size(self, unit_params):
        got = original_throughput(131072, unit_params)
        assert got == pytest.approx(63.75746126561451, rel=1e-12)

    def test_throughput_collapses_when_the_exponent_hits_zero(self, unit_params):
        # log_beta(n/2) = 4 puts the depth at 2 and the size exponent at 0
        n = 128  # n/2 = 64 = (2*sqrt(2))**4
        assert original_optimal_layers(n, unit_params) == pytest.approx(
            2.0, rel=1e-15
        )
        assert original_throughput(n, unit_params) == pytest.approx(
            unit_params.beta * unit_params.R / 2.0, rel=1e-12
        )

    def test_exact_zero_exponent_point(self):
        p = derive(1.0, 24.0)  # beta = 10
        assert p.beta == 10.0
        assert original_optimal_layers(20000, p) == 2.0
        assert original_throughput(20000, p) == 5.0


class TestBaselinesAndShares:
    def test_flat_relaying_reference_points(self):
        assert multihop_baseline(4, 1.0) == 2.0
        assert multihop_baseline(20000, 1.0) == pytest.approx(
            141.4213562373095, rel=1e-12
        )
        assert multihop_baseline(100, 2.5) == 25.0

    def test_flat_relaying_guards(self):
        with pytest.raises(DomainError):
            multihop_baseline(100, 0.0)
        with pytest.raises(DomainError):
            multihop_baseline(100, -1.0)
        with pytest.raises(DomainError):
            multihop_baseline(0, 1.0)

    def test_flat_relaying_node_floor_is_the_network_size_rule(self):
        with pytest.raises(DomainError, match=r"^need n >= 4, got 3$"):
            multihop_baseline(3, 1.0)

    def test_per_pair_share_at_the_reference_size(self, unit_params):
        got = per_pair_rate(131072, unit_params)
        assert got == pytest.approx(5.806675366224224e-4, rel=1e-12)

    def test_per_pair_share_decays_monotonically(self, unit_params):
        values = [per_pair_rate(2**k, unit_params) for k in range(6, 41, 2)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_per_pair_share_decays_slower_than_flat_relaying(self, unit_params):
        ours = per_pair_rate(2**40, unit_params) / per_pair_rate(2**6, unit_params)
        flat = (multihop_baseline(2**40, 1.0) / 2**40) / (
            multihop_baseline(2**6, 1.0) / 2**6
        )
        assert ours > flat  # loses far less ground than 1/sqrt(n)

    def test_per_pair_share_closed_form(self, unit_params):
        n = 2**20
        smooth = optimal_modified(n, unit_params).smooth
        lg = math.log(n / 2.0) / math.log(unit_params.beta1)
        expected = (
            smooth.pre_constant * 0.5 * unit_params.beta1 ** (-2.0 * math.sqrt(lg))
        )
        assert per_pair_rate(n, unit_params) == pytest.approx(expected, rel=1e-9)


class TestHighPrecisionReference:
    """The smooth-depth figures, the envelope and both depths against a 50-digit
    reference, hardest near the Q/R = 1/4 edge where log(beta1) tends to 0."""

    @pytest.mark.parametrize("excess", [1e-3, 1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("R", [1.0, 3.0, 1e-3, 7.3e5])
    def test_relative_error_within_1e_13(self, R, excess):
        params = derive(R, R * (0.25 + excess))
        for n in (16, 10**6, 2**40, 2**62):
            choice = layer_choice(n, params)
            got = {
                "T1_smooth": optimal_modified(n, params).smooth.value,
                "ratio": ratio_original(n, params),
                "h_approx": choice.h_approx,
                "h_exact": choice.h_exact,
                "upper_bound": upper_bound(n, params),
            }
            want = depth_constants_50_digits(n, params.R, params.Q, params.c)
            for key, value in want.items():
                assert abs(got[key] - value) <= 1e-13 * value, (key, n)


def _numbers(value):
    # every float or int inside a result: a record, a size tuple or a number
    if isinstance(value, tuple):
        return [x for item in value for x in _numbers(item)]
    return [] if value is None else [value]


class TestSlotModelTotality:
    """The slot model at every rate scale: a value with no NaN, or a ValueError."""

    @settings(max_examples=300)
    @given(
        R=st.floats(-323.3, 308.0).map(lambda e: min(max(10.0**e, 5e-324), 1e308)),
        ratio=st.floats(0.25, 1e4, exclude_min=True),
        h=st.integers(2, 16),
        M1=st.floats(2.0, 1e12),
        n=st.integers(4, 2**62),
        sizes=plans(max_h=16),
    )
    @example(R=5e-324, ratio=1.0, h=3, M1=512.0, n=131072, sizes=(512.0, 16.0))
    @example(R=1e308, ratio=1.0, h=3, M1=512.0, n=131072, sizes=(512.0, 16.0))
    def test_every_call_returns_no_nan_or_raises_a_value_error(self, R, ratio, h, M1, n, sizes):
        try:
            params = derive(R, ratio * R)
        except DomainError:
            # Q = ratio*R left float range, or rounded to Q/R <= 1/4 at a subnormal R
            assume(False)
        calls = (
            lambda: minimal_delay(h, M1, params),
            lambda: throughput_given_M1(h, M1, n, params),
            lambda: optimal_cluster_sizes(h, M1, params),
        )
        slot_routes = (
            lambda: delay_recursive(sizes, params),
            lambda: delay_closed_form(sizes, params),
        )
        for call in (*calls, *slot_routes):
            try:
                out = call()
            except ValueError:
                continue
            except OverflowError:
                # documented for the slot routes: a slot count past float range
                assert call in slot_routes
                continue
            # an infinite value is allowed: at huge R a throughput overflows
            # because R is folded in before the dimensionless form is complete
            # (ROADMAP item 1, its R half); a NaN never is
            assert not any(math.isnan(x) for x in _numbers(out)), out
