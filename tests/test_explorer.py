"""Cross-scheme ratio behavior, threshold crossings, and sweep assembly."""
import copy
import math
import os
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from hiercoop import (
    MAX_LAYERS,
    DomainError,
    InfeasibleError,
    LayerChoice,
    NetworkConfig,
    Regime,
    SchemeParams,
    ThroughputReport,
    classify,
    compare_schemes,
    derive,
    layer_choice,
    layer_throughput,
    multihop_baseline,
    optimal_modified,
    original_optimal_layers,
    original_throughput,
    ratio_log_adjusted,
    ratio_original,
    ratio_original_closed_form,
    smooth_modified,
)
from hiercoop import cli, explorer, optimizer, selfcheck, throughput
from hiercoop.params import _Frozen, smooth_depth
from hiercoop.throughput import _smooth_forms
import memos
from oracles import balanced_top_by_formula, best_depth_by_scan, sweep_rows_per_config
from strategies import corrupt_params, rate_params, search_params

UNIT_CFG = NetworkConfig(n=1024, area=1.0, alpha=3.0, c0=1.0)


class TestRatioRoutes:
    def test_reference_value(self, unit_params):
        assert ratio_original(131072, unit_params) == pytest.approx(
            1.193730958688927, rel=1e-12
        )

    def test_routes_agree_on_a_size_ladder(self, unit_params):
        for k in range(10, 45, 2):
            n = 2**k
            direct = ratio_original(n, unit_params)
            closed = ratio_original_closed_form(n, unit_params)
            assert abs(direct - closed) <= 1e-9 * direct

    @given(params=rate_params(), k=st.sampled_from([10, 20, 30, 40]))
    @settings(max_examples=40)
    def test_routes_agree_for_arbitrary_rates(self, params, k):
        n = 2**k
        direct = ratio_original(n, params)
        closed = ratio_original_closed_form(n, params)
        assert abs(direct - closed) <= 1e-9 * direct

    def test_direct_route_is_the_division_it_claims_to_be(self, unit_params):
        # both figures from the smooth kernel computed cold, not read from
        # the memo ratio_original fills
        n = 131072
        smooth, original, _ = _smooth_forms(n, unit_params)
        assert ratio_original(n, unit_params) == smooth.value / original

    def test_underflowed_three_phase_throughput_raises_naming_n(self):
        n, params = 2**62, derive(5e-324, 5e-324)
        assert original_throughput(n, params) == 0.0
        with pytest.raises(DomainError, match=rf"^three-phase throughput underflows to 0 at n={n}$"):
            ratio_original(n, params)

    def test_a_direct_route_past_float_range_is_refused(self):
        # the quotient overflows while the closed form is finite; inf - closed
        # is within RATIO_ROUTE_TOL * inf, so only a finiteness test refuses it
        params = SchemeParams(
            R=1.6037442061809694e230,
            Q=4.2700736609091617e259,
            beta1=3.0043375588907268e259,
            beta=math.nextafter(1.0, 2.0),
            c=4.38204948306542e261,
        )
        assert math.isfinite(ratio_original_closed_form(1024, params))
        with pytest.raises(DomainError, match=r"^ratio routes disagree at n=1024$"):
            ratio_original(1024, params)

    def test_a_closed_form_past_float_range_is_refused(self):
        # beta1 * sqrt(log_beta(beta1)) overflows; the direct quotient is finite
        params = SchemeParams(
            R=2.9415223893011777e-237, Q=2.4579357922530005e-70, beta1=1e308,
            beta=1.0000000001, c=math.inf,
        )
        for f in (ratio_original_closed_form, ratio_original):
            with pytest.raises(DomainError, match=r"^closed-form ratio is not finite at n=1024$"):
                f(1024, params)

    def test_disagreeing_routes_raise_even_under_optimize(self):
        # both routes overflow at these rates; the check must not be an assert
        code = (
            "from hiercoop import DomainError, derive, ratio_original\n"
            "try:\n"
            "    ratio_original(1000, derive(1e308, 1e308))\n"
            "except DomainError as exc:\n"
            "    print(exc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert proc.returncode == 0, proc.stderr
        assert "ratio routes disagree at n=1000" in proc.stdout


class TestDivergence:
    def test_ratio_grows_across_decades(self, unit_params):
        r6 = ratio_original(10**6, unit_params)
        r9 = ratio_original(10**9, unit_params)
        r12 = ratio_original(10**12, unit_params)
        assert 1.0 < r6 < r9 < r12

    @given(params=rate_params())
    @settings(max_examples=60)
    def test_ratio_is_strictly_increasing_in_n(self, params):
        values = [ratio_original(2**k, params) for k in range(10, 45, 2)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_threshold_crossings(self, unit_params):
        # each n is the smallest network whose ratio reaches k
        assert ratio_original(4, unit_params) >= 0.5
        for k, n in ((1.0, 4106), (1.2, 146088), (1.5, 20855297)):
            assert ratio_original(n, unit_params) >= k > ratio_original(n - 1, unit_params)


class TestLogAdjustedRatio:
    def test_natural_base_is_an_identity(self, unit_params):
        n = 10**6
        expected = ratio_original(n, unit_params) / math.log(n)
        assert ratio_log_adjusted(n, math.e, unit_params) == expected

    def test_tighter_bases_shrink_the_value(self, unit_params):
        n = 10**8
        a_small = ratio_log_adjusted(n, 1.1, unit_params)
        a_two = ratio_log_adjusted(n, 2.0, unit_params)
        a_ten = ratio_log_adjusted(n, 10.0, unit_params)
        assert a_small < a_two < a_ten

    def test_base_guards(self, unit_params):
        with pytest.raises(DomainError):
            ratio_log_adjusted(10**6, 1.0, unit_params)
        with pytest.raises(DomainError):
            ratio_log_adjusted(10**6, 0.5, unit_params)

    def test_dips_at_moderate_sizes_then_still_diverges(self, unit_params):
        # at equal rates the log penalty wins at first: the adjusted ratio
        # FALLS through the practical range and only turns around near 2**44
        dip = [ratio_log_adjusted(10**k, 10.0, unit_params) for k in (6, 9, 12)]
        assert dip[0] > dip[1] > dip[2]
        climb = [ratio_log_adjusted(2**k, 10.0, unit_params) for k in (44, 60, 100, 200)]
        assert climb[0] < climb[1] < climb[2] < climb[3]
        assert climb[-1] > dip[0]  # it does recover, just absurdly late

    def test_monotone_from_the_start_when_exchange_is_cheap(self):
        p = derive(1.0, 0.3)
        for a in (2.0, 10.0):
            values = [ratio_log_adjusted(2**k, a, p) for k in range(14, 45, 2)]
            assert all(b > a_ for a_, b in zip(values, values[1:]))


class TestCompareSchemes:
    def test_single_point_row(self, unit_params):
        row = compare_schemes([131072], UNIT_CFG, unit_params, c_mh=1.0)[0]
        assert row.n == 131072
        assert row.error is None
        assert list(row.extras) == [
            "T1_smooth",
            "T1_int",
            "T_orig",
            "multihop",
            "ratio",
            "ratio_log_adj",
            "per_pair",
            "area_factor",
        ]
        assert row.extras["T1_int"] == pytest.approx(256.0 / 3.0, rel=1e-12)
        assert row.extras["ratio"] == pytest.approx(
            row.extras["T1_smooth"] / row.extras["T_orig"], rel=1e-9
        )
        assert row.extras["area_factor"] == 1.0

    def test_row_runs_one_depth_search(self, unit_params):
        # the row's four depth-optimized figures share one search
        with memos.counted() as traffic:
            (row,) = compare_schemes([131072], UNIT_CFG, unit_params, c_mh=1.0)
        assert row.error is None and "T1_int" in row.extras
        assert traffic.searches == 1

    def test_row_without_a_fitting_depth_runs_one_depth_search(self):
        # no depth fits n = 8 at R = Q = 1; that outcome is reused, not re-searched
        with memos.counted() as traffic:
            (row,) = compare_schemes([8], NetworkConfig(n=8), derive(1, 1), 1.0)
        assert row.error is None and "T1_int" not in row.extras
        assert traffic.searches == 1

    def test_real_sweep_crossover_indices(self, unit_params):
        grid = [round(1024 * (2**20) ** (i / 20)) for i in range(21)]
        rows = compare_schemes(grid, UNIT_CFG, unit_params, c_mh=1.0)
        assert all(r.error is None for r in rows)
        # the modified scheme overtakes the original at n = 8192 on this grid
        assert grid[3] == 8192
        assert [r.extras["ratio"] > 1.0 for r in rows] == [False] * 3 + [True] * 18
        assert all(r.extras["ratio"] < 1.0 for r in rows[:3])
        # and leaves sqrt(n) relaying behind only deep into the sweep
        ahead = [r.extras["T1_smooth"] > r.extras["multihop"] for r in rows]
        assert ahead == [False] * 17 + [True] * 4
        assert all(r.extras["T1_smooth"] < r.extras["multihop"] for r in rows[:17])

    def test_integer_column_disappears_when_no_depth_fits(self):
        p = derive(1.0, 100.0)
        row = compare_schemes([4], UNIT_CFG, p, c_mh=1.0)[0]
        assert row.error is None
        assert "T1_int" not in row.extras
        assert row.extras["T1_smooth"] > 0.0

    def test_rows_without_a_fitting_depth_build_no_error(self, monkeypatch):
        # at Q/R = 24 the low rows of a log grid fit no depth; that is a value
        built = []
        init = InfeasibleError.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(InfeasibleError, "__init__", counted)
        grid = sorted({round(4 * 2.0 ** (60 * i / 199)) for i in range(200)})
        rows = compare_schemes(grid, NetworkConfig(n=4), derive(1.0, 24.0), c_mh=1.0)
        assert all(r.error is None for r in rows)
        assert "T1_int" not in rows[0].extras and "T1_int" in rows[-1].extras
        assert built == []

    def test_rows_build_no_depth_report(self, monkeypatch):
        # T1_int is read off the LayerChoice; no per-depth report is rebuilt
        calls = []
        report = throughput._depth_report

        def counted(*args):
            calls.append(args)
            return report(*args)

        monkeypatch.setattr(throughput, "_depth_report", counted)
        grid = sorted({round(4 * 2.0 ** (60 * i / 199)) for i in range(200)})
        rows = compare_schemes(grid, NetworkConfig(n=4), derive(1.0, 24.0), c_mh=1.0)
        assert all(r.error is None for r in rows)
        assert "T1_int" in rows[-1].extras
        assert calls == []

    def test_grid_must_increase_strictly(self, unit_params):
        with pytest.raises(DomainError):
            compare_schemes([1024, 1024], UNIT_CFG, unit_params, c_mh=1.0)
        with pytest.raises(DomainError):
            compare_schemes([], UNIT_CFG, unit_params, c_mh=1.0)

    @pytest.mark.parametrize(
        "constants, message",
        [
            ({"log_base": 1.0}, "log base must exceed 1"),
            ({"nu": -0.5}, "area exponent must be >= 0 and finite, got -0.5"),
            ({"nu": math.nan}, "area exponent must be >= 0 and finite, got nan"),
            ({"nu": math.inf}, "area exponent must be >= 0 and finite, got inf"),
            ({"c_mh": 0.0}, "multihop constant must be positive"),
            ({"c_mh": math.inf}, "multihop constant must be positive"),
            ({"cfg": NetworkConfig(4, 1e300, 4.0)}, r"area\*\*\(alpha/2\) overflows"),
            # the overflowing area is weighed last, after every other constant
            ({"cfg": NetworkConfig(4, 1e300, 4.0), "log_base": 1.0}, "log base must exceed 1"),
        ],
        ids=["log_base", "nu", "nu-nan", "nu-inf", "c_mh", "c_mh-inf", "area", "area-log_base"],
    )
    def test_constant_no_row_can_use_raises_before_any_row(
        self, monkeypatch, unit_params, constants, message
    ):
        calls = []
        monkeypatch.setattr(explorer, "optimal_modified", lambda *a: calls.append(a))
        kwargs = {"cfg": UNIT_CFG, "c_mh": 1.0, **constants}
        with pytest.raises(DomainError, match=message):
            compare_schemes([16, 1024], params=unit_params, **kwargs)
        assert calls == []

    def test_failed_point_is_annotated_not_fatal(self, unit_params):
        rows = compare_schemes([2, 1024], UNIT_CFG, unit_params, c_mh=1.0)
        assert rows[0].error is not None
        assert "n must be an integer >= 4" in rows[0].error
        assert rows[0].extras == {}
        assert rows[1].error is None
        assert rows[1].extras["ratio"] > 0.0

    def test_astronomical_point_is_annotated_not_fatal(self, unit_params):
        rows = compare_schemes([1024, 2**1100], UNIT_CFG, unit_params, c_mh=1.0)
        assert rows[0].error is None
        assert rows[1].error is not None

    def test_overflowing_area_is_annotated_with_n_and_nu(self, unit_params):
        rows = compare_schemes([4, 20, 100], UNIT_CFG, unit_params, c_mh=1.0, nu=300.0)
        assert rows[0].error is None and rows[0].extras["area_factor"] < 1.0
        assert [r.error for r in rows[1:]] == [
            "n**nu overflows at n=20, nu=300",
            "n**nu overflows at n=100, nu=300",
        ]

    def test_overflowing_demand_of_n_nu_fails_its_row_before_any_metric(
        self, monkeypatch, unit_params
    ):
        calls = []
        monkeypatch.setattr(
            explorer, "optimal_modified", lambda n, p: calls.append(n) or optimal_modified(n, p)
        )
        cfg = NetworkConfig(n=4, area=1.0, alpha=12.0, c0=1.0)
        rows = compare_schemes([16, 2**62], cfg, unit_params, c_mh=1.0, nu=3.0)
        assert rows[0].error is None
        assert rows[1].error == "area**(alpha/2) overflows at area=9.80797e+55, alpha=12"
        assert set(calls) == {16}  # no metric of the n = 2**62 row was taken

    def test_area_column_decays_when_area_outgrows_n(self, unit_params):
        rows = compare_schemes(
            [2**10, 2**14, 2**18], UNIT_CFG, unit_params, c_mh=1.0, nu=1.5
        )
        factors = [r.extras["area_factor"] for r in rows]
        assert factors[0] < 1.0
        assert factors[0] > factors[1] > factors[2]

    def test_sqrt_n_order_row_sits_between_multihop_constants(self):
        # Q/R = 24 puts the two-layer design at exponent 1/2: same order as
        # flat relaying, so only the constant separates them
        p = derive(1.0, 24.0)
        cfg = NetworkConfig(n=20000, area=1.0, alpha=3.0, c0=1.0)
        assert original_optimal_layers(20000, p) == 2.0
        assert layer_throughput(2, 20000, p).exponent == 0.5
        row = compare_schemes([20000], cfg, p, c_mh=0.01)[0]
        assert row.extras["T1_int"] == 5.0
        assert row.extras["multihop"] < row.extras["T1_int"] < multihop_baseline(
            20000, 1.0
        )


def _hexed(rows):
    # (n, [(metric, float.hex)], error) per row: equal only when every bit is
    return [(n, [(k, v.hex()) for k, v in extras.items()], error) for n, extras, error in rows]


class TestAreaFactorOwner:
    """compare_schemes reads the area factor off plain numbers, taking the
    fixed-area demand once per sweep; its rows are the ones a NetworkConfig
    per row, passed to classify, gives: every figure and every error text.
    A sweep that the oracle refuses before its first row (nu = inf, an
    overflowing fixed area) raises the same DomainError."""

    @given(
        grid=st.lists(
            st.integers(0, 3) | st.integers(4, 2**40) | st.integers(2**40, 2**62 + 2**12)
            | st.just(2**1100),  # its metrics raise OverflowError
            min_size=1, max_size=5, unique=True,
        ).map(sorted),
        c_mh=st.sampled_from([1.0, 1e300]),  # multihop is inf at n = 2**62 under 1e300
        nu=st.none() | st.just(0.0) | st.floats(0.05, 3.0) | st.floats(40.0, 1e4)
        | st.just(math.inf),
        # demand that underflows, that can fall on either side of c0*n, that overflows
        area=st.floats(1e-300, 1e-30) | st.floats(1e-3, 1e12) | st.floats(1e150, 1e300),
        alpha=st.sampled_from([2.0, 3.0, 4.0]) | st.floats(2.0, 16.0),
        c0=st.floats(1e-9, 1e9) | st.just(1e300),
        params=st.sampled_from([derive(1.0, 1.0), derive(1.0, 24.0), derive(1.0, 0.25 + 1e-6)]),
    )
    @example(grid=[199, 200, 201], c_mh=1.0, nu=None, area=100.0, alpha=4.0, c0=50.0,
             params=derive(1.0, 1.0))  # c0*n == area**(alpha/2) at n = 200
    @example(grid=[15, 16, 17], c_mh=1.0, nu=0.5, area=1.0, alpha=4.0, c0=1.0,
             params=derive(1.0, 1.0))  # and at n = 16 with the area n**0.5
    # an overflowing fixed area refuses the sweep, whatever its rows would do
    @example(grid=[2, 16, 2**62, 2**1100], c_mh=1e300, nu=None, area=1e300, alpha=4.0,
             c0=1.0, params=derive(1.0, 1.0))
    # the demand of n**nu overflows at n = 2**62, before its multihop turns inf
    @example(grid=[2, 16, 2**62], c_mh=1e300, nu=3.0, area=1.0, alpha=12.0,
             c0=1.0, params=derive(1.0, 1.0))
    @settings(max_examples=80)
    def test_rows_equal_a_network_config_per_row(
        self, grid, c_mh, nu, area, alpha, c0, params
    ):
        cfg = NetworkConfig(4, area, alpha, c0)
        try:
            expected = sweep_rows_per_config(grid, cfg, params, c_mh, 10.0, nu)
        except DomainError as exc:
            with pytest.raises(DomainError) as refused:
                compare_schemes(grid, cfg, params, c_mh, 10.0, nu)
            assert str(refused.value) == str(exc)
            return
        rows = compare_schemes(grid, cfg, params, c_mh, 10.0, nu)
        assert _hexed(rows) == _hexed(expected)

    def test_boundary_row_is_dense(self, unit_params):
        # the first example's figures, read directly rather than against classify
        cfg = NetworkConfig(4, 100.0, 4.0, 50.0)
        rows = compare_schemes([199, 200, 201], cfg, unit_params, 1.0)
        assert [r.extras["area_factor"] for r in rows] == [0.995, 1.0, 1.0]


class TestRecordsByField:
    """The records a sweep row builds are built by position; each field,
    read back by name, holds the figure it names, so a slip in the order
    of the arguments fails here."""

    def test_smooth_report(self):
        # cold, so the figures come from this call, not an earlier entry
        n, p = 131072, derive(1.0, 24.0)
        report = _smooth_forms(n, p)[0]
        root = smooth_depth(n, p)
        c_n = (1.0 + p.R / p.Q) ** (1.0 - 1.0 / root)
        pre = p.beta1 * p.R / (c_n * root)
        assert report.h_used == root
        assert report.M1_used is None and report.phase_slots is None
        assert report.c_n == pytest.approx(c_n, rel=1e-15)
        assert report.exponent == pytest.approx(1.0 - 2.0 / root, rel=1e-15)
        assert report.pre_constant == pytest.approx(pre, rel=1e-15)
        assert report.value == pytest.approx(pre * (n / 2.0) ** report.exponent, rel=1e-15)

    def test_layer_choice(self, unit_params):
        # A = log(n/2) - log(1 + R/Q) = log(32768), a = log(c)/2 = log(2)
        n = 131072
        choice = layer_choice(n, unit_params)
        A, a = math.log(32768.0), math.log(2.0)
        h = best_depth_by_scan(n, 1.0, 1.0, 4.0, MAX_LAYERS)
        assert choice.h_exact == pytest.approx(2 * A / (1 + math.sqrt(1 + 4 * a * A)), rel=1e-15)
        assert choice.h_approx == 4.0  # sqrt(log_2(65536))
        assert choice.h_int == h == 3 and type(choice.h_int) is int
        assert choice.M1.hex() == balanced_top_by_formula(h, n, 1.0, 1.0, 4.0).hex()
        assert choice.value == pytest.approx(256.0 / 3.0, rel=1e-12)

    def test_modified_throughput(self, unit_params):
        both = optimal_modified(131072, unit_params)
        assert isinstance(both.smooth, ThroughputReport)
        assert both.smooth == smooth_modified(131072, unit_params)
        assert isinstance(both.integer, LayerChoice)
        assert both.integer == layer_choice(131072, unit_params)

    def test_regime_report(self):
        # demand area**(alpha/2), supply c0*n
        sparse = classify(NetworkConfig(200, 100.0, 4.0, 2.0))
        assert sparse.regime is Regime.SPARSE
        assert sparse.factor == 400.0 / 10000.0
        assert sparse.threshold == 400.0 - 10000.0
        dense = classify(NetworkConfig(200, 10.0, 2.0, 1.0))
        assert dense.regime is Regime.DENSE
        assert dense.factor == 1.0
        assert dense.threshold == 190.0

    def test_sweep_rows_and_their_geometry(self, unit_params):
        # area, alpha and c0 each move area_factor: 2*200 / 100**(4/2)
        cfg = NetworkConfig(n=4, area=100.0, alpha=4.0, c0=2.0)
        failed, good = compare_schemes([3, 200], cfg, unit_params, c_mh=1.0)
        assert failed.n == 3 and type(failed.n) is int
        assert failed.extras == {}
        assert failed.error == "n must be an integer >= 4, got 3"
        assert good.n == 200 and type(good.n) is int
        assert good.error is None
        assert good.extras["T1_smooth"] == smooth_modified(200, unit_params).value
        assert good.extras["area_factor"] == 400.0 / 10000.0


#: The public smooth forms, each a field of the one smooth kernel's answer.
FORMS = (smooth_modified, original_throughput, ratio_original_closed_form)

#: Directly built params whose closed-form ratio overflows: beta1 * sqrt(log_beta(beta1))
CLOSED_FORM_PAST_RANGE = SchemeParams(
    R=2.9415223893011777e-237, Q=2.4579357922530005e-70, beta1=1e308,
    beta=1.0000000001, c=math.inf,
)


def _bits(x):
    # floats by float.hex, records field by field
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, tuple):
        return tuple(map(_bits, x))
    return x


def _outcome(f, *args):
    # (True, the bits of f(*args)) or (False, the type and text of its error)
    try:
        return True, _bits(f(*args))
    except (ArithmeticError, ValueError) as exc:
        return False, (type(exc), str(exc))


class TestOneEntryMemos:
    """The smooth forms are computed once per (n, params) that repeats back to
    back as the same objects, all three by one kernel; a new n, an error or
    an equal but distinct n or params computes afresh."""

    def test_row_computes_each_form_once(self, unit_params):
        # a row asks for the smooth report 4 times, T_orig 3 and the closed form 2
        with memos.counted() as traffic:
            (row,) = compare_schemes([131072], UNIT_CFG, unit_params, c_mh=1.0)
        assert row.error is None and "T1_int" in row.extras
        assert traffic.smooth == (1, 8)

    def test_ratio_two_routes_reuses_nothing_across_n(self, unit_params):
        # 18 sizes, three forms at each
        with memos.counted() as traffic:
            assert len(selfcheck.ratio_two_routes(unit_params, 0)) == 18
        assert traffic.smooth == (18, 36)

    def test_analyze_computes_the_forms_once(self, capsys):
        # T1_smooth, T_orig, and ratio_original's three forms
        with memos.counted() as traffic:
            assert cli.main(["analyze", "--n", "131072"]) == 0
        capsys.readouterr()
        assert traffic.smooth == (1, 4)

    def test_params_off_by_one_field_are_not_served_the_last_entry(self, unit_params):
        # corrupt beta1 and beta: every form reads at least one of them
        n = 131072
        bad = SchemeParams(
            R=1.0, Q=1.0, beta1=2.0 * (1.0 + 1e-6), beta=2.0 * math.sqrt(2.0) * (1.0 + 1e-6), c=4.0
        )
        cold = _smooth_forms(n, bad)
        for public, field in zip(FORMS, cold):
            clean = public(n, unit_params)
            got = public(n, bad)
            assert _bits(got) == _bits(field) != _bits(clean), public.__name__

    @pytest.mark.parametrize("f", FORMS, ids=["smooth-n", "original-n", "closed-form-n"])
    def test_a_failing_call_raises_again_and_stores_nothing(self, f, unit_params):
        # n = 3 raises inside the kernel; bad constants and rates never reach
        # it, since SchemeParams refuses them (tests/test_domain.py)
        with memos.counted() as traffic:
            before = throughput._smooth_last
            for _ in range(2):
                with pytest.raises(DomainError, match=r"^need n >= 4, got 3$"):
                    f(3, unit_params)
        assert traffic.smooth == (2, 0)
        assert throughput._smooth_last is before

    @pytest.mark.parametrize("twin", [float, lambda n: int(str(n))], ids=["float", "int"])
    def test_an_equal_n_of_another_object_computes_afresh(self, unit_params, twin):
        # 131072.0 == 131072, and int("131072") is 131072 in another object; a
        # hit takes the very n object, so each twin computes afresh, and the
        # int twin gives the bits the entry for 131072 held
        n = 131072
        other = twin(n)
        assert other == n and other is not n
        with memos.counted() as traffic:
            for public in FORMS:
                stored = _outcome(public, n, unit_params)
                misses = traffic.smooth_misses
                got = _outcome(public, other, unit_params)
                assert traffic.smooth_misses == misses + 1, public.__name__
                if type(other) is int:
                    assert got == stored, public.__name__

    @settings(max_examples=300)
    @given(n=st.integers(1, 2**62), params=search_params() | corrupt_params())
    @example(n=8, params=derive(1.0, 1.0))  # no depth fits: layer_choice is None
    @example(
        n=2**40,
        params=SchemeParams(R=1.0, Q=1.0, beta1=2.0, beta=2.0 * math.sqrt(2.0), c=math.inf),
    )
    @example(n=1024, params=CLOSED_FORM_PAST_RANGE)  # stored, yet the public form raises
    def test_an_equal_copy_computes_afresh_and_matches_bit_for_bit(self, n, params):
        # the entry an equal but distinct copy of params left is not read: the
        # call on params computes afresh, and matches the cold body bit for bit
        twin = copy.copy(params)
        assert twin == params and twin is not params
        for public in (*FORMS, layer_choice):
            with memos.counted() as traffic:
                _outcome(public, n, twin)
                misses = traffic.smooth_misses + traffic.searches
                warm = _outcome(public, n, params)
                assert traffic.smooth_misses + traffic.searches == misses + 1, public.__name__
            memos.empty()
            assert warm == _outcome(public, n, params), public.__name__


    def test_a_sweep_hashes_no_record(self, monkeypatch):
        # memo hits test identity, so sweeps at sweep_grid's two rate pairs
        # hash no SchemeParams and no NetworkConfig
        calls = []
        real = _Frozen.__hash__

        def counted(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(_Frozen, "__hash__", counted)
        hash(UNIT_CFG)
        assert calls == [UNIT_CFG]  # the patch counts
        calls.clear()
        grid = [round(4 * (2.0**60) ** (i / 99)) for i in range(100)]
        for p in (derive(1.0, 1.0), derive(1.0, 24.0)):
            compare_schemes(grid, UNIT_CFG, p, c_mh=1.0)
        assert calls == []

    def test_threads_sharing_the_memos_get_the_single_threaded_rows(self, monkeypatch):
        # four threads sweep the same slices of a log grid, each starting on
        # another of the two rate pairs and alternating them, with a thread
        # switch asked for every microsecond; each cold body, and each fill
        # of a depth-table entry, also yields the GIL first, so other threads
        # run between a miss's read of the entry and its write. The threads
        # start on fresh params, whose depth tables they race to fill. A race
        # may cost a recomputation, never a row built from another key's entry
        def yielding(body):
            def cold(*args):
                time.sleep(0)  # releases the GIL
                return body(*args)
            return cold

        monkeypatch.setattr(throughput, "_smooth_forms", yielding(throughput._smooth_forms))
        monkeypatch.setattr(optimizer, "_search_depth", yielding(optimizer._search_depth))
        monkeypatch.setattr(optimizer, "_depth_factors", yielding(optimizer._depth_factors))
        grid = [round(4 * (2.0**60) ** (i / 199)) for i in range(200)]
        slices = [grid[i : i + 10] for i in range(0, len(grid), 10)]
        rates = ((1.0, 1.0), (1.0, 24.0))
        want = [[compare_schemes(s, UNIT_CFG, derive(*r), c_mh=1.0) for s in slices] for r in rates]
        pairs = tuple(derive(*r) for r in rates)
        assert not any(any(p._depths) for p in pairs)
        got = [[] for _ in range(4)]
        start = threading.Barrier(4, timeout=60)

        def sweep(k):
            start.wait()
            for i in range(2 * len(slices)):
                which = (k + i) % 2
                rows = compare_schemes(slices[i // 2], UNIT_CFG, pairs[which], c_mh=1.0)
                got[k].append((which, i // 2, rows))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=sweep, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for runs in got:
            assert len(runs) == 2 * len(slices)
            for which, j, rows in runs:
                assert rows == want[which][j], (which, j)
