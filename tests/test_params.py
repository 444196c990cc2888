"""Parameter derivation, network geometry, cluster-size validation, and the record contract."""
import copy
import json
import math
import os
import pathlib
import pickle
import shutil
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import hiercoop
from hiercoop import (
    MAX_LAYERS,
    MIN_RATE_RATIO,
    TIME_SHARING_FACTOR,
    DomainError,
    NetworkConfig,
    PlanError,
    SchemeParams,
    derive,
    validate_plan,
)
from hiercoop.area import area_from_exponent
from hiercoop.explorer import (
    compare_schemes, ratio_log_adjusted, ratio_original, ratio_original_closed_form,
)
from hiercoop.optimizer import _search_depth, depth_optimum, layer_choice, minimal_delay
from hiercoop.params import (
    MIN_CLUSTER, MIN_NODES, check_layer_count, check_network_size, smooth_depth,
)
from hiercoop.throughput import (
    _smooth_forms, layer_throughput, multihop_baseline, optimal_modified, original_optimal_layers,
    original_throughput, per_pair_rate, smooth_modified, throughput_given_M1, upper_bound,
)
import memos
from oracles import row_forms_per_call, search_depth_per_call, smooth_forms_per_call
from strategies import corrupt_params, search_params

#: The fields SchemeParams computes from its five arguments, in slot order.
DERIVED = ("log_beta1", "log_1_plus_R_over_Q", "half_log_c", "log_beta", "depth_ratio")


class TestDerive:
    def test_unit_rates_give_integer_constants(self):
        p = derive(1.0, 1.0)
        assert p.beta1 == 2.0
        assert p.c == 4.0
        assert p.beta == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)
        assert (p.R, p.Q) == (1.0, 1.0)

    def test_ratio_boundary_is_excluded(self):
        with pytest.raises(DomainError, match="0.25"):
            derive(1.0, MIN_RATE_RATIO)

    def test_just_above_the_boundary_is_accepted(self):
        p = derive(1.0, MIN_RATE_RATIO + 1e-9)
        assert p.beta1 > 1.0

    def test_ratio_below_the_boundary_is_rejected(self):
        with pytest.raises(DomainError):
            derive(2.0, 0.4)  # ratio 0.2

    @pytest.mark.parametrize(
        "R,Q",
        [
            (0.0, 1.0),
            (-1.0, 1.0),
            (1.0, 0.0),
            (1.0, -2.0),
            (float("nan"), 1.0),
            (1.0, float("inf")),
            (1e-308, 1e308),  # each rate finite, Q/R overflows
        ],
    )
    def test_degenerate_rates_are_rejected(self, R, Q):
        with pytest.raises(DomainError):
            derive(R, Q)

    @given(
        R=st.floats(min_value=1e-3, max_value=1e3),
        ratio=st.floats(min_value=0.26, max_value=50.0),
    )
    def test_derived_constants_are_mutually_consistent(self, R, ratio):
        p = derive(R, R * ratio)
        assert p.beta1**2 == pytest.approx(p.c, rel=1e-12)
        assert p.beta**2 == pytest.approx(p.c + 4.0, rel=1e-12)
        assert p.beta > p.beta1  # the extra delivery phase always costs

    def test_derivation_is_deterministic(self):
        a, b = derive(3.0, 2.0), derive(3.0, 2.0)
        assert (a.beta1, a.beta, a.c) == (b.beta1, b.beta, b.c)

    def test_direct_construction_skips_the_consistency_relations(self):
        # the verify suites rely on this hook to inject a corrupted c
        p = SchemeParams(R=1.0, Q=1.0, beta1=2.0, beta=2.0 * math.sqrt(2.0), c=4.25)
        assert p.c == 4.25

    def test_direct_construction_still_checks_the_rates(self):
        with pytest.raises(DomainError):
            SchemeParams(R=-1.0, Q=1.0, beta1=2.0, beta=2.8, c=4.0)


#: Run in a child process on a copy of the package whose params sets K = 3.
K3_CHILD = """
import json
import hiercoop
from hiercoop import MIN_RATE_RATIO, depth_optimum, derive, run_all, throughput_given_M1

verdicts = {}
for ratio in (0.4, 1.0, 3.0, 24.0, 1e6):
    failed = [r.name for r in run_all(derive(1.0, ratio), 0) if not r.passed]
    verdicts[repr(ratio)] = failed
worst, cases = 0.0, 0
for ratio in (0.4, 1.0, 24.0):
    params = derive(1.0, ratio)
    for h in range(2, 12):
        for k in range(4, 63):
            best = depth_optimum(h, 2**k, params)
            if best is None:
                continue
            value = throughput_given_M1(h, best[0], 2**k, params).value
            worst, cases = max(worst, abs(value - best[1]) / best[1]), cases + 1
print(json.dumps({
    "K": hiercoop.TIME_SHARING_FACTOR,
    "K_read_by_the_recursion": hiercoop.recurrence.TIME_SHARING_FACTOR,
    "min_rate_ratio": MIN_RATE_RATIO.hex(),
    "c": derive(1.0, 1.0).c,
    "verdicts": verdicts,
    "worst": worst,
    "cases": cases,
}))
"""


class TestTimeSharingFactor:
    """params owns the time-sharing group size K: every constant derived from
    it reads TIME_SHARING_FACTOR, so setting it there alone gives another
    consistent model, and K = 4 keeps the bits of the literal forms."""

    def test_time_sharing_group_size(self):
        assert TIME_SHARING_FACTOR == 4
        assert MIN_RATE_RATIO == 0.25

    @pytest.mark.parametrize(
        "ratio",
        [0.25 + 1e-12, 0.25 + 1e-9, 0.3, 1.0 - 2**-53, 1.0, 1.25 - 2**-52, 1.25, 1.3, 24.0,
         1e6, 4.5e307, 1.7e308],
    )
    def test_K_4_keeps_the_bits_of_the_literal_forms(self, ratio):
        # the forms with K written as 4: c = inf above about 4.5e307
        p = derive(1.0, ratio)
        if 0.125 < ratio < 1.25:
            m, e = math.frexp(1.0)
            log_beta1 = 0.5 * math.log1p(4.0 * ((math.ldexp(ratio, -e) - m / 4.0) / m))
        else:
            log_beta1 = math.log(2.0 * math.sqrt(ratio))
        literal = (2.0 * math.sqrt(ratio), 2.0 * math.sqrt(1.0 + ratio), 4.0 * ratio, log_beta1)
        assert [v.hex() for v in (p.beta1, p.beta, p.c, p.log_beta1)] == [
            v.hex() for v in literal
        ]

    def test_K_set_in_params_alone_gives_a_consistent_model(self, tmp_path):
        package = pathlib.Path(hiercoop.__file__).parent
        copy = tmp_path / "hiercoop"
        shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
        owner, line = copy / "params.py", "\nTIME_SHARING_FACTOR = 4\n"
        text = owner.read_text()
        assert text.count(line) == 1
        owner.write_text(text.replace(line, line.replace("4", "3")))
        env = dict(os.environ, PYTHONPATH=str(tmp_path), PYTHONDONTWRITEBYTECODE="1")
        child = subprocess.run(
            [sys.executable, "-c", K3_CHILD], env=env, capture_output=True, text=True, timeout=300
        )
        assert child.returncode == 0, child.stderr
        got = json.loads(child.stdout)
        assert (got["K"], got["K_read_by_the_recursion"], got["c"]) == (3, 3, 3.0)
        assert got["min_rate_ratio"] == (1 / 3).hex()
        assert got["verdicts"] == {repr(r): [] for r in (0.4, 1.0, 3.0, 24.0, 1e6)}
        # the balance law 2K(1 + Q/R) and the closed form agree at K = 3
        assert got["cases"] > 500
        assert got["worst"] <= 1e-13


class TestLogBeta1:
    def test_is_derived_not_a_constructor_argument(self):
        assert DERIVED == tuple(SchemeParams.__slots__)[-SchemeParams._derived:]
        for name in DERIVED:
            with pytest.raises(TypeError):
                SchemeParams(R=1.0, Q=1.0, beta1=2.0, beta=2.8, c=4.0, **{name: 0.7})
        p = SchemeParams(R=1.0, Q=1.0, beta1=2.0, beta=2.8, c=4.25)
        assert p.log_beta1 == math.log(2.0)
        # each derived field follows the arguments given, corrupted c included
        assert p.log_1_plus_R_over_Q == math.log(2.0)
        assert p.half_log_c == 0.5 * math.log(4.25)
        assert p.log_beta == math.log(2.8)
        assert p.depth_ratio == math.sqrt(math.log(2.0) / math.log(2.8))

    @pytest.mark.parametrize("ratio", [1.25, 2.0, 24.0, 4.49e307, 1.7e308])
    def test_is_log_beta1_from_five_quarters_up(self, ratio):
        p = derive(1.0, ratio)
        assert p.log_beta1 == math.log(p.beta1)

    @pytest.mark.parametrize("R,Q", [(5e-324, 5e-324), (3e-323, 1e-323), (1e-310, 1e-310)])
    def test_subnormal_rates_keep_their_ratio(self, R, Q):
        # R/4 is inexact there; the ratios are exactly 1, 1/3 and 1
        p = derive(R, Q)
        assert p.log_beta1 == pytest.approx(0.5 * math.log(4.0 * Q / R), rel=1e-15)

    def test_log_1_plus_R_over_Q_rounds_to_a_positive_zero(self):
        # R/Q below 2**-53 leaves 1 + R/Q at 1.0; the field is +0.0, never -0.0
        p = derive(1.0, 1e17)
        assert p.log_1_plus_R_over_Q == 0.0 and math.copysign(1.0, p.log_1_plus_R_over_Q) == 1.0
        # records with that zero field are still equal exactly when their rates are
        assert p == derive(1.0, 1e17) != derive(1.0, 2e17)

    def test_smooth_depth_needs_four_nodes(self, unit_params):
        assert smooth_depth(131072, unit_params) == 4.0  # sqrt(log_2 65536)
        with pytest.raises(DomainError, match="n >= 4"):
            smooth_depth(3, unit_params)

    @pytest.mark.parametrize(
        "call",
        [
            lambda n, p: smooth_depth(n, p),
            lambda n, p: depth_optimum(2, n, p),
            lambda n, p: throughput_given_M1(2, 2.0, n, p),
            lambda n, p: original_optimal_layers(n, p),
        ],
    )
    def test_every_size_guard_shares_one_floor_and_message(self, unit_params, call):
        assert MIN_NODES == 4
        with pytest.raises(DomainError, match=r"^need n >= 4, got 3$"):
            call(MIN_NODES - 1, unit_params)


def _hex(value):
    # floats by their bits, tuples field by field; ints and None as they are
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(map(_hex, value))
    return value


class TestRatePairLogs:
    """The rate-pair logs are SchemeParams fields, taken once in the
    constructor; the depth search and the smooth forms that read them give
    the bits that taking each log on every call gives."""

    @settings(max_examples=300)
    @given(
        # small n leaves A = log(n/2) - log(1 + R/Q) small, so its last bits show
        n=st.integers(4, 64) | st.integers(4, 2**62),
        params=search_params() | corrupt_params(),
        h_max=st.integers(2, MAX_LAYERS),
    )
    @example(n=2**62, params=derive(1.0, 1.7e308), h_max=MAX_LAYERS)  # c = inf
    @example(n=2**62, params=derive(1.0, 0.25 + 1e-9), h_max=MAX_LAYERS)
    @example(n=2**62, params=derive(5e-324, 5e-324), h_max=MAX_LAYERS)
    @example(n=4, params=derive(5e-324, 5e-324), h_max=2)
    def test_search_and_smooth_forms_match_the_per_call_logs(self, n, params, h_max):
        search, *forms = row_forms_per_call(
            n, params.R, params.Q, params.beta1, params.beta, params.c, params.log_beta1, h_max
        )
        assert _hex(_search_depth(n, params, h_max)) == _hex(search)
        assert _hex(_smooth_forms(n, params)) == _hex(tuple(forms))
        h_orig = math.sqrt(math.log(n / 2.0) / math.log(params.beta))
        assert original_optimal_layers(n, params).hex() == h_orig.hex()


def _outcome(call):
    # a result by the bits of its floats, or the error's type and text
    try:
        return _hex(call())
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__, str(exc)


#: The largest int that float() converts: it rounds to the largest float.
LAST_FLOAT_INT = 2**1024 - 2**970 - 1


class TestOneLogPerKernel:
    """Each row kernel, _smooth_forms and _search_depth, checks n once, takes
    x = log(n/2) once and reads every smooth depth from x. It gives the bits
    and errors of the kernel that took each depth from its public
    definition, with a check and a log of its own."""

    @settings(max_examples=300)
    @given(
        n=st.integers(4, 64) | st.integers(4, 2**62) | st.integers(2**62, 2**1023),
        params=search_params() | corrupt_params(),
        h_max=st.integers(2, MAX_LAYERS),
    )
    @example(n=LAST_FLOAT_INT, params=derive(1.0, 1.0), h_max=MAX_LAYERS)
    @example(n=LAST_FLOAT_INT + 1, params=derive(1.0, 1.0), h_max=MAX_LAYERS)
    # past 2**62 a direct beta far above beta1 overflows the closed ratio's power
    # of beta: the ratio is inf, and the smooth reports still answer
    @example(n=LAST_FLOAT_INT, params=SchemeParams(R=1.0, Q=1.0, beta1=2.0, beta=1e300, c=4.0),
             h_max=MAX_LAYERS)
    @example(n=2**62, params=derive(1.0, 1.7e308), h_max=MAX_LAYERS)  # c = inf
    @example(n=4, params=derive(5e-324, 5e-324), h_max=2)
    def test_kernels_keep_the_bits_of_the_public_depths(self, n, params, h_max):
        p = params  # drawn afresh, so the first round fills the depth table
        rounds = [
            (_outcome(lambda: _smooth_forms(n, p)), _outcome(lambda: _search_depth(n, p, h_max)))
            for _ in range(2)
        ]
        want = (
            _outcome(lambda: smooth_forms_per_call(n, p)),
            _outcome(lambda: search_depth_per_call(n, p, h_max)),
        )
        assert rounds == [want, want]
        forms, search = want
        if isinstance(forms[0], tuple):
            # the smooth report's depth is smooth_depth's, and T_orig reads
            # original_optimal_layers's
            assert forms[0][1] == smooth_depth(n, p).hex()
            h = original_optimal_layers(n, p)
            assert forms[1] == (p.beta * p.R / h * (n / 2.0) ** (1.0 - 2.0 / h)).hex()
        if isinstance(search, tuple) and len(search) == 5:
            assert search[1] == smooth_depth(n, p).hex()

    def test_each_kernel_call_takes_one_log(self, monkeypatch):
        params = derive(1.0, 1.0)
        logs = []
        log = math.log
        monkeypatch.setattr(math, "log", lambda *args: logs.append(args) or log(*args))
        _smooth_forms(131072, params)
        assert logs == [(65536.0,)]
        _search_depth(131072, params, MAX_LAYERS)
        assert logs == [(65536.0,)] * 2

    def test_a_sweep_row_takes_four_logs(self, monkeypatch):
        # one per kernel, and ratio_log_adjusted's log(n) and log(10)
        params, cfg = derive(1.0, 1.0), NetworkConfig(4)
        logs = []
        log = math.log
        monkeypatch.setattr(math, "log", lambda *args: logs.append(args) or log(*args))
        memos.empty()
        assert compare_schemes([131072], cfg, params, 1.0)[0].error is None
        assert sorted(logs) == [(10.0,), (65536.0,), (65536.0,), (131072,)]


class TestFloatRangeOfN:
    """check_network_size refuses an int n that float() refuses, by its bit
    length, and every public route that checks n refuses it there; below
    that, n past 2**62 still answers."""

    def test_the_bound_is_the_least_int_that_float_refuses(self):
        assert float(LAST_FLOAT_INT) == sys.float_info.max
        with pytest.raises(OverflowError):
            float(LAST_FLOAT_INT + 1)
        check_network_size(LAST_FLOAT_INT)
        message = r"^n must convert to a float, got an int of 1024 bits$"
        with pytest.raises(DomainError, match=message):
            check_network_size(LAST_FLOAT_INT + 1)

    def test_a_float_n_is_taken_as_it_is(self, unit_params):
        check_network_size(math.inf)
        assert smooth_depth(math.inf, unit_params) == math.inf

    @pytest.mark.parametrize("n", [2**63, LAST_FLOAT_INT], ids=["2**63", "largest_float_int"])
    def test_past_two_to_the_62_the_routes_answer(self, unit_params, n):
        assert smooth_modified(n, unit_params).value < math.inf
        assert layer_choice(n, unit_params).h_int >= 2
        assert depth_optimum(3, n, unit_params) is not None
        assert ratio_original(n, unit_params) > 0.0

    @pytest.mark.parametrize(
        "call",
        [
            lambda n, p: smooth_depth(n, p),
            lambda n, p: depth_optimum(3, n, p),
            lambda n, p: layer_choice(n, p),
            lambda n, p: layer_choice(n, p, h_max=-5),  # n is named before the cap
            lambda n, p: layer_throughput(3, n, p),
            lambda n, p: throughput_given_M1(2, 2.0, n, p),
            lambda n, p: smooth_modified(n, p),
            lambda n, p: optimal_modified(n, p),
            lambda n, p: original_throughput(n, p),
            lambda n, p: original_optimal_layers(n, p),
            lambda n, p: upper_bound(n, p),
            lambda n, p: per_pair_rate(n, p),
            lambda n, p: ratio_original(n, p),
            lambda n, p: ratio_original_closed_form(n, p),
            lambda n, p: ratio_log_adjusted(n, 10.0, p),
            lambda n, p: multihop_baseline(n, 1.0),
            lambda n, p: area_from_exponent(n, 0.5),
            lambda n, p: NetworkConfig(n),
        ],
    )
    @pytest.mark.parametrize(
        "n", [LAST_FLOAT_INT + 1, 2**1100, 10**400], ids=["least_past_float", "2**1100", "10**400"]
    )
    def test_every_route_refuses_an_int_past_float_range(self, unit_params, call, n):
        message = f"^n must convert to a float, got an int of {n.bit_length()} bits$"
        memos.empty()
        for _ in range(2):  # a refusal stores nothing
            with pytest.raises(DomainError, match=message):
                call(n, unit_params)


class TestNetworkConfig:
    def test_defaults(self):
        cfg = NetworkConfig(n=200)
        assert (cfg.area, cfg.alpha, cfg.c0) == (1.0, 3.0, 1.0)

    @pytest.mark.parametrize("n", [3, 0, -5])
    def test_undersized_network_is_rejected(self, n):
        with pytest.raises(ValueError, match="n must be an integer >= 4"):
            NetworkConfig(n=n)

    def test_non_integer_size_is_rejected(self):
        with pytest.raises(ValueError):
            NetworkConfig(n=4.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"area": 0.0},
            {"area": -1.0},
            {"area": float("inf")},
            {"alpha": 1.99},
            {"c0": 0.0},
        ],
    )
    def test_degenerate_geometry_is_rejected(self, kwargs):
        with pytest.raises(ValueError):
            NetworkConfig(n=100, **kwargs)

    def test_free_space_path_loss_is_allowed(self):
        assert NetworkConfig(n=100, alpha=2.0).alpha == 2.0


class TestValidatePlan:
    def test_two_layer_plan(self):
        assert validate_plan((8.0,)) == (8.0,)

    def test_three_layer_plan(self):
        assert validate_plan((512.0, 16.0)) == (512.0, 16.0)

    def test_sizes_are_coerced_to_floats(self):
        for given_sizes in ([512, 16], (m for m in (512, 16))):
            sizes = validate_plan(given_sizes)
            assert sizes == (512.0, 16.0)
            assert all(type(m) is float for m in sizes)

    def test_nondecreasing_sizes_are_rejected(self):
        with pytest.raises(PlanError) as err:
            validate_plan((16.0, 32.0))
        assert err.value.field == "sizes"
        assert "decrease" in err.value.reason

    def test_equal_adjacent_sizes_are_rejected(self):
        with pytest.raises(PlanError):
            validate_plan((16.0, 16.0))

    def test_undersized_cluster_points_at_its_index(self):
        with pytest.raises(PlanError) as err:
            validate_plan((8.0, 1.5))
        # the floor is params.MIN_CLUSTER; the message keeps its wording
        assert MIN_CLUSTER == 2.0
        assert err.value.reason == "cluster size at index 1 must be >= 2, got 1.5"

    def test_non_finite_cluster_size_is_rejected(self):
        with pytest.raises(PlanError):
            validate_plan((float("nan"),))

    @pytest.mark.parametrize(
        "sizes, reason",
        [
            # decreasing fails first at index 0, yet the size rule is checked first
            ((8.0, 16.0, 1.5), "cluster size at index 2 must be >= 2, got 1.5"),
            ((16.0, 16.0, 8.0), "sizes must strictly decrease, violated at index 0: 16 <= 16"),
            ((32.0, math.inf), "cluster size at index 1 must be >= 2, got inf"),
        ],
    )
    def test_first_violation_is_named_sizes_before_order(self, sizes, reason):
        with pytest.raises(PlanError) as err:
            validate_plan(sizes)
        assert (err.value.field, err.value.reason) == ("sizes", reason)

    @pytest.mark.parametrize("h", [1, MAX_LAYERS + 1])
    def test_depth_violations_win_over_everything_else(self, h):
        # h - 1 sizes that are undersized and not decreasing; the count is checked first
        with pytest.raises(PlanError) as err:
            validate_plan((1.0,) * (h - 1))
        assert err.value.field == "h"
        assert err.value.reason.endswith(f"got {h}")

    def test_valid_sizes_at_one_layer_too_many_are_refused_by_count(self):
        # strictly decreasing sizes, each >= MIN_CLUSTER: only the count is wrong
        sizes = tuple(2.0 * 2.0 ** (MAX_LAYERS - i) for i in range(MAX_LAYERS))
        with pytest.raises(PlanError) as err:
            validate_plan(sizes)
        assert (err.value.field, err.value.reason) == (
            "h", f"layer count capped at {MAX_LAYERS}, got {MAX_LAYERS + 1}"
        )
        assert validate_plan(sizes[1:]) == sizes[1:]

    def test_non_integer_depth_is_rejected(self):
        # the layer-count rule validate_plan applies to len(sizes) + 1
        with pytest.raises(PlanError) as err:
            check_layer_count(2.0)
        assert err.value.field == "h"

    def test_message_carries_field_and_reason(self):
        with pytest.raises(PlanError, match="sizes:"):
            validate_plan((16.0, 32.0))

    @given(h=st.integers(2, 8), bottom=st.floats(2.0, 100.0), growth=st.floats(1.01, 10.0))
    def test_every_strictly_decreasing_plan_is_accepted(self, h, bottom, growth):
        sizes = tuple(bottom * growth ** (h - 1 - i) for i in range(h - 1))
        assert validate_plan(sizes) == sizes


#: (record class, constructor arguments, one changed value per argument)
RECORDS = [
    (
        SchemeParams,
        {"R": 1.0, "Q": 1.0, "beta1": 2.0, "beta": 2.0 * math.sqrt(2.0), "c": 4.0},
        # a corrupted beta must break equality as well as a changed rate
        {"R": 2.0, "Q": 2.0, "beta1": 2.5, "beta": 2.9, "c": 4.25},
    ),
    (
        NetworkConfig,
        {"n": 200, "area": 1.0, "alpha": 3.0, "c0": 1.0},
        {"n": 201, "area": 2.0, "alpha": 4.0, "c0": 2.0},
    ),
]
RECORD_IDS = [cls.__name__ for cls, _, _ in RECORDS]


class TestRecordContract:
    @pytest.mark.parametrize("cls,kwargs,changed", RECORDS, ids=RECORD_IDS)
    def test_equal_values_give_equal_records_and_hashes(self, cls, kwargs, changed):
        a, b = cls(**kwargs), cls(**kwargs)
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert a != tuple(kwargs.values())

    @pytest.mark.parametrize("cls,kwargs,changed", RECORDS, ids=RECORD_IDS)
    def test_changing_any_single_field_breaks_equality(self, cls, kwargs, changed):
        base = cls(**kwargs)
        for name, value in changed.items():
            other = cls(**{**kwargs, name: value})
            assert other != base, name
            assert getattr(other, name) == value

    @pytest.mark.parametrize("cls,kwargs,changed", RECORDS, ids=RECORD_IDS)
    def test_fields_cannot_be_set_deleted_or_added(self, cls, kwargs, changed):
        record = cls(**kwargs)
        for name in cls.__slots__:  # the derived fields too
            with pytest.raises(AttributeError):
                setattr(record, name, changed.get(name, 0.5))
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.note = "added"
        assert record == cls(**kwargs)

    @pytest.mark.parametrize("cls,kwargs,changed", RECORDS, ids=RECORD_IDS)
    def test_copies_and_pickles_are_equal(self, cls, kwargs, changed):
        record = cls(**kwargs)
        # the constructor arguments alone travel; the derived fields are rebuilt
        assert record.__reduce__() == (cls, tuple(kwargs.values()))
        for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert type(clone) is cls
            assert clone == record and hash(clone) == hash(record)
            assert [getattr(clone, name) for name in cls.__slots__] == list(record._values)

    @pytest.mark.parametrize("cls,kwargs,changed", RECORDS, ids=RECORD_IDS)
    def test_hash_is_the_hash_of_the_values_in_every_copy(self, cls, kwargs, changed):
        # the hash is taken of the values on each call, in copies and pickles too
        record = cls(**kwargs)
        for clone in (record, copy.copy(record), copy.deepcopy(record),
                      pickle.loads(pickle.dumps(record))):
            assert hash(clone) == hash(clone._values)

    def test_the_same_record_is_equal_without_comparing_fields(self, monkeypatch):
        # tuple and dict lookups of the very same record short-cut on
        # identity and never call __eq__
        params = derive(1.0, 1.0)
        calls = []
        eq = SchemeParams.__eq__

        def counted(self, other):
            calls.append(other)
            return eq(self, other)

        monkeypatch.setattr(SchemeParams, "__eq__", counted)
        assert (1, params) == (1, params) and {(1, params): 0}[(1, params)] == 0
        assert calls == []
        assert params == derive(1.0, 1.0) and len(calls) == 1

    def test_the_depth_table_is_outside_the_fields(self):
        # the optimizer's per-depth table: no field, no part of equality,
        # hash, repr or pickle, and empty in every copy
        filled, fresh = derive(1.0, 1.0), derive(1.0, 1.0)
        layer_choice(2**40, filled)
        minimal_delay(3, 512.0, filled)
        assert tuple(SchemeParams.__slots__) == ("R", "Q", "beta1", "beta", "c", *DERIVED)
        assert any(filled._depths) and fresh._depths == [None] * (MAX_LAYERS + 1)
        assert filled == fresh and hash(filled) == hash(fresh) and repr(filled) == repr(fresh)
        assert filled.__reduce__() == fresh.__reduce__()
        for clone in (copy.copy(filled), copy.deepcopy(filled),
                      pickle.loads(pickle.dumps(filled))):
            assert clone == filled and clone._depths == [None] * (MAX_LAYERS + 1)
        with pytest.raises(AttributeError):
            filled._depths = []

    def test_copies_rebuild_through_the_checks(self, monkeypatch):
        cfg = NetworkConfig(n=200)
        monkeypatch.setattr("hiercoop.params.MIN_NODES", 1000)
        for rebuild in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
            with pytest.raises(ValueError, match="n must be an integer >= 1000"):
                rebuild(cfg)

    @pytest.mark.parametrize(
        "record,text",
        [
            (
                derive(1.0, 1.0),
                "SchemeParams(R=1.0, Q=1.0, beta1=2.0, beta=2.8284271247461903, c=4.0, "
                "log_beta1=0.6931471805599453, log_1_plus_R_over_Q=0.6931471805599453, "
                "half_log_c=0.6931471805599453, log_beta=1.039720770839918, "
                "depth_ratio=0.8164965809277259)",
            ),
            (NetworkConfig(n=200), "NetworkConfig(n=200, area=1.0, alpha=3.0, c0=1.0)"),
        ],
        ids=RECORD_IDS,
    )
    def test_repr_keeps_the_field_order_and_format(self, record, text):
        assert repr(record) == text
