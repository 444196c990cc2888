"""The model's domain has one owner: SchemeParams admits every constant that
derive builds, refuses the rest with a DomainError, and every public function
that takes SchemeParams answers on what it admits or raises a typed error."""
import math
import re
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from hiercoop import (
    DomainError,
    InfeasibleError,
    NetworkConfig,
    PlanError,
    SchemeParams,
    compare_schemes,
    delay_recursive,
    depth_optimum,
    derive,
    layer_choice,
    layer_throughput,
    minimal_delay,
    optimal_cluster_sizes,
    optimal_modified,
    original_optimal_layers,
    original_throughput,
    per_pair_rate,
    ratio_log_adjusted,
    ratio_original,
    ratio_original_closed_form,
    run_all,
    smooth_modified,
    throughput_given_M1,
    upper_bound,
)
from hiercoop.params import smooth_depth
from hiercoop.recurrence import delay_closed_form
from strategies import plans

#: Field values at the edges of float range and of the domain.
SPECIAL = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, sys.float_info.min,
    1e308, -1e308, 0.25, 1.0, 1.0 + 1e-10, math.nextafter(1.0, 2.0),
]

_log_uniform = st.floats(-323.3, 308.0).map(lambda e: 10.0**e)
_signed = st.builds(lambda x, minus: -x if minus else x, _log_uniform, st.booleans())
#: Anything: a special value or a signed log-uniform float.
_any = st.sampled_from(SPECIAL) | _signed
#: A constant's range above 1: special values there and 10**U(0, 308).
_above_one = st.sampled_from([1.0 + 1e-10, math.nextafter(1.0, 2.0), 1e308]) | st.floats(
    0.0, 308.0
).map(lambda e: 10.0**e)


@st.composite
def field_draws(draw):
    """SchemeParams keyword arguments: each field from _any, or all five
    mostly from the parts of their ranges that the domain admits."""
    if draw(st.booleans()):
        return {name: draw(_any) for name in ("R", "Q", "beta1", "beta", "c")}
    return {
        "R": draw(_log_uniform | st.sampled_from([5e-324, sys.float_info.min, 1.0, 1e308])),
        "Q": draw(_log_uniform | st.sampled_from([0.25, 1.0, 1e308])),
        "beta1": draw(st.just(1.0) | _above_one),
        "beta": draw(_above_one),
        "c": draw(st.just(math.inf) | _above_one),
    }


#: The only functions documented to return None (no depth fits).
MAY_BE_NONE = {"depth_optimum", "layer_throughput", "layer_choice", "layer_choice_capped"}

#: The functions whose throughput or delay may leave float range as +inf.
#: The rest, the ratios, depths, cluster sizes, rows and suite errors among
#: them, answer with finite floats or raise; the two slot routes raise
#: OverflowError instead.
MAY_BE_INF = {
    "minimal_delay", "depth_optimum", "layer_choice", "layer_choice_capped",
    "layer_throughput", "throughput_given_M1", "smooth_modified", "optimal_modified",
    "upper_bound", "per_pair_rate", "original_throughput",
}

#: The functions documented to raise OverflowError: a slot count, or for the
#: closed form a power of c, past float range.
MAY_OVERFLOW = {"delay_recursive", "delay_closed_form"}

_CFG = NetworkConfig(1024)


def _calls(params, n, h, M1, sizes, seed):
    # every public function that takes SchemeParams, by name
    return {
        "smooth_depth": lambda: smooth_depth(n, params),
        "delay_recursive": lambda: delay_recursive(sizes, params),
        "delay_closed_form": lambda: delay_closed_form(sizes, params),
        "depth_optimum": lambda: depth_optimum(h, n, params),
        "layer_choice": lambda: layer_choice(n, params),
        "layer_choice_capped": lambda: layer_choice(n, params, h_max=h),
        "minimal_delay": lambda: minimal_delay(h, M1, params),
        "optimal_cluster_sizes": lambda: optimal_cluster_sizes(h, M1, params),
        "layer_throughput": lambda: layer_throughput(h, n, params),
        "throughput_given_M1": lambda: throughput_given_M1(h, M1, n, params),
        "smooth_modified": lambda: smooth_modified(n, params),
        "optimal_modified": lambda: optimal_modified(n, params),
        "upper_bound": lambda: upper_bound(n, params),
        "per_pair_rate": lambda: per_pair_rate(n, params),
        "original_optimal_layers": lambda: original_optimal_layers(n, params),
        "original_throughput": lambda: original_throughput(n, params),
        "ratio_original": lambda: ratio_original(n, params),
        "ratio_original_closed_form": lambda: ratio_original_closed_form(n, params),
        "ratio_log_adjusted": lambda: ratio_log_adjusted(n, 10.0, params),
        "compare_schemes": lambda: compare_schemes([4, n], _CFG, params, 1.0),
        "run_all": lambda: run_all(params, seed),
    }


def _floats(value):
    # every float inside a result: a number, a record, a list of rows or a dict
    if isinstance(value, float):
        return [value]
    if isinstance(value, (tuple, list)):
        return [x for item in value for x in _floats(item)]
    if isinstance(value, dict):
        return [x for item in value.values() for x in _floats(item)]
    return []


_REPRO = dict(
    R=7.482914677239627e208,
    Q=2.717171250004728e209,
    beta1=6.985335229520463e73,
    beta=1.1301318133243202e163,
    c=4.974135289277334e50,
)


class TestLibraryTotality:
    @settings(max_examples=500)
    @given(
        kwargs=field_draws(),
        n=st.integers(1, 2**62),
        h=st.integers(1, 8),
        M1=st.floats(1.0, 1e12),
        sizes=plans(max_h=6),
        seed=st.integers(0, 2**32),
    )
    @example(kwargs=dict(R=1e300, Q=1e-300, beta1=2, beta=3, c=4), n=1024, h=3, M1=512.0,
             sizes=(512.0, 16.0), seed=0)
    @example(kwargs=_REPRO, n=2**40, h=3, M1=512.0, sizes=(512.0, 16.0), seed=0)
    @example(kwargs=dict(R=1, Q=1, beta1=2, beta=2 * math.sqrt(2), c=1e-320), n=2**40, h=3,
             M1=512.0, sizes=(512.0, 16.0), seed=0)
    @example(kwargs=dict(R=1, Q=1, beta1=2, beta=math.inf, c=4), n=2**40, h=3, M1=512.0,
             sizes=(512.0, 16.0), seed=0)
    @example(kwargs=dict(R=1, Q=4, beta1=4, beta=math.sqrt(20), c=math.inf), n=2**40, h=2,
             M1=512.0, sizes=(512.0, 16.0), seed=0)
    # the direct ratio overflows while the closed form is finite
    @example(kwargs=dict(R=1.6037442061809694e230, Q=4.2700736609091617e259,
                         beta1=3.0043375588907268e259, beta=math.nextafter(1.0, 2.0),
                         c=4.38204948306542e261), n=1024, h=3, M1=512.0,
             sizes=(512.0, 16.0), seed=0)
    # the closed-form ratio overflows while the direct one is finite
    @example(kwargs=dict(R=2.9415223893011777e-237, Q=2.4579357922530005e-70, beta1=1e308,
                         beta=1.0000000001, c=math.inf), n=1024, h=3, M1=512.0,
             sizes=(512.0, 16.0), seed=0)
    def test_every_call_answers_or_raises_a_typed_error(self, kwargs, n, h, M1, sizes, seed):
        try:
            params = SchemeParams(**kwargs)
        except DomainError:
            return
        for name, call in _calls(params, n, h, M1, sizes, seed).items():
            try:
                out = call()
            except (DomainError, PlanError, InfeasibleError):
                continue
            except OverflowError:
                # documented: the layer, or the power of c, that leaves float range is named
                assert name in MAY_OVERFLOW, (name, kwargs)
                continue
            if out is None:
                assert name in MAY_BE_NONE, (name, kwargs)
                continue
            floats = _floats(out)
            assert not any(math.isnan(x) or x == -math.inf for x in floats), (name, kwargs)
            assert name in MAY_BE_INF or all(math.isfinite(x) for x in floats), (name, kwargs)

    def test_an_underflowing_rate_ratio_is_a_domain_error(self):
        # Q/R rounds to 0; the constructor once took log(0) for log(beta1)
        msg = r"^Q/R must exceed 0\.25 for layering to gain, got 0$"
        with pytest.raises(DomainError, match=msg):
            SchemeParams(R=1e300, Q=1e-300, beta1=2, beta=3, c=4)


#: Each constant's refusal message.
REFUSALS = {
    "beta1": "beta1 must be at least 1 and finite",
    "beta": "beta must exceed 1 and be finite",
    "c": "c must exceed 1",
}

#: Values no constant may take: the tests of each route once drew these. The
#: zeros of either sign matter beyond the model: 0.0 == -0.0 and their hashes
#: agree, so == on the values, which _Frozen records and the one-entry memos
#: keyed on params use, could not tell them apart; no record holds one.
REFUSED_EVERYWHERE = [-4.0, 0.0, -0.0, math.nan, -math.inf, 0.5, 1.0 - 1e-9]


class TestConstructorOwnsTheDomain:
    @pytest.mark.parametrize(
        "R,Q",
        [(0.0, 1.0), (-1.0, 1.0), (1.0, math.nan), (1.0, math.inf), (1e-308, 1e308),
         (2.0, 0.4), (1.0, 0.25), (1e300, 1e-300)],
    )
    def test_derive_and_the_constructor_refuse_a_rate_pair_alike(self, R, Q):
        with pytest.raises(DomainError) as derived:
            derive(R, Q)
        with pytest.raises(DomainError) as built:
            SchemeParams(R=R, Q=Q, beta1=2.0, beta=3.0, c=4.0)
        assert str(built.value) == str(derived.value)

    @pytest.mark.parametrize(
        "name,value",
        [
            *[(name, value) for name in REFUSALS for value in REFUSED_EVERYWHERE],
            ("beta1", math.nextafter(1.0, 0.0)),
            ("beta1", math.inf),
            ("beta", 1.0),
            ("beta", math.inf),
            ("c", 1.0),
        ],
    )
    def test_a_constant_outside_what_derive_builds_is_refused(self, name, value):
        # the one place each refused constant is named; no layer-sizing route,
        # depth search or suite has a rule of its own
        kwargs = dict(R=1.0, Q=1.0, beta1=2.0, beta=2.0 * math.sqrt(2.0), c=4.0)
        msg = rf"^{re.escape(REFUSALS[name])}, got {re.escape(str(value))}$"
        with pytest.raises(DomainError, match=msg):
            SchemeParams(**{**kwargs, name: value})

    @pytest.mark.parametrize(
        "name,value", [("beta1", 1.0), ("beta", math.nextafter(1.0, 2.0)),
                       ("c", math.nextafter(1.0, 2.0)), ("c", math.inf)]
    )
    def test_the_edges_derive_reaches_are_admitted(self, name, value):
        kwargs = dict(R=1.0, Q=1.0, beta1=2.0, beta=2.0 * math.sqrt(2.0), c=4.0)
        assert getattr(SchemeParams(**{**kwargs, name: value}), name) == value


class TestDomainAdmitsWhatDeriveBuilds:
    def test_beta1_is_exactly_one_one_ulp_above_a_quarter(self):
        p = derive(1.0, 0.25 + 2.0**-54)
        assert p.beta1 == 1.0 and p.c > 1.0 and p.log_beta1 > 0.0

    def test_c_is_inf_past_a_quarter_of_the_largest_float(self):
        p = derive(1.0, 4.5e307)
        assert p.c == math.inf and math.isfinite(p.beta)

    @settings(max_examples=500)
    @given(
        j=st.integers(-1074, 1023),
        ratio=st.floats(math.nextafter(0.25, 1.0), sys.float_info.max),
    )
    @example(j=0, ratio=0.25 + 2.0**-54)
    @example(j=0, ratio=4.5e307)
    @example(j=0, ratio=sys.float_info.max)
    @example(j=-1074, ratio=math.nextafter(0.25, 1.0))
    @example(j=1023, ratio=1.0)
    def test_every_pair_the_rate_checks_accept_derives(self, j, ratio):
        R = math.ldexp(1.0, j)
        Q = R * ratio
        # the rate checks derive has always made, and nothing else
        accepted = math.isfinite(Q) and Q > 0 and math.isfinite(Q / R) and Q / R > 0.25
        if not accepted:
            with pytest.raises(DomainError):
                derive(R, Q)
            return
        p = derive(R, Q)
        assert 1.0 <= p.beta1 < math.inf and 1.0 < p.beta < math.inf and p.c > 1.0
        assert p.log_beta1 > 0.0
