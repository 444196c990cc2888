"""Geometry regime classification and its effect on throughput."""
import math

import pytest
from hypothesis import example, given, strategies as st

from hiercoop import (
    CandidateOutcome,
    DomainError,
    NetworkConfig,
    Regime,
    area_from_exponent,
    c0_tradeoff,
    classify,
    derive,
    optimal_modified,
    smooth_modified,
)


class TestClassify:
    def test_sparse_geometry(self):
        cfg = NetworkConfig(n=200, area=100.0, alpha=4.0, c0=1.0)
        report = classify(cfg)
        assert report.regime is Regime.SPARSE
        assert report.factor == 0.02  # 200 / 100**2
        assert report.threshold == -9800.0

    def test_dense_geometry(self):
        cfg = NetworkConfig(n=200, area=1.0, alpha=3.0, c0=1.0)
        report = classify(cfg)
        assert report.regime is Regime.DENSE
        assert report.factor == 1.0
        assert report.threshold == 199.0

    def test_boundary_counts_as_dense(self):
        # c0*n == area**(alpha/2) exactly
        cfg = NetworkConfig(n=200, area=100.0, alpha=4.0, c0=50.0)
        report = classify(cfg)
        assert report.regime is Regime.DENSE
        assert report.factor == 1.0
        assert report.threshold == 0.0

    def test_area_too_small_for_a_float_demand_is_dense(self):
        # area**(alpha/2) underflows to 0; the dense side never divides by it
        report = classify(NetworkConfig(n=1000, area=1e-300, alpha=3.0, c0=1.0))
        assert report.regime is Regime.DENSE
        assert report.factor == 1.0
        assert report.threshold == 1000.0

    @pytest.mark.parametrize("area, alpha", [(1e300, 3.0), (2.0, 1e308)])
    def test_overflowing_demand_is_a_domain_error(self, area, alpha):
        with pytest.raises(DomainError, match="overflows"):
            classify(NetworkConfig(n=1000, area=area, alpha=alpha, c0=1.0))

    def test_regime_values_are_strings(self):
        assert Regime.DENSE.value == "dense"
        assert Regime.SPARSE.value == "sparse"

    @given(
        n=st.integers(min_value=4, max_value=10**6),
        area=st.floats(min_value=0.5, max_value=1e6),
        alpha=st.floats(min_value=2.0, max_value=6.0),
        c0=st.floats(min_value=1e-3, max_value=1e3),
        growth=st.floats(min_value=1.01, max_value=10.0),
    )
    def test_factor_bounds_and_monotonicity(self, n, area, alpha, c0, growth):
        base = classify(NetworkConfig(n=n, area=area, alpha=alpha, c0=c0))
        assert 0.0 < base.factor <= 1.0
        wider = classify(NetworkConfig(n=n, area=area * growth, alpha=alpha, c0=c0))
        assert wider.factor <= base.factor
        richer = classify(NetworkConfig(n=n, area=area, alpha=alpha, c0=c0 * growth))
        assert richer.factor >= base.factor


class TestThroughputWithArea:
    """The attenuated throughput: the smooth figure times classify's factor."""

    @staticmethod
    def attenuated(cfg):
        [outcome] = c0_tradeoff(cfg, [(cfg.c0, 1.0, 1.0)])
        return outcome

    def test_dense_regime_passes_the_value_through(self, unit_params):
        cfg = NetworkConfig(n=131072, area=4.0, alpha=3.0, c0=1.0)
        plain = optimal_modified(131072, unit_params).smooth
        got = self.attenuated(cfg)
        assert got.value == plain.value
        assert got.area_factor == 1.0

    def test_sparse_regime_scales_the_value(self, unit_params):
        cfg = NetworkConfig(n=131072, area=131072.0**0.5 * 100.0, alpha=4.0, c0=1.0)
        factor = classify(cfg).factor
        assert 0.0 < factor < 1.0
        plain = optimal_modified(131072, unit_params).smooth
        got = self.attenuated(cfg)
        assert got.value == factor * plain.value
        assert got.area_factor == factor

    def test_half_rate_geometry(self, unit_params):
        # alpha = 2 makes the cutoff linear in area: area = 2n halves the rate
        n = 4096
        cfg = NetworkConfig(n=n, area=2.0 * n, alpha=2.0, c0=1.0)
        assert classify(cfg).factor == 0.5
        plain = optimal_modified(n, unit_params).smooth
        assert self.attenuated(cfg).value == 0.5 * plain.value


class TestAreaFromExponent:
    def test_reference_points(self):
        assert area_from_exponent(10000, 0.0) == 1.0
        assert area_from_exponent(10000, 1.0) == 10000.0
        assert area_from_exponent(10000, 0.5) == pytest.approx(100.0, rel=1e-12)

    def test_guards(self):
        with pytest.raises(DomainError):
            area_from_exponent(0, 0.5)
        with pytest.raises(DomainError):
            area_from_exponent(10000, -0.1)
        with pytest.raises(DomainError, match=r"^area exponent must be >= 0 and finite, got inf$"):
            area_from_exponent(4, math.inf)

    def test_node_floor_is_the_network_size_rule(self):
        with pytest.raises(DomainError, match=r"^need n >= 4, got 0$"):
            area_from_exponent(0, 1.0)

    def test_overflowing_area_is_a_domain_error_naming_n_and_nu(self):
        with pytest.raises(DomainError, match=r"^n\*\*nu overflows at n=20, nu=300$"):
            area_from_exponent(20, 300.0)


class TestC0Tradeoff:
    def test_doubling_c0_doubles_a_sparse_figure(self):
        cfg = NetworkConfig(n=200, area=100.0, alpha=4.0, c0=1.0)
        outcomes = c0_tradeoff(cfg, [(2.0, 1.0, 1.0), (1.0, 1.0, 1.0)])
        assert [o.c0 for o in outcomes] == [2.0, 1.0]
        assert all(o.error is None for o in outcomes)
        assert outcomes[0].value == 2.0 * outcomes[1].value

    def test_failures_sort_last_and_carry_messages(self):
        cfg = NetworkConfig(n=200, area=100.0, alpha=4.0, c0=1.0)
        outcomes = c0_tradeoff(
            cfg,
            [(1.0, 1.0, 0.1), (-1.0, 1.0, 1.0), (1.0, 1.0, 1.0)],
        )
        assert outcomes[0].error is None
        assert outcomes[0].c0 == 1.0
        failed = outcomes[1:]
        assert len(failed) == 2
        messages = {o.c0: o.error for o in failed}
        assert "0.25" in messages[1.0]  # rate ratio 0.1 under the floor
        assert "positive" in messages[-1.0]
        assert all(o.value is None and o.area_factor is None for o in failed)

    def test_all_candidates_failing_is_not_an_exception(self):
        cfg = NetworkConfig(n=200, area=100.0, alpha=4.0, c0=1.0)
        outcomes = c0_tradeoff(cfg, [(0.0, 1.0, 1.0), (1.0, 1.0, 0.2)])
        assert all(o.error is not None for o in outcomes)

    def test_non_finite_throughput_is_a_failed_candidate(self):
        cfg = NetworkConfig(n=10**6, area=1.0, alpha=3.0, c0=1.0)
        outcomes = c0_tradeoff(cfg, [(1.0, 1e308, 1e308), (1.0, 1.0, 1.0)])
        assert outcomes[0].R == 1.0 and outcomes[0].error is None
        assert outcomes[1].value is None and outcomes[1].area_factor is None
        assert "not finite" in outcomes[1].error

    def test_successes_sorted_by_value_descending(self):
        # sparse geometry, so c0 actually separates the three figures
        cfg = NetworkConfig(n=131072, area=1e4, alpha=3.0, c0=1.0)
        assert classify(cfg).regime is Regime.SPARSE
        outcomes = c0_tradeoff(
            cfg, [(0.5, 1.0, 1.0), (2.0, 1.0, 1.0), (1.0, 1.0, 1.0)]
        )
        assert all(o.error is None for o in outcomes)
        assert [o.c0 for o in outcomes] == [2.0, 1.0, 0.5]

    def test_rates_come_from_the_triple(self, unit_params):
        cfg = NetworkConfig(n=200, area=100.0, alpha=4.0, c0=1.0)
        outcomes = c0_tradeoff(cfg, [(1.0, 1.0, 4.0), (1.0, 1.0, 1.0)])
        by_q = {o.Q: o for o in outcomes}
        assert set(by_q) == {4.0, 1.0}
        factor = classify(cfg).factor
        for q, outcome in by_q.items():
            expected = smooth_modified(cfg.n, derive(1.0, q)).value * factor
            assert outcome.value == pytest.approx(expected, rel=1e-12)
            assert outcome.area_factor == factor
        assert by_q[1.0].value == pytest.approx(
            smooth_modified(cfg.n, unit_params).value * factor, rel=1e-15
        )

    def test_overflowing_geometry_evaluates_no_candidate(self, monkeypatch):
        calls = []
        monkeypatch.setattr("hiercoop.area.derive", lambda *a: calls.append(a))
        cfg = NetworkConfig(n=1000, area=1e300, alpha=4.0, c0=1.0)
        with pytest.raises(
            DomainError, match=r"^area\*\*\(alpha/2\) overflows at area=1e\+300, alpha=4$"
        ):
            c0_tradeoff(cfg, [(-1.0, 1.0, 1.0), (1.0, 1.0, 1.0)])
        assert calls == []

    @given(
        n=st.integers(4, 2**62),
        # demand that underflows, and that can fall on either side of c0*n
        area=st.floats(1e-300, 1e-30) | st.floats(1e-3, 1e12),
        alpha=st.sampled_from([2.0, 3.0, 4.0]) | st.floats(2.0, 16.0),
        candidates=st.lists(
            st.tuples(
                st.floats(1e-9, 1e9) | st.sampled_from([1e300, -1.0, math.nan]),
                st.just(1.0),
                st.sampled_from([0.2, 0.25 + 1e-6, 1.0, 24.0]),
            )
            | st.just((1.0, 1e308, 1e308)),  # a throughput that is not finite
            min_size=1, max_size=4,
        ),
    )
    # c0*n == area**(alpha/2) exactly for the first candidate
    @example(n=200, area=100.0, alpha=4.0, candidates=[(50.0, 1.0, 1.0), (49.0, 1.0, 1.0)])
    def test_outcomes_equal_a_network_config_per_candidate(self, n, area, alpha, candidates):
        expected = []
        for c0, R, Q in candidates:
            try:
                geo = NetworkConfig(n, area, alpha, c0)
                smooth = smooth_modified(n, derive(R, Q))
                factor = classify(geo).factor
                value = smooth.value * factor
                if not math.isfinite(value):
                    raise DomainError("throughput is not finite")
            except ValueError as exc:
                expected.append(CandidateOutcome(c0, R, Q, None, None, str(exc)))
            else:
                expected.append(CandidateOutcome(c0, R, Q, value, factor, None))
        successes = sorted(
            (o for o in expected if o.error is None), key=lambda o: o.value, reverse=True
        )
        expected = successes + [o for o in expected if o.error is not None]
        got = c0_tradeoff(NetworkConfig(n, area, alpha, 1.0), candidates)

        def hexed(outcomes):
            # every float field as float.hex, so equal only when every bit is
            return [tuple(f.hex() if isinstance(f, float) else f for f in o) for o in outcomes]

        assert hexed(got) == hexed(expected)

    def test_outcome_fields_are_the_jsonl_record_after_its_rank(self):
        assert CandidateOutcome._fields == ("c0", "R", "Q", "value", "area_factor", "error")
