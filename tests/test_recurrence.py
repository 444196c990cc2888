"""Slot recursion, closed-form bracket, and the equivalence between them."""
import pytest
from hypothesis import given, settings, strategies as st

from hiercoop import (
    MAX_LAYERS,
    TIME_SHARING_FACTOR,
    PlanError,
    delay_recursive,
)
from hiercoop.recurrence import delay_closed_form
from oracles import (
    base_slots_by_enumeration,
    bracket_by_formula,
    delay_by_recursion,
    slots_by_tree_walk,
)
from strategies import plans, rate_params


def test_time_sharing_group_size():
    assert TIME_SHARING_FACTOR == 4


class TestBaseExchange:
    def test_matches_literal_pair_enumeration(self, unit_params):
        got = delay_recursive((16.0,), unit_params).slots
        assert got == 256.0
        assert got == base_slots_by_enumeration(16, 1.0, 1.0)


class TestRecursion:
    def test_two_layers_reduce_to_the_base_case(self, unit_params):
        out = delay_recursive((8.0,), unit_params)
        assert out.slots == 64.0

    def test_three_layer_hand_expansion(self, unit_params):
        # relay 2*512*32 = 32768, then 4 subproblems of 16**2 slots at an
        # inflated 32-bit block: 4 * 8192 = 32768
        out = delay_recursive((512.0, 16.0), unit_params)
        assert out.slots == 65536.0
        assert out.decomposition == (32768.0, 32768.0)

    def test_three_layers_off_the_optimum(self, unit_params):
        assert delay_recursive((512.0, 8.0), unit_params).slots == 81920.0

    def test_four_layer_value_and_tree_walk_agreement(self, unit_params):
        sizes = (4096.0, 256.0, 16.0)
        walked = delay_recursive(sizes, unit_params).slots
        assert walked == 1703936.0
        oracle = slots_by_tree_walk(sizes, 1.0, 1.0, 1.0)
        assert walked == pytest.approx(oracle, rel=1e-12)

    def test_invalid_plans_are_rejected_before_any_arithmetic(self, unit_params):
        with pytest.raises(PlanError):
            delay_recursive((16.0, 32.0), unit_params)
        with pytest.raises(PlanError):
            delay_closed_form((16.0, 1.5), unit_params)
        with pytest.raises(PlanError):
            delay_recursive(tuple(2.0 ** (66 - i) for i in range(64)), unit_params)


class TestClosedForm:
    def test_two_layer_bracket(self, unit_params):
        out = delay_closed_form((8.0,), unit_params)
        assert out.slots == 64.0

    def test_bracket_terms_follow_the_unrolled_recursion(self, unit_params):
        out = delay_closed_form((100.0, 25.0, 5.0), unit_params)
        lead = 2.0 * 100.0  # 2*M1/R
        expected = (
            lead * 100.0 / 25.0,
            lead * 4.0 * 25.0 / 5.0,
            lead * 16.0 * 5.0 / 2.0,
        )
        assert out.decomposition == pytest.approx(expected, rel=1e-12)
        assert out.slots == pytest.approx(sum(expected), rel=1e-12)

    def test_four_layer_agreement_with_the_recursion(self, unit_params):
        assert delay_closed_form((4096.0, 256.0, 16.0), unit_params).slots == pytest.approx(
            1703936.0, rel=1e-12
        )


@given(sizes=plans(), params=rate_params())
@settings(max_examples=150)
def test_recursion_equals_the_bracket(sizes, params):
    walked = delay_recursive(sizes, params)
    bracket = delay_closed_form(sizes, params)
    assert len(walked.decomposition) == len(sizes)
    assert len(bracket.decomposition) == len(sizes)
    assert walked.slots == pytest.approx(bracket.slots, rel=1e-12)
    for a, b in zip(walked.decomposition, bracket.decomposition):
        assert a == pytest.approx(b, rel=1e-12)
    assert walked.slots == pytest.approx(sum(walked.decomposition), rel=1e-12)


@given(sizes=plans(), params=rate_params())
def test_tree_walk_oracle_agrees_with_the_recursion(sizes, params):
    walked = delay_recursive(sizes, params).slots
    oracle = slots_by_tree_walk(sizes, 1.0, params.R, params.Q)
    assert walked == pytest.approx(oracle, rel=1e-12)


@given(sizes=plans(max_h=MAX_LAYERS), params=rate_params())
@settings(max_examples=300)
def test_loop_equals_the_recursive_walk_exactly(sizes, params):
    got = delay_recursive(sizes, params)
    slots, decomposition = delay_by_recursion(sizes, 1.0, params.R, params.Q)
    assert got.slots == slots and type(got.slots) is float
    assert got.decomposition == decomposition
    assert all(type(x) is float for x in got.decomposition)


@given(sizes=plans(max_h=MAX_LAYERS), params=rate_params())
@settings(max_examples=300)
def test_closed_form_equals_the_bracket_formula_exactly(sizes, params):
    got = delay_closed_form(sizes, params)
    slots, terms = bracket_by_formula(sizes, params.R, params.c)
    assert got.slots == slots and type(got.slots) is float
    assert got.decomposition == terms
    assert all(type(x) is float for x in got.decomposition)


@given(sizes=plans(), params=rate_params(), scale=st.floats(1.1, 4.0))
def test_delay_grows_with_the_top_cluster(sizes, params, scale):
    bigger = (sizes[0] * scale,) + sizes[1:]
    assert delay_recursive(bigger, params).slots > delay_recursive(sizes, params).slots


def test_block_size_scales_the_slot_count_linearly(unit_params):
    # the counts are for a unit block; the oracle's 8-bit block takes 8 times as many
    sizes = (4096.0, 256.0, 16.0)
    oracle = slots_by_tree_walk(sizes, 8.0, 1.0, 1.0)
    assert oracle == 8.0 * delay_recursive(sizes, unit_params).slots
    assert oracle == 8.0 * delay_closed_form(sizes, unit_params).slots
