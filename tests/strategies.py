"""Hypothesis strategies shared by the property tests."""
from hypothesis import strategies as st

from hiercoop import derive


@st.composite
def rate_params(draw):
    """Valid SchemeParams with Q/R in [0.3, 10], comfortably inside domain."""
    R = draw(st.floats(0.1, 10.0))
    ratio = draw(st.floats(0.3, 10.0))
    return derive(R, R * ratio)


@st.composite
def plans(draw, max_h=6):
    """Structurally valid hierarchies as top-down cluster-size tuples, built
    bottom-up with ratios bounded away from 1 so the sizes stay strictly
    decreasing."""
    h = draw(st.integers(2, max_h))
    sizes = [draw(st.floats(2.0, 64.0))]
    for _ in range(h - 2):
        sizes.append(sizes[-1] * draw(st.floats(1.5, 8.0)))
    sizes.reverse()
    return tuple(sizes)
