"""Hypothesis strategies shared by the property tests."""
import math

from hypothesis import strategies as st

from hiercoop import SchemeParams, derive

#: The smallest beta and c that SchemeParams admits.
ABOVE_ONE = math.nextafter(1.0, 2.0)


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


@st.composite
def search_params(draw):
    """Derived params from Q/R = 0.25 + 1e-12 up to 1e200 and R from 1e-300 to
    1e300; params built directly with c off beta1**2 (c > 1); and params
    whose c overflows to inf."""
    kind = draw(st.sampled_from(["derived", "direct", "overflow"]))
    if kind == "overflow":
        return derive(1.0, draw(st.floats(4.5e307, 1.7e308)))
    log_r = draw(st.floats(-300.0, 300.0))
    log_excess = draw(st.floats(-12.0, min(200.0, 307.0 - log_r)))
    R = 10.0**log_r
    params = derive(R, R * (0.25 + 10.0**log_excess))
    if kind == "derived":
        return params
    c = params.c * 10.0 ** draw(st.floats(-3.0, 3.0).filter(lambda x: x != 0.0))
    c = c if c > 1.0 else 1.0 + draw(st.floats(1e-12, 10.0))
    return SchemeParams(R=params.R, Q=params.Q, beta1=params.beta1, beta=params.beta, c=c)


@st.composite
def corrupt_params(draw):
    """Params built directly from a derived rate pair with beta1, beta and c
    each scaled by up to ten either way, but kept inside the domain that
    SchemeParams admits: beta1 >= 1, beta > 1, c > 1."""
    params = draw(rate_params())
    scaled = []
    for x, floor in ((params.beta1, 1.0), (params.beta, ABOVE_ONE), (params.c, ABOVE_ONE)):
        # no scale-down past the floor; max() absorbs the rounding of the power
        lo = max(-1.0, math.log10(floor / x))
        scaled.append(max(floor, x * 10.0 ** draw(st.floats(lo, 1.0))))
    beta1, beta, c = scaled
    return SchemeParams(R=params.R, Q=params.Q, beta1=beta1, beta=beta, c=c)
