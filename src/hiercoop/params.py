"""Model parameters: link rates, derived growth constants, network geometry,
and the check on a hierarchy's cluster sizes.

Two rates drive everything. R is the rate of a long-range transmission
between distant nodes; Q is the rate at which quantized observations are
shuffled around inside a cluster. With the time-sharing group size
K = TIME_SHARING_FACTOR, the model's one geometric constant, which this
module owns, their ratio fixes the constants

    beta1 = sqrt(K)*sqrt(Q/R)        growth base of the two-phase scheme
    beta  = sqrt(K)*sqrt(1 + Q/R)    growth base of the three-phase ancestor
    c     = K*Q/R = beta1**2         per-layer slot inflation in the delay bracket

Deeper hierarchies only pay off when beta1 > 1, i.e. Q/R > 1/K
(MIN_RATE_RATIO). SchemeParams owns that domain, so no function past its
constructor checks a constant. Every constant that depends on K reads
TIME_SHARING_FACTOR, in float operations that are exact at K = 4.
check_network_size owns the domain of n: at least MIN_NODES nodes, and for
an int n a value that float() converts, since every formula reads n only
through x = log(n/2) and powers of n/2. smooth_depth, sqrt(x/log_beta1), is
the public definition of the two-phase depth; the row kernels take it from
their own x in the same float operations.
From the fields it also takes, once per rate pair, the logs that every
network size reads: log_beta1, log_1_plus_R_over_Q = log(1 + R/Q) and
half_log_c = log(c)/2 for the depth search, and log_beta = log(beta) and
depth_ratio = sqrt(log_beta1/log_beta) for the smooth forms. Past the
fields, each SchemeParams carries an empty per-depth table that the
optimizer fills, entry h on its first read of depth h, with the factors of
the depth-h closed form that no network size changes.
"""
from __future__ import annotations

import math

from .errors import DomainError, PlanError

#: Hard cap on hierarchy depth; guards runaway recursion on pathological input.
MAX_LAYERS = 64

#: Neighboring clusters time-share the channel in groups of this size, K
#: (Ozgur, Leveque and Tse, 2007). The one owner of K: every constant of
#: the model that depends on it reads this name.
TIME_SHARING_FACTOR = 4

#: Q/R at or below this, 1/K, extra layers stop paying for themselves: c <= 1.
MIN_RATE_RATIO = 1 / TIME_SHARING_FACTOR

#: Largest network size the CLI accepts; keeps grid interpolation and n/2 in float range.
N_MAX = 2**62

#: Smallest network size accepted; keeps log(n/2) positive.
MIN_NODES = 4

#: The least int that float() refuses: half an ulp above the largest float,
#: 2**1024 - 2**971, rounds to even, up to 2**1024. check_network_size
#: refuses an int n from here up.
_INT_PAST_FLOAT = 2**1024 - 2**970

#: A cluster must hold at least this many nodes to be worth the name.
MIN_CLUSTER = 2.0


#: Sets a slot past _Frozen.__setattr__; only constructors call it.
_set = object.__setattr__


class _Frozen:
    """Base of the records that check or derive a field on construction.

    A subclass names its fields in a __slots__ dict of field docstrings. Its
    __init__ sets each field with _set, then calls _seal with _values, the
    tuple of all field values in slot order that equality, hash and repr
    read; the hash is taken anew on each call, as no hot path hashes a
    record. The last _derived fields are computed, not passed; copy and
    pickle rebuild through __init__ from the others, so they run its checks.
    """

    __slots__ = ("_values",)
    _derived = 0

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        # == on the values tells records apart by the bits of their arguments:
        # no argument is zero or NaN, and each derived field is a function of
        # the arguments; one may round to 0.0, log(1 + R/Q) for Q/R above
        # about 1e16, but a log gives +0.0 there, never -0.0
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple[type, tuple[object, ...]]:
        return type(self), self._values[: len(self._values) - self._derived]

    def _seal(self, values: tuple[object, ...]) -> None:
        _set(self, "_values", values)


class _DepthTabled(_Frozen):
    """_Frozen plus a slot for the optimizer's per-depth table.

    The slot is outside the fields: equality, hash, repr and pickle do not
    read it, and as copies and pickles rebuild through __init__, each starts
    with an empty table.
    """

    __slots__ = ("_depths",)


class SchemeParams(_DepthTabled):
    """Rate pair plus the constants derived from it.

    Build instances with derive(). Constructing directly bypasses the
    relations between the fields (tests use that to inject deliberately
    corrupted constants), but not the domain: every instance has positive,
    finite rates with a finite Q/R above 1/K, 1 <= beta1 < inf,
    1 < beta < inf and c > 1 (c may be inf, as derive gives for Q/R above
    about 4.5e307). Anything else raises DomainError. The derived fields
    are computed from the arguments either way, corrupted ones included.
    """

    __slots__ = {
        "R": "Rate of a long-range node-to-node transmission.",
        "Q": "Rate of the in-cluster quantized-observation exchange.",
        "beta1": "sqrt(K)*sqrt(Q/R); per-layer growth base of the two-phase scheme.",
        "beta": "sqrt(K)*sqrt(1 + Q/R); growth base of the three-phase ancestor.",
        "c": "K*Q/R; slot inflation factor per hierarchy layer.",
        "log_beta1": (
            "log(beta1) from R and Q, not settable. For 1/(2K) < Q/R < 5/K it is "
            "0.5*log1p(K*(Q - R/K)/R): Q - R/K is exact at K = 4 where log(beta1) "
            "would cancel, as Q/R -> 1/K. Elsewhere it is log(sqrt(K)*sqrt(Q/R)), "
            "which cannot overflow."
        ),
        "log_1_plus_R_over_Q": (
            "log(1 + R/Q), not settable; the depth search's A is log(n/2) less this. "
            "It rounds to 0.0 for Q/R above about 1e16."
        ),
        "half_log_c": "log(c)/2, not settable; the depth search's a (inf where c is).",
        "log_beta": "log(beta), not settable; the three-phase depth is sqrt(log(n/2)/log_beta).",
        "depth_ratio": (
            "sqrt(log_beta1/log_beta), not settable; the three-phase smooth depth "
            "over the two-phase one, read by the closed-form ratio."
        ),
    }
    _derived = 5

    def __init__(self, R: float, Q: float, beta1: float, beta: float, c: float) -> None:
        ratio = _rate_ratio(R, Q)
        # the ranges derive() produces; NaN fails each test
        if not 1.0 <= beta1 < math.inf:
            raise DomainError(f"beta1 must be at least 1 and finite, got {beta1}")
        if not 1.0 < beta < math.inf:
            raise DomainError(f"beta must exceed 1 and be finite, got {beta}")
        if not c > 1.0:
            raise DomainError(f"c must exceed 1, got {c}")
        K = TIME_SHARING_FACTOR
        if 0.5 / K < ratio < 5.0 / K:
            # R = m * 2**e; scaled, Q - R/K stays exact (K a power of 2) where R/K is subnormal
            m, e = math.frexp(R)
            log_beta1 = 0.5 * math.log1p(K * ((math.ldexp(Q, -e) - m / K) / m))
        else:
            log_beta1 = math.log(math.sqrt(K) * math.sqrt(ratio))
        _set(self, "R", R)
        _set(self, "Q", Q)
        _set(self, "beta1", beta1)
        _set(self, "beta", beta)
        _set(self, "c", c)
        _set(self, "log_beta1", log_beta1)
        # the logs that every network size reads, taken once per rate pair
        log_1_plus_R_over_Q = math.log(1.0 + R / Q)
        half_log_c = 0.5 * math.log(c)
        log_beta = math.log(beta)
        depth_ratio = math.sqrt(log_beta1 / log_beta)
        _set(self, "log_1_plus_R_over_Q", log_1_plus_R_over_Q)
        _set(self, "half_log_c", half_log_c)
        _set(self, "log_beta", log_beta)
        _set(self, "depth_ratio", depth_ratio)
        self._seal((
            R, Q, beta1, beta, c, log_beta1, log_1_plus_R_over_Q, half_log_c, log_beta, depth_ratio
        ))
        # entry h, for h in 2..MAX_LAYERS, is optimizer._depth_factors(h, self)
        _set(self, "_depths", [None] * (MAX_LAYERS + 1))


def _rate_ratio(R: float, Q: float) -> float:
    # Q/R of a rate pair in the domain, checked before it is divided
    if not (math.isfinite(R) and R > 0 and math.isfinite(Q) and Q > 0):
        raise DomainError(f"rates must be positive and finite, got R={R}, Q={Q}")
    ratio = Q / R
    if not math.isfinite(ratio):
        raise DomainError(f"Q/R must be finite, got R={R}, Q={Q}")
    if ratio <= MIN_RATE_RATIO:
        raise DomainError(
            f"Q/R must exceed {MIN_RATE_RATIO} for layering to gain, got {ratio:g}"
        )
    return ratio


def derive(R: float, Q: float) -> SchemeParams:
    """Derive the growth constants for the rate pair (R, Q).

    Raises DomainError unless both rates are positive and finite and Q/R is
    finite and above 1/K, the region where beta1 > 1 and depth can help.
    The square roots are taken apart, sqrt(K)*sqrt(x), as sqrt(K*x)
    overflows for Q/R above about 4.5e307 where they do not.
    """
    ratio = _rate_ratio(R, Q)
    K = TIME_SHARING_FACTOR
    return SchemeParams(
        R=float(R),
        Q=float(Q),
        beta1=math.sqrt(K) * math.sqrt(ratio),
        beta=math.sqrt(K) * math.sqrt(1.0 + ratio),
        c=K * ratio,
    )


def check_network_size(n: int) -> None:
    """Raise DomainError unless the network holds at least MIN_NODES nodes
    and, for an int n, float(n) is finite.

    Every formula reads n as a float, through n/2, so an int that float()
    refuses is refused here, named by its bit length, rather than failing
    later with an OverflowError. A float n is taken as it is.
    """
    if n < MIN_NODES:
        raise DomainError(f"need n >= {MIN_NODES}, got {n}")
    if n >= _INT_PAST_FLOAT and isinstance(n, int):
        raise DomainError(f"n must convert to a float, got an int of {n.bit_length()} bits")


def smooth_depth(n: int, params: SchemeParams) -> float:
    """Real-valued optimal depth sqrt(log_beta1(n/2)) of the two-phase scheme.

    The row kernels, throughput._smooth_forms and optimizer._search_depth,
    take this depth from their one log(n/2) in the same float operations.
    """
    check_network_size(n)
    return math.sqrt(math.log(n / 2.0) / params.log_beta1)


def _check_node_count(n: int) -> None:
    """NetworkConfig's check on n; compare_schemes makes it per row without one.

    An int n past float range passes it: NetworkConfig refuses that with
    check_network_size, and a sweep row with the first metric that reads n.
    """
    if not isinstance(n, int) or n < MIN_NODES:
        raise ValueError(f"n must be an integer >= {MIN_NODES}, got {n!r}")


class NetworkConfig(_Frozen):
    """Network size and geometry."""

    __slots__ = {
        "n": "Number of nodes; at least MIN_NODES.",
        "area": "Physical area of the square deployment region.",
        "alpha": "Path-loss exponent; at least 2.",
        "c0": "Power-threshold constant separating the dense and sparse regimes.",
    }

    def __init__(self, n: int, area: float = 1.0, alpha: float = 3.0, c0: float = 1.0) -> None:
        _check_node_count(n)
        check_network_size(n)
        if not (math.isfinite(area) and area > 0):
            raise ValueError(f"area must be positive and finite, got {area}")
        if not (math.isfinite(alpha) and alpha >= 2):
            raise ValueError(f"alpha must be >= 2, got {alpha}")
        if not (math.isfinite(c0) and c0 > 0):
            raise ValueError(f"c0 must be positive and finite, got {c0}")
        _set(self, "n", n)
        _set(self, "area", area)
        _set(self, "alpha", alpha)
        _set(self, "c0", c0)
        self._seal((n, area, alpha, c0))


def check_layer_count(h: int) -> None:
    """Raise PlanError unless the layer count h is an integer in 2..MAX_LAYERS."""
    if not isinstance(h, int) or h < 2:
        raise PlanError("h", f"layer count must be an integer >= 2, got {h!r}")
    if h > MAX_LAYERS:
        raise PlanError("h", f"layer count capped at {MAX_LAYERS}, got {h}")


def validate_plan(sizes: tuple[float, ...]) -> tuple[float, ...]:
    """Check a hierarchy given as its cluster sizes and return them as floats.

    sizes holds (M1, ..., M_{h-1}) top-down for an h-layer hierarchy:
    sizes[0] is the top-layer cluster size, each further entry the size one
    layer below. Sizes are real-valued; the fluid relaxation is the primary
    model. Raises PlanError naming the first violated invariant: the layer
    count, then the first size below MIN_CLUSTER or not finite, then the
    first index where the sizes stop strictly decreasing.
    """
    sizes = tuple(map(float, sizes))
    above = math.inf
    for m in sizes:
        # one pass accepts a valid plan; NaN and inf fail it
        if not MIN_CLUSTER <= m < above:
            break
        above = m
    else:
        if 0 < len(sizes) < MAX_LAYERS:
            return sizes
    # a plan that fails: the count is named first
    check_layer_count(len(sizes) + 1)
    for i, m in enumerate(sizes):
        if not (math.isfinite(m) and m >= MIN_CLUSTER):
            raise PlanError(
                "sizes", f"cluster size at index {i} must be >= {MIN_CLUSTER:g}, got {m}"
            )
    i = next(i for i in range(len(sizes) - 1) if not sizes[i] > sizes[i + 1])
    raise PlanError(
        "sizes",
        f"sizes must strictly decrease, violated at index {i}: "
        f"{sizes[i]:g} <= {sizes[i + 1]:g}",
    )
