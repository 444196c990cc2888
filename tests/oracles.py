"""Brute-force counterparts of the closed-form machinery.

Everything here is reimplemented from the model description with plain
loops, bracketing searches or 50- and 60-digit arithmetic, and nothing
imports the package under test, except sweep_rows_per_config, which
builds sweep rows through the public API, a NetworkConfig per row.
Agreement between these and the closed forms is the point of the tests
that use them. The *_per_call functions are the exception: they keep the
package's own float operations as it took them on every call, before it
kept the factors of a rate pair or a depth, so they pin bits, not the model.
Two of them, smooth_forms_per_call and search_depth_per_call, are the row
kernels as they stood before each took log(n/2) once: they read each depth
from its public definition in the package, with its own check and log.
"""
import math

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def left_sum(values):
    """((0.0 + v0) + v1) + ...: the slot totals' order of addition, which the
    builtin sum() of floats does not keep from Python 3.12 on."""
    total = 0.0
    for v in values:
        total += v
    return total


def base_slots_by_enumeration(M, L_prime, R):
    """Schedule all M*M ordered pairs back to back and count the airtime."""
    total = 0.0
    for _ in range(int(M) * int(M)):
        total += L_prime / R
    return total


def slots_by_tree_walk(sizes, L, R, Q):
    """Expand the hierarchy into an explicit worklist and sum the airtime.

    Iterative on purpose: a stack of (layer index, block size, multiplicity)
    entries, where the multiplicity carries the accumulated time-sharing
    factor, so no code path is shared with the recursive implementation.
    """
    total = 0.0
    work = [(0, float(L), 1.0)]
    while work:
        i, load, weight = work.pop()
        M = sizes[i]
        if i == len(sizes) - 1:
            total += weight * (load / R) * M * M
            continue
        below = sizes[i + 1]
        total += weight * (M / below) * 2.0 * M * (load / R)
        work.append((i + 1, load * (Q / R) * (M / below), 4.0 * weight))
    return total


def delay_by_recursion(sizes, L, R, Q):
    """(slots, decomposition) of the slot recursion, walked recursively.

    Each level rebuilds the tuple below it with one more time-sharing
    factor of 4. The float operations are the ones delay_recursive's loop
    performs, in the same order, so the two must agree exactly.
    """

    def walk(sizes, L):
        if len(sizes) == 1:
            M = sizes[0]
            return ((L / R) * (M * M),)
        top, below = sizes[0], sizes[1]
        relay = (top / below) * 2.0 * top * (L / R)
        rest = walk(sizes[1:], L * (Q / R) * (top / below))
        return (relay,) + tuple(4 * x for x in rest)

    decomposition = walk(tuple(sizes), L)
    return left_sum(decomposition), decomposition


def bracket_by_formula(sizes, R, c):
    """(slots, terms) of the closed-form bracket, one term per layer.

    slots = (2*M1/R) * (M1/M2 + c*M2/M3 + ... + c**(h-2) * M_{h-1}/2): layer i
    (from 0) contributes lead * c**i * M_{i+1}/M_{i+2}, with lead = 2*M1*(1/R)
    and 2 standing in for the size below the bottom layer. Each term is
    evaluated left to right with c**i a pow, as delay_closed_form does, so
    the two must agree exactly.
    """
    sizes = [float(m) for m in sizes]
    lead = 2.0 * sizes[0] * (1.0 / R)
    terms = tuple(
        lead * c**i * m / below for i, (m, below) in enumerate(zip(sizes, sizes[1:] + [2.0]))
    )
    return left_sum(terms), terms


def golden_min(f, lo, hi, iters=200):
    """Golden-section minimum of a unimodal f on [lo, hi]; (argmin, min)."""
    a, b = float(lo), float(hi)
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def golden_max(f, lo, hi, iters=200):
    x, neg = golden_min(lambda t: -f(t), lo, hi, iters)
    return x, -neg


def grid_min(f, lo, hi, step):
    """Exhaustive scan at a fixed step; (argmin, min)."""
    best_x = None
    best_v = math.inf
    for k in range(int(round((hi - lo) / step)) + 1):
        x = lo + k * step
        v = f(x)
        if v < best_v:
            best_x, best_v = x, v
    return best_x, best_v


def coordinate_descent_min(f, start, brackets, sweeps=40, iters=120):
    """Cyclic golden-section descent, one coordinate at a time."""
    x = [float(v) for v in start]
    for _ in range(sweeps):
        for j in range(len(x)):
            def section(t, j=j):
                y = list(x)
                y[j] = t
                return f(y)

            x[j], _ = golden_min(section, brackets[j][0], brackets[j][1], iters)
    return x, f(x)


def balanced_top_by_formula(h, n, R, Q, c):
    """Balanced top size at depth h, or None when depth h does not fit n.

    The top size balancing exchange against long-range slots solves
    n = 8*(1 + Q/R)*c**((h-2)/2)*(M1/2)**(h/(h-1)). The depth fits when
    2 <= M1 < n and the equal-term bottom layer
    2*c**(-(h-2)/2)*(M1/2)**(1/(h-1)) holds at least 2 nodes. The float
    expressions follow the model's formulas term for term, so depths at a
    feasibility edge round alike.
    """
    e = (h - 1.0) / h
    try:
        load = 8.0 * (1.0 + Q / R) * c ** ((h - 2) / 2.0)
    except OverflowError:
        return None  # a load past float range leaves no room for a cluster
    M1 = 2.0 * load ** (-e) * float(n) ** e
    if not 2.0 <= M1 < n:
        return None
    if h > 2 and 2.0 * c ** (-(h - 2) / 2.0) * (M1 / 2.0) ** (1.0 / (h - 1.0)) < 2.0:
        return None
    return M1


def best_depth_by_scan(n, R, Q, c, h_max):
    """Best integer depth in 2..h_max by trying every one; None if none fits.

    A depth fits when balanced_top_by_formula gives it a top size. Its value
    is R/(h*(1 + R/Q)**((h-1)/h)*c**((h-1)/2)) * (n/2)**((h-1)/h), and the
    first of equal values wins.
    """
    best_h, best_value = None, -math.inf
    for h in range(2, h_max + 1):
        if balanced_top_by_formula(h, n, R, Q, c) is None:
            continue
        e = (h - 1.0) / h
        value = R / (h * (1.0 + R / Q) ** e * c ** ((h - 1) / 2.0)) * (n / 2.0) ** e
        if value > best_value:
            best_h, best_value = h, value
    return best_h


class Refused(Exception):
    """The refusal a per-call reference gives where the package raises
    InfeasibleError, with the same text."""


def depth_optimum_per_call(h, n, R, Q, c):
    """(M1, value) at depth h in 2..64, or None when the depth does not fit,
    with every power of c, of 1 + Q/R and of the load taken on the call.

    The float operations are depth_optimum's, in its order, as it took them
    before the factors that read no n were kept per depth: the package's
    figures must match these bit for bit.
    """
    try:
        load = 8.0 * (1.0 + Q / R) * c ** ((h - 2) / 2.0)
    except OverflowError:
        load = math.inf
    e = (h - 1.0) / h
    M1 = 2.0 * load ** (-e) * float(n) ** e
    if M1 < 2.0 or 2.0 * c ** (-((h - 2) * 1) / 2.0) * (M1 / 2.0) ** (1 / (h - 1.0)) < 2.0:
        return None
    pre = R / (h * (1.0 + R / Q) ** e * c ** ((h - 1) / 2.0))
    return M1, pre * (n / 2.0) ** e


def switch_point_per_call(h, c):
    """s_h = h*(h+1)*(log1p(1/h) + log(c)/2), taken on the call."""
    return h * (h + 1) * (math.log1p(1.0 / h) + 0.5 * math.log(c))


def search_per_call(n, R, Q, c, log_beta1, h_max):
    """The depth search's (h_exact, h_approx, h_int, M1, value), or None when
    no depth in 2..h_max fits, with every log and power but log_beta1 taken
    on the call.

    A = log(n/2) - log(1 + R/Q) and a = log(c)/2. It tests A > s_h at
    h = floor(h*) clamped to 2..h_max, then walks down from h past depths
    that depth_optimum_per_call refuses.
    """
    half = n / 2.0
    h_approx = math.sqrt(math.log(half) / log_beta1)
    A = math.log(half) - math.log(1.0 + R / Q)
    a = 0.5 * math.log(c)
    h_exact = 2.0 * A / (1.0 + math.sqrt(1.0 + 4.0 * a * A)) if A > 0.0 else 0.0
    h = min(max(math.floor(h_exact), 2), h_max)
    if h < h_max and A > switch_point_per_call(h, c):
        best = depth_optimum_per_call(h + 1, n, R, Q, c)
        if best is not None:
            return (h_exact, h_approx, h + 1, *best)
    for h in range(h, 1, -1):
        best = depth_optimum_per_call(h, n, R, Q, c)
        if best is not None:
            return (h_exact, h_approx, h, *best)
    return None


def minimal_delay_per_call(h, M1, R, c):
    """(slots, terms) of the equal-term delay at depth h in 2..64, with every
    power taken on the call; Refused, with the package's text, for a top
    size that is not finite or under 2 nodes, or a bottom layer under 2."""
    if not (math.isfinite(M1) and M1 >= 2.0):
        raise Refused(f"top cluster must hold >= 2 nodes, got {M1}")
    bottom = 2.0 * c ** (-((h - 2) * 1) / 2.0) * (M1 / 2.0) ** (1 / (h - 1.0))
    if bottom < 2.0:
        raise Refused(
            f"depth h={h} does not fit below M1={M1:g}: bottom cluster size "
            f"{bottom:.6g} is below 2"
        )
    term = 2.0 * M1 * (1.0 / R) * c ** ((h - 2) / 2.0) * (M1 / 2.0) ** (1.0 / (h - 1))
    return (h - 1) * term, (term,) * (h - 1)


def smooth_forms_per_call(n, params):
    """throughput._smooth_forms's (smooth report, T_orig, closed-form ratio),
    with the two-phase root from params.smooth_depth and the three-phase
    depth from throughput.original_optimal_layers: two checks of n and two
    logs of n/2 per call. The smooth report is a plain tuple. A power of
    beta past float range is inf, so the closed-form ratio is too."""
    from hiercoop.params import smooth_depth
    from hiercoop.throughput import original_optimal_layers

    root = smooth_depth(n, params)
    c_n = (1.0 + params.R / params.Q) ** (1.0 - 1.0 / root)
    exponent = 1.0 - 2.0 / root
    pre = params.beta1 * params.R / (c_n * root)
    smooth = (pre * (n / 2.0) ** exponent, root, None, None, pre, exponent, c_n)
    h = original_optimal_layers(n, params)
    original = params.beta * params.R / h * (n / 2.0) ** (1.0 - 2.0 / h)
    front = params.beta1 * params.depth_ratio / (c_n * params.beta)
    try:
        closed = front * params.beta ** (2.0 * (1.0 - params.depth_ratio) * h)
    except OverflowError:
        closed = front * math.inf
    return smooth, original, closed


def search_depth_per_call(n, params, h_max):
    """optimizer._search_depth's (h_exact, h_approx, h_int, M1, value), or None
    when no depth in 2..h_max fits, with h_approx from params.smooth_depth
    and A from a log of n/2 of its own: two logs per call. The depths come
    from the package's depth table, as the search reads them."""
    from hiercoop.optimizer import _depth_factors, _depth_optimum
    from hiercoop.params import smooth_depth

    h_approx = smooth_depth(n, params)
    A = math.log(n / 2.0) - params.log_1_plus_R_over_Q
    a = params.half_log_c
    h_exact = 2.0 * A / (1.0 + math.sqrt(1.0 + 4.0 * a * A)) if A > 0.0 else 0.0
    h = min(max(math.floor(h_exact), 2), h_max)
    if h < h_max and A > (params._depths[h] or _depth_factors(h, params)).switch:
        best = _depth_optimum(h + 1, n, params)
        if best is not None:
            return (h_exact, h_approx, h + 1, *best)
    for h in range(h, 1, -1):
        best = _depth_optimum(h, n, params)
        if best is not None:
            return (h_exact, h_approx, h, *best)
    return None


def row_forms_per_call(n, R, Q, beta1, beta, c, log_beta1, h_max):
    """(search, smooth, original, closed) at (n, h_max), with every log of the
    rate pair but log_beta1 taken here on each call.

    search is the depth search's (h_exact, h_approx, h_int, M1, value), or
    None when no depth in 2..h_max fits; smooth is the smooth report's
    (value, h_used, M1_used, phase_slots, pre_constant, exponent, c_n), and
    original and closed are T_orig and the closed-form ratio.
    A = log(n/2) - log(1 + R/Q), a = log(c)/2, log(beta) and
    sqrt(log_beta1/log(beta)), the root taken twice, follow the closed forms
    operation for operation, so constants taken once per rate pair must
    reproduce every figure bit for bit. The search is search_per_call's.
    """
    half = n / 2.0
    search = search_per_call(n, R, Q, c, log_beta1, h_max)
    root = math.sqrt(math.log(half) / log_beta1)
    c_n = (1.0 + R / Q) ** (1.0 - 1.0 / root)
    exponent = 1.0 - 2.0 / root
    pre = beta1 * R / (c_n * root)
    smooth = (pre * half ** exponent, root, None, None, pre, exponent, c_n)
    log_beta = math.log(beta)
    h_orig = math.sqrt(math.log(half) / log_beta)
    original = beta * R / h_orig * half ** (1.0 - 2.0 / h_orig)
    log_b_b1 = log_beta1 / log_beta
    front = beta1 * math.sqrt(log_b_b1) / (c_n * beta)
    closed = front * beta ** (2.0 * (1.0 - math.sqrt(log_b_b1)) * h_orig)
    return search, smooth, original, closed


def depth_log_values(n, R, Q, c, h_max):
    """{h: log of the depth-h throughput} over the depths in 2..h_max that
    fit (balanced_top_by_formula), as 60-digit mpmath numbers.

    The log is log R - log h - e*log(1 + R/Q) - (h-1)/2*log c + e*log(n/2)
    with e = (h-1)/h, taken from the float inputs as exact binary values.
    Nothing is exponentiated, so no value overflows or underflows at any R;
    c = inf gives -inf at every depth that fits. The argmax is the depth whose value
    is max(values.values()).
    """
    import mpmath  # test-only, as in depth_constants_50_digits

    with mpmath.workdps(60):
        log_r = mpmath.log(mpmath.mpf(R))
        log_b = mpmath.log(1 + mpmath.mpf(R) / mpmath.mpf(Q))
        log_c = mpmath.log(mpmath.mpf(c))
        x = mpmath.log(mpmath.mpf(n) / 2)
        values = {}
        for h in range(2, h_max + 1):
            if balanced_top_by_formula(h, n, R, Q, c) is not None:
                e = mpmath.mpf(h - 1) / h
                log_pre = log_r - mpmath.log(h) - e * log_b - mpmath.mpf(h - 1) / 2 * log_c
                values[h] = log_pre + e * x
        return values


def depth_constants_50_digits(n, R, Q, c):
    """T1_smooth, ratio, h_approx, h_exact and upper_bound at (n, R, Q), to
    50 digits.

    The float inputs are taken as exact binary values. With
    beta1 = 2*sqrt(Q/R), beta = 2*sqrt(1 + Q/R) and h1 = sqrt(log_beta1(n/2)):

        h_approx  = h1
        T1_smooth = beta1*R/(c_n*h1) * (n/2)**(1 - 2/h1),
                    c_n = (1 + R/Q)**(1 - 1/h1)
        upper_bound = beta1*R * (n/2)**(1 - 2/h1)
        ratio     = T1_smooth / (beta*R/h * (n/2)**(1 - 2/h)),
                    h = sqrt(log_beta(n/2))

    h_exact is the stationary point of the per-depth throughput
    R/(h*(1 + R/Q)**((h-1)/h)*c**((h-1)/2)) * (n/2)**((h-1)/h) in h, taken
    with the given c: its log is const - log h - a*h - A/h with
    a = log(c)/2 and A = log(n/2) - log(1 + R/Q), so a*h**2 + h - A = 0.
    The textbook root (sqrt(1 + 4aA) - 1)/(2a) cancels as a -> 0, which 50
    digits absorb. Results are rounded to floats.
    """
    import mpmath  # test-only; the other oracles need nothing beyond the stdlib

    with mpmath.workdps(50):
        R, Q, c = mpmath.mpf(R), mpmath.mpf(Q), mpmath.mpf(c)
        half = mpmath.mpf(n) / 2
        beta1 = 2 * mpmath.sqrt(Q / R)
        beta = 2 * mpmath.sqrt(1 + Q / R)
        h1 = mpmath.sqrt(mpmath.log(half) / mpmath.log(beta1))
        c_n = (1 + R / Q) ** (1 - 1 / h1)
        t1 = beta1 * R / (c_n * h1) * half ** (1 - 2 / h1)
        h = mpmath.sqrt(mpmath.log(half) / mpmath.log(beta))
        t_orig = beta * R / h * half ** (1 - 2 / h)
        a = mpmath.log(c) / 2
        A = mpmath.log(half) - mpmath.log(1 + R / Q)
        h_exact = (mpmath.sqrt(1 + 4 * a * A) - 1) / (2 * a)
        return {
            "T1_smooth": float(t1),
            "ratio": float(t1 / t_orig),
            "h_approx": float(h1),
            "h_exact": float(h_exact),
            "upper_bound": float(beta1 * R * half ** (1 - 2 / h1)),
        }


def sweep_rows_per_config(n_grid, cfg, params, c_mh, log_base, nu):
    """compare_schemes's (n, extras, error) rows, built from classify and the metrics.

    A constant no row can use, nu not finite and >= 0, a log base not finite
    and above 1 or a fixed area whose area**(alpha/2) overflows, raises
    DomainError before the first row, in that order. Each
    row builds a validated NetworkConfig(n, area_n, alpha, c0) and reads its
    area factor as classify(...).factor before the metrics, so a bad n, an
    overflowing n**nu or its demand, a failed metric and a non-finite metric
    are named in that order. An int n past float range is a bad n: the
    DomainError that names its bit length, from area_from_exponent or
    NetworkConfig, whichever reads it first. The other constants are taken
    as valid and the grid as strictly increasing.
    """
    import hiercoop as hc

    if nu is not None:
        hc.area.check_area_exponent(nu)
    if not (log_base > 1.0 and math.isfinite(log_base)):
        raise hc.DomainError(f"log base must exceed 1 and be finite, got {log_base}")
    if nu is None:
        hc.classify(cfg)
    rows = []
    for n in n_grid:
        try:
            area = cfg.area
            if nu is not None and isinstance(n, int) and n >= 4:
                area = hc.area_from_exponent(n, nu)
            factor = hc.classify(hc.NetworkConfig(n, area, cfg.alpha, cfg.c0)).factor
            both = hc.optimal_modified(n, params)
            extras = {"T1_smooth": both.smooth.value}
            if both.integer is not None:
                extras["T1_int"] = both.integer.value
            extras["T_orig"] = hc.original_throughput(n, params)
            extras["multihop"] = hc.multihop_baseline(n, c_mh)
            extras["ratio"] = hc.ratio_original(n, params)
            extras["ratio_log_adj"] = hc.ratio_log_adjusted(n, log_base, params)
            extras["per_pair"] = hc.per_pair_rate(n, params)
            extras["area_factor"] = factor
            for key, value in extras.items():
                if not math.isfinite(value):
                    raise ValueError(f"metric {key} is not finite at n={n}")
        except (ValueError, OverflowError) as exc:
            rows.append((n, {}, str(exc)))
        else:
            rows.append((n, extras, None))
    return rows
