"""Brute-force counterparts of the closed-form machinery.

Everything here is reimplemented from the model description with plain
loops, bracketing searches or 50- and 60-digit arithmetic, and nothing
imports the package under test. Agreement between these and the closed
forms is the point of the tests that use them.
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
