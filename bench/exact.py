"""Independent 50-digit reference for the smooth-depth closed forms.

Written from the formulas in hiercoop's docstrings, evaluated with mpmath,
and sharing no code with hiercoop:

    beta1 = 2*sqrt(Q/R),  beta = 2*sqrt(1 + Q/R),  lg = log_beta1(n/2)
    T1_smooth = beta1*R / (c_n*sqrt(lg)) * (n/2)**(1 - 2/sqrt(lg)),
                c_n = (1 + R/Q)**(1 - 1/sqrt(lg))
    T_orig    = beta*R / h * (n/2)**(1 - 2/h),  h = sqrt(log_beta(n/2))
    ratio     = T1_smooth / T_orig
    per_pair  = T1_smooth / n

The float inputs R and Q are taken as exact binary values, so the reference
answers the same question the program was asked.
"""
from __future__ import annotations

import math

import mpmath

DIGITS = 50

#: Relative errors below one unit in the last place of a double count as exact,
#: which caps the digit count at -log10(2**-53), about 15.95.
REL_FLOOR = 2.0**-53


def reference(n: int, R: float, Q: float) -> dict[str, mpmath.mpf]:
    """The four metrics at network size n and rate pair (R, Q)."""
    with mpmath.workdps(DIGITS):
        R, Q = mpmath.mpf(R), mpmath.mpf(Q)
        half = mpmath.mpf(n) / 2
        beta1 = 2 * mpmath.sqrt(Q / R)
        beta = 2 * mpmath.sqrt(1 + Q / R)
        root = mpmath.sqrt(mpmath.log(half) / mpmath.log(beta1))
        c_n = (1 + R / Q) ** (1 - 1 / root)
        t1 = beta1 * R / (c_n * root) * half ** (1 - 2 / root)
        h = mpmath.sqrt(mpmath.log(half) / mpmath.log(beta))
        t_orig = beta * R / h * half ** (1 - 2 / h)
        return {"T1_smooth": t1, "T_orig": t_orig, "ratio": t1 / t_orig, "per_pair": t1 / n}


def digits(value: float, exact: mpmath.mpf) -> float:
    """Correct decimal digits of value: -log10 of its relative error."""
    with mpmath.workdps(DIGITS):
        rel = float(abs((mpmath.mpf(value) - exact) / exact))
    return -math.log10(max(rel, REL_FLOOR))
