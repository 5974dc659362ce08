"""Small numeric helpers: saturating exponentials, deterministic reductions.

Exponentials that exceed e^700 in magnitude are reported as +/-inf with a
saturation flag; tables then fall back to the log-magnitude, which stays
finite and comparable far beyond the float range.
"""

from __future__ import annotations

import math

import numpy as np

LOG_SATURATION = 700.0


def scaled_exp(x, log_scale):
    """Elementwise x * exp(log_scale) with overflow saturation.

    Returns ``(value, saturated)`` arrays.  Where log|x| + log_scale exceeds
    ``LOG_SATURATION`` the value is +/-inf (sign of ``x``) and the flag is
    set; otherwise the product is exact to rounding, also when exp(log_scale)
    alone would overflow.  Underflow quietly gives 0.0, which is the honest
    limit.  Never returns nan for finite input.
    """
    x = np.asarray(x, dtype=float)
    log_scale = np.asarray(log_scale, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        logmag = np.log(np.abs(x)) + log_scale
        saturated = logmag > LOG_SATURATION
        value = np.where(log_scale > 709.0, np.copysign(np.exp(logmag), x),
                         x * np.exp(log_scale))
    return np.where(saturated, np.copysign(np.inf, x), value), saturated


def exp_term(coeff: float, rate: float, t: float) -> tuple[float, bool]:
    """Scalar coeff * exp(rate * t) with the saturation of ``scaled_exp``."""
    value, saturated = scaled_exp(coeff, rate * t)
    return float(value), bool(saturated)


def log_abs_exp_sum(terms) -> tuple[float, float]:
    """Log-magnitude and sign of ``sum_i s_i * exp(l_i)``.

    ``terms`` is an iterable of ``(sign, log_magnitude)`` pairs; zero terms are
    passed as ``(0.0, -inf)``.  Works far outside the float range.  Returns
    ``(sign, log|sum|)`` with ``(0.0, -inf)`` for an exactly cancelled sum.
    """
    terms = [(math.copysign(1.0, s), l) for s, l in terms
             if s != 0.0 and l != -math.inf]
    if not terms:
        return 0.0, -math.inf
    lmax = max(l for _, l in terms)
    acc = math.fsum(s * math.exp(l - lmax) for s, l in terms)
    if acc == 0.0:
        return 0.0, -math.inf
    return math.copysign(1.0, acc), lmax + math.log(abs(acc))


def fit_slope(xs, ys) -> float:
    """Least-squares slope of ys against xs, accumulated with fsum."""
    n = len(xs)
    if n < 2 or n != len(ys):
        raise ValueError("need at least two paired points for a slope fit")
    xbar = math.fsum(xs) / n
    ybar = math.fsum(ys) / n
    sxx = math.fsum((x - xbar) ** 2 for x in xs)
    if sxx == 0.0:
        raise ValueError("degenerate abscissae in slope fit")
    sxy = math.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    return sxy / sxx


def simpson_weights(n: int) -> np.ndarray:
    """Composite Simpson weights 1, 4, 2, ..., 2, 4, 1 for n samples (times h/3)."""
    if n < 3 or n % 2 == 0:
        raise ValueError("composite Simpson needs an odd sample count >= 3")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w


def simpson(values, h: float) -> float:
    """Composite Simpson rule over uniformly spaced samples with spacing h,
    accumulated with compensated (fsum) summation."""
    if not h > 0.0:
        raise ValueError("h must be positive")
    values = np.asarray(values, dtype=float)
    return math.fsum((simpson_weights(values.size) * values).tolist()) * h / 3.0


def fmt_float(x: float) -> str:
    """CSV float format: up to 17 significant digits, round-trip exact."""
    return format(x, ".17g")
