"""Small numeric helpers: the saturating exponential, deterministic reductions.

``scaled_exp`` reports exponentials that exceed e^700 in magnitude as +/-inf
with a saturation flag; tables then fall back to the log-magnitude of the
modal kernel (``modal._mode_value``), which stays finite far beyond the float
range.  The rest are a least-squares slope, Simpson's rule and the DST-I.
"""

from __future__ import annotations

import math

import numpy as np

LOG_SATURATION = 700.0
LN2 = math.log(2.0)


def scaled_exp(x, log_scale, exponent=None):
    """Elementwise x * 2^exponent * exp(log_scale) with overflow saturation.

    Returns ``(value, saturated)`` arrays.  Where the log-magnitude of the
    product exceeds ``LOG_SATURATION`` the value is +/-inf (sign of ``x``)
    and the flag is set; otherwise the product is exact to rounding, also
    when exp(log_scale) alone would overflow.  The optional integer
    ``exponent`` is a power of two factored out of the data (``frexp``), so
    ``x`` keeps its digits where x * 2^exponent would be subnormal or
    overflow; where that product is a float it is used as is, exactly as
    without ``exponent``.  Underflow quietly gives 0.0, which is the honest
    limit.  Never returns nan for finite input.
    """
    x = np.asarray(x, dtype=float)
    log_scale = np.asarray(log_scale, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if exponent is None:
            full = x
            logmag = np.log(np.abs(x)) + log_scale
        else:
            full = np.ldexp(x, exponent)
            lost = np.ldexp(full, np.negative(exponent)) != x
            logmag = np.where(lost, np.log(np.abs(x)) + np.multiply(exponent, LN2),
                              np.log(np.abs(full))) + log_scale
        saturated = logmag > LOG_SATURATION
        in_logs = log_scale > 709.0
        if exponent is not None:
            in_logs = in_logs | lost
        value = np.where(in_logs, np.copysign(np.exp(logmag), x), full * np.exp(log_scale))
    return np.where(saturated, np.copysign(np.inf, x), value), saturated


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


def dst1(x, axis: int = -1) -> np.ndarray:
    """Type-I discrete sine transform along one axis, end samples included.

    For x of length M + 1 along ``axis`` (grid points j = 0..M) returns y of
    the same shape with

        y_n = sum_{j=1}^{M-1} x_j sin(pi n j / M),   n = 0..M,

    so the end samples x_0, x_M do not enter and y_0 = y_M = 0 exactly.  The
    transform is symmetric and squares to (M/2) I on the interior.  Computed
    as a real FFT of the odd extension of length 2M (Van Loan, Computational
    Frameworks for the FFT, SIAM 1992, section 4.4) in O(M log M).
    """
    x = np.moveaxis(np.asarray(x, dtype=float), axis, -1)
    m = x.shape[-1] - 1
    if m < 1:
        raise ValueError("dst1 needs at least two samples along the axis")
    ext = np.zeros(x.shape[:-1] + (2 * m,))
    ext[..., 1:m] = x[..., 1:m]
    ext[..., m + 1:] = -x[..., m - 1:0:-1]
    y = np.fft.rfft(ext, axis=-1).imag * -0.5
    y[..., 0] = 0.0
    y[..., m] = 0.0
    return np.moveaxis(y, -1, axis)


def fmt_float(x: float) -> str:
    """CSV float format: up to 17 significant digits, round-trip exact."""
    return format(x, ".17g")
