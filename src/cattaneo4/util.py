"""Small numeric helpers: the saturating exponential, deterministic reductions.

``scaled_exp`` reports exponentials that exceed e^700 in magnitude as +/-inf
with a saturation flag, and their log-magnitude, which stays finite far beyond
the float range; tables read both through ``modal._state``.  It writes the
value into the array it is given and makes two buffers of its own, the
log-magnitudes and exp(log_scale).  The rest are a least-squares slope, the
composite Simpson weights and the DST-I.
"""

from __future__ import annotations

import math

import numpy as np

LOG_SATURATION = 700.0
LN2 = math.log(2.0)


def scaled_exp(x, log_scale, exponent=None):
    """Elementwise x * 2^exponent * exp(log_scale) with overflow saturation.

    Returns ``(value, saturated, logmag)`` arrays, logmag the product's
    log-magnitude.  Where it exceeds ``LOG_SATURATION`` the value is +/-inf
    (sign of ``x``) and the flag is set.  Elsewhere, while exp(log_scale) is
    a normal float (log_scale in [-708, 709]), the value is x exp(log_scale),
    exact to rounding.  The optional integer ``exponent`` is a power of two
    factored out of the data (``frexp``), so that ``x`` keeps its digits: then
    exp(log_scale) = m 2^q is split by ``frexp`` and the powers of two are
    applied last, ldexp(x m, q + exponent), which cannot overflow before the
    end.  Outside that range of log_scale the value is the exp of its
    log-magnitude, which costs about |log-magnitude| ulps, where a subnormal
    or infinite exp(log_scale) would cost its digits.  Underflow quietly
    gives 0.0, which is the honest limit.  Never returns nan for finite input.

    ``x`` is a float array of the full shape (log_scale and exponent
    broadcast to it) that the caller hands over: the value is written into
    it and returned.  Two buffers are new: logmag, of x's shape, and
    exp(log_scale), of log_scale's, made once for every row of x.  The
    entries past the saturation or outside that range, few as a rule, are
    patched from a copy of their x taken before the product.
    """
    log_scale = np.asarray(log_scale, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        logmag = np.abs(x, out=np.empty(x.shape))
        np.log(logmag, out=logmag)
        if exponent is not None:
            np.add(logmag, np.multiply(exponent, LN2), out=logmag)
        np.add(logmag, log_scale, out=logmag)
        saturated = logmag > LOG_SATURATION
        patch = np.flatnonzero(saturated | ((log_scale > 709.0) | (log_scale < -708.0)))
        kept, sat, mag = x.flat[patch], saturated.flat[patch], logmag.flat[patch]
        if exponent is None:
            np.multiply(x, np.exp(log_scale), out=x)
        else:
            mantissa, power = np.frexp(np.exp(log_scale))
            np.ldexp(np.multiply(x, mantissa, out=x), power + exponent, out=x)
        x.flat[patch] = np.where(sat, np.copysign(np.inf, kept), np.copysign(np.exp(mag), kept))
    return x, saturated, logmag


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
