"""Per-mode closed-form solutions of the fourth-order Cattaneo equation.

Expanding in Dirichlet eigenfunctions turns theta'' = -a theta' + b d_xx theta
- c d_xx theta'' into one scalar ODE per mode,

    (1 - c lam2) theta_n'' + a theta_n' + b lam2 theta_n = 0,

with lam2 = lambda_n^2 > 0.  For 1 - c lam2 != 0 this is second order with
characteristic roots

    r_pm = (-a +/- delta) / (2 (1 - c lam2)),

delta = sqrt(a^2 - 4 b lam2 (1 - c lam2)); the sign of the discriminant picks
real-distinct, double-root, or complex-pair behaviour.  At c = 1/lam2 the
order drops: a theta' + b lam2 theta = 0, which is solvable iff the data
satisfy the compatibility condition beta/alpha = -(b/a) lam2, and then
theta_n(t) = alpha exp(-(b lam2 / a) t).

Root formulas are arranged to avoid cancellation: r_plus is computed as
-2 b lam2 / (a + delta), which is exact in the limit delta -> a where the
naive (-a + delta) form loses all digits.

``_generator`` forms a mode's quadratic (1 - c lam2, a, b lam2), the one place
that does; ``second_order_roots`` solves it once, elementwise, into a
``CharacteristicRoots`` record.  ``evolve_modes`` evaluates one mode or an
array of them, first-order modes included; ``characteristic_roots`` gives
the record of second-order modes and their regime, elementwise.  ``_state``
evaluates every mode, first or second order, for ``evolve_modes`` and the
scans, and a telegraph mode tau theta'' + theta' = kappa d_xx theta on its
generator (tau, 1, kappa lam2); ``_factors`` (exp(A t)), ``_companion`` (A)
and ``_finish`` (scaled, rescued, saturated states) serve it and
``boundary`` alike.  ``scaled_exp``, the saturating exponential, writes the
states into ``_finish``'s buffer: +/-inf with the flag set past e^700,
log-magnitudes finite far beyond it.
The chain works on buffers: each step allocates the arrays it returns, and
a few work arrays, once per call, and writes every operation into them with
``out=`` and ``where=``; work arrays die with the call that made them.  Each
entry still sees the same floating-point operations in the same order as
in the out-of-place form kept in ``tests/oracle.py``, so every value, flag
and log-magnitude is the same to the bit.
The gates are constants: a mode is first order when |1 - c lam2| <=
DEGENERATE_TOL max(1, c lam2), its data are compatible when |beta - rate
alpha| <= COMPAT_TOL max(1, |rate|) |alpha|, and ``solver.check_wellposed``
calls c near-exceptional within NEAR_TOL of a member.  ``ParameterSet`` holds
(a, b, c) alone; ``_physical_map`` is the one map from (chi, sigma, gamma_rho).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateModeError, UnsolvableModeError

# Relative width of the degeneracy gate on |1 - c lam2| (see is_degenerate).
DEGENERATE_TOL = 1e-12
# Relative tolerance of the product-form compatibility test (see _compatible).
COMPAT_TOL = 1e-9
# Absolute distance to an exceptional member that check_wellposed calls near.
NEAR_TOL = 1e-9
# Log-magnitude past which scaled_exp saturates a value to +/-inf.
LOG_SATURATION = 700.0
LN2 = math.log(2.0)


def _check_positive(**values) -> None:
    """ValueError naming the first value that is not positive and finite."""
    for name, v in values.items():
        if not (v > 0.0 and math.isfinite(v)):
            raise ValueError(f"{name} must be positive and finite")


def _physical_map(chi, sigma, gamma_rho):
    """(a, b, c) = (chi / sigma, chi^2 / (sigma gamma_rho), sigma / gamma_rho),
    elementwise, so that b sigma gamma_rho = chi^2."""
    return chi / sigma, chi * chi / (sigma * gamma_rho), sigma / gamma_rho


@dataclass(frozen=True)
class ParameterSet:
    """Coefficients (a, b, c) of the normalized equation, all positive;
    ``from_physical`` maps the physical triple (chi, sigma, gamma_rho) to them."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        _check_positive(a=self.a, b=self.b, c=self.c)

    @classmethod
    def from_physical(cls, chi: float, sigma: float, gamma_rho: float) -> "ParameterSet":
        _check_positive(chi=chi, sigma=sigma, gamma_rho=gamma_rho)
        try:
            return cls(*_physical_map(chi, sigma, gamma_rho))
        except ValueError as exc:   # e.g. a subnormal sigma overflows a = chi/sigma
            raise ValueError(f"(chi, sigma, gamma_rho) = ({chi!r}, {sigma!r}, {gamma_rho!r}) "
                             f"maps outside the floats: {exc}") from None


def is_degenerate(c: float, lambda_sq):
    """Whether |1 - c lam2| <= DEGENERATE_TOL max(1, c lam2), elementwise.

    A mode inside the gate is first order.  ``evolve_modes``,
    ``characteristic_roots``, ``solver.check_wellposed``,
    ``boundary._lift_gate``, ``experiments.limit1_scan`` and
    ``experiments._whole_line`` all decide with this one test.
    """
    return _first_order(_generator(1.0, 1.0, c, np.asarray(lambda_sq, dtype=float))[0])


def _first_order(leading):
    """The ``is_degenerate`` gate on a formed leading = 1 - c lam2, with 1 -
    leading for c lam2: they are equal wherever c lam2 lies in [1/2, 2]
    (Sterbenz's lemma), and elsewhere neither gate fires short of c lam2 = inf."""
    return np.abs(leading) <= DEGENERATE_TOL * np.maximum(1.0, 1.0 - leading)


def _generator(a, b, c, lambda_sq):
    """(1 - c lam2, a, b lam2), elementwise: the one place a mode's quadratic is formed."""
    return 1.0 - c * lambda_sq, a, b * lambda_sq


def _compatible(rate, alpha, beta):
    """The compatibility condition beta = rate alpha in product form,
    |beta - rate alpha| <= COMPAT_TOL max(1, |rate|) |alpha|, elementwise.

    A subnormal alpha, whose quotient beta/alpha loses its digits, is judged
    as accurately as the product allows; alpha = 0 needs beta = 0 exactly.
    Infinite data (rejected on degenerate modes first) raise no warning.
    """
    with np.errstate(invalid="ignore"):
        return (np.abs(beta - rate * alpha)
                <= COMPAT_TOL * np.maximum(1.0, np.abs(rate)) * np.abs(alpha))


class CharacteristicRoots(NamedTuple):
    """Roots of leading r^2 + damping r + stiffness = 0, elementwise, from
    ``second_order_roots``: real r_plus and r_minus with freq = 0, or the pair
    mu_plus, mu_minus = r_plus +/- i freq with r_plus == r_minus and freq > 0;
    ``kind`` is 'real_distinct', 'double' or 'complex_pair'."""

    delta_sq: np.ndarray
    delta: np.ndarray
    r_plus: np.ndarray
    r_minus: np.ndarray
    freq: np.ndarray

    kind = property(lambda self: np.where(self.delta_sq > 0.0, "real_distinct", np.where(
        self.delta_sq < 0.0, "complex_pair", "double")))
    mu_plus = property(lambda self: self.r_plus + 1j * self.freq)
    mu_minus = property(lambda self: self.r_minus - 1j * self.freq)


def second_order_roots(leading, damping, stiffness) -> CharacteristicRoots:
    """Roots of leading r^2 + damping r + stiffness = 0, elementwise.

    Returns the record (delta_sq, delta, r_plus, r_minus, freq), delta_sq =
    damping^2 - 4 stiffness leading and delta = sqrt(|delta_sq|).  Real
    distinct roots (delta_sq > 0) use the cancellation-free forms

        r_plus = -2 stiffness / (damping + delta),
        r_minus = -(damping + delta) / (2 leading);

    (-damping + delta) would lose every digit when stiffness * leading is tiny.
    For a double root or a complex pair both entries hold the real part
    -damping / (2 leading), and freq = delta / (2|leading|) (0 for real roots).
    Rows with damping < 0 are negated first, which keeps the roots and keeps
    damping + delta free of cancellation.

    Each field is one buffer of the broadcast shape, written in place, and
    one more for 2 leading dies here.  r_plus is -damping / (2 leading) until
    the real-root form overwrites it where delta_sq > 0; freq holds -2
    stiffness there until then.
    """
    leading, damping, stiffness = (np.asarray(v, dtype=float)
                                   for v in (leading, damping, stiffness))
    shape = np.broadcast_shapes(leading.shape, damping.shape, stiffness.shape)
    if (damping < 0.0).any():
        flip = np.where(damping < 0.0, -1.0, 1.0)
        leading, damping, stiffness = leading * flip, damping * flip, stiffness * flip
    r_plus, r_minus, freq = np.empty(shape), np.zeros(shape), np.empty(shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        delta_sq = np.multiply(4.0, stiffness, out=np.empty(shape))
        np.multiply(delta_sq, leading, out=delta_sq)
        np.subtract(damping * damping, delta_sq, out=delta_sq)
        delta = np.abs(delta_sq, out=np.empty(shape))
        np.sqrt(delta, out=delta)
        real = delta_sq > 0.0
        two_leading = np.multiply(2.0, leading, out=np.empty(shape))
        np.divide(np.negative(damping), two_leading, out=r_plus)
        np.copyto(r_minus, delta, where=real)
        np.add(damping, r_minus, out=r_minus)            # damping + delta where real
        np.multiply(-2.0, stiffness, out=freq, where=real)
        np.divide(freq, r_minus, out=r_plus, where=real)
        np.divide(np.negative(r_minus, out=r_minus), two_leading, out=r_minus)
        freq.fill(0.0)
        np.divide(delta, np.abs(two_leading, out=two_leading), out=freq, where=delta_sq < 0.0)
    return CharacteristicRoots(delta_sq, delta, r_plus, r_minus, freq)


def _factors(r_plus, r_minus, freq, tau: float):
    """exp(A tau) = e^log_scale (phi0 I + phi1 A) at one time tau, from the
    eigenvalues of A (after Moler & Van Loan, SIAM Rev. 45, 2003).

    The root whose exponent mu tau is larger (r_plus where r_plus tau >=
    r_minus tau) is factored out as log_scale; the other one, oth, sits gap
    = oth - dom away, so g = gap tau <= 0 and

        phi1 = expm1(g) / gap,   phi0 = e^g - oth phi1,

    the first divided difference of exp and the identity e^{oth tau} =
    phi0 + oth phi1 (equal to 1 - dom phi1, but a sum of two terms of one
    sign whenever oth < 0).  Where g = 0 (a double root, tau = 0, or gap tau
    below the float range) phi1 = tau; a complex pair dom +/- i freq gives
    phi1 = sin(freq tau)/freq.  phi0 and phi1, of the size of 1 and tau,
    stay finite however large log_scale is.

    Six buffers of the roots' shape, each reused once it is dead: r_plus
    tau, then dom; r_minus tau, which takes r_plus tau where that is the
    larger and so is log_scale = dom tau without a third product; oth, then
    freq tau; gap, then oth phi1; g, then phi0; and phi1.  phi0, phi1 and
    log_scale are returned, the other three die here.
    """
    tau = float(tau)
    shape = np.broadcast_shapes(np.shape(r_plus), np.shape(r_minus), np.shape(freq))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dom = np.multiply(r_plus, tau, out=np.empty(shape))
        log_scale = np.multiply(r_minus, tau, out=np.empty(shape))
        first = dom >= log_scale
        np.copyto(log_scale, dom, where=first)       # dom tau
        np.copyto(dom, r_minus)
        np.copyto(dom, r_plus, where=first)
        oth = np.empty(shape)
        np.copyto(oth, r_plus)
        np.copyto(oth, r_minus, where=first)
        gap = np.subtract(oth, dom, out=np.empty(shape))
        g = np.multiply(gap, tau, out=np.empty(shape))
        phi1 = np.expm1(g, out=np.empty(shape))
        np.divide(phi1, gap, out=phi1)
        fixed = g == 0.0    # a double root, tau = 0, or gap tau below the float range
        if fixed.any():
            np.copyto(phi1, tau, where=fixed)
        phi0 = np.exp(g, out=g)
        phi0 -= np.multiply(oth, phi1, out=gap)
        cplx = freq > 0.0
        if cplx.any():
            w = np.multiply(freq, tau, out=oth)
            np.sin(w, out=phi1, where=cplx)
            np.divide(phi1, freq, out=phi1, where=cplx)
            np.multiply(dom, phi1, out=phi0, where=cplx)
            np.subtract(np.cos(w, out=w, where=cplx), phi0, out=phi0, where=cplx)
    return phi0, phi1, log_scale


def _companion(r_plus, r_minus, freq):
    """(k, -h) of A = [[0, 1], [k, -h]] from the roots: the one place A is formed."""
    shape = np.broadcast_shapes(np.shape(r_plus), np.shape(r_minus), np.shape(freq))
    k = np.multiply(r_plus, r_minus, out=np.empty(shape))
    minus_h = np.multiply(freq, freq, out=np.empty(shape))
    np.negative(np.add(k, minus_h, out=k), out=k)
    return k, np.add(r_plus, r_minus, out=minus_h)


def _product(phi0, phi1, k, minus_h, x, y, out=None):
    """(phi0 I + phi1 A)(x, y) for A = [[0, 1], [k, minus_h]], elementwise, as
    the two rows of one array: ``out`` (sharing no memory with x or y) or a
    new one; one scratch row dies here."""
    shape = np.broadcast_shapes(*map(np.shape, (phi0, phi1, k, minus_h, x, y)))
    if out is None:
        out = np.empty((2,) + shape)
    value, deriv, work = out[0, ...], out[1, ...], np.empty(shape)
    np.add(np.multiply(phi0, x, out=value), np.multiply(phi1, y, out=work), out=value)
    np.add(np.multiply(k, x, out=deriv), np.multiply(minus_h, y, out=work), out=deriv)
    np.multiply(phi1, deriv, out=deriv)
    np.add(np.multiply(phi0, y, out=work), deriv, out=deriv)
    return out


def _finish(phi0, phi1, log_scale, k, minus_h, alpha, beta, forcing=None):
    """(theta, theta', saturated, log|theta|) of W = e^log_scale [(phi0 I +
    phi1 A)(alpha, beta) + d (p1, p2)], A = [[0, 1], [k, minus_h]], from the
    scaled factors of ``_factors``; without a forcing (d, p1, p2) no term is
    added.

    Values past e^700 saturate to +/-inf with the flag set; log|theta| stays
    finite.  An entry that would lose digits (``_digits_lost``), and no
    other, has the power of two at its largest datum, |alpha|, |beta| or |d|
    max(|p1|, |p2|), factored out (split between d and (p1, p2)), so
    subnormal data keep their digits (Higham, Accuracy and Stability, 2nd
    ed., 2.1).

    W is one (2, ...) buffer, value over derivative, that ``_product`` fills
    and one ``scaled_exp`` call turns into the states in place; theta and
    theta' are its rows, log|theta| the first row of the log-magnitudes.
    The factors stay bound until ``scaled_exp`` has run, as the callers hold
    them: handed over and dropped before it, they left the page faults of an
    ``evolve`` benchmark operation as they were (63 against 64) and were
    slower in 6 of 6 paired runs (median op_ms 1.79 -> 1.87 ms).
    """
    shape = np.broadcast_shapes(*map(np.shape, (phi0, phi1, log_scale, k, minus_h, alpha, beta,
                                                *(forcing or ()))))
    pair = np.empty((2,) + shape)

    def combine(alpha, beta, forcing):
        _product(phi0, phi1, k, minus_h, alpha, beta, out=pair)
        if forcing is not None:
            d, p1, p2 = forcing
            np.add(pair[0, ...], d * p1, out=pair[0, ...])
            np.add(pair[1, ...], d * p2, out=pair[1, ...])

    combine(alpha, beta, forcing)
    exponent = None
    if (lost := _digits_lost(pair)) is not None:
        d, p1, p2 = forcing or (0.0, 0.0, 0.0)
        exponent = np.where(lost, np.frexp(np.maximum(np.maximum(np.abs(alpha), np.abs(beta)),
                                           np.abs(d) * np.maximum(np.abs(p1), np.abs(p2))))[1], 0)
        if forcing is not None:
            e_d = np.where(lost, np.frexp(d)[1], 0)
            e_f = np.where(d != 0.0, exponent - e_d, 0)
            forcing = np.ldexp(d, -e_d), np.ldexp(p1, -e_f), np.ldexp(p2, -e_f)
        combine(np.ldexp(alpha, -exponent), np.ldexp(beta, -exponent), forcing)
    states, saturated, log_abs = scaled_exp(pair, log_scale, exponent)
    return states[0, ...], states[1, ...], saturated[0, ...] | saturated[1, ...], log_abs[0, ...]


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


def _state(r_plus, r_minus, freq, alpha, beta, t, first_order=None):
    """``_finish`` of W(t) = exp(A t)(alpha, beta), A from ``_companion``, for
    ``second_order_roots``'s roots.

    first_order = (mask, rate) marks first-order modes, theta = alpha e^{rate
    t}: there A = 0, the factors are (1, 0), log_scale = rate t and beta =
    rate alpha, whatever the roots hold."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        phi0, phi1, log_scale = _factors(r_plus, r_minus, freq, t)
        k, minus_h = _companion(r_plus, r_minus, freq)
        if first_order is not None:
            mask, rate = first_order
            phi0, phi1, k, minus_h, log_scale, beta = (np.where(mask, v, w) for v, w in (
                (1.0, phi0), (0.0, phi1), (0.0, k), (0.0, minus_h), (rate * t, log_scale),
                (rate * alpha, beta)))
        return _finish(phi0, phi1, log_scale, k, minus_h, alpha, beta)


def _digits_lost(pair):
    """None when every entry of the (value, derivative) rows of pair is finite
    and at least 2^-960 in magnitude (a subnormal term then shifts it by under
    2^-115 of itself), as reductions tell; else the mask of the entries where
    one is not."""
    mags = np.abs(pair)
    if np.min(mags, initial=np.inf) >= 2.0 ** -960 and np.max(mags, initial=0.0) < np.inf:
        return None
    return np.logical_or.reduce(~((mags >= 2.0 ** -960) & (mags < np.inf)))


def characteristic_roots(p: ParameterSet, lambda_sq) -> CharacteristicRoots:
    """Characteristic roots of the per-mode ODE at lambda_sq, elementwise:
    the ``second_order_roots`` record of its generator.

    Raises DegenerateModeError when |1 - c lam2| falls inside the degeneracy
    gate at some entry, with the 1-based index of the first such entry; that
    mode is first order and ``evolve_modes`` evaluates it.
    """
    lam = np.asarray(lambda_sq, dtype=float)
    if not np.all(lam > 0.0):
        raise ValueError("lambda_sq must be positive")
    leading, damping, stiffness = _generator(p.a, p.b, p.c, lam)
    if (hit := _first_order(leading)).any():
        i = int(np.argmax(hit))
        raise DegenerateModeError(
            f"mode with lambda_sq={lam.flat[i]} is degenerate (1 - c lam2 = "
            f"{leading.flat[i]:.3e}); use evolve_modes for the first-order branch",
            mode_index=i + 1)
    return second_order_roots(leading, damping, stiffness)


def evolve_modes(p: ParameterSet, lambda_sq, alpha, beta, t: float):
    """Modes lambda_sq from theta(0) = alpha, theta'(0) = beta, at time t.

    Returns ``(theta, theta', saturated)`` arrays of the arguments'
    broadcast shape, at every t; scalars give 0-d arrays.  Second-order
    modes go through the 2x2 exponential; values beyond the e^700 range give
    +/-inf with the flag set.  A mode with saturated +/-inf data is always
    flagged, and only a flagged entry may be nan (inf - inf).  Degenerate
    modes (``is_degenerate``) evolve first order, alpha e^{rate t} with
    rate = -b lam2 / a; the lowest-index one whose data fail the compatibility
    test raises UnsolvableModeError with its 1-based index.  t = 0 returns
    the data exactly.  A non-finite t, lambda_sq <= 0, nan data, or infinite
    data on a degenerate mode raise ValueError.
    """
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    lam = np.asarray(lambda_sq, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if not np.all(lam > 0.0):
        raise ValueError("lambda_sq must be positive")
    infinite = ~(np.isfinite(alpha) & np.isfinite(beta))
    if infinite.any() and (np.isnan(alpha).any() or np.isnan(beta).any()):
        raise ValueError("modal data must not be nan")
    leading, damping, stiffness = _generator(p.a, p.b, p.c, lam)
    degenerate = _first_order(leading)
    first_order = None
    if np.any(degenerate):
        rate = -stiffness / p.a
        first_order = degenerate, rate
        if np.any(degenerate & infinite):
            raise ValueError("a first-order mode needs finite data")
        bad = degenerate & ~_compatible(rate, alpha, beta)
        if np.any(bad):
            i = int(np.argmax(bad))
            required, al, be = (np.broadcast_to(v, bad.shape).flat[i] for v in (rate, alpha, beta))
            with np.errstate(all="ignore"):
                actual = be / al
            raise UnsolvableModeError(
                f"degenerate mode {i + 1} violates compatibility: beta/alpha = {actual}, "
                f"required {required}", mode_index=i + 1)
    if t == 0.0:
        shape = np.broadcast_shapes(lam.shape, alpha.shape, beta.shape)
        return (np.broadcast_to(alpha, shape).copy(),
                np.where(degenerate, alpha if first_order is None else rate * alpha, beta),
                np.broadcast_to(infinite, shape).copy())
    roots = second_order_roots(leading, damping, stiffness)[2:]
    # only the roots go on: the generator and the record's delta_sq and delta
    # are freed before _state makes its buffers
    del leading, stiffness
    value, deriv, sat, _ = _state(*roots, alpha, beta, t, first_order)
    return value, deriv, sat | infinite

