"""Numerical experiments: singular limits, whole-line singularity, propagation.

Three limit scans probe the exceptional sets from different directions:

* limit 1 fixes one mode and walks c across 1/lam2 with the distinguished
  compatible data theta(0) = -a/(b lam2), theta'(0) = 1; the fast-root
  addendum dies out (its coefficient is O(eps^2)) and the solution converges
  to the degenerate decay -a/(b lam2) exp(-(b lam2/a) t),
* limit 2 walks the mode index k with c_k = 1/lam_k^2 + gamma/lam_k^3 just
  off the exceptional set and velocity data theta'(0) = 1/k; coefficients
  decay polynomially while the second exponent lam_k (a+delta)/(2 gamma)
  diverges, so smooth data excite arbitrarily fast growth,
* limit 3 uses the sigma-form family chi = 2, gamma_rho = 4, sigma_k = 5/k^2
  with data (1/k^4, -1/(2k^2)), whose closed form is exactly
  -(1/(24 k^4)) e^{2 k^2 t} + (25/(24 k^4)) e^{-(2/5) k^2 t}.

The whole-line mode shows the essential singularity of the symbol at
lam = 1/sqrt(c): the fast exponent -(a+delta)/(2(1-c lam2)) blows up to +inf
as lam decreases toward 1/sqrt(c) from above and to -inf from below.

The propagation burst drives zero data with f_n(t) = (1/n) e^{-n(T-t)}; as
n grows, f_n -> 0 uniformly yet theta'(T) converges to the lift D f0, so a
fixed fraction of lift mass appears in any interior subregion at time T:
boundary information reaches the interior instantly in the limit.  Both
masses are integrals of products of sines, taken in closed form.

Coefficients for limit 1 use the cancellation-free forms

    B = 4 b lam2 eps^2 / (delta (a + delta)^2),   A = alpha - B,

algebraically equal to the generic variation-of-parameters coefficients but
stable arbitrarily close to the degenerate point.

The split columns are what the paper's tables report.  Values and
log-magnitudes come from the mode evaluator of ``evolve_modes``
(``modal._state``), one array call per scan; limit 1's exceptional rows are
first-order entries of the same call.  A row is 'saturated' exactly where
theta is +/-inf (|theta| > e^700), and a heat comparison row exactly where
its distance is +inf; log-magnitudes stay finite.  ``fit_slope`` fits limit
2's rates and the Weyl-law exponent of a spectrum (``weyl_exponent_fit``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .boundary import BoundarySignal, build_blocks, evolve_with_boundary
from .errors import ExceptionalParameterError, SingularParameterError
from .modal import (ParameterSet, _check_positive, _first_order, _generator, _physical_map,
                    _state, second_order_roots)
from .solver import Field, _locate, _top_exponent, field_norm, zero_field
from .spectrum import BasisDescriptor, spectrum

# Rows of the mass matrix G per block in propagation_burst: bounds its
# (rows, modes) temporaries; every mass is the same for any block size.
_MASS_ROWS = 64


@dataclass(frozen=True)
class LimitScanRow:
    """One scan point: exponential split coeff1 e^{x1 t} + coeff2 e^{x2 t}."""

    k: int
    parameter: float
    coeff_first: float
    coeff_second: float
    exp_first: float
    exp_second: float
    value_at_t: float
    log_abs_value: float
    flag: str


@dataclass(frozen=True)
class Limit2Result:
    rows: list
    growth_exponent_fit: float
    coeff_decay_fit: float


@dataclass(frozen=True)
class Limit3Result:
    rows: list
    smallest_k_exceeding: int | None
    heat_compat_exact: bool


@dataclass(frozen=True)
class HeatComparisonRow:
    sigma: float
    distance: float
    flag: str


@dataclass(frozen=True)
class WholeLineMode:
    """Fourier-side solution theta_hat(lam, t) = coeff (e^{r+ t} - e^{r- t})."""

    lam: float
    eps: float
    delta_sq: float
    coeff: float
    r_plus: float
    r_minus: float
    value: float
    log_abs_first: float
    log_abs_second: float
    oscillatory: bool
    flag: str


@dataclass(frozen=True)
class SingularityRow:
    j: int
    lam: float
    r_plus: float
    r_minus: float
    log_abs_first: float
    log_abs_second: float
    flag: str


@dataclass(frozen=True)
class PropagationRow:
    n: float
    mass_in_subregion: float
    target_mass: float
    ratio: float


def _log_abs_term(coeff: float, rate: float, t: float) -> float:
    if coeff == 0.0:
        return -math.inf
    return math.log(abs(coeff)) + rate * t


def _scan_rows(k, parameter, coeff_first, coeff_second, exp_first, exp_second,
               value, log_abs, flag) -> list[LimitScanRow]:
    """One LimitScanRow per entry of the column arrays, as Python scalars."""
    columns = (np.asarray(col).tolist() for col in (
        k, parameter, coeff_first, coeff_second, exp_first, exp_second, value,
        log_abs, flag))
    return [LimitScanRow(*row) for row in zip(*columns)]


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


def limit1_scan(a: float, b: float, lambda_sq: float, t: float,
                c_values) -> list[LimitScanRow]:
    """Scan c across the exceptional point 1/lam2 on one mode.

    Data are the distinguished compatible pair theta(0) = -a/(b lam2),
    theta'(0) = 1.  Rows carry the slow/fast split theta = A e^{r+ t}
    + B e^{r- t}, or nan split columns where the roots are not real and
    distinct; at an exactly exceptional c the row degenerates to the
    first-order decay and is flagged 'exceptional'.
    """
    _check_positive(a=a, b=b, lambda_sq=lambda_sq)
    if not 0.0 <= t < math.inf:
        raise ValueError("t must be finite and nonnegative")
    c = np.asarray(list(c_values), dtype=float)
    if not (c.size and np.all((c > 0.0) & np.isfinite(c))):
        raise ValueError("c values must not be empty and must be positive and finite")
    alpha = -a / (b * lambda_sq)
    rate = -(b * lambda_sq) / a
    eps, damping, stiffness = _generator(a, b, c, lambda_sq)
    exceptional = _first_order(eps)
    delta_sq, delta, r_plus, r_minus, freq = second_order_roots(eps, damping, stiffness)
    split = delta_sq > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        B = np.where(split, 4.0 * b * lambda_sq * eps * eps
                     / (delta * ((a + delta) * (a + delta))), math.nan)
    A = alpha - B
    value, _, _, log_abs = _state(r_plus, r_minus, freq, alpha, 1.0, t, (exceptional, rate))
    r_plus, r_minus = (np.where(split, r, math.nan) for r in (r_plus, r_minus))
    return _scan_rows(np.arange(1, c.size + 1), c,
                      np.where(exceptional, alpha, A), np.where(exceptional, 0.0, B),
                      np.where(exceptional, rate, r_plus),
                      np.where(exceptional, 0.0, r_minus), value, log_abs,
                      np.where(exceptional, "exceptional",
                               np.where(np.isinf(value), "saturated", "ok")))


def limit1_reference(a: float, b: float, lambda_sq: float, t: float) -> dict:
    """Limit targets: A -> -a/(b lam2), B/eps^2 -> b lam2 / a^3, and the
    limiting trajectory value -a/(b lam2) exp(-(b lam2/a) t)."""
    alpha = -a / (b * lambda_sq)
    rate = -(b * lambda_sq) / a
    return {
        "A_limit": alpha,
        "B_over_eps_sq_limit": b * lambda_sq / a ** 3,
        "value_limit": alpha * math.exp(rate * t),
        "rate_limit": rate,
    }


def limit2_scan(a: float, b: float, gamma: float, k_range, t: float) -> Limit2Result:
    """Walk modes with c_k = 1/lam_k^2 + gamma/lam_k^3 and data theta'(0) = 1/k.

    Then 1 - c_k lam_k^2 = -gamma/lam_k, both addenda share the coefficient
    magnitude (1/k) (gamma/lam_k)/delta_k -> 0, and the second exponent
    lam_k (a+delta_k)/(2 gamma) diverges polynomially.  Fits are least-squares
    slopes in log-log: growth of the divergent exponent and decay of the
    coefficient, over the scanned k.  The modes are those of (0, pi); a c_k
    at which some mode is first order (``check_wellposed``'s verdict, one
    lookup for all c_k) is rejected.
    """
    _check_positive(a=a, b=b, gamma=gamma)
    if not 0.0 <= t < math.inf:
        raise ValueError("t must be finite and nonnegative")
    ks = sorted(set(int(k) for k in k_range))
    if not ks or ks[0] < 1:
        raise ValueError("k_range must hold positive integers")
    basis = BasisDescriptor(1, (math.pi,), 2 * ks[-1] + 8)
    ks = np.array(ks)
    lam_sq = spectrum(basis).lambda_sq[ks - 1]
    c_k = np.array([1.0 / x + gamma / math.sqrt(x) ** 3 for x in lam_sq.tolist()])
    _, nearest, exceptional, _ = _locate(c_k, basis)
    if exceptional.any():
        i = int(np.argmax(exceptional))
        c, member = float(c_k[i]), float(nearest[i])
        raise ExceptionalParameterError(
            f"c_{ks[i]} = {c!r} collides with exceptional member {member!r}; "
            "adjust gamma or the mode range", value=c, nearest=member)
    if len(ks) < 2:   # after the collision check, which one mode can fail
        raise ValueError("k_range must hold at least two values for the slope fits")
    eps, damping, stiffness = _generator(a, b, c_k, lam_sq)
    _, delta, r_plus, r_minus, freq = second_order_roots(eps, damping, stiffness)
    amp = (1.0 / ks) * eps / delta
    value, _, _, log_abs = _state(r_plus, r_minus, freq, 0.0, 1.0 / ks, t)
    rows = _scan_rows(ks, c_k, amp, -amp, r_plus, r_minus, value, log_abs,
                      np.where(np.isinf(value), "saturated", "ok"))
    log_k = [math.log(k) for k in ks.tolist()]
    return Limit2Result(rows, fit_slope(log_k, [math.log(x) for x in r_minus.tolist()]),
                        fit_slope(log_k, [math.log(abs(x)) for x in amp.tolist()]))


def limit3_scan(k_range, t: float) -> Limit3Result:
    """Sigma-form family chi = 2, gamma_rho = 4 at sigma_k = 5/k^2, mode k,
    mapped to (a, b, c) by ``modal._physical_map`` as one array.

    Data theta_k(0) = 1/k^4, theta_k'(0) = -1/(2 k^2) satisfy the heat
    compatibility 2 theta'(0) = -k^2 theta(0) exactly as rationals
    (``heat_compat_exact``); the rounded doubles can miss it by an ulp, as
    at k = 7, 9 and 11.  The closed form splits into a growing addendum with
    exponent 2 k^2 and coefficient -1/(24 k^4) and a decaying one with
    exponent -(2/5) k^2 and coefficient 25/(24 k^4).
    """
    ks = sorted(set(int(k) for k in k_range))
    if not ks or ks[0] < 1:
        raise ValueError("k_range must hold positive integers")
    if not 0.0 <= t < math.inf:
        raise ValueError("t must be finite and nonnegative")
    compat_exact = all(
        2 * Fraction(-1, 2 * k * k) == -(k * k) * Fraction(1, k ** 4) for k in ks)
    ks = np.array(ks)
    lam_sq = ks.astype(float) ** 2
    sigma = 5.0 / lam_sq
    a, b, c = _physical_map(2.0, sigma, 4.0)
    alpha, beta = 1.0 / (lam_sq * lam_sq), -1.0 / (2.0 * lam_sq)
    rp, rm, freq = second_order_roots(*_generator(a, b, c, lam_sq))[2:]
    A = (beta - alpha * rm) / (rp - rm)   # theta = A e^{rp t} + B e^{rm t}
    B = (alpha * rp - beta) / (rp - rm)
    value, _, _, log_abs = _state(rp, rm, freq, alpha, beta, t)
    # paper order: growing addendum first; identify by root value
    grow = rm > rp
    rows = _scan_rows(ks, sigma, np.where(grow, B, A), np.where(grow, A, B),
                      np.where(grow, rm, rp), np.where(grow, rp, rm), value, log_abs,
                      np.where(np.isinf(value), "saturated", "ok"))
    exceeds = np.where(np.isfinite(value), np.abs(value) > ks, log_abs > np.log(ks))
    smallest = int(ks[np.argmax(exceeds)]) if np.any(exceeds) else None
    return Limit3Result(rows, smallest, compat_exact)


def heat_comparison(chi: float, gamma_rho: float, sigmas, theta0: Field, theta1: Field,
                    t: float) -> list[HeatComparisonRow]:
    """Distance of the sigma-form solution to the heat solution as sigma varies.

    The sigma-form equation

        sigma theta'' + chi theta' = (chi^2 d_xx theta - sigma^2 d_xx theta'') / gamma_rho

    is normalized at each sigma by ``ParameterSet.from_physical``; chi,
    gamma_rho and each sigma must be positive and finite.  The heat reference
    evolves theta0 under a theta' = b d_xx theta at the sigma-free rate b/a =
    chi/gamma_rho.  A sigma at which some mode is first order
    (``check_wellposed``'s verdict on c = sigma/gamma_rho, one lookup for all
    sigma) is rejected; values below the smallest member of Z = gamma_rho E
    only constrain un-enumerated modes and are evolved as-is.  Every sigma
    and mode is one entry of a single (sigmas x modes) ``modal._state`` call,
    the kernel of ``evolve_modes``, so its damping a = chi/sigma is an array.
    The distance is ``solver.field_norm`` of the difference, finite for
    every finite difference however large; a mode without data has the
    reference 0.  A row is 'saturated' exactly where its distance is +inf.
    """
    _check_positive(chi=chi, gamma_rho=gamma_rho)
    if theta0.basis != theta1.basis:
        raise ValueError("fields must share one basis")
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    sigmas = list(sigmas)
    if not sigmas:
        raise ValueError("sigmas must not be empty")
    params = [ParameterSet.from_physical(chi, sigma, gamma_rho) for sigma in sigmas]
    _, nearest, exceptional, _ = _locate([p.c for p in params], theta0.basis)
    if exceptional.any():
        i = int(np.argmax(exceptional))
        member = gamma_rho * float(nearest[i])
        raise ExceptionalParameterError(
            f"sigma={sigmas[i]!r} collides with exceptional member {member!r}",
            value=sigmas[i], nearest=member)
    alpha, beta = theta0.coefficients, theta1.coefficients
    if np.isnan(alpha).any() or np.isnan(beta).any():
        raise ValueError("modal data must not be nan")
    spec = spectrum(theta0.basis)
    with np.errstate(over="ignore", invalid="ignore"):   # inf at t < 0; inf data * 0 is nan
        heat = np.multiply(alpha, np.exp(-(chi / gamma_rho) * spec.lambda_sq * t),
                           out=np.zeros(alpha.shape), where=alpha != 0.0)
    # no mode is first order once no sigma is exceptional: the same gate
    a, b, c = np.array([(p.a, p.b, p.c) for p in params]).T[:, :, None]   # (sigmas, 1) each
    values, _, saturated, _ = _state(
        *second_order_roots(*_generator(a, b, c, spec.lambda_sq))[2:], alpha, beta, t)
    with np.errstate(invalid="ignore"):   # inf - inf: a saturated state, an inf reference
        gaps = values - heat
    distances = [math.inf if sat.any() else field_norm(Field(theta0.basis, gap, ~np.isfinite(gap)))
                 for gap, sat in zip(gaps, saturated)]
    return [HeatComparisonRow(sigma, d, "saturated" if d == math.inf else "ok")
            for sigma, d in zip(sigmas, distances)]


def whole_line_mode(a: float, b: float, c: float, lam: float, w1_hat: float,
                    t: float) -> WholeLineMode:
    """Fourier-frequency solution on the whole line from velocity data w1.

    theta_hat(lam, t) = [(1 - c lam^2)/delta] w1 (e^{r+ t} - e^{r- t}).
    The frequency lam = 1/sqrt(c) is an essential singularity of the symbol,
    rejected where ``modal.is_degenerate(c, lam^2)``; crossing it flips the
    fast root from strong decay to growth.  The value is the modal kernel's
    from data (0, w1), 'saturated' exactly where it flags |theta_hat| >
    e^700; the logs are those of the two addenda (or of the envelope).
    """
    return _whole_line(a, b, c, np.array([lam], dtype=float), w1_hat, t)[0]


def _whole_line(a: float, b: float, c: float, lam: np.ndarray, w1_hat: float,
                t: float) -> list[WholeLineMode]:
    """``whole_line_mode`` at every entry of the array ``lam``, from one root
    solve and one ``modal._state`` call."""
    _check_positive(a=a, b=b, c=c)
    if not (np.all((0.0 <= lam) & (lam < math.inf)) and math.isfinite(w1_hat)):
        raise ValueError("lam must be finite and nonnegative, and w1_hat finite")
    if not 0.0 <= t < math.inf:
        raise ValueError("t must be finite and nonnegative")
    with np.errstate(over="ignore"):   # an overflow is named below
        lam_sq = lam * lam
        eps, damping, stiffness = _generator(a, b, c, lam_sq)
    if not np.all(np.isfinite(eps) & np.isfinite(stiffness)):
        raise ValueError(f"lam={float(lam.max())!r} is too large: c lam^2 or b lam^2 overflows")
    if (singular := _first_order(eps)).any():
        raise SingularParameterError(
            f"lam={float(lam[np.argmax(singular)])!r} sits at the singular frequency 1/sqrt(c)")
    roots = second_order_roots(eps, damping, stiffness)
    value = _state(*roots[2:], 0.0, w1_hat, t)[0]
    # x is the factor of e^{r t} in each log column: coeff for real roots, the envelope
    # 2 |coeff| of a complex pair (eps > 0), w1 t of a double root; its log is math.log's,
    # row by row, whose last bits np.log does not always give
    pair, osc = roots.delta_sq < 0.0, roots.delta_sq <= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = eps * w1_hat / roots.delta
    coeff = np.where(pair, np.abs(ratio), np.where(osc, abs(w1_hat), ratio))
    x = np.where(pair, 2.0 * coeff, np.where(osc, w1_hat * t, coeff))
    columns = (lam, eps, roots.delta_sq, coeff, roots.r_plus, roots.r_minus, value, x, osc,
               np.isinf(value))
    return [WholeLineMode(lm, e, d, k, rp, rm, v, _log_abs_term(xi, rp, t),
                          _log_abs_term(xi, rm, t), o, "saturated" if s else "ok")
            for lm, e, d, k, rp, rm, v, xi, o, s in zip(*(col.tolist() for col in columns))]


def singularity_scan(a: float, b: float, c: float, t: float, j_values,
                     side: str = "above") -> list[SingularityRow]:
    """Approach the singular frequency: lam_j = 1/sqrt(c) +/- 2^-j, velocity data 1.

    From above (lam > 1/sqrt(c), eps < 0) the fast exponential grows without
    bound as j increases; from below it collapses to zero while its exponent
    magnitude diverges.  Log-magnitudes stay meaningful long after the values
    saturate.  All rows are one call of ``_whole_line``.
    """
    if side not in ("above", "below"):
        raise ValueError("side must be 'above' or 'below'")
    _check_positive(c=c)
    js = [int(j) for j in j_values]
    if not js:
        raise ValueError("j_values must not be empty")
    if min(js) < -1023:
        raise ValueError(f"j = {min(js)} is below -1023: the offset 2^{-min(js)} overflows")
    offset = np.array([2.0 ** (-j) for j in js])
    lam = 1.0 / math.sqrt(c) + (offset if side == "above" else -offset)
    if np.any(lam <= 0.0):
        raise ValueError(f"offset 2^{-js[int(np.argmax(lam <= 0.0))]} pushes lam below zero")
    return [SingularityRow(j, m.lam, m.r_plus, m.r_minus, m.log_abs_first,
                           m.log_abs_second, m.flag)
            for j, m in zip(js, _whole_line(a, b, c, lam, 1.0, t))]


def _cos_integrals(k, lo: float, hi: float, center: float = 0.0):
    """int_lo^hi cos(k (x - center)) dx for k >= 0, elementwise.

    Written as 2 cos(k (mid - center)) sin(k rad) / k, mid and rad the centre
    and half-width of [lo, hi], which has no cancellation at small k; k = 0
    gives hi - lo.
    """
    k = np.asarray(k, dtype=float)
    mid, rad = 0.5 * (lo + hi), 0.5 * (hi - lo)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = 2.0 * np.cos(k * (mid - center)) * np.sin(k * rad) / k
    return np.where(k == 0.0, hi - lo, s)


def _subregion_masses(coefficients: np.ndarray, L: float, lo: float, hi: float) -> list[float]:
    """int_lo^hi w^2 for each column of ``coefficients`` (N, R), the sine
    coefficients of a field w on (0, L), in closed form: c^T G c with

        G_nm = (1/L) [S(k_n - k_m) - S(k_n + k_m)],   k_n = n pi / L,

    S(k) = int_lo^hi cos(k x) dx.  G depends only on |n - m| and n + m, so
    one vector S(j pi / L), j = 0..2N, gives it; it is formed
    ``_MASS_ROWS`` rows at a time, so memory is O(rows N).  Rows are reduced
    with numpy sums and the products summed with ``math.fsum``, so the result
    does not depend on the BLAS build.  Each column is scaled exactly by the
    power of two at its largest |coefficient| first, as in ``field_norm``,
    so a mass is +inf only past the float range or for a saturated mode.
    """
    n_modes, n_cols = coefficients.shape
    s = _cos_integrals(np.arange(2 * n_modes + 1) * (math.pi / L), lo, hi)
    modes = np.arange(1, n_modes + 1)
    exponents = [_top_exponent(column) for column in coefficients.T]
    scaled = np.ldexp(coefficients, np.negative(exponents))
    terms = {r: [] for r in np.flatnonzero(np.all(np.isfinite(coefficients), axis=0)).tolist()}
    for first in range(0, n_modes, _MASS_ROWS):
        rows = modes[first:first + _MASS_ROWS]
        g = s[np.abs(np.subtract.outer(rows, modes))] - s[np.add.outer(rows, modes)]
        for r, t in terms.items():
            c = scaled[:, r]
            t.append(c[rows - 1] * np.sum(g * c, axis=1))
    masses = [math.inf] * n_cols
    with np.errstate(over="ignore"):
        for r, t in terms.items():
            masses[r] = float(np.ldexp(math.fsum(np.concatenate(t).tolist()) / L,
                                       2 * exponents[r]))
    return masses


def _lift_mass(c: float, L: float, g0: float, g1: float, lo: float, hi: float) -> float:
    """int_lo^hi u^2 of the lift u = [g0 sin((L-x)/sqrt(c)) + g1 sin(x/sqrt(c))]
    / sin(L/sqrt(c)) in closed form, from 2 sin^2 y = 1 - cos 2y and
    2 sin y sin z = cos(y - z) - cos(y + z)."""
    p = 1.0 / math.sqrt(c)
    width = hi - lo
    near, far, cross = (float(_cos_integrals(2.0 * p, lo, hi, center))
                        for center in (0.0, L, 0.5 * L))
    return math.fsum((0.5 * g0 * g0 * (width - far), 0.5 * g1 * g1 * (width - near),
                      g0 * g1 * (cross - width * math.cos(L * p)))) / math.sin(L * p) ** 2


def propagation_burst(p: ParameterSet, basis: BasisDescriptor, g, T: float,
                      n_values, subregion: tuple[float, float]) -> list[PropagationRow]:
    """Drive zero data with sharpening bursts and measure interior arrival.

    For each n the boundary signal is f_n(t) = (1/n) e^{-n (T-t)} (so
    f_n'(T) = 1 exactly); the squared mass of the rate field theta'(T) on
    the subregion is compared with that of the lift D g, the n -> infinity
    limit.  Each rate is one ``boundary.evolve_with_boundary`` call; its
    rate field is the exact convolution, finite also where a rate equals an
    eigenvalue (rate 4 and mode 2 at the README arguments).  Both masses
    are integrals of products of sines, computed in closed form
    (``_subregion_masses`` over all rate fields at once, ``_lift_mass``); a
    saturated rate field has mass and ratio +inf.  The subregion must be
    strictly interior.
    """
    if basis.dimension != 1:
        raise ValueError("propagation experiment runs on an interval")
    L = basis.lengths[0]
    lo, hi = subregion
    if not (0.0 < lo < hi < L):
        raise ValueError("subregion must be strictly interior to (0, L)")
    blocks = build_blocks(p, basis, g)
    if not np.any(blocks.d):
        raise ValueError("boundary datum lifts to zero; nothing propagates")
    ns = [float(n) for n in n_values]
    if not ns:
        raise ValueError("n_values must not be empty")
    signals = [BoundarySignal.burst(T, n) for n in ns]   # each checks its rate
    target = _lift_mass(p.c, L, *g, lo, hi)
    zero = zero_field(basis)
    rates = [evolve_with_boundary(blocks, zero, zero, s, T)[1].coefficients for s in signals]
    masses = _subregion_masses(np.stack(rates, axis=1), L, lo, hi)
    return [PropagationRow(n, mass, target, mass / target) for n, mass in zip(ns, masses)]


def first_crossing(rows, level: float = 0.5) -> float | None:
    """Smallest burst rate whose subregion mass ratio reaches ``level``."""
    for row in rows:
        if row.ratio >= level:
            return row.n
    return None


def weyl_exponent_fit(lambda_sq) -> float:
    """Least-squares slope of log(lambda_k) against log(k) over the ascending
    eigenvalues ``lambda_sq`` (k = 1, 2, ...).

    Diagnostic for the Weyl growth lambda_k ~ k^(1/d); the fitted exponent
    should approach 1/d as the truncation grows.
    """
    lam = np.asarray(lambda_sq, dtype=float).tolist()
    if len(lam) < 16:
        raise ValueError("need at least 16 modes for a meaningful fit")
    xs = [math.log(k) for k in range(1, len(lam) + 1)]
    ys = [0.5 * math.log(v) for v in lam]
    return fit_slope(xs, ys)
