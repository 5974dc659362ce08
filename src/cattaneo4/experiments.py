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
boundary information reaches the interior instantly in the limit.

Coefficients for limit 1 use the cancellation-free forms

    B = 4 b lam2 eps^2 / (delta (a + delta)^2),   A = alpha - B,

algebraically equal to the generic variation-of-parameters coefficients but
stable arbitrarily close to the degenerate point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .boundary import BoundarySignal, build_blocks, dirichlet_map_interval, evolve_with_boundary
from .errors import ExceptionalParameterError, SingularParameterError
from .modal import (ParameterSet, characteristic_roots, eval_mode, evolve_modes,
                    is_degenerate, propagator, second_order_roots, solve_mode)
from .solver import Field, check_wellposed, reconstruct, zero_field
from .spectrum import BasisDescriptor, spectrum
from .util import LOG_SATURATION, exp_term, fit_slope, log_abs_exp_sum, scaled_exp, simpson

# Simpson points on the subregion of propagation_burst (odd).
MASS_GRID = 2049


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
    lower_bound_norm: float
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


def _two_exp(c1: float, x1: float, c2: float, x2: float,
             t: float) -> tuple[float, float, str]:
    """(value, log|value|, flag) of c1 e^{x1 t} + c2 e^{x2 t}.  When a term
    saturates the value comes from the log-magnitude and the flag is
    'saturated'."""
    v1, s1 = exp_term(c1, x1, t)
    v2, s2 = exp_term(c2, x2, t)
    sign, logv = log_abs_exp_sum([(c1, _log_abs_term(c1, x1, t)),
                                  (c2, _log_abs_term(c2, x2, t))])
    if not (s1 or s2):
        return v1 + v2, logv, "ok"
    value = (math.copysign(math.inf, sign) if logv > LOG_SATURATION
             else sign * math.exp(logv))
    return value, logv, "saturated"


def _split_row(k: int, parameter: float, c1: float, x1: float, c2: float,
               x2: float, t: float) -> LimitScanRow:
    value, logv, flag = _two_exp(c1, x1, c2, x2, t)
    bound = abs(value) if math.isfinite(value) else math.inf
    return LimitScanRow(k, parameter, c1, c2, x1, x2, value, logv, bound, flag)


def limit1_scan(a: float, b: float, lambda_sq: float, t: float,
                c_values) -> list[LimitScanRow]:
    """Scan c across the exceptional point 1/lam2 on one mode.

    Data are the distinguished compatible pair theta(0) = -a/(b lam2),
    theta'(0) = 1.  Rows carry the slow/fast split theta = A e^{r+ t}
    + B e^{r- t}; at an exactly exceptional c the row degenerates to the
    first-order decay and is flagged 'exceptional'.
    """
    if not (a > 0.0 and b > 0.0 and lambda_sq > 0.0):
        raise ValueError("a, b, lambda_sq must be positive")
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    alpha = -a / (b * lambda_sq)
    rows = []
    for k, c in enumerate(c_values, start=1):
        if not c > 0.0:
            raise ValueError("c values must be positive")
        eps = 1.0 - c * lambda_sq
        if is_degenerate(c, lambda_sq):
            rate = -(b * lambda_sq) / a
            v, _ = exp_term(alpha, rate, t)
            rows.append(LimitScanRow(k, c, alpha, 0.0, rate, 0.0, v,
                                     _log_abs_term(alpha, rate, t),
                                     abs(v), "exceptional"))
            continue
        delta_sq, delta, r_plus, r_minus = (
            float(v) for v in second_order_roots(eps, a, b * lambda_sq))
        if delta_sq <= 0.0:
            # far from the limit the mode may turn oscillatory; record via eval
            sol = solve_mode(ParameterSet(a, b, c), lambda_sq, (alpha, 1.0))
            mv = eval_mode(sol, t)
            rows.append(LimitScanRow(k, c, math.nan, math.nan, math.nan,
                                     math.nan, mv.value,
                                     math.log(abs(mv.value)) if mv.value else -math.inf,
                                     abs(mv.value), "ok"))
            continue
        B = 4.0 * b * lambda_sq * eps * eps / (delta * (a + delta) ** 2)
        A = alpha - B
        rows.append(_split_row(k, c, A, r_plus, B, r_minus, t))
    return rows


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
    at which some mode is first order (``check_wellposed``) is rejected.
    """
    if not (a > 0.0 and b > 0.0 and gamma > 0.0):
        raise ValueError("a, b, gamma must be positive")
    ks = sorted(set(int(k) for k in k_range))
    if not ks or ks[0] < 1:
        raise ValueError("k_range must hold positive integers")
    kmax = ks[-1]
    basis = BasisDescriptor(1, (math.pi,), 2 * kmax + 8)
    spec = spectrum(basis)
    rows = []
    for k in ks:
        lam_sq = float(spec.lambda_sq[k - 1])
        lam = math.sqrt(lam_sq)
        c_k = 1.0 / lam_sq + gamma / lam ** 3
        report = check_wellposed(c_k, basis)
        if report.verdict == "exceptional":
            raise ExceptionalParameterError(
                f"c_{k} = {c_k!r} collides with exceptional member {report.nearest!r}; "
                "adjust gamma or the mode range", value=c_k, nearest=report.nearest)
        eps = 1.0 - c_k * lam_sq
        _, delta, r_plus, r_minus = (
            float(v) for v in second_order_roots(eps, a, b * lam_sq))
        amp = (1.0 / k) * eps / delta
        rows.append(_split_row(k, c_k, amp, r_plus, -amp, r_minus, t))
    growth = fit_slope([math.log(r.k) for r in rows],
                       [math.log(r.exp_second) for r in rows])
    decay = fit_slope([math.log(r.k) for r in rows],
                      [math.log(abs(r.coeff_first)) for r in rows])
    return Limit2Result(rows, growth, decay)


def limit3_scan(k_range, t: float) -> Limit3Result:
    """Sigma-form family chi = 2, gamma_rho = 4 at sigma_k = 5/k^2, mode k.

    Data theta_k(0) = 1/k^4, theta_k'(0) = -1/(2 k^2) satisfy the heat
    compatibility 2 theta'(0) = -k^2 theta(0) exactly (checked in rational
    arithmetic).  The closed form splits into a growing addendum with
    exponent 2 k^2 and coefficient -1/(24 k^4) and a decaying one with
    exponent -(2/5) k^2 and coefficient 25/(24 k^4).
    """
    ks = sorted(set(int(k) for k in k_range))
    if not ks or ks[0] < 1:
        raise ValueError("k_range must hold positive integers")
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    family = ParameterSet.sigma_form(2.0, 4.0)
    compat_exact = all(
        2 * Fraction(-1, 2 * k * k) == -(k * k) * Fraction(1, k ** 4) for k in ks)
    rows = []
    for k in ks:
        sigma_k = 5.0 / (k * k)
        p = family.at_sigma(sigma_k)
        lam_sq = float(k * k)
        alpha = 1.0 / k ** 4
        beta = -1.0 / (2 * k * k)
        roots = characteristic_roots(p, lam_sq)
        rp, rm = roots.r_plus, roots.r_minus
        A = (beta - alpha * rm) / (rp - rm)   # theta = A e^{rp t} + B e^{rm t}
        B = (alpha * rp - beta) / (rp - rm)
        # paper order: growing addendum first; identify by root value
        if rm > rp:
            rows.append(_split_row(k, sigma_k, B, rm, A, rp, t))
        else:
            rows.append(_split_row(k, sigma_k, A, rp, B, rm, t))
    smallest = None
    for row in rows:
        exceeds = (row.log_abs_value > math.log(row.k)
                   if not math.isfinite(row.value_at_t)
                   else abs(row.value_at_t) > row.k)
        if exceeds:
            smallest = row.k
            break
    return Limit3Result(rows, smallest, compat_exact)


def heat_comparison(family: ParameterSet, sigmas, theta0: Field, theta1: Field,
                    t: float) -> list[HeatComparisonRow]:
    """Distance of the sigma-form solution to the heat solution as sigma varies.

    The heat reference evolves theta0 under a theta' = b d_xx theta, whose
    rate b/a = chi/gamma_rho is sigma-independent.  A sigma at which some
    mode is first order (``check_wellposed``'s 'exceptional' verdict on
    c = sigma/gamma_rho) is rejected; values below the smallest member of
    Z = gamma_rho E only constrain un-enumerated modes and are evolved as-is.
    """
    if family.map_tag != "m2":
        raise ValueError("heat_comparison needs a sigma-form parameter family")
    if theta0.basis != theta1.basis:
        raise ValueError("fields must share one basis")
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    spec = spectrum(theta0.basis)
    heat = theta0.coefficients * np.exp(-(family.chi / family.gamma_rho) * spec.lambda_sq * t)
    rows = []
    for sigma in sigmas:
        report = check_wellposed(sigma / family.gamma_rho, theta0.basis)
        if report.verdict == "exceptional":
            nearest = family.gamma_rho * report.nearest
            raise ExceptionalParameterError(
                f"sigma={sigma!r} collides with exceptional member {nearest!r}",
                value=sigma, nearest=nearest)
        value, _, sat = evolve_modes(family.at_sigma(sigma), spec.lambda_sq,
                                     theta0.coefficients, theta1.coefficients, t)
        if np.any(sat) or not np.all(np.isfinite(value)):
            rows.append(HeatComparisonRow(sigma, math.inf, "saturated"))
        else:
            rows.append(HeatComparisonRow(
                sigma, math.sqrt(math.fsum(((value - heat) ** 2).tolist())), "ok"))
    return rows


def whole_line_mode(a: float, b: float, c: float, lam: float, w1_hat: float,
                    t: float) -> WholeLineMode:
    """Fourier-frequency solution on the whole line from velocity data w1.

    theta_hat(lam, t) = [(1 - c lam^2)/delta] w1 (e^{r+ t} - e^{r- t}).
    The frequency lam = 1/sqrt(c) is an essential singularity of the symbol
    and is rejected; crossing it flips the fast root from strong decay to
    growth.
    """
    if not (a > 0.0 and b > 0.0 and c > 0.0):
        raise ValueError("a, b, c must be positive")
    if lam < 0.0:
        raise ValueError("lam must be nonnegative")
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    lam_sq = lam * lam
    eps = 1.0 - c * lam_sq
    if abs(eps) <= 1e-14 * max(1.0, c * lam_sq):
        raise SingularParameterError(
            f"lam={lam!r} sits at the singular frequency 1/sqrt(c)")
    delta_sq, delta, r_plus, r_minus = (
        float(v) for v in second_order_roots(eps, a, b * lam_sq))
    if delta_sq <= 0.0:
        # conjugate pair r_plus +/- i delta/(2 eps) or a double root (eps > 0
        # here): theta_hat = w1 phi1 e^log_scale from the data (0, w1)
        _, phi1, log_scale, _ = propagator(a / eps, -b * lam_sq / eps, t)
        value = float(scaled_exp(w1_hat * phi1, log_scale)[0])
        if delta_sq < 0.0:  # bounded by the envelope 2 |coeff| e^{r_plus t}
            coeff = abs(eps * w1_hat / delta)
            logmag = math.log(2.0 * coeff) + r_plus * t if coeff else -math.inf
        else:  # w1 t e^{r_plus t}
            coeff = abs(w1_hat)
            logmag = _log_abs_term(w1_hat * t, r_plus, t)
        return WholeLineMode(lam, eps, delta_sq, coeff, r_plus, r_plus, value,
                             logmag, logmag, True,
                             "saturated" if logmag > LOG_SATURATION else "ok")
    coeff = eps * w1_hat / delta
    value, _, flag = _two_exp(coeff, r_plus, -coeff, r_minus, t)
    return WholeLineMode(lam, eps, delta_sq, coeff, r_plus, r_minus, value,
                         _log_abs_term(coeff, r_plus, t),
                         _log_abs_term(-coeff, r_minus, t), False, flag)


def singularity_scan(a: float, b: float, c: float, t: float, j_values,
                     side: str = "above") -> list[SingularityRow]:
    """Approach the singular frequency: lam_j = 1/sqrt(c) +/- 2^-j, velocity data 1.

    From above (lam > 1/sqrt(c), eps < 0) the fast exponential grows without
    bound as j increases; from below it collapses to zero while its exponent
    magnitude diverges.  Log-magnitudes stay meaningful long after the values
    saturate.
    """
    if side not in ("above", "below"):
        raise ValueError("side must be 'above' or 'below'")
    lam_star = 1.0 / math.sqrt(c)
    rows = []
    for j in j_values:
        j = int(j)
        offset = 2.0 ** (-j)
        lam = lam_star + offset if side == "above" else lam_star - offset
        if lam <= 0.0:
            raise ValueError(f"offset 2^-{j} pushes lam below zero")
        m = whole_line_mode(a, b, c, lam, 1.0, t)
        rows.append(SingularityRow(j, lam, m.r_plus, m.r_minus,
                                   m.log_abs_first, m.log_abs_second, m.flag))
    return rows


def propagation_burst(p: ParameterSet, basis: BasisDescriptor, g, T: float,
                      n_values, subregion: tuple[float, float],
                      quad_step: float | None = None) -> list[PropagationRow]:
    """Drive zero data with sharpening bursts and measure interior arrival.

    For each n the boundary signal is f_n(t) = (1/n) e^{-n (T-t)} (so
    f_n'(T) = 1 exactly); the rate field theta'(T) is reconstructed on the
    subregion and its squared mass compared with that of the lift D g, the
    n -> infinity limit, both by Simpson's rule on MASS_GRID points.  The
    subregion must be strictly interior.
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
    u, _ = dirichlet_map_interval(p.c, L, g, truncation=basis.truncation)
    grid = np.linspace(lo, hi, MASS_GRID)
    h = (hi - lo) / (MASS_GRID - 1)
    target = simpson(np.asarray(u(grid)) ** 2, h)
    step = (T / 4096.0) if quad_step is None else quad_step
    theta0 = zero_field(basis)
    theta1 = zero_field(basis)
    rows = []
    for n in n_values:
        if not n > 0:
            raise ValueError("burst rates must be positive")
        signal = BoundarySignal.burst(T, float(n))
        _, rate_field = evolve_with_boundary(blocks, theta0, theta1, signal, T,
                                             quad_step=step)
        w = reconstruct(rate_field, grid)
        mass = simpson(w * w, h)
        rows.append(PropagationRow(float(n), mass, target, mass / target))
    return rows


def first_crossing(rows, level: float = 0.5) -> float | None:
    """Smallest burst rate whose subregion mass ratio reaches ``level``."""
    for row in rows:
        if row.ratio >= level:
            return row.n
    return None
