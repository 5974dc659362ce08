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

A solved mode is one ``ModalSolution(roots, alpha, beta)``; ``roots.kind``
names the regime ('real_distinct', 'double', 'complex_pair' or
'first_order').  The two gates are constants: a mode is first order when
|1 - c lam2| <= DEGENERATE_TOL max(1, c lam2), and its data are compatible
when |beta - rate alpha| <= COMPAT_TOL max(1, |rate|) |alpha|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateModeError, UnsolvableModeError
from .util import LOG_SATURATION, exp_term, scaled_exp

# Relative width of the degeneracy gate on |1 - c lam2| (see is_degenerate).
DEGENERATE_TOL = 1e-12
# Relative tolerance of the product-form compatibility test (see _compatible).
COMPAT_TOL = 1e-9


@dataclass(frozen=True)
class ParameterSet:
    """Coefficients (a, b, c) of the normalized equation, all positive.

    When built from the physical triple (chi, sigma, gamma_rho) the map is

        a = chi / sigma,  b = chi^2 / (sigma gamma_rho),  c = sigma / gamma_rho,

    and the identity b * sigma * gamma_rho = chi^2 ties the forms together.
    ``sigma_form`` keeps the sigma-scaled equation
    sigma theta'' + a theta' = b d_xx theta - sigma^2 c d_xx theta''
    parameterized by sigma through ``at_sigma``.
    """

    a: float
    b: float
    c: float
    chi: float | None = None
    sigma: float | None = None
    gamma_rho: float | None = None
    map_tag: str | None = None

    def __post_init__(self):
        for name in ("a", "b", "c"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite")
        if self.map_tag not in (None, "m1", "m2"):
            raise ValueError("map_tag must be None, 'm1' or 'm2'")
        if self.map_tag == "m1":
            chi, sig, gr = self.chi, self.sigma, self.gamma_rho
            if None in (chi, sig, gr):
                raise ValueError("m1-mapped set needs the full physical triple")
            if abs(self.b * sig * gr - chi * chi) > 1e-9 * chi * chi:
                raise ValueError("physical triple inconsistent with (a, b, c)")

    @classmethod
    def from_physical(cls, chi: float, sigma: float, gamma_rho: float) -> "ParameterSet":
        for name, v in (("chi", chi), ("sigma", sigma), ("gamma_rho", gamma_rho)):
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite")
        return cls(a=chi / sigma, b=chi * chi / (sigma * gamma_rho),
                   c=sigma / gamma_rho, chi=chi, sigma=sigma,
                   gamma_rho=gamma_rho, map_tag="m1")

    @classmethod
    def sigma_form(cls, chi: float, gamma_rho: float) -> "ParameterSet":
        """Sigma-scaled form: holds (a, b, c) = (chi, chi^2/gr, 1/gr)."""
        for name, v in (("chi", chi), ("gamma_rho", gamma_rho)):
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite")
        return cls(a=chi, b=chi * chi / gamma_rho, c=1.0 / gamma_rho,
                   chi=chi, gamma_rho=gamma_rho, map_tag="m2")

    def at_sigma(self, sigma: float) -> "ParameterSet":
        """Normalize the sigma-form equation at a concrete sigma."""
        if self.map_tag != "m2":
            raise ValueError("at_sigma applies to sigma-form parameter sets")
        return ParameterSet.from_physical(self.chi, sigma, self.gamma_rho)


@dataclass(frozen=True)
class ModalInitialData:
    """Initial value and rate of one mode: theta_n(0), theta_n'(0)."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("modal data must be finite")


@dataclass(frozen=True)
class CompatibilityReport:
    """Outcome of the degenerate-mode compatibility check beta/alpha = -(b/a) lam2."""

    required_ratio: float
    actual_ratio: float | None
    satisfied: bool
    tolerance: float
    mode_index: int | None = None


@dataclass(frozen=True)
class CharacteristicRoots:
    """Roots of the per-mode characteristic polynomial, tagged by regime.

    A first-order mode has the one root mu_plus = mu_minus = rate.
    """

    kind: str  # 'real_distinct' | 'double' | 'complex_pair' | 'first_order'
    mu_plus: complex
    mu_minus: complex

    @property
    def r_plus(self) -> float:
        return self.mu_plus.real

    @property
    def r_minus(self) -> float:
        return self.mu_minus.real

    @property
    def decay(self) -> float:
        return self.mu_plus.real

    @property
    def frequency(self) -> float:
        return abs(self.mu_plus.imag)


@dataclass(frozen=True)
class ModalSolution:
    """One mode: its roots and the data theta(0) = alpha, theta'(0) = beta.

    A first-order mode follows alpha exp(rate t), so its beta is rate alpha.
    """

    roots: CharacteristicRoots
    alpha: float
    beta: float


@dataclass(frozen=True)
class ModeValue:
    """Value and time derivative of one mode, with a saturation flag."""

    value: float
    derivative: float
    saturated: bool = False


def mode_ode_coefficients(p: ParameterSet, lambda_sq: float) -> tuple[float, float, float]:
    """(leading, damping, stiffness) of the per-mode ODE."""
    if not lambda_sq > 0.0:
        raise ValueError("lambda_sq must be positive")
    return 1.0 - p.c * lambda_sq, p.a, p.b * lambda_sq


def is_degenerate(c: float, lambda_sq):
    """Whether |1 - c lam2| <= DEGENERATE_TOL max(1, c lam2), elementwise.

    A mode inside the gate is first order.  ``solve_mode``, ``evolve_modes``,
    ``solver.check_wellposed`` and ``experiments.limit1_scan`` all decide
    with this one test.
    """
    c_lam = c * np.asarray(lambda_sq, dtype=float)
    return np.abs(1.0 - c_lam) <= DEGENERATE_TOL * np.maximum(1.0, c_lam)


def _compatible(rate, alpha, beta):
    """The compatibility condition beta = rate alpha in product form,
    |beta - rate alpha| <= COMPAT_TOL max(1, |rate|) |alpha|, elementwise.

    A subnormal alpha, whose quotient beta/alpha loses its digits, is judged
    as accurately as the product allows; alpha = 0 needs beta = 0 exactly.
    """
    return (np.abs(beta - rate * alpha)
            <= COMPAT_TOL * np.maximum(1.0, np.abs(rate)) * np.abs(alpha))


def discriminant_delta(p: ParameterSet, lambda_sq: float) -> float:
    """Discriminant delta^2 = a^2 - 4 b lam2 (1 - c lam2).

    Exactly a^2 at a representable degenerate point, since the last factor
    is then exactly zero.
    """
    leading, a, stiff = mode_ode_coefficients(p, lambda_sq)
    return a * a - 4.0 * stiff * leading


def second_order_roots(leading, damping, stiffness):
    """Roots of leading r^2 + damping r + stiffness = 0, elementwise.

    Returns ``(delta_sq, delta, r_plus, r_minus)`` with the discriminant
    delta_sq = damping^2 - 4 stiffness leading and delta = sqrt(|delta_sq|).
    Real distinct roots (delta_sq > 0) use the cancellation-free forms

        r_plus = -2 stiffness / (damping + delta),
        r_minus = -(damping + delta) / (2 leading);

    (-damping + delta) would lose every digit when stiffness * leading is
    tiny.  For a double root or a complex pair both entries hold the real
    part -damping / (2 leading); the imaginary parts are +/-delta / (2|leading|).
    Rows with damping < 0 are negated first, which keeps the roots and keeps
    damping + delta free of cancellation.
    """
    leading, damping, stiffness = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (leading, damping, stiffness)))
    flip = np.where(damping < 0.0, -1.0, 1.0)
    leading, damping, stiffness = leading * flip, damping * flip, stiffness * flip
    delta_sq = damping * damping - 4.0 * stiffness * leading
    delta = np.sqrt(np.abs(delta_sq))
    real = delta_sq > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        r_plus = np.where(real, -2.0 * stiffness / (damping + delta),
                          -damping / (2.0 * leading))
        r_minus = -(damping + np.where(real, delta, 0.0)) / (2.0 * leading)
    return delta_sq, delta, r_plus, r_minus


def _roots(leading, damping, stiffness):
    """``(delta_sq, r_plus, r_minus, freq)`` of leading r^2 + damping r +
    stiffness = 0, elementwise: real roots with freq = 0, or the complex pair
    r_plus +/- i freq with r_plus == r_minus and freq > 0."""
    delta_sq, delta, r_plus, r_minus = second_order_roots(leading, damping, stiffness)
    with np.errstate(divide="ignore", invalid="ignore"):
        freq = np.where(delta_sq < 0.0, delta / np.abs(2.0 * leading), 0.0)
    return delta_sq, r_plus, r_minus, freq


def _typed_roots(leading: float, damping: float, stiffness: float) -> CharacteristicRoots:
    """``_roots`` of one second-order mode, tagged by the sign of delta_sq."""
    delta_sq, r_plus, r_minus, freq = (float(v) for v in _roots(leading, damping, stiffness))
    if delta_sq < 0.0:
        return CharacteristicRoots("complex_pair", complex(r_plus, freq),
                                   complex(r_minus, -freq))
    kind = "real_distinct" if delta_sq > 0.0 else "double"
    return CharacteristicRoots(kind, complex(r_plus), complex(r_minus))


def _factors(r_plus, r_minus, freq, tau):
    """Scaled 2x2 exponential from the eigenvalues of A (see ``propagator``).

    The root whose exponent mu tau is larger is factored out as log_scale;
    the other one, oth, sits gap = oth - dom away, so g = gap tau <= 0 and

        phi1 = expm1(g) / gap,   phi0 = e^g - oth phi1,

    the first divided difference of exp and the identity e^{oth tau} =
    phi0 + oth phi1 (equal to 1 - dom phi1, but a sum of two terms of one
    sign whenever oth < 0).  A double root (g = 0) gives phi1 = tau; a
    complex pair dom +/- i freq gives phi1 = sin(freq tau)/freq.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        first = r_plus * tau >= r_minus * tau
        dom = np.where(first, r_plus, r_minus)
        oth = np.where(first, r_minus, r_plus)
        log_scale = dom * tau
        gap = oth - dom
        g = gap * tau
        phi1 = np.where(g == 0.0, tau, np.expm1(g) / gap)
        phi0 = np.exp(g) - oth * phi1
        cplx = freq > 0.0
        if np.any(cplx):
            w = freq * tau
            s = np.sin(w) / np.where(cplx, freq, 1.0)
            phi1 = np.where(cplx, s, phi1)
            phi0 = np.where(cplx, np.cos(w) - dom * s, phi0)
    return phi0, phi1, log_scale


def propagator(h, k, tau):
    """Closed 2x2 matrix exponential for A = [[0, 1], [k, -h]], elementwise.

    Returns ``(phi0, phi1, log_scale, saturated)`` with

        exp(A tau) = e^{log_scale} (phi0 I + phi1 A),

    log_scale = Re(mu) tau for the eigenvalue mu (root of mu^2 + h mu - k)
    that dominates at tau.  phi0 and phi1 are the scaled factors, of the size
    of 1 and tau, so they stay finite however large log_scale is;
    ``saturated`` marks e^{log_scale} past e^LOG_SATURATION.  Real, double,
    near-double and complex eigenvalues share one formula (``_factors``).
    Arguments broadcast; after Moler & Van Loan, SIAM Rev. 45 (2003).
    """
    h = np.asarray(h, dtype=float)
    phi0, phi1, log_scale = _factors(*_roots(1.0, h, -np.asarray(k, dtype=float))[1:],
                                     np.asarray(tau, dtype=float))
    return phi0, phi1, log_scale, log_scale > LOG_SATURATION


def _state(r_plus, r_minus, freq, alpha, beta, t):
    """(theta, theta', saturated) at t from (alpha, beta) for roots from ``_roots``.

    W(t) = exp(A t) W(0) with A = [[0, 1], [-r_plus r_minus, r_plus + r_minus]]
    (for a complex pair r_plus r_minus = decay^2 + freq^2); values beyond the
    e^700 range saturate to +/-inf with the flag set.  Subnormal data keep
    their digits (Higham, Accuracy and Stability, 2nd ed., section 2.1).
    """
    phi0, phi1, log_scale = _factors(r_plus, r_minus, freq, t)
    k = -(r_plus * r_minus + freq * freq)
    minus_h = r_plus + r_minus

    def combine(alpha, beta):
        return phi0 * alpha + phi1 * beta, phi0 * beta + phi1 * (k * alpha + minus_h * beta)

    value, deriv = combine(alpha, beta)
    exponent = None
    if not (_digits_kept(value) and _digits_kept(deriv)):
        # factor the power of two at max(|alpha|, |beta|) out of the data, as
        # solver.field_norm does; scaled_exp puts it back
        exponent = np.frexp(np.maximum(np.abs(alpha), np.abs(beta)))[1]
        value, deriv = combine(np.ldexp(alpha, -exponent), np.ldexp(beta, -exponent))
    value, s1 = scaled_exp(value, log_scale, exponent)
    deriv, s2 = scaled_exp(deriv, log_scale, exponent)
    return value, deriv, s1 | s2


def _digits_kept(v) -> bool:
    """True when every entry of v is finite and at least 2^-960 in magnitude:
    a subnormal term then shifts it by under 2^-115 of itself."""
    mag = np.abs(v)
    return bool(np.min(mag, initial=np.inf) >= 2.0 ** -960
                and np.max(mag, initial=0.0) < np.inf)


def characteristic_roots(p: ParameterSet, lambda_sq: float) -> CharacteristicRoots:
    """Characteristic roots of the per-mode ODE at lambda_sq.

    Raises DegenerateModeError when |1 - c lam2| falls inside the degeneracy
    gate; that mode is first order and belongs to ``solve_mode``.
    """
    leading, damping, stiffness = mode_ode_coefficients(p, lambda_sq)
    if is_degenerate(p.c, lambda_sq):
        raise DegenerateModeError(
            f"mode with lambda_sq={lambda_sq} is degenerate (1 - c lam2 = {leading:.3e}); "
            "use solve_mode for the first-order branch")
    return _typed_roots(leading, damping, stiffness)


def compatibility_report(p: ParameterSet, lambda_sq: float,
                         data: ModalInitialData,
                         mode_index: int | None = None) -> CompatibilityReport:
    """Check beta/alpha = -(b/a) lam2 for a degenerate mode (``_compatible``).

    ``actual_ratio`` is None for alpha = 0, where only beta = 0 passes.
    """
    required = -(p.b * lambda_sq) / p.a
    actual = None if data.alpha == 0.0 else data.beta / data.alpha
    ok = bool(_compatible(required, data.alpha, data.beta))
    return CompatibilityReport(required, actual, ok, COMPAT_TOL, mode_index)


def solve_mode(p: ParameterSet, lambda_sq: float,
               data: ModalInitialData | tuple[float, float],
               mode_index: int | None = None) -> ModalSolution:
    """Closed-form solution of one mode from its initial data.

    Degenerate modes go through the compatibility check and either return
    the first-order decay or raise UnsolvableModeError carrying the report.
    """
    if not isinstance(data, ModalInitialData):
        data = ModalInitialData(*data)
    leading, damping, stiffness = mode_ode_coefficients(p, lambda_sq)
    if is_degenerate(p.c, lambda_sq):
        report = compatibility_report(p, lambda_sq, data, mode_index)
        if not report.satisfied:
            raise UnsolvableModeError(
                f"degenerate mode {mode_index if mode_index is not None else '?'} "
                f"violates compatibility: beta/alpha = {report.actual_ratio}, "
                f"required {report.required_ratio}",
                mode_index=mode_index, report=report)
        rate = report.required_ratio
        return ModalSolution(CharacteristicRoots("first_order", complex(rate), complex(rate)),
                             data.alpha, rate * data.alpha)
    return ModalSolution(_typed_roots(leading, damping, stiffness), data.alpha, data.beta)


def solve_second_order(leading: float, damping: float, stiffness: float,
                       data: ModalInitialData | tuple[float, float]) -> ModalSolution:
    """Solve leading y'' + damping y' + stiffness y = 0 from (y(0), y'(0)).

    Shared closed-form core; ``leading`` must be bounded away from zero here
    (degeneracy handling lives in ``solve_mode``).
    """
    if not isinstance(data, ModalInitialData):
        data = ModalInitialData(*data)
    if leading == 0.0:
        raise DegenerateModeError("leading coefficient is zero; first-order problem")
    if not damping > 0.0 or not stiffness > 0.0:
        raise ValueError("damping and stiffness must be positive")
    return ModalSolution(_typed_roots(leading, damping, stiffness), data.alpha, data.beta)


def eval_mode(sol: ModalSolution, t: float) -> ModeValue:
    """Evaluate a modal solution and its derivative at time t.

    t = 0.0 short-circuits to the stored initial data, so round-tripping the
    data through solve_mode is exact.  Second-order modes go through the
    propagator kernel from (alpha, beta); values beyond the e^700 range
    saturate to +/-inf with the flag set.
    """
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    if t == 0.0:
        return ModeValue(sol.alpha, sol.beta)
    roots = sol.roots
    if roots.kind == "first_order":
        v, s1 = exp_term(sol.alpha, roots.r_plus, t)
        d, s2 = exp_term(sol.beta, roots.r_plus, t)
        return ModeValue(v, d, s1 or s2)
    v, d, sat = _state(roots.r_plus, roots.r_minus, roots.frequency, sol.alpha, sol.beta, t)
    return ModeValue(float(v), float(d), bool(sat))


def evolve_modes(p: ParameterSet, lambda_sq, alpha, beta, t: float):
    """``solve_mode`` + ``eval_mode`` over arrays of modes in one pass.

    Returns ``(theta, theta', saturated)`` arrays at time t, equal mode by
    mode to the scalar path.  Degenerate modes evolve first order; the
    lowest-index one whose data fail the compatibility check raises
    UnsolvableModeError with its 1-based index.
    """
    lam = np.asarray(lambda_sq, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    leading = 1.0 - p.c * lam
    stiffness = p.b * lam
    degenerate = is_degenerate(p.c, lam)
    rate = -stiffness / p.a
    if np.any(degenerate):
        bad = degenerate & ~_compatible(rate, alpha, beta)
        if np.any(bad):
            i = int(np.argmax(bad))
            solve_mode(p, float(lam[i]), (float(alpha[i]), float(beta[i])), mode_index=i + 1)
    if t == 0.0:
        return (alpha.copy(), np.where(degenerate, rate * alpha, beta),
                np.zeros(lam.shape, dtype=bool))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        value, deriv, sat = _state(*_roots(leading, p.a, stiffness)[1:], alpha, beta, t)
    if np.any(degenerate):
        v1, s1 = scaled_exp(alpha, rate * t)
        d1, s2 = scaled_exp(alpha * rate, rate * t)
        value = np.where(degenerate, v1, value)
        deriv = np.where(degenerate, d1, deriv)
        sat = np.where(degenerate, s1 | s2, sat)
    return value, deriv, sat


def reference_heat_mode(a: float, b: float, lambda_sq: float,
                        alpha: float, t: float) -> float:
    """Mode of the limiting heat equation a theta' = b d_xx theta."""
    if not (a > 0.0 and b > 0.0 and lambda_sq > 0.0):
        raise ValueError("a, b, lambda_sq must be positive")
    return alpha * math.exp(-(b * lambda_sq / a) * t)


def reference_telegraph_mode(tau: float, kappa: float, lambda_sq: float,
                             data: ModalInitialData | tuple[float, float],
                             t: float) -> float:
    """Mode of the classical Cattaneo law tau theta'' + theta' = kappa d_xx theta."""
    if not (tau > 0.0 and kappa > 0.0 and lambda_sq > 0.0):
        raise ValueError("tau, kappa, lambda_sq must be positive")
    sol = solve_second_order(tau, 1.0, kappa * lambda_sq, data)
    return eval_mode(sol, t).value
