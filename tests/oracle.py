"""Independent numerical routes used to validate the closed forms.

Two oracles, deliberately disjoint from the spectral machinery:

* ``integrate_modes``: the explicit Runge-Kutta method DOP853 on the
  per-mode ODE (1 - c lam2) theta'' + a theta' + b lam2 theta = 0, for
  arrays of modes in one stacked system, sampled through its own
  seventh-order continuous extension (Hairer, Norsett & Wanner, *Solving
  ODEs I*, II.10).  Rows whose leading coefficient is exactly 0 integrate
  the first-order reduction, so one call covers both regimes,
* ``fd_solve``: Crank-Nicolson finite differences for the full PDE on a
  uniform grid, boundary signal included.

Beside them, ``second_order_roots`` through ``scaled_exp`` at the end of
this module are the out-of-place form of the package's modal chain (roots, the
scaled factors of exp(A tau), the finish), kept verbatim as they stood before
the package wrote that chain into work buffers; ``tests/test_modal.py``
holds the package's chain to it byte for byte.

The first two need scipy, a test dependency (``pip install 'cattaneo4[test]'``).
This module lives with the tests, which import it as ``oracle``; the package
and its command line neither ship nor import it.  ``simpson`` is the
composite Simpson rule that some tests integrate samples with.

The integrator runs at a tenth of the requested tolerances, so the sampled
trajectory, not only the step-wise local error, meets what the caller asked
for.  No step cap is imposed: the continuous extension is as accurate as the
steps themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp
from scipy.sparse.linalg import splu

from cattaneo4.errors import ExceptionalParameterError
from cattaneo4.modal import LN2, LOG_SATURATION, CharacteristicRoots
from cattaneo4.solver import simpson_weights

# Internal tolerances are the requested ones divided by this factor; rtol is
# kept above the 100 eps floor below which scipy overrides it with a warning.
_TOL_MARGIN = 10.0
_RTOL_FLOOR = 100.0 * np.finfo(float).eps


class DiscreteExceptionalError(ExceptionalParameterError):
    """c collides with an eigenvalue of the *discrete* Laplacian in the FD oracle."""


class StiffnessError(RuntimeError):
    """Adaptive integrator step size underflowed; problem too stiff at this tolerance."""


def simpson(values, h: float) -> float:
    """Composite Simpson rule over uniformly spaced samples with spacing h,
    accumulated with compensated (fsum) summation."""
    if not h > 0.0:
        raise ValueError("h must be positive")
    values = np.asarray(values, dtype=float)
    return math.fsum((simpson_weights(values.size) * values).tolist()) * h / 3.0


class Trajectory:
    """Dense output of ``integrate_modes``: ``traj(t) -> (values, derivatives)``,
    arrays of the broadcast shape of its arguments; ``t`` must lie in
    [0, t_end]."""

    def __init__(self, sol, t_end: float, shape: tuple):
        self._sol = sol
        self.t_end = t_end
        self.shape = shape

    def __call__(self, t: float):
        if not (-1e-12 <= t <= self.t_end * (1 + 1e-12) + 1e-12):
            raise ValueError(f"t={t} outside integrated range [0, {self.t_end}]")
        y = self._sol(min(max(t, 0.0), self.t_end))
        n = y.size // 2
        return y[:n].reshape(self.shape), y[n:].reshape(self.shape)


def integrate_modes(leading, damping, stiffness, alpha, beta, t_end: float,
                    rel_tol: float = 1e-10, abs_tol: float = 1e-12) -> Trajectory:
    """DOP853 trajectories of the independent modes leading y'' + damping y'
    + stiffness y = 0, y(0) = alpha, y'(0) = beta, as one stacked system.

    The arguments broadcast against each other, as in ``modal._state``;
    every entry must be finite, with damping and stiffness positive.  A row
    with leading exactly 0.0 is first order: its data must satisfy beta =
    rate alpha, rate = -stiffness/damping, and it integrates y' = v, v' =
    rate v from (alpha, rate alpha).  The rows share the adaptive step, so
    the cost is set by the stiffest one.  Raises StiffnessError when the
    largest root bound rho needs steps h ~ (384 rel_tol)^(1/4) / rho below
    1e-12 t_end, which an explicit method cannot take.
    """
    for name, v in (("rel_tol", rel_tol), ("abs_tol", abs_tol)):
        if not (0.0 < v <= 1e-2):
            raise ValueError(f"{name} must lie in (0, 1e-2]")
    if not t_end > 0.0:
        raise ValueError("t_end must be positive")
    arrays = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in
                                   (leading, damping, stiffness, alpha, beta)))
    shape = arrays[0].shape
    if arrays[0].size == 0:
        raise ValueError("no modes to integrate")
    for name, v in zip(("leading", "damping", "stiffness", "alpha", "beta"), arrays):
        if not np.all(np.isfinite(v)):
            raise ValueError(f"{name} must be finite")
    lead, damp, stiff, alpha, beta = (v.ravel() for v in arrays)
    if not np.all(damp > 0.0):
        raise ValueError("damping must be positive")
    if not np.all(stiff > 0.0):
        raise ValueError("stiffness must be positive")

    second = lead != 0.0
    lead = np.where(second, lead, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        rate = -stiff / damp
        required = rate * alpha
        bad = ~second & ~(np.abs(beta - required) <= 1e-9 * np.maximum(1.0, np.abs(required)))
        bound = np.where(second, (damp + np.sqrt(damp * damp + 4.0 * np.abs(stiff * lead)))
                         / (2.0 * np.abs(lead)), -rate)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError("first-order row needs compatible data: "
                         f"beta={beta[i]} but -(s/d) alpha = {required[i]}")
    rho = float(np.max(bound))
    if (384.0 * rel_tol) ** 0.25 / max(rho, 1e-12) < 1e-12 * t_end:
        raise StiffnessError(
            f"root bound {rho:.3e} forces step below resolvable size at rel_tol={rel_tol}")

    n = lead.size

    def rhs(_t, y):
        v = y[n:]
        acc = -(damp * v + stiff * y[:n]) / lead
        return np.concatenate([v, np.where(second, acc, rate * v)])

    y0 = np.concatenate([alpha, np.where(second, beta, required)])
    sol = solve_ivp(rhs, (0.0, t_end), y0, method="DOP853", dense_output=True,
                    rtol=max(rel_tol / _TOL_MARGIN, _RTOL_FLOOR),
                    atol=abs_tol / _TOL_MARGIN)
    if sol.status != 0:
        raise StiffnessError(f"integrator failed: {sol.message}")
    return Trajectory(sol.sol, t_end, shape)


def discrete_laplacian_eigenvalues(L: float, nx: int) -> np.ndarray:
    """Eigenvalues mu_k of -Delta_h on (0, L) with nx cells, k = 1..nx-1."""
    if not L > 0.0:
        raise ValueError("L must be positive")
    if nx < 2:
        raise ValueError("nx must be >= 2")
    h = L / nx
    k = np.arange(1, nx)
    return (4.0 / (h * h)) * np.sin(k * math.pi / (2 * nx)) ** 2


@dataclass(frozen=True)
class GridSolution:
    """Finite-difference trajectory snapshots on the full grid (boundaries included)."""

    nx: int
    dt: float
    x: np.ndarray
    times: np.ndarray
    theta: np.ndarray        # (len(times), nx+1)
    theta_prime: np.ndarray  # (len(times), nx+1)
    scheme: str


def fd_solve(p, L: float, nx: int, dt: float, T: float,
             theta0_samples, theta1_samples,
             signal=None, g: tuple[float, float] = (0.0, 0.0),
             snapshot_times=None) -> GridSolution:
    """Crank-Nicolson solve of the full equation on a uniform grid.

    The pre-integration form (I + c D) v' = -a v + b D u + b beta_g f(t)
    - c beta_g f''(t) is stepped with the trapezoidal rule in both u and v;
    the resulting tridiagonal system is factorized once.  Dirichlet values
    are g * f(t) (zero when no signal is given).

    Raises DiscreteExceptionalError when |1 - c mu_k| <= 1e-9 for an
    eigenvalue mu_k of the discrete Laplacian, or when the Crank-Nicolson
    matrix has an eigenvalue that small.  These absolute gates guard the
    conditioning of the factorized solve; they are not the exceptional-set
    test, which is ``modal.is_degenerate`` on the continuous spectrum.
    """
    if nx < 64:
        raise ValueError("nx must be >= 64 for a meaningful comparison grid")
    if not (dt > 0.0 and T > 0.0):
        raise ValueError("dt and T must be positive")
    n_steps = int(round(T / dt))
    if n_steps < 1 or abs(n_steps * dt - T) > 1e-8 * T:
        raise ValueError("dt must divide T evenly")
    theta0 = np.asarray(theta0_samples, dtype=float)
    theta1 = np.asarray(theta1_samples, dtype=float)
    if theta0.shape != (nx + 1,) or theta1.shape != (nx + 1,):
        raise ValueError("initial samples must live on the full (nx+1)-point grid")

    mu = discrete_laplacian_eigenvalues(L, nx)
    gap = np.min(np.abs(1.0 - p.c * mu))
    if gap <= 1e-9:
        k_bad = int(np.argmin(np.abs(1.0 - p.c * mu))) + 1
        raise DiscreteExceptionalError(
            f"c={p.c} collides with discrete eigenvalue 1/mu_{k_bad} at nx={nx}",
            value=p.c, nearest=1.0 / mu[k_bad - 1])
    # time-step resonance of the CN system matrix
    cn_eig = (1.0 - p.c * mu) + 0.5 * p.a * dt + 0.25 * p.b * dt * dt * mu
    if np.min(np.abs(cn_eig)) <= 1e-9:
        raise DiscreteExceptionalError(
            f"CN system matrix nearly singular at dt={dt}, nx={nx}", value=p.c)

    h = L / nx
    t_steps = np.arange(n_steps + 1) * dt
    f, df, fpp = ((np.zeros(n_steps + 1),) * 3 if signal is None else
                  (signal.value(t_steps), signal.derivative(t_steps),
                   signal.second_derivative(t_steps)))
    forcing = 0.5 * p.b * (f[:-1] + f[1:]) - 0.5 * p.c * (fpp[:-1] + fpp[1:])

    g0, g1 = g
    # boundary consistency of the initial data
    for edge, gval in ((0, g0), (nx, g1)):
        want = gval * f[0]
        if abs(theta0[edge] - want) > 1e-6 * max(1.0, abs(want)):
            raise ValueError("theta0 samples disagree with the boundary signal at t=0")

    m = nx - 1
    lap = sparse.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(m, m)) / (h * h)
    eye = sparse.identity(m)
    mass = eye + p.c * lap
    a_plus = (mass + (0.5 * p.a * dt) * eye - (0.25 * p.b * dt * dt) * lap).tocsc()
    a_minus = sparse.csr_matrix(mass - (0.5 * p.a * dt) * eye + (0.25 * p.b * dt * dt) * lap)
    lap = sparse.csr_matrix(lap)
    lu = splu(a_plus)

    bvec = np.zeros(m)
    bvec[0] = g0 / (h * h)
    bvec[-1] = g1 / (h * h)

    u = theta0[1:-1].copy()
    v = theta1[1:-1].copy()

    if snapshot_times is None:
        snapshot_times = [T]
    snap_steps = sorted({min(max(int(round(ts / dt)), 0), n_steps) for ts in snapshot_times})
    snaps = []
    for step in range(n_steps + 1):
        if step:
            rhs = a_minus @ v + dt * (p.b * (lap @ u) + forcing[step - 1] * bvec)
            v_new = lu.solve(rhs)
            u += 0.5 * dt * (v + v_new)
            v = v_new
        if step in snap_steps:
            snaps.append([np.concatenate([[g0 * w[step]], x, [g1 * w[step]]])
                          for w, x in ((f, u), (df, v))])
    theta, theta_prime = (np.stack(rows) for rows in zip(*snaps))
    return GridSolution(nx=nx, dt=dt, x=np.linspace(0.0, L, nx + 1),
                        times=t_steps[snap_steps], theta=theta, theta_prime=theta_prime,
                        scheme="crank-nicolson tridiagonal, factorized once")


# ---------------------------------------------------------------------------
# The modal chain out of place: every step into a fresh array, as the package
# computed it before its buffers (the values the buffered chain must keep).
# ---------------------------------------------------------------------------

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
    """
    leading, damping, stiffness = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (leading, damping, stiffness)))
    flip = np.where(damping < 0.0, -1.0, 1.0)
    leading, damping, stiffness = leading * flip, damping * flip, stiffness * flip
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        delta_sq = damping * damping - 4.0 * stiffness * leading
        delta = np.sqrt(np.abs(delta_sq))
        real = delta_sq > 0.0
        r_plus = np.where(real, -2.0 * stiffness / (damping + delta),
                          -damping / (2.0 * leading))
        r_minus = -(damping + np.where(real, delta, 0.0)) / (2.0 * leading)
        freq = np.where(delta_sq < 0.0, delta / np.abs(2.0 * leading), 0.0)
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
    """
    tau = float(tau)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        first = r_plus * tau >= r_minus * tau
        dom = np.where(first, r_plus, r_minus)
        oth = np.where(first, r_minus, r_plus)
        gap = oth - dom
        log_scale = dom * tau
        g = np.asarray(gap * tau)
        phi1 = np.expm1(g, out=np.empty(g.shape))
        np.divide(phi1, gap, out=phi1)
        fixed = g == 0.0    # a double root, tau = 0, or gap tau below the float range
        if fixed.any():
            np.copyto(phi1, tau, where=fixed)
        phi0 = np.exp(g, out=g)
        phi0 -= oth * phi1
        cplx = freq > 0.0
        if cplx.any():
            w = np.asarray(freq * tau)
            np.sin(w, out=phi1, where=cplx)
            np.divide(phi1, freq, out=phi1, where=cplx)
            np.multiply(dom, phi1, out=phi0, where=cplx)
            np.subtract(np.cos(w, out=w, where=cplx), phi0, out=phi0, where=cplx)
    return phi0, phi1, log_scale


def _companion(r_plus, r_minus, freq):
    """(k, -h) of A = [[0, 1], [k, -h]] from the roots: the one place A is formed."""
    return -(r_plus * r_minus + freq * freq), r_plus + r_minus


def _product(phi0, phi1, k, minus_h, x, y):
    """(phi0 I + phi1 A)(x, y) for A = [[0, 1], [k, minus_h]], elementwise."""
    return phi0 * x + phi1 * y, phi0 * y + phi1 * (k * x + minus_h * y)


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
    ed., 2.1).  The factors stay bound until both ``scaled_exp`` calls have
    run: freed first, they let the C allocator trim and refault heap pages
    (20-35% slower at 2e4 modes, measured with the ``evolve`` benchmark
    workload).
    """
    def combine(alpha, beta, forcing):
        value, deriv = _product(phi0, phi1, k, minus_h, alpha, beta)
        if forcing is not None:
            d, p1, p2 = forcing
            value, deriv = value + d * p1, deriv + d * p2
        return value, deriv

    value, deriv = combine(alpha, beta, forcing)
    exponent = None
    if (lost := _digits_lost(value, deriv)) is not None:
        d, p1, p2 = forcing or (0.0, 0.0, 0.0)
        exponent = np.where(lost, np.frexp(np.maximum(np.maximum(np.abs(alpha), np.abs(beta)),
                                           np.abs(d) * np.maximum(np.abs(p1), np.abs(p2))))[1], 0)
        if forcing is not None:
            e_d = np.where(lost, np.frexp(d)[1], 0)
            e_f = np.where(d != 0.0, exponent - e_d, 0)
            forcing = np.ldexp(d, -e_d), np.ldexp(p1, -e_f), np.ldexp(p2, -e_f)
        value, deriv = combine(np.ldexp(alpha, -exponent), np.ldexp(beta, -exponent), forcing)
    dtheta, s2 = scaled_exp(deriv, log_scale, exponent)[:2]   # its log not held over the next call
    theta, s1, log_abs = scaled_exp(value, log_scale, exponent)
    return theta, dtheta, s1 | s2, log_abs


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


def _digits_lost(value, deriv):
    """None when every entry of value and deriv is finite and at least 2^-960
    in magnitude (a subnormal term then shifts it by under 2^-115 of itself),
    as reductions tell; else the mask of the entries where one is not."""
    mags = np.abs(value), np.abs(deriv)
    if all(np.min(m, initial=np.inf) >= 2.0 ** -960 and np.max(m, initial=0.0) < np.inf
           for m in mags):
        return None
    return np.logical_or.reduce([~((m >= 2.0 ** -960) & (m < np.inf)) for m in mags])


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
    """
    x = np.asarray(x, dtype=float)
    log_scale = np.asarray(log_scale, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        logmag = np.log(np.abs(x))
        if exponent is None:
            value = x * np.exp(log_scale)
        else:
            logmag = logmag + np.multiply(exponent, LN2)
            mantissa, power = np.frexp(np.exp(log_scale))
            value = np.ldexp(x * mantissa, power + exponent)
        logmag = logmag + log_scale
        saturated = logmag > LOG_SATURATION
        in_logs = (log_scale > 709.0) | (log_scale < -708.0)
        value = np.where(in_logs, np.copysign(np.exp(logmag), x), value)
    return np.where(saturated, np.copysign(np.inf, x), value), saturated, logmag
