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

Both need scipy, a test dependency (``pip install 'cattaneo4[test]'``).
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
from cattaneo4.util import simpson_weights

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
