import math

import numpy as np
import pytest

from cattaneo4 import (BoundarySignal, DiscreteExceptionalError, OdeProblem,
                       ParameterSet, StiffnessError, evolve_modes, fd_solve,
                       integrate_mode, integrate_mode_batch)
from cattaneo4.oracle import discrete_laplacian_eigenvalues
from cattaneo4.util import simpson


def damped_oscillator(t):
    # y'' + y' + y = 0, y(0)=1, y'(0)=0:
    # y = e^{-t/2}(cos(w t) + sin(w t)/(2w)), w = sqrt(3)/2
    w = math.sqrt(3.0) / 2.0
    e = math.exp(-0.5 * t)
    y = e * (math.cos(w * t) + math.sin(w * t) / (2.0 * w))
    yp = e * (-(w + 1.0 / (4.0 * w)) * math.sin(w * t))
    return y, yp


def test_integrate_mode_against_analytic():
    traj = integrate_mode(OdeProblem(1.0, 1.0, 1.0, 1.0, 0.0), 5.0)
    for t in (0.0, 0.3, 1.7, 5.0):
        want_y, want_yp = damped_oscillator(t)
        got_y, got_yp = traj(t)
        assert got_y == pytest.approx(want_y, abs=5e-11)
        assert got_yp == pytest.approx(want_yp, abs=5e-11)


def test_tolerance_monotonicity():
    prob = OdeProblem(1.0, 1.0, 1.0, 1.0, 0.0)
    errs = []
    for rtol in (1e-4, 1e-7, 1e-10):
        traj = integrate_mode(prob, 3.0, rel_tol=rtol, abs_tol=rtol * 1e-2)
        err = max(abs(traj(t)[0] - damped_oscillator(t)[0])
                  for t in np.linspace(0.1, 3.0, 23))
        errs.append(err)
    assert errs[2] < errs[0]
    assert errs[2] < 1e-10


def test_batch_matches_single():
    probs = [OdeProblem(0.96, 1.0, 1.0, 1.0, 0.0),
             OdeProblem(0.2, 1.0, 9.0, 0.3, -0.7),
             OdeProblem(-0.5, 2.0, 4.0, 0.1, 0.0)]
    batch = integrate_mode_batch(probs, 1.0)
    vals, ders = batch(0.8)
    for i, prob in enumerate(probs):
        v, d = integrate_mode(prob, 1.0)(0.8)
        assert vals[i] == pytest.approx(v, rel=1e-9, abs=1e-12)
        assert ders[i] == pytest.approx(d, rel=1e-9, abs=1e-12)


def test_first_order_fallback():
    # leading exactly 0: y' = -(stiffness/damping) y from compatible data
    rate = -2.0 / 0.5
    traj = integrate_mode(OdeProblem(0.0, 0.5, 2.0, 1.0, rate), 1.0)
    v, d = traj(0.6)
    # numerical reference, so only the requested tolerance is promised
    assert v == pytest.approx(math.exp(rate * 0.6), rel=1e-9)
    assert d == pytest.approx(rate * math.exp(rate * 0.6), rel=1e-9)
    with pytest.raises(ValueError):
        integrate_mode(OdeProblem(0.0, 0.5, 2.0, 1.0, 0.0), 1.0)


def test_stiffness_guard():
    with pytest.raises(StiffnessError):
        integrate_mode(OdeProblem(1e-300, 1.0, 1.0, 1.0, 0.0), 1.0)


def test_tolerance_validation():
    prob = OdeProblem(1.0, 1.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_mode(prob, 1.0, rel_tol=0.5)
    with pytest.raises(ValueError):
        integrate_mode(prob, 1.0, rel_tol=0.0)
    with pytest.raises(ValueError):
        integrate_mode(prob, -1.0)


def test_trajectory_range_checks():
    traj = integrate_mode(OdeProblem(1.0, 1.0, 1.0, 1.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        traj(1.5)
    with pytest.raises(ValueError):
        traj(-0.1)


def test_simpson_quadratic_is_exact():
    vals = np.linspace(0.0, 1.0, 5) ** 2
    assert simpson(vals, 0.25) == 1.0 / 3.0


def test_simpson_sine():
    n = 2049
    xs = np.linspace(0.0, math.pi, n)
    got = simpson(np.sin(xs), math.pi / (n - 1))
    assert got == pytest.approx(2.0, abs=1e-12)


def test_simpson_validation():
    with pytest.raises(ValueError):
        simpson(np.ones(4), 0.1)  # even count
    with pytest.raises(ValueError):
        simpson(np.ones(1), 0.1)
    with pytest.raises(ValueError):
        simpson(np.ones(5), -0.1)


def test_simpson_fourth_order():
    f = lambda x: np.exp(np.sin(x))
    errs = []
    for n in (65, 129):
        xs = np.linspace(0.0, 2.0, n)
        errs.append(simpson(f(xs), 2.0 / (n - 1)))
    fine_xs = np.linspace(0.0, 2.0, 8193)
    ref = simpson(f(fine_xs), 2.0 / 8192)
    assert abs(errs[1] - ref) * 12.0 < abs(errs[0] - ref)


def test_discrete_laplacian_eigenvalues():
    nx = 16
    L = math.pi
    mu = discrete_laplacian_eigenvalues(L, nx)
    h = L / nx
    m = nx - 1
    dense = (np.diag(np.full(m, 2.0)) - np.diag(np.ones(m - 1), 1)
             - np.diag(np.ones(m - 1), -1)) / (h * h)
    want = np.sort(np.linalg.eigvalsh(dense))
    assert np.allclose(np.sort(mu), want, rtol=1e-12)
    # small eigenvalues approach the continuous lam^2 = k^2 from below
    assert mu[0] < 1.0 and mu[0] == pytest.approx(1.0, rel=5e-3)


def spectral_mode_value(p, lam_sq, alpha, beta, t):
    return float(evolve_modes(p, lam_sq, alpha, beta, t)[0])


def test_fd_zero_is_zero():
    p = ParameterSet(3.0, 1.0, 0.1)
    nx = 64
    xs = np.linspace(0.0, math.pi, nx + 1)
    sol = fd_solve(p, math.pi, nx, 0.01, 0.5, np.zeros(nx + 1), np.zeros(nx + 1))
    assert np.all(sol.theta == 0.0)
    assert np.all(sol.theta_prime == 0.0)


def test_fd_matches_spectral_single_mode():
    p = ParameterSet(3.0, 1.0, 0.1)
    L = math.pi
    nx = 400
    xs = np.linspace(0.0, L, nx + 1)
    theta0 = np.sin(xs)
    theta1 = 0.5 * np.sin(xs)
    sol = fd_solve(p, L, nx, 1e-3, 0.5, theta0, theta1)
    value = spectral_mode_value(p, 1.0, 1.0, 0.5, 0.5)
    err = np.max(np.abs(sol.theta[-1] - value * np.sin(xs)))
    assert err < 5e-5


def test_fd_convergence_factor():
    # halving h and dt together should cut the error by about 4 (both
    # discretizations are second order); require at least 3
    p = ParameterSet(3.0, 1.0, 0.1)
    L = math.pi
    errs = []
    for nx, dt in ((200, 2e-3), (400, 1e-3)):
        xs = np.linspace(0.0, L, nx + 1)
        sol = fd_solve(p, L, nx, dt, 0.5, np.sin(xs), np.zeros(nx + 1))
        value = spectral_mode_value(p, 1.0, 1.0, 0.0, 0.5)
        errs.append(np.max(np.abs(sol.theta[-1] - value * np.sin(xs))))
    assert errs[0] / errs[1] > 3.0


def test_fd_discrete_exceptional_gate():
    L = math.pi
    nx = 64
    mu = discrete_laplacian_eigenvalues(L, nx)
    p = ParameterSet(3.0, 1.0, 1.0 / mu[2])
    with pytest.raises(DiscreteExceptionalError):
        fd_solve(p, L, nx, 0.01, 0.1, np.zeros(nx + 1), np.zeros(nx + 1))


def test_fd_validation_errors():
    p = ParameterSet(3.0, 1.0, 0.1)
    z = np.zeros(65)
    with pytest.raises(ValueError):
        fd_solve(p, math.pi, 32, 0.01, 0.1, np.zeros(33), np.zeros(33))
    with pytest.raises(ValueError):
        fd_solve(p, math.pi, 64, 0.03, 0.1, z, z)  # dt does not divide T
    with pytest.raises(ValueError):
        fd_solve(p, math.pi, 64, 0.01, 0.1, np.zeros(10), np.zeros(10))


def test_fd_boundary_consistency_guard():
    p = ParameterSet(3.0, 1.0, 0.1)
    nx = 64
    sig = BoundarySignal.constant(1.0, 1.0)
    bad0 = np.zeros(nx + 1)  # boundary value should be 1 at x=0
    with pytest.raises(ValueError):
        fd_solve(p, math.pi, nx, 0.01, 0.5, bad0, np.zeros(nx + 1),
                 signal=sig, g=(1.0, 0.0))


def test_fd_boundary_signal_steady_state():
    # constant Dirichlet datum relaxes onto the linear-in-x harmonic lift;
    # c < h^2/4 keeps every grid mode decaying so the long horizon is safe
    p = ParameterSet(3.0, 1.0, 1e-4)
    L = math.pi
    nx = 128
    xs = np.linspace(0.0, L, nx + 1)
    sig = BoundarySignal.constant(100.0, 1.0)
    theta0 = 0.2 * np.sin(xs) + (1.0 - xs / L)  # lift plus a transient bump
    sol = fd_solve(p, L, nx, 0.01, 60.0, theta0, np.zeros(nx + 1),
                   signal=sig, g=(1.0, 0.0), snapshot_times=[60.0])
    assert np.max(np.abs(sol.theta[-1] - (1.0 - xs / L))) < 1e-6


def test_fd_snapshots_and_boundary_values():
    p = ParameterSet(3.0, 1.0, 0.003)
    nx = 64
    xs = np.linspace(0.0, math.pi, nx + 1)
    sig = BoundarySignal.sinusoid(2.0, 3.0)  # sin(3t), zero at t=0
    sol = fd_solve(p, math.pi, nx, 1e-3, 1.0, np.zeros(nx + 1), 3.0 * np.cos(0.0) * 0.0 * xs,
                   signal=sig, g=(0.5, 0.0), snapshot_times=[0.5, 1.0])
    assert sol.times.tolist() == [0.5, 1.0]
    for i, t in enumerate((0.5, 1.0)):
        assert sol.theta[i][0] == pytest.approx(0.5 * math.sin(3.0 * t), rel=1e-12)
        assert sol.theta[i][-1] == 0.0
        assert sol.theta_prime[i][0] == pytest.approx(
            0.5 * 3.0 * math.cos(3.0 * t), rel=1e-12)


def test_fd_heat_limit_diagnostic():
    # c=1e-6 member of the physical family behaves like the heat equation on
    # slow-manifold data theta1 = -(chi/gamma rho) lam^2 theta0; the growth
    # threshold 1/c sits far above every grid eigenvalue here
    p = ParameterSet.from_physical(chi=2.0, sigma=4e-6, gamma_rho=4.0)
    assert p.c == 1e-6
    L = math.pi
    nx = 256
    xs = np.linspace(0.0, L, nx + 1)
    heat_rate = 2.0 / 4.0
    sol = fd_solve(p, L, nx, 5e-4, 0.5, np.sin(xs), -heat_rate * np.sin(xs))
    want = math.exp(-heat_rate * 0.5) * np.sin(xs)
    assert np.max(np.abs(sol.theta[-1] - want)) < 5e-2
