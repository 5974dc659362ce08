import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from cattaneo4 import (BasisDescriptor, BoundaryOperator, BoundarySignal, DirichletDatum,
                       ExceptionalParameterError, Field, ParameterSet,
                       basis_field, build_blocks, characteristic_roots,
                       dirichlet_map_interval, evolve_homogeneous,
                       evolve_with_boundary, mild_solution_check,
                       project_samples, zero_field)

PI = math.pi


def interval_basis(n: int) -> BasisDescriptor:
    return BasisDescriptor(1, (PI,), n)


# ---------------------------------------------------------------- signals


def test_signal_constructors():
    s = BoundarySignal.constant(2.0, 3.0)
    assert s.value(1.3) == 3.0 and s.derivative(0.1) == 0.0

    s = BoundarySignal.sinusoid(2.0, omega=3.0, amplitude=0.5)
    assert s.value(0.4) == pytest.approx(0.5 * math.sin(1.2), rel=1e-15)
    assert s.derivative(0.4) == pytest.approx(1.5 * math.cos(1.2), rel=1e-15)
    assert s.second_derivative(0.4) == pytest.approx(-4.5 * math.sin(1.2),
                                                     rel=1e-15)

    s = BoundarySignal.polynomial(2.0, [1.0, -2.0, 0.5])
    assert s.value(1.5) == pytest.approx(1.0 - 3.0 + 0.5 * 2.25, rel=1e-15)
    assert s.derivative(1.5) == pytest.approx(-2.0 + 1.5, rel=1e-15)
    assert s.second_derivative(1.5) == 1.0

    s = BoundarySignal.burst(1.0, n=40.0, scale=2.5)
    assert s.derivative(1.0) == 2.5  # exact at the horizon
    assert s.value(0.0) == pytest.approx((2.5 / 40.0) * math.exp(-40.0))

    s = BoundarySignal.smoothed_step(3.0, t0=0.5, width=1.0, height=2.0)
    assert s.value(0.5) == 0.0 and s.value(1.5) == 2.0
    assert s.value(1.0) == pytest.approx(1.0, rel=1e-15)
    assert s.derivative(0.5) == 0.0 and s.derivative(1.5) == 0.0
    assert s.second_derivative(0.5) == 0.0 and s.second_derivative(1.5) == 0.0

    with pytest.raises(ValueError):
        BoundarySignal.constant(0.0)
    with pytest.raises(ValueError):
        BoundarySignal.burst(1.0, n=0.0)
    with pytest.raises(ValueError):
        BoundarySignal.smoothed_step(1.0, t0=0.5, width=1.0)


def test_datum_validation():
    g = DirichletDatum.interval(1.0, -2.0)
    assert g.interval_pair() == (1.0, -2.0)
    with pytest.raises(ValueError):
        DirichletDatum((1.0,)).interval_pair()
    with pytest.raises(ValueError):
        DirichletDatum((1.0, math.nan)).interval_pair()
    # a plain pair is read as DirichletDatum.interval, non-finite values too
    p, basis = ParameterSet(3.0, 1.0, 0.5), interval_basis(8)
    assert np.array_equal(build_blocks(p, basis, (1.0, -2)).d,
                          build_blocks(p, basis, g).d)
    for bad in ((math.inf, 0.0), (math.nan, 0.0), (0.0, -math.inf)):
        with pytest.raises(ValueError, match="finite"):
            build_blocks(p, basis, bad)
        with pytest.raises(ValueError, match="finite"):
            dirichlet_map_interval(0.5, PI, bad)


# ----------------------------------------------------------- Dirichlet map


def test_dirichlet_map_traces_and_residual():
    c, L, g = 0.05, PI, (1.0, -0.5)
    u, field = dirichlet_map_interval(c, L, g, truncation=8)
    assert float(u(0.0)) == pytest.approx(1.0, rel=1e-13)
    assert float(u(L)) == pytest.approx(-0.5, rel=1e-13)

    # residual of (1 + c d^2/dx^2) u at 100 interior points; the callable is
    # double precision so the stencil runs on an extended-precision copy of
    # the same two-point formula, Richardson extrapolated
    root = np.longdouble(c) ** np.longdouble(0.5)
    denom = np.sin(np.longdouble(L) / root)
    ll = np.longdouble(L)
    cl = np.longdouble(c)

    def u_ld(x):
        return (np.longdouble(g[0]) * np.sin((ll - x) / root)
                + np.longdouble(g[1]) * np.sin(x / root)) / denom

    def d2(x, h):
        return (-u_ld(x + 2 * h) + 16 * u_ld(x + h) - 30 * u_ld(x)
                + 16 * u_ld(x - h) - u_ld(x + -2 * h)) / (12 * h * h)

    xs = np.linspace(0.02, L - 0.02, 100)
    worst = 0.0
    h1 = np.longdouble(4e-3)
    for x in xs:
        xl = np.longdouble(x)
        assert abs(float(u(x)) - float(u_ld(xl))) <= 1e-12 * max(1.0, abs(float(u(x))))
        rich = (16 * d2(xl, h1 / 2) - d2(xl, h1)) / 15
        worst = max(worst, abs(float(u_ld(xl) + cl * rich)))
    assert worst <= 1e-10


def test_dirichlet_map_exceptional_gate():
    for c in (0.25, 1.0 / 9.0, 1.0):
        with pytest.raises(ExceptionalParameterError):
            dirichlet_map_interval(c, PI, (1.0, 0.0))
    with pytest.raises(ValueError):
        dirichlet_map_interval(-0.1, PI, (1.0, 0.0))
    with pytest.raises(ValueError):
        dirichlet_map_interval(0.05, PI, (1.0, 0.0), truncation=0)


def test_dirichlet_map_coefficients_match_quadrature():
    c, L = 0.05, PI
    u, field = dirichlet_map_interval(c, L, (0.7, -0.3), truncation=8)
    xs = np.linspace(0.0, L, 4097)
    proj = project_samples((xs, u(xs)), interval_basis(8))
    assert np.max(np.abs(proj.coefficients - field.coefficients)) < 1e-9


# ------------------------------------------------------------------ blocks


def test_block_eigenvalues_match_characteristic_roots():
    p = ParameterSet(2.0, 1.0, 0.011)
    basis = interval_basis(6)
    blocks = build_blocks(p, basis, (1.0, 0.0))
    for blk in blocks:
        mu = np.sort(np.roots([1.0, blk.h, -blk.k]).real)
        roots = characteristic_roots(p, blk.lambda_sq)
        want = np.sort([roots.r_minus, roots.r_plus])
        assert np.max(np.abs(mu - want) / np.abs(want)) < 1e-10


def test_block_fields_and_lift_consistency():
    p = ParameterSet(2.0, 1.0, 0.05)
    basis = interval_basis(8)
    g = (0.7, -0.3)
    blocks = build_blocks(p, basis, g)
    _, lift = dirichlet_map_interval(p.c, PI, g, truncation=8)
    for i, blk in enumerate(blocks):
        eps = 1.0 - p.c * blk.lambda_sq
        assert blk.h == pytest.approx(p.a / eps, rel=1e-15)
        assert blk.k == pytest.approx(-p.b * blk.lambda_sq / eps, rel=1e-15)
        assert blk.beta == p.b / p.c
        assert blk.d == pytest.approx(lift.coefficients[i], rel=1e-15)
    # one operator of arrays; indexing (numpy integers too) and slicing select modes
    assert isinstance(blocks, BoundaryOperator) and len(blocks) == 8
    assert blocks[np.int64(2)].d == blocks.d[2]
    head = blocks[:-1]
    assert isinstance(head, BoundaryOperator) and len(head) == 7
    assert np.array_equal(head.h, blocks.h[:7]) and head.beta == blocks.beta
    with pytest.raises(ValueError):
        build_blocks(p, BasisDescriptor(2, (PI, PI), 3), g)
    with pytest.raises(ExceptionalParameterError):
        build_blocks(ParameterSet(2.0, 1.0, 0.25), basis, g)


# ----------------------------------------------------------- mild formula


def test_zero_signal_matches_homogeneous_evolution():
    p = ParameterSet(2.0, 1.0, 0.003)
    basis = interval_basis(8)
    rng = np.random.default_rng(5)
    theta0 = Field(basis, rng.normal(size=8))
    theta1 = Field(basis, rng.normal(size=8))
    blocks = build_blocks(p, basis, (0.0, 0.0))
    sig = BoundarySignal.constant(2.0, 0.0)
    th_b, dth_b = evolve_with_boundary(blocks, theta0, theta1, sig, 0.8)
    th_h, dth_h = evolve_homogeneous(p, theta0, theta1, 0.8)
    assert np.max(np.abs(th_b.coefficients - th_h.coefficients)) < 1e-10
    assert np.max(np.abs(dth_b.coefficients - dth_h.coefficients)) < 1e-10


def test_formula_matches_direct_integration():
    # independent route: per mode, integrate the lifted first-order system
    # w' = A w + d ((k - beta) f - h f') e2 and undo the shift
    p = ParameterSet(2.0, 1.0, 0.003)
    basis = interval_basis(8)
    g = (1.0, -0.4)
    blocks = build_blocks(p, basis, g)
    sig = BoundarySignal.sinusoid(2.0, omega=3.0)
    rng = np.random.default_rng(9)
    theta0 = Field(basis, rng.normal(size=8))
    theta1 = Field(basis, rng.normal(size=8))
    t = 1.1
    th, dth = evolve_with_boundary(blocks, theta0, theta1, sig, t,
                                   quad_step=1e-3)
    for i, blk in enumerate(blocks):
        def rhs(s, w, blk=blk):
            force = blk.d * ((blk.k - blk.beta) * sig.value(s)
                             - blk.h * sig.derivative(s))
            return [w[1], blk.k * w[0] - blk.h * w[1] + force]

        w0 = [theta0.coefficients[i] - blk.d * sig.value(0.0),
              theta1.coefficients[i] - blk.d * sig.derivative(0.0)]
        sol = solve_ivp(rhs, (0.0, t), w0, rtol=1e-11, atol=1e-12,
                        dense_output=True)
        w = sol.sol(t)
        assert th.coefficients[i] == pytest.approx(
            w[0] + blk.d * sig.value(t), abs=1e-7)
        assert dth.coefficients[i] == pytest.approx(
            w[1] + blk.d * sig.derivative(t), abs=1e-7)


def test_quadrature_halving_gains_a_factor():
    p = ParameterSet(2.0, 1.0, 0.003)
    basis = interval_basis(6)
    blocks = build_blocks(p, basis, (1.0, 0.0))
    sig = BoundarySignal.sinusoid(2.0, omega=4.0)
    theta0, theta1 = zero_field(basis), zero_field(basis)
    t = 1.0

    def coeffs(step):
        th, _ = evolve_with_boundary(blocks, theta0, theta1, sig, t,
                                     quad_step=step)
        return th.coefficients

    ref = coeffs(5e-4)
    err_h = np.max(np.abs(coeffs(0.08) - ref))
    err_h2 = np.max(np.abs(coeffs(0.04) - ref))
    assert err_h / err_h2 >= 8.0  # fourth-order composite rule


def test_constant_signal_steady_state_is_the_lift():
    # stable spectrum (c below 1/lambda_N^2): theta(t) settles on the
    # stationary lift of the boundary values
    p = ParameterSet(2.0, 1.0, 0.003)
    basis = interval_basis(8)
    g = (1.0, -0.5)
    level = 0.8
    blocks = build_blocks(p, basis, g)
    sig = BoundarySignal.constant(60.0, level)
    th, dth = evolve_with_boundary(blocks, zero_field(basis),
                                   zero_field(basis), sig, 50.0,
                                   quad_step=0.02)
    xs = np.linspace(0.0, PI, 513)
    lin = g[0] + (g[1] - g[0]) * xs / PI
    lift = project_samples((xs, level * lin), basis)
    assert np.max(np.abs(th.coefficients - lift.coefficients)) < 5e-6
    assert np.max(np.abs(dth.coefficients)) < 5e-6


def test_bounded_response_to_small_signals():
    # zero data, small input: the response stays proportional to the input
    # scale and uniformly bounded in time for a stable parameter set
    p = ParameterSet(2.0, 1.0, 0.003)
    basis = interval_basis(8)
    blocks = build_blocks(p, basis, (1.0, 0.0))
    z = zero_field(basis)

    def norm_at(level, t):
        sig = BoundarySignal.constant(10.0, level)
        th, _ = evolve_with_boundary(blocks, z, z, sig, t)
        return float(np.linalg.norm(th.coefficients)), th.coefficients

    for t in (0.5, 2.0, 8.0):
        n1, c1 = norm_at(1.0, t)
        n2, c2 = norm_at(1e-3, t)
        assert n1 <= 5.0
        assert np.allclose(c2, 1e-3 * c1, rtol=1e-12, atol=1e-18)


def test_evolve_with_boundary_validation():
    p = ParameterSet(2.0, 1.0, 0.003)
    basis = interval_basis(6)
    blocks = build_blocks(p, basis, (1.0, 0.0))
    sig = BoundarySignal.constant(1.0)
    z = zero_field(basis)
    th, dth = evolve_with_boundary(blocks, z, z, sig, 0.0)
    assert np.array_equal(th.coefficients, z.coefficients)
    with pytest.raises(ValueError):
        evolve_with_boundary(blocks, z, z, sig, 1.5)  # beyond horizon
    with pytest.raises(ValueError):
        evolve_with_boundary(blocks, z, z, sig, -0.1)
    with pytest.raises(ValueError):
        evolve_with_boundary(blocks[:-1], z, z, sig, 0.5)
    with pytest.raises(ValueError):
        evolve_with_boundary(blocks, z, zero_field(interval_basis(5)), sig, 0.5)
    with pytest.raises(ValueError):
        evolve_with_boundary(blocks, z, z, sig, 0.5, quad_step=0.0)


def test_modes_do_not_depend_on_the_truncation_split():
    # modes go through the propagator in fixed blocks; each mode's result
    # is the same whether it shares a block with 9 or 99 others
    p = ParameterSet(2.0, 1.0, 0.003)
    sig = BoundarySignal.sinusoid(1.0, omega=3.0)
    small, large = interval_basis(10), interval_basis(100)
    th_s, dth_s = evolve_with_boundary(build_blocks(p, small, (1.0, 0.3)), zero_field(small),
                                       zero_field(small), sig, 0.8)
    th_l, dth_l = evolve_with_boundary(build_blocks(p, large, (1.0, 0.3)), zero_field(large),
                                       zero_field(large), sig, 0.8)
    assert np.array_equal(th_s.coefficients, th_l.coefficients[:10])
    assert np.array_equal(dth_s.coefficients, dth_l.coefficients[:10])


def test_growth_past_e700_saturates_without_nan():
    # c just above 1/lam_19^2: mode 19 grows at about a/|1 - c lam2| = 2e4
    p = ParameterSet(2.0, 1.0, (1.0 + 1e-4) / 19.0**2)
    basis = interval_basis(32)
    blocks = build_blocks(p, basis, (1.0, 0.0))
    sig = BoundarySignal.sinusoid(1.0, omega=3.0)
    th, dth = evolve_with_boundary(blocks, zero_field(basis), zero_field(basis), sig, 0.5)
    for f in (th, dth):
        assert not np.isnan(f.coefficients).any()
        assert f.saturated[18] and np.isinf(f.coefficients[18])
        assert not f.saturated[:18].any()
        assert np.isfinite(f.coefficients[:18]).all()


# ------------------------------------------------------------- mild check


def test_mild_check_polynomial_signal():
    p = ParameterSet(2.0, 1.0, 0.003)
    basis = interval_basis(6)
    blocks = build_blocks(p, basis, (1.0, -0.5))
    sig = BoundarySignal.polynomial(2.0, [0.0, 0.0, 1.0])  # f(t) = t^2
    rng = np.random.default_rng(21)
    theta0 = Field(basis, 0.1 * rng.normal(size=6))
    theta1 = Field(basis, 0.1 * rng.normal(size=6))
    report = mild_solution_check(blocks, theta0, theta1, sig,
                                 np.linspace(0.2, 1.0, 5))
    assert report.ok
    assert report.max_relation_residual < 1e-12


def test_mild_check_zero_signal():
    p = ParameterSet(2.0, 1.0, 0.012)
    basis = interval_basis(4)
    blocks = build_blocks(p, basis, (0.0, 0.0))
    sig = BoundarySignal.constant(2.0, 0.0)
    report = mild_solution_check(blocks, basis_field(basis, 1), zero_field(basis),
                                 sig, np.linspace(0.2, 1.0, 5))
    assert report.ok


def test_mild_check_smoothed_step_relation_clause():
    # f''' jumps at the ramp edges, so only the algebraic clause is promised
    p = ParameterSet(2.0, 1.0, 0.003)
    basis = interval_basis(4)
    blocks = build_blocks(p, basis, (1.0, 0.0))
    sig = BoundarySignal.smoothed_step(2.0, t0=0.3, width=0.8)
    report = mild_solution_check(blocks, zero_field(basis), zero_field(basis),
                                 sig, np.linspace(0.2, 1.4, 7))
    assert report.max_relation_residual < 1e-9
    assert math.isfinite(report.max_c2_residual)


def test_mild_check_grid_validation():
    p = ParameterSet(2.0, 1.0, 0.012)
    basis = interval_basis(4)
    blocks = build_blocks(p, basis, (1.0, 0.0))
    sig = BoundarySignal.constant(2.0)
    z = zero_field(basis)
    with pytest.raises(ValueError):
        mild_solution_check(blocks, z, z, sig, [0.2, 0.4, 0.6])  # too short
    with pytest.raises(ValueError):
        mild_solution_check(blocks, z, z, sig, [0.2, 0.4, 0.3, 0.6, 0.8])
    with pytest.raises(ValueError):
        # first node must leave room for the internal stencil
        mild_solution_check(blocks, z, z, sig, np.linspace(0.001, 1.0, 5))
