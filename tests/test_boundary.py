import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from cattaneo4 import (BasisDescriptor, BoundaryOperator, BoundarySignal,
                       ExceptionalParameterError, Field, ParameterSet,
                       basis_field, build_blocks, characteristic_roots,
                       dirichlet_map_interval, evolve_homogeneous,
                       evolve_with_boundary, check_wellposed, project_samples, propagation_burst, zero_field)
from cattaneo4.cli import main

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


INF, NAN = math.inf, math.nan


@pytest.mark.parametrize("make", [
    lambda: BoundarySignal.constant(1.0, INF),
    lambda: BoundarySignal.constant(1.0, NAN),
    lambda: BoundarySignal.sinusoid(1.0, INF),
    lambda: BoundarySignal.sinusoid(1.0, NAN),
    lambda: BoundarySignal.sinusoid(1.0, 2.0, amplitude=INF),
    lambda: BoundarySignal.sinusoid(1.0, 2.0, phase=INF),
    lambda: BoundarySignal.sinusoid(1.0, 1e200),           # f'' overflows
    lambda: BoundarySignal.polynomial(1.0, [1.0, INF]),
    lambda: BoundarySignal.polynomial(1.0, [NAN]),
    lambda: BoundarySignal.burst(1.0, INF),
    lambda: BoundarySignal.burst(1.0, 5.0, scale=NAN),
    lambda: BoundarySignal.burst(1.0, 1e300, scale=1e10),  # f'' overflows
    lambda: BoundarySignal.smoothed_step(1.0, 0.0, 0.5, height=INF),
    lambda: BoundarySignal.smoothed_step(1.0, 0.0, 1e-160),  # f'' overflows
    lambda: BoundarySignal([(0.0, NAN, 1.0, [(0.0, False, [1.0])])], 1.0),
    lambda: BoundarySignal([(0.0, 0.0, 1.0, []), (INF, 0.0, 1.0, [(0.0, False, [1.0])])], 1.0),
    lambda: BoundarySignal([(0.5, 0.0, 1.0, []), (0.2, 0.0, 1.0, [(0.0, False, [1.0])])], 1.0),
    lambda: BoundarySignal([(0.0, 0.0, 1.0, [(NAN * 1j, False, [1.0])])], 1.0),
])
def test_signal_rejects_non_finite_data(make):
    # one check in the signal: no inf or nan coefficient, rate, origin or
    # piece start in f, f' or f'' (and no RuntimeWarning on the way)
    with pytest.raises(ValueError, match="must be finite"):
        make()


@pytest.mark.parametrize("args", [["--signal", "sin", "--omega", "inf"],
                                  ["--signal", "constant", "--level", "inf"],
                                  ["--signal", "burst", "--n-rate", "inf"],
                                  ["--signal", "poly", "--coeffs", "0,nan"]])
def test_boundary_command_rejects_non_finite_signals(args, tmp_path, capsys):
    argv = ["boundary", "--a", "3", "--b", "1", "--c", "0.5", "--L", "pi", "--N", "8",
            "--g0", "1", "--g1", "0", "--T", "1", "--t", "1",
            "--out", str(tmp_path / "b.csv"), *args]
    assert main(argv) == 1
    assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists()


def test_signal_exactness_and_range():
    # the burst's f'(T) = scale holds exactly, where (scale/n) n does not
    assert (1.0 / 49.0) * 49.0 != 1.0
    for n in (49.0, 3.0, 0.7, 1000.1):
        for scale in (1.0, 2.5, 0.3):
            assert BoundarySignal.burst(2.0, n, scale).derivative(2.0) == scale
    # a narrow ramp stays finite: its terms are powers of u = (t - t0)/width
    s = BoundarySignal.smoothed_step(1.0, 0.0, 1e-80)
    assert s.value(5e-81) == 0.5 and s.value(0.0) == 0.0 and s.value(1e-80) == 1.0
    assert s.derivative(5e-81) == pytest.approx(1.875e80, rel=1e-15)
    assert math.isfinite(s.second_derivative(2.5e-81))
    # the signal is data: (scale/n) e^{n (s - T)} is the term scale e^{n (s - T)}
    # marked as divided by its rate n
    assert not any(callable(v) for v in vars(s).values())
    assert BoundarySignal.burst(1.0, 4.0).pieces == ((0.0, 1.0, 1.0, ((4.0, True, (1.0,)),)),)
    custom = BoundarySignal([(0.0, 0.5, 2.0, [(0.0, False, [1.0, 2.0]), (1j, False, [3.0])])], 1.0)
    assert custom.value(0.9) == pytest.approx(1.0 + 2.0 * 0.2 + 3.0 * math.cos(0.4), rel=1e-15)
    assert custom.derivative(0.9) == pytest.approx(1.0 - 3.0 * math.sin(0.4), rel=1e-15)
    # a piece needs a positive unit, and a term over its rate a nonzero rate
    for pieces in ([(0.0, 0.0, 0.0, [])], [(0.0, 0.0, 1.0, [(0.0, True, [1.0])])]):
        with pytest.raises(ValueError, match="positive units"):
            BoundarySignal(pieces, 1.0)
    # the closed-form convolution takes terms of up to 16 powers
    BoundarySignal.polynomial(1.0, np.ones(16))
    with pytest.raises(ValueError, match="at most 16 powers"):
        BoundarySignal.polynomial(1.0, np.ones(17))


@st.composite
def signal_cases(draw):
    """(signal, its f in mpmath, a bound on |f^(m)| near s for m = 0, 1, 2, s)."""
    T = draw(st.floats(0.5, 2.0))
    s = draw(st.floats(0.0, 1.0)) * T
    num = st.floats(-3.0, 3.0)
    kind = draw(st.sampled_from(["constant", "sinusoid", "polynomial", "burst",
                                 "smoothed_step"]))
    if kind == "constant":
        level = draw(num)
        return BoundarySignal.constant(T, level), lambda x: mp.mpf(level), [1.0] * 3, s
    if kind == "sinusoid":
        omega, amp, phase = draw(st.floats(0.0, 50.0)), draw(num), draw(num)
        sig = BoundarySignal.sinusoid(T, omega, amp, phase)
        return (sig, lambda x: amp * mp.sin(omega * x + phase),
                [abs(amp) * omega ** m * (2.0 + omega * s) for m in range(3)], s)
    if kind == "polynomial":
        cs = draw(st.lists(num, min_size=1, max_size=6))
        bound = [sum(abs(c) * math.perm(k, m) * max(s, 1.0) ** k for k, c in enumerate(cs))
                 for m in range(3)]
        return (BoundarySignal.polynomial(T, cs),
                lambda x: mp.fsum(c * x ** k for k, c in enumerate(cs)), bound, s)
    if kind == "burst":
        n, scale = draw(st.floats(0.1, 4096.0)), draw(num)
        size = abs(scale) * math.exp(n * (s - T)) * (2.0 + n * (T - s))
        return (BoundarySignal.burst(T, n, scale),
                lambda x: mp.mpf(scale) / n * mp.exp(n * (x - T)),
                [size / n, size, size * n], s)
    t0 = draw(st.floats(0.0, 0.5)) * T
    width = draw(st.floats(1e-3, 1.0)) * (T - t0)
    height = draw(num)
    sig = BoundarySignal.smoothed_step(T, t0, width, height)
    # the formula of the piece that holds s
    if s < t0:
        f = lambda x: mp.mpf(0)
    elif s >= t0 + width:
        f = lambda x: mp.mpf(height)
    else:
        f = lambda x: height * ((x - t0) / width) ** 3 * (
            10 - 15 * ((x - t0) / width) + 6 * ((x - t0) / width) ** 2)
    return sig, f, [abs(height) * 60.0 / width ** m for m in range(3)], s


@given(signal_cases())
@settings(max_examples=150, deadline=None)
def test_signal_derivatives_match_mpmath(case):
    # f, f' and f'' of every constructor against mpmath derivatives of f,
    # and an array call gives, bit for bit, what the scalar calls give
    # (mpmath differences resolve f^(m) to about 1e-30 of the signal's scale;
    # 1e-300 allows for subnormal values)
    sig, f_mp, bound, s = case
    orders = (sig.value, sig.derivative, sig.second_derivative)
    with mp.workdps(40):
        for m, evaluate in enumerate(orders):
            want = mp.diff(f_mp, mp.mpf(s), m)
            assert abs(evaluate(s) - want) <= 1e-12 * bound[m] + 1e-30 * sum(bound) + 1e-300
    points = np.array([0.0, s, 0.37 * sig.T, sig.T])
    for evaluate in orders:
        assert np.array_equal(evaluate(points), [evaluate(float(x)) for x in points])
        assert isinstance(evaluate(s), float)
        assert evaluate(points.reshape(2, 2)).shape == (2, 2)


def test_datum_validation():
    # boundary data are exactly two finite numbers (g0, g1)
    p, basis = ParameterSet(3.0, 1.0, 0.5), interval_basis(8)
    assert np.array_equal(build_blocks(p, basis, (1.0, -2)).d,
                          build_blocks(p, basis, [1.0, -2.0]).d)
    for bad in ((1.0,), (1.0, 2.0, 3.0)):
        with pytest.raises(ValueError, match="pair"):
            build_blocks(p, basis, bad)
        with pytest.raises(ValueError, match="pair"):
            dirichlet_map_interval(0.5, PI, bad)
    for bad in ((math.inf, 0.0), (math.nan, 0.0), (0.0, -math.inf), (1.0, math.nan)):
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


@pytest.mark.parametrize("n", [1, 3, 20000, 10**6])
@pytest.mark.parametrize("offset", [-1.2e-12, -8e-13, 8e-13, 1.2e-12])
def test_lift_gate_agrees_with_check_wellposed(n, offset):
    # c = (1 + offset)/n^2 on (0, pi): |1 - c lam_n^2| = |offset| sits on
    # either side of the 1e-12 gate; the sine test |sin(pi/sqrt(c))| <= 1e-12
    # accepted every one of these c
    c = (1.0 + offset) / float(n * n)
    basis = interval_basis(n + 1)
    exceptional = check_wellposed(c, basis).verdict == "exceptional"
    assert exceptional == (abs(offset) < 1e-12)
    for build in (lambda: build_blocks(ParameterSet(2.0, 1.0, c), basis, (1.0, 0.0)),
                  lambda: dirichlet_map_interval(c, PI, (1.0, 0.0), truncation=n + 1)):
        if exceptional:
            with pytest.raises(ExceptionalParameterError) as err:
                build()
            assert err.value.nearest == 1.0 / float(n * n)
        else:
            build()


@pytest.mark.parametrize("c", [5e-324, 1e-310])
def test_subnormal_c_is_exceptional(c, tmp_path, capsys):
    # L/(pi sqrt(c)) is about 1e161: the members next to c have the
    # eigenvalue +inf, and is_degenerate rejects it (no overflow, no warning)
    basis = interval_basis(8)
    for build in (lambda: build_blocks(ParameterSet(3.0, 1.0, c), basis, (1.0, 0.0)),
                  lambda: dirichlet_map_interval(c, PI, (1.0, 0.0), truncation=8)):
        with pytest.raises(ExceptionalParameterError) as err:
            build()
        assert err.value.nearest == 0.0
    common = ["--a", "3", "--b", "1", "--c", repr(c), "--L", "pi", "--N", "8",
              "--g0", "1", "--g1", "0"]
    for argv in (["boundary", *common, "--signal", "sin", "--omega", "2", "--T", "1",
                  "--t", "1"],
                 ["propagation", *common, "--T", "0.05", "--n-max-exp", "2",
                  "--sub-lo", "1", "--sub-hi", "2"]):
        out = tmp_path / f"{argv[0]}.csv"
        assert main([*argv, "--out", str(out)]) == 2
        assert "exceptional for the Dirichlet map" in capsys.readouterr().err
        assert not out.exists()


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


def same_bits(x, y):
    return np.asarray(x).tobytes() == np.asarray(y).tobytes()


def test_zero_signal_matches_homogeneous_evolution():
    # both paths solve one generator and end in one finish: at c = (1 +
    # 1e-4)/19^2 mode 19 grows past e^700 by t = 0.035, and both flag it
    # alone, with the same signs of inf; every value agrees bit for bit
    c19 = (1 + 1e-4) / 19 ** 2
    for c, n, times in ((0.003, 8, (0.8,)), (c19, 32, (0.035, 0.5))):
        p = ParameterSet(2.0, 1.0, c)
        basis = interval_basis(n)
        rng = np.random.default_rng(5)
        theta0 = Field(basis, rng.normal(size=n))
        theta1 = Field(basis, rng.normal(size=n))
        blocks = build_blocks(p, basis, (0.0, 0.0))
        sig = BoundarySignal.constant(2.0, 0.0)
        flagged = [18] if c == c19 else []
        for t in times:
            for b, h in zip(evolve_with_boundary(blocks, theta0, theta1, sig, t),
                            evolve_homogeneous(p, theta0, theta1, t)):
                for f in (b, h):
                    assert np.flatnonzero(f.saturated).tolist() == flagged, (c, t)
                    assert np.flatnonzero(np.isinf(f.coefficients)).tolist() == flagged
                assert same_bits(b.coefficients, h.coefficients), (c, t)
                assert same_bits(b.saturated, h.saturated), (c, t)


ZERO_SIGNAL_CASES = [
    ((2.0, 1.0, 0.003), 16),                   # decaying: mode 1 real, modes 2-16 complex
    ((2.0, 1.0, (1.0 + 1e-4) / 19.0**2), 24),  # mode 19 grows past e^700 from t = 0.035
    ((3.0, 1.0, 0.5), 8),                      # modes 2-8 grow, real roots
    ((2.0, 2.0, 0.5), 4),                      # mode 1 is an exact double root
]
ZERO_SIGNALS = [
    lambda T: BoundarySignal.constant(T, 0.0),
    lambda T: BoundarySignal.polynomial(T, [0.0, -0.0, 0.0]),
    lambda T: BoundarySignal.sinusoid(T, 3.0, amplitude=0.0, phase=0.4),
    lambda T: BoundarySignal.burst(T, 24.0, scale=0.0),
    lambda T: BoundarySignal.smoothed_step(T, 0.1 * T, 0.5 * T, height=0.0),
]


@given(st.sampled_from(range(len(ZERO_SIGNAL_CASES))), st.sampled_from(range(len(ZERO_SIGNALS))),
       st.integers(0, 2**32 - 1), st.integers(-320, 300), st.floats(1e-3, 3.0),
       st.sampled_from([0.0, math.inf, -math.inf]), st.tuples(st.floats(-2, 2), st.floats(-2, 2)))
@example(3, 0, 0, 0, 0.7, 0.0, (1.0, 0.0))         # the double root
@example(1, 0, 0, 0, 0.5, 0.0, (1.0, 0.0))         # mode 19 saturates
@example(2, 0, 0, 0, 0.5, math.inf, (1.0, 0.0))    # an infinite datum keeps its flag
@settings(max_examples=60, deadline=None)
def test_zero_signal_is_the_homogeneous_evolution_bit_for_bit(case, signal, seed, scale, t,
                                                              infinite, g):
    # whatever the lift g, a signal that is zero leaves the homogeneous
    # evolution: theta, theta' and the saturation flags equal
    # evolve_homogeneous byte for byte, on decaying, growing, saturating,
    # complex and double-root modes, data from subnormal to 1e300, and data
    # with an infinite entry
    (a, b, c), n = ZERO_SIGNAL_CASES[case]
    p, basis = ParameterSet(a, b, c), interval_basis(n)
    rng = np.random.default_rng(seed)
    alpha, beta = (rng.normal(size=n) * 10.0 ** scale for _ in range(2))
    if infinite:
        alpha[rng.integers(n)] = infinite
    saturated = ~np.isfinite(alpha)
    theta0, theta1 = Field(basis, alpha, saturated), Field(basis, beta, saturated)
    got = evolve_with_boundary(build_blocks(p, basis, g), theta0, theta1,
                               ZERO_SIGNALS[signal](3.0), t)
    want = evolve_homogeneous(p, theta0, theta1, t)
    for x, y in zip(got, want):
        assert same_bits(x.coefficients, y.coefficients)
        assert same_bits(x.saturated, y.saturated)


def test_zero_forcing_group_adds_no_part():
    # the zero signal's forcing group (rate 0, coefficient 0) adds no part to
    # the sum: a part of log-scale 0 would raise the shift of mode 1, which
    # decays from 1e300 to 2.6e-85 by t = 2500, and flush its value to 0.0
    p, basis = ParameterSet(3.0, 1.0, 0.5), interval_basis(4)
    theta0, theta1 = Field(basis, [1e300, 0.0, 0.0, 0.0]), zero_field(basis)
    got = evolve_with_boundary(build_blocks(p, basis, (0.0, 0.0)), theta0, theta1,
                               BoundarySignal.constant(3000.0, 0.0), 2500.0)
    want = evolve_homogeneous(p, theta0, theta1, 2500.0)
    assert want[0].coefficients[0] == pytest.approx(2.5557340735824774e-85, rel=1e-12)
    for x, y in zip(got, want):
        assert same_bits(x.coefficients, y.coefficients)


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
    th, dth = evolve_with_boundary(blocks, theta0, theta1, sig, t)
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


# ------------------------------------------- closed form against mpmath


def mp_boundary_state(h, k, d, beta, data, signal, t, dps=50):
    """(theta, theta') at t of the mode W' = A W + (0, d q), q = f'' - beta f,
    A = [[0, 1], [k, -h]], in mpmath from the floats given: e^{A t} W(0) plus,
    per piece [s_a, s_b] and term P(u) e^{rate x}, the forced state from
    Van Loan's augmented exponential, expm([[A, (0, d) w^T], [0, rate I +
    L]] ell) with L the shift, for the generators e^{rate r} r^i / i!."""
    with mp.workdps(dps):
        h, k, d, beta, tm = (mp.mpf(float(v)) for v in (h, k, d, beta, t))
        A = mp.matrix([[0, 1], [k, -h]])
        W = mp.expm(A * tm) * mp.matrix([mp.mpf(float(v)) for v in data])
        ends = [p.start for p in signal.pieces[1:]] + [math.inf]
        for i, (piece, end) in enumerate(zip(signal.pieces, ends)):
            s_a = mp.mpf(0) if i == 0 else max(mp.mpf(piece.start), 0)
            s_b = min(mp.mpf(end), tm) if end < math.inf else tm
            if s_b <= s_a:
                continue
            origin, unit, ell = mp.mpf(piece.origin), mp.mpf(piece.unit), s_b - s_a
            x_a = s_a - origin
            for rate, over, cs in piece.terms:
                sg = mp.mpc(rate.real, rate.imag)
                P = [mp.mpc(c.real, c.imag) / (sg if over else 1) for c in cs]
                n = len(P)
                d1 = [P[j + 1] * (j + 1) / unit for j in range(n - 1)] + [0]
                d2 = [d1[j + 1] * (j + 1) / unit for j in range(n - 1)] + [0]
                Q = [d2[j] + 2 * sg * d1[j] + (sg * sg - beta) * P[j] for j in range(n)]
                R = [mp.fsum(Q[j] * mp.binomial(j, m) * x_a ** (j - m) / unit ** j
                             for j in range(m, n)) for m in range(n)]   # powers of r
                Z = mp.zeros(2 + n, 2 + n)
                Z[0, 1], Z[1, 0], Z[1, 1] = 1, k, -h
                for m in range(n):
                    Z[1, 2 + m] = d * R[m] * mp.factorial(m)
                    Z[2 + m, 2 + m] = sg
                    if m:
                        Z[2 + m, 1 + m] = 1
                forced = mp.expm(Z * ell) * mp.exp(sg * x_a)
                W += mp.expm(A * (tm - s_b)) * mp.matrix([mp.re(forced[0, 2]),
                                                          mp.re(forced[1, 2])])
        return W[0], W[1]


def assert_state_close(got, want, radius, tol=1e-12):
    """theta and theta' within tol of the size |theta| + |theta'|/radius of
    the reference state, theta' measured in units of radius."""
    (th, dth), (r_th, r_dth) = got, want
    size = abs(r_th) + abs(r_dth) / radius
    assert abs(th - r_th) <= tol * size, (th, r_th)
    assert abs(dth - r_dth) <= tol * radius * size, (dth, r_dth)


def short_float(v: float) -> float:
    """v rounded to a 20-bit mantissa, so that h and k hold the drawn
    eigenvalues exactly (a complex pair: up to one rounding of re^2 + im^2)."""
    e = math.frexp(v)[1]
    return math.ldexp(round(math.ldexp(v, 20 - e)), e - 20)


@st.composite
def resonant_cases(draw):
    """A 2x2 block with a real pair, a complex pair or a double root, and an
    exponential-polynomial signal whose rate sits at the relative offset 0 or
    1e-15..1e-3 from one eigenvalue."""
    kind = draw(st.sampled_from(["real", "complex", "double"]))
    size = st.floats(0.1, 40.0).map(short_float)
    sign = st.sampled_from([-1.0, 1.0])
    if kind == "real":
        m1, m2 = draw(sign) * draw(size), draw(sign) * draw(size)
        assume(m1 != m2)
        h, k, mu = -(m1 + m2), -(m1 * m2), complex(draw(st.sampled_from([m1, m2])))
    elif kind == "complex":
        re, im = draw(sign) * draw(size), draw(size)
        h, k, mu = -2.0 * re, -(re * re + im * im), complex(re, draw(sign) * im)
    else:
        m = draw(sign) * draw(size)
        h, k, mu = -2.0 * m, -(m * m), complex(m)
    offset = draw(st.one_of(st.just(0.0), st.floats(-15.0, -3.0).map(lambda e: 10.0 ** e)))
    rate = mu * (1.0 + draw(sign) * offset)
    coefs = draw(st.lists(st.complex_numbers(max_magnitude=2.0), min_size=1, max_size=3))
    return h, k, mu, rate, coefs


@given(resonant_cases(), st.floats(0.05, 1.5), st.floats(0.0, 50.0))
@example((-3.0, 4.0, complex(4.0), complex(4.0), [1.0]), 0.05, 2.0)   # README mode 2, rate 4
@settings(max_examples=120, deadline=None)
def test_resonance_matches_mpmath(case, t, beta):
    # the signal rate on an eigenvalue, or within 1e-15..1e-3 of it, for real
    # and complex pairs and a double root: the resolvent (rate I - A)^-1 is
    # singular or nearly so, and the divided differences of exp are not
    h, k, mu, rate, coefs = case
    basis = interval_basis(1)
    blocks = BoundaryOperator(np.array([1.0]), np.array([1.0]), np.array([h]), np.array([-k]),
                              np.array([1.0]), beta)
    signal = BoundarySignal([(0.0, 0.0, 1.0, [(rate, False, coefs)])], 2.0)
    data = (0.3, -0.2)
    th, dth = evolve_with_boundary(blocks, Field(basis, [data[0]]), Field(basis, [data[1]]),
                                   signal, t)
    assert not th.saturated[0]
    want = mp_boundary_state(h, k, 1.0, beta, data, signal, t)
    assert_state_close((th.coefficients[0], dth.coefficients[0]), want, max(1.0, abs(mu)))


STIFF = ParameterSet(2.0, 1.0, 0.003)


@pytest.mark.parametrize("signal", [
    BoundarySignal.constant(1.0, 0.7),
    BoundarySignal.polynomial(1.0, [0.5, -1.0, 2.0, 0.25]),
    BoundarySignal.smoothed_step(1.0, 0.2, 0.3, height=1.5),
    BoundarySignal.burst(1.0, 24.0),
    BoundarySignal.sinusoid(1.0, 3.0, amplitude=0.8, phase=0.4),
], ids=lambda s: s.label)
@pytest.mark.parametrize("t", [0.1, 0.35, 0.8])
def test_every_signal_matches_mpmath(signal, t):
    # every constructor, on modes that decay, oscillate, sit next to
    # 1 - c lam2 = 0 (18, 19) and grow (19 on); the step is checked before,
    # inside and after its ramp
    assert_stiff_modes_match_mpmath(signal, t)


@pytest.mark.parametrize("signal", [
    BoundarySignal([(0.0, 0.5, 2.0, [(0.0, False, [1.0, 2.0, -0.5]),
                                     (1j, False, [3.0, 0.25])])], 1.0, label="shifted"),
    BoundarySignal([(0.0, 0.0, 1.0, [(-1.5, False, [0.5, -1.0])]),
                    (0.3, -0.2, 0.5, [(2.0, False, [1.0, -0.5, 0.75, 0.2])])], 1.0,
                   label="two_pieces"),
], ids=lambda s: s.label)
@pytest.mark.parametrize("t", [0.2, 0.7, 1.0])
def test_shifted_piece_polynomials_match_mpmath(signal, t):
    # pieces of two and more powers whose origin is not the start s_a of the
    # piece (s_a = 0 against origin 0.5; s_a = 0.3 against -0.2), so that q
    # is carried to powers of s - s_a by a Taylor shift
    assert_stiff_modes_match_mpmath(signal, t)


def assert_stiff_modes_match_mpmath(signal, t):
    """The 24 ``STIFF`` modes from seeded data under ``signal`` at t against
    ``mp_boundary_state``."""
    basis = interval_basis(24)
    blocks = build_blocks(STIFF, basis, (1.0, -0.4))
    rng = np.random.default_rng(17)
    theta0, theta1 = (Field(basis, rng.normal(size=24)) for _ in range(2))
    th, dth = evolve_with_boundary(blocks, theta0, theta1, signal, t)
    for i, blk in enumerate(blocks):
        want = mp_boundary_state(blk.h, blk.k, blk.d, blk.beta,
                                 (theta0.coefficients[i], theta1.coefficients[i]), signal, t)
        radius = max(1.0, abs(blk.h), math.sqrt(abs(blk.k)))
        assert_state_close((th.coefficients[i], dth.coefficients[i]), want, radius)


def test_small_signal_part_keeps_large_decayed_data():
    # mode 1 decays from 1e300 to 2.6e-85 by t = 2500 (log-scale -886) under
    # a signal part of about 1e-200 at log-scale 0: shifting by the larger
    # log-scale alone flushed the decayed data and left the part, 3.6e-201
    p, basis = ParameterSet(3.0, 1.0, 0.5), interval_basis(4)
    blocks = build_blocks(p, basis, (1e-200, 0.0))
    signal, t, data = BoundarySignal.sinusoid(3000.0, 3.0), 2500.0, (1e300, 0.0)
    th, dth = evolve_with_boundary(blocks, Field(basis, [data[0], 0.0, 0.0, 0.0]),
                                   zero_field(basis), signal, t)
    assert not th.saturated[0]
    blk = blocks[0]
    r_th, r_dth = mp_boundary_state(blk.h, blk.k, blk.d, blk.beta, data, signal, t)
    assert abs(th.coefficients[0] - r_th) <= 1e-12 * abs(r_th)
    assert abs(dth.coefficients[0] - r_dth) <= 1e-12 * abs(r_dth)


def test_stiff_case_matches_mpmath_on_forty_modes():
    # the stiff benchmark case; composite Simpson with step t/1000 was
    # 4.6e-6 off in theta at mode 19 and 3.4e-4 in theta' at mode 18
    basis = interval_basis(40)
    blocks = build_blocks(STIFF, basis, (1.0, 0.0))
    sig = BoundarySignal.sinusoid(1.0, 3.0)
    th, dth = evolve_with_boundary(blocks, zero_field(basis), zero_field(basis), sig, 0.8)
    for i, blk in enumerate(blocks):
        r_th, r_dth = mp_boundary_state(blk.h, blk.k, blk.d, blk.beta, (0, 0), sig, 0.8)
        assert abs(th.coefficients[i] - r_th) <= 1e-12 * abs(r_th)
        assert abs(dth.coefficients[i] - r_dth) <= 1e-12 * abs(r_dth)


def test_narrow_ramp_stays_finite():
    # a ramp of width 1e-80 ends where it starts in floating point: the
    # response is that of the step, finite, and matches mpmath
    basis = interval_basis(24)
    blocks = build_blocks(STIFF, basis, (1.0, -0.4))
    sig = BoundarySignal.smoothed_step(1.0, 0.3, 1e-80)
    z = zero_field(basis)
    for t in (0.3, 0.8):
        th, dth = evolve_with_boundary(blocks, z, z, sig, t)
        assert np.isfinite(th.coefficients).all() and np.isfinite(dth.coefficients).all()
    for i, blk in enumerate(blocks):
        want = mp_boundary_state(blk.h, blk.k, blk.d, blk.beta, (0, 0), sig, 0.8)
        radius = max(1.0, abs(blk.h), math.sqrt(abs(blk.k)))
        assert_state_close((th.coefficients[i], dth.coefficients[i]), want, radius)


def test_propagation_burst_readme_rates_match_mpmath():
    # the README propagation arguments on 8 modes: burst rate 4 is the
    # eigenvalue 4 of mode 2's block (16 + 4 h - k = 0), where the resolvent
    # (rate I - A)^-1 of a particular-solution form is singular
    p, basis, g, T = ParameterSet(3.0, 1.0, 0.5), interval_basis(8), (1.0, 0.0), 0.05
    ns = [2.0 ** j for j in range(13)]
    blocks = build_blocks(p, basis, g)
    assert 16.0 + 4.0 * blocks.h[1] - blocks.k[1] == 0.0
    rows = propagation_burst(p, basis, g, T, ns, (1.0, 2.0))
    z = zero_field(basis)
    fields = [evolve_with_boundary(blocks, z, z, BoundarySignal.burst(T, n), T)[1] for n in ns]
    with mp.workdps(40):
        k = [(i + 1) * mp.pi / mp.mpf(PI) for i in range(8)]

        def cos_integral(w):   # int_1^2 cos(w x) dx
            return mp.mpf(1) if w == 0 else (mp.sin(2 * w) - mp.sin(w)) / w

        for n, row, rate in zip(ns, rows, fields):
            assert math.isfinite(row.mass_in_subregion) and not rate.saturated.any()
            want = [mp_boundary_state(blk.h, blk.k, blk.d, blk.beta, (0, 0),
                                      BoundarySignal.burst(T, n), T)[1] for blk in blocks]
            for got, w in zip(rate.coefficients, want):
                assert abs(got - w) <= 1e-12 * abs(w)
            mass = mp.fsum(want[i] * want[j] * (cos_integral(k[i] - k[j])
                                                 - cos_integral(k[i] + k[j]))
                           for i in range(8) for j in range(8)) / mp.mpf(PI)
            assert abs(row.mass_in_subregion / mass - 1) <= 1e-12


def test_time_zero_returns_the_data_with_their_flags():
    # t = 0 gives the data back bit for bit, random or saturated, for every
    # signal; an infinite datum keeps its flag
    basis = interval_basis(32)
    blocks = build_blocks(ParameterSet(2.0, 1.0, (1.0 + 1e-4) / 19.0**2), basis, (1.0, -0.3))
    rng = np.random.default_rng(4)
    signals = [BoundarySignal.smoothed_step(1.0, 0.2, 0.3), BoundarySignal.sinusoid(1.0, 3.0)]
    alpha, beta = rng.normal(size=32), rng.normal(size=32)
    alpha[0], beta[5] = math.inf, -math.inf
    saturated = ~np.isfinite(alpha) | ~np.isfinite(beta)
    theta0, theta1 = Field(basis, alpha, saturated), Field(basis, beta, saturated)
    for s in signals:
        th, dth = evolve_with_boundary(blocks, theta0, theta1, s, 0.0)
        np.testing.assert_array_equal(th.coefficients, alpha)
        np.testing.assert_array_equal(dth.coefficients, beta)
        np.testing.assert_array_equal(th.saturated, saturated)
        np.testing.assert_array_equal(dth.saturated, saturated)
    b4 = interval_basis(4)
    data = Field(b4, [math.inf, 1.0, 2.0, 3.0], [True, False, False, False])
    th, dth = evolve_with_boundary(build_blocks(ParameterSet(2.0, 1.0, 0.003), b4, (1.0, 0.0)),
                                   data, zero_field(b4), BoundarySignal.constant(1.0), 0.0)
    np.testing.assert_array_equal(th.coefficients, data.coefficients)
    assert th.saturated.tolist() == dth.saturated.tolist() == [True, False, False, False]


def test_blocks_must_be_built_on_the_data_basis():
    # blocks of (0, pi) and fields of (0, 2 pi), both with 8 modes: the
    # eigenvalues differ, so the evolution refuses them
    blocks = build_blocks(ParameterSet(2.0, 1.0, 0.003), interval_basis(8), (1.0, 0.0))
    other = BasisDescriptor(1, (2.0 * PI,), 8)
    z, sig = zero_field(other), BoundarySignal.sinusoid(1.0, 3.0)
    with pytest.raises(ValueError, match="eigenvalue"):
        evolve_with_boundary(blocks, z, z, sig, 0.5)


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
                                   zero_field(basis), sig, 50.0)
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


GROWTH_19 = ((1.0 + 1e-4) / 19.0**2, 0.035)


@given(st.floats(min_value=5e-324, max_value=1e-300), st.sampled_from([-1.0, 1.0]),
       st.sampled_from([(0.003, 1.0), GROWTH_19]))
@example(5e-324, 1.0, (0.003, 1.0))
@example(3e-320, 1.0, (0.003, 1.0))
@example(2.225073858507203e-309, -1.0, (0.003, 1.0))
@example(1e-320, 1.0, GROWTH_19)
@settings(max_examples=40, deadline=None)
def test_subnormal_data_match_homogeneous_evolution(scale, sign, case):
    # a zero signal leaves the homogeneous evolution; data near the bottom of
    # the float range keep their digits.  At c = 0.003, t = 1 modes 19 and 20
    # grow by e^70 and more, so their values are normal.  In GROWTH_19 mode
    # 19 grows by e^706: its scaled theta' (mantissa-sized data times e^706
    # and a root of 2e4) passes the float range on the way, though theta'
    # itself is small.  Each side equals its own evolution of the data
    # scaled by 2^K to about 2^-600 (normal, and far from saturation), to
    # one rounding of a subnormal result, and the two sides are equal bit
    # for bit.
    c, t = case
    p = ParameterSet(2.0, 1.0, c)
    basis = interval_basis(20)
    rng = np.random.default_rng(11)
    alpha = sign * scale * rng.uniform(0.5, 2.0, 20)
    beta = scale * rng.uniform(-2.0, 2.0, 20)
    blocks = build_blocks(p, basis, (1.0, 0.0))
    signal = BoundarySignal.constant(1.0, 0.0)
    K = -math.frexp(scale)[1] - 600

    def both(alpha, beta):
        theta0, theta1 = Field(basis, alpha), Field(basis, beta)
        return (evolve_with_boundary(blocks, theta0, theta1, signal, t),
                evolve_homogeneous(p, theta0, theta1, t))

    got, want = both(alpha, beta)
    got_k, want_k = both(np.ldexp(alpha, K), np.ldexp(beta, K))
    for side, normal in zip((*got, *want), (*got_k, *want_k)):
        assert np.isfinite(side.coefficients).all() and not side.saturated.any()
        np.testing.assert_allclose(side.coefficients, np.ldexp(normal.coefficients, -K),
                                   rtol=2.0 ** -52, atol=2.0 ** -1073)
    for g, w in zip(got, want):
        assert same_bits(g.coefficients, w.coefficients)


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


def test_modes_do_not_depend_on_the_truncation_split():
    # every step is elementwise over the modes: each mode's result is the
    # same whether it is evolved with 9 or 99 others
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
    # by t = 0.4 mode 19 has saturated to -inf
    th, _ = evolve_with_boundary(blocks, zero_field(basis), zero_field(basis), sig, 0.4)
    assert th.saturated[18] and np.isneginf(th.coefficients[18])
