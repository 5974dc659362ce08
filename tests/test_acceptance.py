"""Acceptance battery: one test per shipped guarantee, one PASS/FAIL line each.

Run with -s to see the lines; each also carries its runtime budget.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from cattaneo4 import (BasisDescriptor, BoundarySignal, ExceptionalParameterError,
                       Field, ParameterSet,
                       UnsolvableModeError, basis_field, build_blocks,
                       characteristic_roots, dirichlet_map_interval,
                       evolve_homogeneous, evolve_modes, evolve_with_boundary,
                       first_crossing, limit1_scan,
                       limit2_scan, limit3_scan, propagation_burst,
                       reconstruct, singularity_scan, zero_field)
from oracle import fd_solve, integrate_modes

PI = math.pi


def stamp(num: int, name: str, ok: bool, detail: str = "") -> None:
    tail = f"  ({detail})" if detail else ""
    print(f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} [{name}] failed: {detail}"


def test_criterion_01_compatibility_dichotomy():
    t0 = time.perf_counter()
    a, b, lam_sq = 2.0, 1.0, 4.0
    p = ParameterSet(a, b, 1.0 / lam_sq)  # exactly exceptional for mode 2
    required = -(b / a) * lam_sq
    rng = np.random.default_rng(101)
    n_rejected = 0
    for _ in range(1000):
        alpha, beta = rng.normal(size=2)
        while abs(beta - required * alpha) <= 1e-6:
            alpha, beta = rng.normal(size=2)
        with pytest.raises(UnsolvableModeError) as exc:
            evolve_modes(p, [1.0, lam_sq], [0.0, alpha], [0.0, beta], 0.5)
        assert exc.value.mode_index == 2
        n_rejected += 1
    worst = 0.0
    for alpha in (1.0, -0.7, 0.05):
        for t in np.linspace(0.0, 2.0, 10):
            want = alpha * math.exp(-(b * lam_sq / a) * t)
            got = float(evolve_modes(p, lam_sq, alpha, required * alpha, float(t))[0])
            worst = max(worst, abs(got - want) / abs(want))
    elapsed = time.perf_counter() - t0
    stamp(1, "compatibility dichotomy",
          n_rejected == 1000 and worst <= 1e-12 and elapsed < 1.0,
          f"1000 incompatible rejected, compat err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_closed_form_vs_ode_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    draws = []
    # exact double roots: dyadic c makes delta_sq = 0 in floating point
    for a_v, n in ((1.0, 1), (1.0, 2), (1.0, 4), (1.0, 8), (1.0, 16),
                   (2.0, 2), (2.0, 4), (2.0, 8), (2.0, 16), (2.0, 32)) * 2:
        lam_sq = float(n * n)
        eps = a_v * a_v / (4.0 * lam_sq)
        draws.append((a_v, 1.0, (1.0 - eps) / lam_sq, lam_sq))
    while len(draws) < 200:
        a_v = rng.uniform(0.5, 3.0)
        b_v = rng.uniform(0.3, 2.0)
        lam_sq = rng.uniform(0.3, 20.0)
        u = rng.uniform(0.05, 1.6)
        if 0.95 < u < 1.05:
            continue
        draws.append((a_v, b_v, u / lam_sq, lam_sq))

    counts = {"double": 0, "real": 0, "complex": 0}
    worst = 0.0
    for a_v, b_v, c_v, lam_sq in draws:
        p = ParameterSet(a_v, b_v, c_v)
        alpha, beta = rng.normal(size=2)
        roots = characteristic_roots(p, lam_sq)
        if roots.kind == "double":
            counts["double"] += 1
            rate = abs(roots.r_plus)
        elif roots.kind == "complex_pair":
            counts["complex"] += 1
            rate = abs(roots.r_plus)
        else:
            assert roots.kind == "real_distinct"
            counts["real"] += 1
            rate = max(abs(roots.r_plus), abs(roots.r_minus))
        t = rng.uniform(0.0, min(1.0, 20.0 / max(rate, 1.0)))
        value = float(evolve_modes(p, lam_sq, alpha, beta, t)[0])
        amp = abs(alpha) + abs(beta)
        if abs(value) < 1e-3 * amp:
            continue  # relative error is not meaningful at a zero crossing
        got, _ = integrate_modes(1.0 - c_v * lam_sq, a_v, b_v * lam_sq, alpha, beta,
                                 t + 1e-9, rel_tol=1e-12, abs_tol=1e-15)(t)
        worst = max(worst, abs(value - got) / abs(got))
    elapsed = time.perf_counter() - t0
    stamp(2, "closed form vs ODE oracle",
          worst <= 1e-8 and all(v > 0 for v in counts.values()) and elapsed < 10.0,
          f"200 draws {counts}, worst rel {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_semigroup_identity():
    t0 = time.perf_counter()
    p = ParameterSet(2.0, 1.0, 0.003)
    basis = BasisDescriptor(1, (PI,), 500)
    blocks = build_blocks(p, basis, (1.0, 0.0))
    worst_eigen = 0.0
    for blk in blocks:
        mu = np.sort(np.roots([1.0, blk.h, -blk.k]).real)
        roots = characteristic_roots(p, blk.lambda_sq)
        want = np.sort([roots.r_minus, roots.r_plus])
        worst_eigen = max(worst_eigen,
                          float(np.max(np.abs(mu - want) / np.abs(want))))

    basis8 = BasisDescriptor(1, (PI,), 8)
    blocks8 = build_blocks(p, basis8, (1.0, -0.4))
    rng = np.random.default_rng(303)
    theta0 = Field(basis8, rng.normal(size=8))
    theta1 = Field(basis8, rng.normal(size=8))
    signals = (BoundarySignal.constant(2.0, 1.0),
               BoundarySignal.sinusoid(2.0, omega=3.0),
               BoundarySignal.polynomial(2.0, [0.5, -0.2, 1.0]))
    t = 1.2
    worst_formula = 0.0
    for sig in signals:
        th, dth = evolve_with_boundary(blocks8, theta0, theta1, sig, t)
        for i, blk in enumerate(blocks8):
            def rhs(s, w, blk=blk, sig=sig):
                force = blk.d * ((blk.k - blk.beta) * sig.value(s)
                                 - blk.h * sig.derivative(s))
                return [w[1], blk.k * w[0] - blk.h * w[1] + force]

            w0 = [theta0.coefficients[i] - blk.d * sig.value(0.0),
                  theta1.coefficients[i] - blk.d * sig.derivative(0.0)]
            sol = solve_ivp(rhs, (0.0, t), w0, rtol=1e-11, atol=1e-13,
                            dense_output=True)
            w = sol.sol(t)
            worst_formula = max(
                worst_formula,
                abs(th.coefficients[i] - (w[0] + blk.d * sig.value(t))),
                abs(dth.coefficients[i] - (w[1] + blk.d * sig.derivative(t))))
    elapsed = time.perf_counter() - t0
    stamp(3, "semigroup identity",
          worst_eigen <= 1e-10 and worst_formula <= 1e-7 and elapsed < 30.0,
          f"500-mode eigen err {worst_eigen:.2e}, "
          f"3-signal formula err {worst_formula:.2e}, {elapsed:.1f}s")


def test_criterion_04_dirichlet_map():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    worst = 0.0
    n_cases = 0
    while n_cases < 50:
        c = float(rng.uniform(0.02, 2.5))
        if abs(math.sin(PI / math.sqrt(c))) < 0.05:
            continue
        g = tuple(rng.uniform(-2.0, 2.0, size=2))
        u, _ = dirichlet_map_interval(c, PI, g)
        root = np.longdouble(c) ** np.longdouble(0.5)
        denom = np.sin(np.longdouble(PI) / root)
        cl = np.longdouble(c)

        def u_ld(x):
            return (np.longdouble(g[0]) * np.sin((np.longdouble(PI) - x) / root)
                    + np.longdouble(g[1]) * np.sin(x / root)) / denom

        def d2(x, h):
            return (-u_ld(x + 2 * h) + 16 * u_ld(x + h) - 30 * u_ld(x)
                    + 16 * u_ld(x - h) - u_ld(x - 2 * h)) / (12 * h * h)

        xs = np.linspace(0.03, PI - 0.03, 100).astype(np.longdouble)
        scale = max(1.0, float(np.max(np.abs(u_ld(xs)))))
        assert float(np.max(np.abs(np.asarray(u(xs.astype(float)))
                                   - u_ld(xs).astype(float)))) <= 1e-11 * scale
        # stencil step tracks the lift's wavelength sqrt(c)
        h1 = np.longdouble(min(4e-3, 0.01 * math.sqrt(c)))
        rich = (16 * d2(xs, h1 / 2) - d2(xs, h1)) / 15
        worst = max(worst, float(np.max(np.abs(u_ld(xs) + cl * rich))))
        n_cases += 1
    n_gate = 0
    for c in (0.25, 1.0 / 9.0, 1.0):
        with pytest.raises(ExceptionalParameterError):
            dirichlet_map_interval(c, PI, (1.0, 0.0))
        n_gate += 1
    elapsed = time.perf_counter() - t0
    stamp(4, "Dirichlet map",
          worst <= 1e-10 and n_gate == 3 and elapsed < 1.0,
          f"50 draws x 100 pts, worst residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_05_propagation_speed():
    t0 = time.perf_counter()
    p = ParameterSet(2.0, 1.0, 0.003)
    basis = BasisDescriptor(1, (PI,), 256)
    T = 0.05
    ns = [2.0 ** j for j in range(0, 13)]
    for n in ns:
        assert BoundarySignal.burst(T, n).derivative(T) == 1.0  # f_n'(T) exact
    rows = propagation_burst(p, basis, (1.0, 0.0), T, ns, (1.0, 2.0))
    cross = first_crossing(rows)
    elapsed = time.perf_counter() - t0
    stamp(5, "propagation speed",
          cross is not None and cross <= 4096.0
          and rows[-1].ratio > 0.9 and elapsed < 120.0,
          f"crossing n={cross:g}, final ratio {rows[-1].ratio:.4f}, {elapsed:.1f}s")


def test_criterion_06_whole_line_singularity():
    t0 = time.perf_counter()
    rows = singularity_scan(1.0, 1.0, 0.01, 1.0, range(1, 21), side="below")
    r10 = next(r for r in rows if r.j == 10)
    r20 = next(r for r in rows if r.j == 20)
    # the fast exponential sharpens by three orders of magnitude
    grows = abs(r20.r_minus) >= 10.0 * abs(r10.r_minus)
    bounded = all(r.log_abs_first < math.log(10.0) for r in rows)
    elapsed = time.perf_counter() - t0
    stamp(6, "whole-line singularity",
          grows and bounded and elapsed < 1.0,
          f"|r-| {abs(r10.r_minus):.3e} -> {abs(r20.r_minus):.3e}, "
          f"slow term bounded, {elapsed:.2f}s")


def test_criterion_07_limit1():
    t0 = time.perf_counter()
    a, b, lam_sq, t = 2.0, 1.0, 2.0, 0.3
    target_a = -a / (b * lam_sq)
    target_b = b * lam_sq / a ** 3
    cs_below = [(1.0 - 10.0 ** (-j)) / lam_sq for j in range(1, 6)]
    cs_above = [(1.0 + 10.0 ** (-j)) / lam_sq for j in range(1, 6)]
    ok_sign = True
    for rows, sign in ((limit1_scan(a, b, lam_sq, t, cs_below), -1.0),
                       (limit1_scan(a, b, lam_sq, t, cs_above), 1.0)):
        ok_sign = ok_sign and all(math.copysign(1.0, r.exp_second) == sign
                                  for r in rows)
    err_a = err_b = math.inf
    for c in ((1.0 / lam_sq) - 1e-5, (1.0 / lam_sq) + 1e-5):
        row = limit1_scan(a, b, lam_sq, t, [c])[0]
        eps = 1.0 - c * lam_sq
        err_a = min(err_a, abs(row.coeff_first - target_a))
        err_b = min(err_b, abs(row.coeff_second / eps ** 2 - target_b)
                    / target_b)
        assert abs(row.coeff_first - target_a) <= 1e-4
        assert abs(row.coeff_second / eps ** 2 - target_b) <= 0.05 * target_b
    elapsed = time.perf_counter() - t0
    stamp(7, "limit 1 coefficients",
          ok_sign and elapsed < 1.0,
          f"A err {err_a:.2e} (<=1e-4), B/eps^2 err {err_b:.2%} (<=5%), "
          f"signs track side, {elapsed:.2f}s")


def test_criterion_08_limit2():
    t0 = time.perf_counter()
    res = limit2_scan(1.0, 1.0, 1.0, range(4, 41), 1.0)
    elapsed = time.perf_counter() - t0
    stamp(8, "limit 2 fitted exponents",
          1.40 <= res.growth_exponent_fit <= 1.60
          and -2.6 <= res.coeff_decay_fit <= -2.4 and elapsed < 1.0,
          f"growth {res.growth_exponent_fit:.4f} in [1.40,1.60], "
          f"decay {res.coeff_decay_fit:.4f} in [-2.6,-2.4], {elapsed:.2f}s")


def test_criterion_09_limit3():
    t0 = time.perf_counter()
    res = limit3_scan(range(1, 13), 0.1)
    res2 = limit3_scan(range(1, 13), 0.1)
    worst_oracle = 0.0
    worst_t0 = 0.0
    second_ok = True
    for row in res.rows:
        k = row.k
        p = ParameterSet.from_physical(2.0, 5.0 / (k * k), 4.0)
        got, _ = integrate_modes(1.0 - p.c * k * k, p.a, p.b * k * k,
                                 1.0 / k ** 4, -1.0 / (2 * k * k), 0.1,
                                 rel_tol=1e-11, abs_tol=1e-14)(0.1)
        worst_oracle = max(worst_oracle,
                           abs(row.value_at_t - got) / abs(got))
        worst_t0 = max(worst_t0,
                       abs((row.coeff_first + row.coeff_second) - 1.0 / k ** 4))
        for t in (0.01, 0.1, 0.5, 1.0):
            second_ok = second_ok and (
                abs(row.coeff_second) * math.exp(row.exp_second * t)
                < 2.0 / k ** 4)
    elapsed = time.perf_counter() - t0
    stamp(9, "limit 3 family",
          worst_oracle <= 1e-8 and worst_t0 <= 1e-12 and second_ok
          and res.smallest_k_exceeding == res2.smallest_k_exceeding == 9
          and res.heat_compat_exact and elapsed < 1.0,
          f"oracle err {worst_oracle:.2e}, t=0 err {worst_t0:.2e}, "
          f"smallest k = {res.smallest_k_exceeding}, compat exact, {elapsed:.2f}s")


def test_criterion_10_spectral_vs_fd():
    t0 = time.perf_counter()
    p = ParameterSet(2.0, 1.0, 1e-7)  # below h^2/4 at both grids: no growth
    basis = BasisDescriptor(1, (PI,), 4)
    theta0 = np.zeros(4)
    theta0[0], theta0[2] = 1.0, -0.4
    theta1 = np.zeros(4)
    theta1[1] = 0.3
    T = 0.5
    th_ref, _ = evolve_homogeneous(p, Field(basis, theta0),
                                   Field(basis, theta1), T)

    def fd_error(nx):
        xs = np.linspace(0.0, PI, nx + 1)
        scale = math.sqrt(2.0 / PI)
        s0 = scale * (theta0[0] * np.sin(xs) + theta0[2] * np.sin(3 * xs))
        s1 = scale * theta1[1] * np.sin(2 * xs)
        grid = fd_solve(p, PI, nx, T / 20000, T, s0, s1, snapshot_times=(T,))
        ref = reconstruct(th_ref, xs)
        return (float(np.linalg.norm(grid.theta[0] - ref))
                / float(np.linalg.norm(ref)))

    e_coarse = fd_error(2000)
    e_fine = fd_error(4000)
    elapsed = time.perf_counter() - t0
    stamp(10, "spectral vs finite difference",
          e_coarse <= 1e-2 and e_coarse / e_fine >= 3.0 and elapsed < 120.0,
          f"rel L2 {e_coarse:.2e} at nx=2000, improvement "
          f"{e_coarse / e_fine:.2f}x at nx=4000, {elapsed:.1f}s")


def test_criterion_11_determinism(tmp_path):
    t0 = time.perf_counter()
    commands = {
        "spectrum.csv": ["spectrum", "--N", "8"],
        "exceptional.csv": ["exceptional", "--N", "8", "--kind", "sigma",
                            "--gamma-rho", "4"],
        "solve.csv": ["solve", "--a", "2", "--b", "1", "--c", "0.003",
                      "--N", "16", "--mode", "2", "--t", "0.4"],
        "boundary.csv": ["boundary", "--a", "2", "--b", "1", "--c", "0.003",
                         "--N", "12", "--g0", "1", "--g1", "0",
                         "--signal", "sin", "--omega", "2",
                         "--T", "1", "--t", "0.7"],
        "limit1.csv": ["limit1", "--a", "2", "--b", "1", "--lambda-sq", "2",
                       "--t", "0.3"],
        "limit2.csv": ["limit2", "--a", "1", "--b", "1", "--gamma", "1",
                       "--t", "1"],
        "limit3.csv": ["limit3", "--t", "0.1"],
        "heatcmp.csv": ["heatcmp", "--t", "0.5", "--j-max", "6", "--N", "16"],
        "propagation.csv": ["propagation", "--a", "2", "--b", "1",
                            "--c", "0.003", "--N", "24", "--g0", "1",
                            "--g1", "0", "--T", "0.05", "--n-max-exp", "6",
                            "--sub-lo", "1", "--sub-hi", "2"],
        "wholeline.csv": ["wholeline", "--a", "1", "--b", "1", "--c", "0.01",
                          "--t", "1"],
        "verify.csv": ["verify", "--quick", "--seed", "1"],
    }
    n_checked = 0
    for name, args in commands.items():
        blobs = []
        for rep, threads in enumerate(("1", "4", "1")):
            d = tmp_path / f"{name}.{rep}"
            d.mkdir()
            env = dict(os.environ, CATTANEO4_THREADS=threads)
            r = subprocess.run([sys.executable, "-m", "cattaneo4"] + args,
                               cwd=d, env=env, capture_output=True, text=True)
            assert r.returncode == 0, (name, r.stderr)
            blobs.append((d / name).read_bytes() + r.stdout.encode())
        assert blobs[0] == blobs[1] == blobs[2], name
        n_checked += 1
    elapsed = time.perf_counter() - t0
    stamp(11, "determinism",
          n_checked == len(commands) and elapsed < 60.0,
          f"{n_checked} subcommands x 3 runs x threads {{1,4}} byte-identical, "
          f"{elapsed:.1f}s")
