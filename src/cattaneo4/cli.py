"""Command line interface: every subcommand writes one CSV table.

    cattaneo4 spectrum --L pi --N 16
    cattaneo4 exceptional --L pi --N 32 --kind sigma --gamma-rho 4
    cattaneo4 solve --a 3 --b 1 --c 0.5 --L pi --N 8 --mode 1 --alpha 1 --t 0.7
    cattaneo4 boundary --a 3 --b 1 --c 0.5 --L pi --N 32 --g0 1 --g1 0 \
        --signal sin --omega 2 --T 1 --t 1
    cattaneo4 limit1 --a 1 --b 1 --lambda-sq 1 --t 0.3 --j-min 1 --j-max 8
    cattaneo4 limit2 --a 1 --b 1 --gamma 1 --k-min 4 --k-max 40 --t 0.5
    cattaneo4 limit3 --k-min 1 --k-max 12 --t 0.1
    cattaneo4 heatcmp --chi 2 --gamma-rho 4 --j-max 10 --t 0.5 --N 32
    cattaneo4 propagation --a 3 --b 1 --c 0.5 --L pi --N 256 --g0 1 --g1 0 \
        --T 0.05 --n-max-exp 12 --sub-lo 1 --sub-hi 2
    cattaneo4 wholeline --a 1 --b 1 --c 0.25 --t 1 --j-min 1 --j-max 20
    cattaneo4 verify --seed 7

Floats are printed with 17 significant digits, so equal runs are
byte-identical.  Exit codes: 0 success, 1 usage or invalid argument,
2 exceptional/singular parameter rejected, 3 unsolvable degenerate mode.
The length option accepts the literal token 'pi'.  A negative value may
carry an exponent or be infinite (--beta -1e-3, --alpha -inf).
"""

from __future__ import annotations

import argparse
import csv
import math
import re
import sys

import numpy as np

from . import boundary as bnd
from . import experiments as exp
from . import modal, solver, spectrum
from .errors import (ExceptionalParameterError, SingularParameterError,
                     UnsolvableModeError)


def fmt_float(x: float) -> str:
    """CSV float format: up to 17 significant digits, round-trip exact."""
    return format(x, ".17g")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes "-1e-3" and "-inf" for options: its pattern of negative
        # numbers has no exponent and no infinity (subparsers share this class)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-inf(inity)?$", re.IGNORECASE)

    def error(self, message):
        raise _UsageError(message)


def _length(token: str) -> float:
    if token.strip().lower() == "pi":
        return math.pi
    try:
        v = float(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid length {token!r}")
    return v


def _lengths(tokens: str) -> tuple:
    return tuple(_length(tok) for tok in tokens.split(","))


def _coeffs(tokens: str) -> list:
    try:
        return [float(tok) for tok in tokens.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid coefficients {tokens!r}")


def _cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return fmt_float(float(v))


def _write_csv(path: str, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_cell(v) for v in row])


def _field_rows(basis, th, dth):
    for n, (lam, v, dv, s) in enumerate(zip(spectrum.spectrum(basis).lambda_sq,
                                            th.coefficients, dth.coefficients,
                                            th.saturated | dth.saturated), start=1):
        yield (n, lam, v, dv, "saturated" if s else "ok")


def _split_rows(rows, param_name):
    header = ["k", param_name, "coeff1", "exp1", "coeff2", "exp2", "logvalue", "flag"]
    data = [(r.k, r.parameter, r.coeff_first, r.exp_first, r.coeff_second,
             r.exp_second, r.log_abs_value, r.flag) for r in rows]
    return header, data


def _cmd_spectrum(args) -> str:
    lengths = args.lengths or (args.L,)
    spec = spectrum.spectrum(spectrum.BasisDescriptor(len(lengths), lengths, args.N))
    _write_csv(args.out, ["index", "multi_index", "lambda_sq"],
               [(n, "x".join(str(i) for i in idx), lam) for n, (idx, lam) in enumerate(
                   zip(spec.multi_index.tolist(), spec.lambda_sq.tolist()), start=1)])
    return f"spectrum: {len(spec.lambda_sq)} modes -> {args.out}"


def _cmd_exceptional(args) -> str:
    values = spectrum.spectrum(spectrum.BasisDescriptor(1, (args.L,), args.N)).inverse
    if args.kind == "sigma":
        if args.gamma_rho is None:
            raise ValueError("--gamma-rho is required for --kind sigma")
        modal._check_positive(gamma_rho=args.gamma_rho)
        values = args.gamma_rho * values
    _write_csv(args.out, ["index", "value"],
               [(i + 1, v) for i, v in enumerate(values.tolist())])
    return f"exceptional[{args.kind}]: {len(values)} values -> {args.out}"


def _cmd_solve(args) -> str:
    p = modal.ParameterSet(args.a, args.b, args.c)
    if not (math.isfinite(args.alpha) and math.isfinite(args.beta)):
        raise ValueError("alpha and beta must be finite")
    basis = spectrum.BasisDescriptor(1, (args.L,), args.N)
    theta0 = solver.basis_field(basis, args.mode, args.alpha)
    theta1 = solver.basis_field(basis, args.mode, args.beta)
    th, dth = solver.evolve_homogeneous(p, theta0, theta1, args.t,
                                        override_exceptional=args.override)
    _write_csv(args.out, ["n", "lambda_sq", "theta", "theta_prime", "flag"],
               _field_rows(basis, th, dth))
    return (f"solve: t={fmt_float(args.t)} norm={fmt_float(solver.field_norm(th))} "
            f"-> {args.out}")


def _make_signal(args) -> bnd.BoundarySignal:
    if args.signal == "constant":
        return bnd.BoundarySignal.constant(args.T, args.level)
    if args.signal == "sin":
        return bnd.BoundarySignal.sinusoid(args.T, args.omega)
    if args.signal == "poly":
        return bnd.BoundarySignal.polynomial(args.T, args.coeffs)
    if args.signal == "burst":
        return bnd.BoundarySignal.burst(args.T, args.n_rate)
    raise ValueError(f"unknown signal {args.signal!r}")


def _cmd_boundary(args) -> str:
    p = modal.ParameterSet(args.a, args.b, args.c)
    basis = spectrum.BasisDescriptor(1, (args.L,), args.N)
    blocks = bnd.build_blocks(p, basis, (args.g0, args.g1))
    signal = _make_signal(args)
    th, dth = bnd.evolve_with_boundary(blocks, solver.zero_field(basis),
                                       solver.zero_field(basis), signal,
                                       args.t)
    _write_csv(args.out, ["n", "lambda_sq", "theta", "theta_prime", "flag"],
               _field_rows(basis, th, dth))
    return (f"boundary[{signal.label}]: t={fmt_float(args.t)} "
            f"norm={fmt_float(solver.field_norm(th))} -> {args.out}")


def _cmd_limit1(args) -> str:
    lam_sq = args.lambda_sq
    modal._check_positive(lambda_sq=lam_sq)
    if args.j_min < 1:
        raise ValueError("j_min must be at least 1: c* (1 - 10^-j) is not positive for j < 1")
    c_star = 1.0 / lam_sq
    cs = [c_star * (1.0 - 10.0 ** (-j)) for j in range(args.j_min, args.j_max + 1)]
    cs += [c_star * (1.0 + 10.0 ** (-j)) for j in range(args.j_min, args.j_max + 1)]
    rows = exp.limit1_scan(args.a, args.b, lam_sq, args.t, cs)
    header, data = _split_rows(rows, "c")
    _write_csv(args.out, header, data)
    ref = exp.limit1_reference(args.a, args.b, lam_sq, args.t)
    return (f"limit1: {len(rows)} rows, A_limit={fmt_float(ref['A_limit'])} "
            f"-> {args.out}")


def _cmd_limit2(args) -> str:
    res = exp.limit2_scan(args.a, args.b, args.gamma,
                          range(args.k_min, args.k_max + 1), args.t)
    header, data = _split_rows(res.rows, "c")
    _write_csv(args.out, header, data)
    return (f"limit2: growth_fit={fmt_float(res.growth_exponent_fit)} "
            f"decay_fit={fmt_float(res.coeff_decay_fit)} -> {args.out}")


def _cmd_limit3(args) -> str:
    res = exp.limit3_scan(range(args.k_min, args.k_max + 1), args.t)
    header, data = _split_rows(res.rows, "sigma")
    _write_csv(args.out, header, data)
    smallest = res.smallest_k_exceeding
    return (f"limit3: smallest k with |theta|>k: "
            f"{smallest if smallest is not None else 'none'}, "
            f"compat_exact={res.heat_compat_exact} -> {args.out}")


def _cmd_heatcmp(args) -> str:
    modal._check_positive(chi=args.chi, gamma_rho=args.gamma_rho)
    basis = spectrum.BasisDescriptor(1, (math.pi,), args.N)
    theta0 = solver.basis_field(basis, args.mode, 1.0)
    heat_rate = args.chi / args.gamma_rho
    lam_sq = spectrum.spectrum(basis).lambda_sq[args.mode - 1]
    theta1 = solver.basis_field(basis, args.mode, -heat_rate * lam_sq)
    # 4/n^2 is exceptional for gamma_rho=4, so plain powers of two collide at
    # every even j; the factor 3 keeps the whole ladder clear of 4/n^2.
    sigmas = [3.0 * 2.0 ** (-j) for j in range(0, args.j_max + 1)]
    rows = exp.heat_comparison(args.chi, args.gamma_rho, sigmas, theta0, theta1, args.t)
    _write_csv(args.out, ["sigma", "distance", "flag"],
               [(r.sigma, r.distance, r.flag) for r in rows])
    return (f"heatcmp: sigma={fmt_float(sigmas[-1])} "
            f"distance={fmt_float(rows[-1].distance)} -> {args.out}")


def _cmd_propagation(args) -> str:
    p = modal.ParameterSet(args.a, args.b, args.c)
    basis = spectrum.BasisDescriptor(1, (args.L,), args.N)
    if args.n_max_exp > 1023:
        raise ValueError("n_max_exp must be at most 1023: 2^1024 overflows a float")
    ns = [2.0 ** j for j in range(0, args.n_max_exp + 1)]
    rows = exp.propagation_burst(p, basis, (args.g0, args.g1), args.T, ns,
                                 (args.sub_lo, args.sub_hi))
    _write_csv(args.out, ["n", "mass", "target", "ratio"],
               [(r.n, r.mass_in_subregion, r.target_mass, r.ratio) for r in rows])
    cross = exp.first_crossing(rows)
    return (f"propagation: crossing n={fmt_float(cross) if cross is not None else 'none'} "
            f"final_ratio={fmt_float(rows[-1].ratio)} -> {args.out}")


def _cmd_wholeline(args) -> str:
    rows = exp.singularity_scan(args.a, args.b, args.c, args.t,
                                range(args.j_min, args.j_max + 1), side=args.side)
    _write_csv(args.out, ["j", "lam", "r_plus", "r_minus", "log_first",
                          "log_second", "flag"],
               [(r.j, r.lam, r.r_plus, r.r_minus, r.log_abs_first,
                 r.log_abs_second, r.flag) for r in rows])
    return (f"wholeline[{args.side}]: {len(rows)} rows, "
            f"log_second(last)={fmt_float(rows[-1].log_abs_second)} -> {args.out}")


def _expm_2x2(m: np.ndarray) -> np.ndarray:
    """exp(m) of a 2x2 matrix from its entries alone, by scaling and squaring
    (Moler & Van Loan, SIAM Rev. 45, 2003; Higham, SIMAX 26, 2005): halve m
    s times until its infinity norm is at most 1/2, sum 18 Taylor terms
    (truncation below 1e-22 there), and square the sum s times.  It shares
    nothing with the root formulas of ``modal``, so it checks them."""
    # the least s >= 0 with norm / 2^s <= 1/2, where norm = frac 2^exp2
    frac, exp2 = math.frexp(float(np.max(np.sum(np.abs(m), axis=1))))
    s = max(0, exp2 + (frac > 0.5))
    scaled = m / 2.0 ** s
    term = total = np.eye(2)
    for k in range(1, 19):
        term = term @ scaled / k
        total = total + term
    for _ in range(s):
        total = total @ total
    return total


def _modes(rng, count, ranges=((0.5, 3.0), (0.2, 2.0), (0.05, 2.0), (0.5, 9.0)), gap=0.05):
    """count draws of (a, b, c, lam_sq) in ``ranges``; those with |1 - c lam_sq| >= gap."""
    for _ in range(count):
        a, b, c, lam_sq = (rng.uniform(lo, hi) for lo, hi in ranges)
        if abs(modal._generator(a, b, c, lam_sq)[0]) >= gap:
            yield a, b, c, lam_sq


def _interval_spectrum_exact(rng, n_draws):
    lam = spectrum.spectrum(spectrum.BasisDescriptor(1, (math.pi,), 16)).lambda_sq
    return ("interval_spectrum_exact",
            max(abs(l - n * n) for n, l in enumerate(lam.tolist(), start=1)), 0.0)


def _box_spectrum_sorted(rng, n_draws):
    box = spectrum.spectrum(spectrum.BasisDescriptor(2, (math.pi, math.pi), 32)).lambda_sq
    return "box_spectrum_sorted", 0.0 if np.all(box[:-1] <= box[1:]) else 1.0, 0.0


def _characteristic_root_identity(rng, n_draws):
    worst = 0.0
    for a, b, c, lam_sq in _modes(rng, n_draws * 4):
        roots = modal.characteristic_roots(modal.ParameterSet(a, b, c), lam_sq)
        leading, damping, stiffness = modal._generator(a, b, c, lam_sq)
        for mu in (complex(roots.mu_plus), complex(roots.mu_minus)):
            res = abs(leading * mu * mu + damping * mu + stiffness)
            scale = max(1.0, abs(mu) ** 2 * abs(leading))
            worst = max(worst, res / scale)
    return "characteristic_root_identity", worst, 1e-10


def _eval_t0_round_trip(rng, n_draws):
    worst = 0.0
    for a, b, c, lam_sq in _modes(rng, n_draws * 4):
        al, be = rng.uniform(-2, 2), rng.uniform(-2, 2)
        v, d, _ = modal.evolve_modes(modal.ParameterSet(a, b, c), lam_sq, al, be, 0.0)
        worst = max(worst, abs(float(v) - al), abs(float(d) - be))
    return "eval_t0_round_trip", worst, 0.0


def _modal_linearity(rng, n_draws):
    worst = 0.0
    for a, b, c, lam_sq in _modes(rng, n_draws):
        p = modal.ParameterSet(a, b, c)
        d1 = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        d2 = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        t = rng.uniform(0.0, 1.0)
        v1, v2, v12 = (float(modal.evolve_modes(p, lam_sq, al, be, t)[0]) for al, be in
                       (d1, d2, (d1[0] + d2[0], d1[1] + d2[1])))
        worst = max(worst, abs(v12 - (v1 + v2)) / max(1.0, abs(v12)))
    return "modal_linearity", worst, 1e-12


def _closed_form_vs_expm(rng, n_draws):
    worst = 0.0
    for a, b, c, lam_sq in _modes(rng, n_draws, ((0.5, 2.5), (0.2, 1.5), (0.1, 1.5),
                                                 (0.5, 6.0)), gap=0.1):
        p = modal.ParameterSet(a, b, c)
        data = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        leading, damping, stiffness = modal._generator(a, b, c, lam_sq)
        gen = np.array([[0.0, 1.0], [-stiffness / leading, -damping / leading]])
        for t in (0.25, 0.7, 1.0):
            ref = float((_expm_2x2(gen * t) @ data)[0])
            value = float(modal.evolve_modes(p, lam_sq, *data, t)[0])
            worst = max(worst, abs(value - ref) / max(1.0, abs(ref)))
    return "closed_form_vs_expm", worst, 1e-11


def _dirichlet_map_residual(rng, n_draws):
    # the lift is a sum of sin(x/sqrt(c)) and sin((L - x)/sqrt(c)), so in
    # exact arithmetic its second difference with step s obeys u(x + s) +
    # u(x - s) = 2 cos(s/sqrt(c)) u(x), the discrete form of u'' = -u/c with
    # no truncation error: checked in double, with the traces u(0), u(L)
    worst = 0.0
    for _ in range(5):
        c = rng.uniform(0.2, 2.0)
        if abs(math.sin(math.pi / math.sqrt(c))) < 0.2:
            continue
        g = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        u, _ = bnd.dirichlet_map_interval(c, math.pi, g, truncation=8)
        step = 0.5 * math.sqrt(c)
        xs = np.linspace(0.3, math.pi - 0.3, 17)
        centre = u(xs)
        size = max(1.0, float(np.max(np.abs(centre))))
        residual = (u(xs + step) + u(xs - step) - 2.0 * math.cos(0.5) * centre) / (
            2.0 - 2.0 * math.cos(0.5))
        worst = max(worst, float(np.max(np.abs(residual))) / size,
                    abs(float(u(0.0)) - g[0]), abs(float(u(math.pi)) - g[1]))
    return "dirichlet_map_residual", worst, 1e-10


def _block_eigenvalues(rng, n_draws):
    p = modal.ParameterSet(3.0, 1.0, 0.5)
    blocks = bnd.build_blocks(p, spectrum.BasisDescriptor(1, (math.pi,), 64), (1.0, 0.0))
    roots = modal.characteristic_roots(p, blocks.lambda_sq)
    worst = 0.0
    for blk, mus in zip(blocks, zip(roots.mu_plus.tolist(), roots.mu_minus.tolist())):
        mat = np.array([[0.0, 1.0], [blk.k, -blk.h]])
        eig = sorted(np.linalg.eigvals(mat), key=lambda z: (z.real, z.imag))
        want = sorted(mus, key=lambda z: (z.real, z.imag))
        for e, wv in zip(eig, want):
            worst = max(worst, abs(e - wv) / max(1.0, abs(wv)))
    return "block_eigenvalues", worst, 1e-10


def _boundary_zero_signal(rng, n_draws):
    p = modal.ParameterSet(3.0, 1.0, 0.5)
    basis = spectrum.BasisDescriptor(1, (math.pi,), 32)
    th0 = solver.Field(basis, rng.normal(size=32) / (1.0 + np.arange(32.0)) ** 2)
    th1 = solver.zero_field(basis)
    bth, bdth = bnd.evolve_with_boundary(bnd.build_blocks(p, basis, (0.0, 0.0)), th0, th1,
                                         bnd.BoundarySignal.constant(1.0, 0.0), 0.8)
    hth, hdth = solver.evolve_homogeneous(p, th0, th1, 0.8)
    worst = max(float(np.max(np.abs(bth.coefficients - hth.coefficients))),
                float(np.max(np.abs(bdth.coefficients - hdth.coefficients))))
    return "boundary_zero_signal_matches_homogeneous", worst, 0.0


_VERIFY_ROWS = (_interval_spectrum_exact, _box_spectrum_sorted, _characteristic_root_identity,
                _eval_t0_round_trip, _modal_linearity, _closed_form_vs_expm,
                _dirichlet_map_residual, _block_eigenvalues, _boundary_zero_signal)


def _verify_row(i: int, seed: int, quick: bool):
    """Row i of ``verify``, (check, max_error, tol), drawn from default_rng([seed, i])."""
    return _VERIFY_ROWS[i](np.random.default_rng([seed, i]), 5 if quick else 20)


def _cmd_verify(args) -> str:
    if args.seed < 0:
        raise ValueError(f"seed must be nonnegative, got {args.seed}")
    rows = [(name, err, tol, "ok" if err <= tol else "fail") for name, err, tol in
            (_verify_row(i, args.seed, args.quick) for i in range(len(_VERIFY_ROWS)))]
    _write_csv(args.out, ["check", "max_error", "tol", "status"], rows)
    bad = [r[0] for r in rows if r[3] == "fail"]
    if bad:
        raise ValueError(f"verify failed: {', '.join(bad)} (see {args.out})")
    return f"verify: {len(rows)}/{len(rows)} ok -> {args.out}"


def _add_common(sp, *names):
    if "abc" in names:
        sp.add_argument("--a", type=float, required=True)
        sp.add_argument("--b", type=float, required=True)
        sp.add_argument("--c", type=float, required=True)
    if "basis" in names:
        sp.add_argument("--L", type=_length, default=math.pi,
                        help="interval length; accepts the token 'pi'")
        sp.add_argument("--N", type=int, required=True, help="truncation")


def build_parser() -> _Parser:
    ap = _Parser(prog="cattaneo4", description=__doc__,
                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="Dirichlet eigenvalues")
    _add_common(sp, "basis")
    sp.add_argument("--lengths", type=_lengths, default=None,
                    help="comma-separated box side lengths (overrides --L)")
    sp.set_defaults(func=_cmd_spectrum, out_default="spectrum.csv")

    sp = sub.add_parser("exceptional", help="exceptional parameter sets")
    _add_common(sp, "basis")
    sp.add_argument("--kind", choices=("c", "sigma"), default="c")
    sp.add_argument("--gamma-rho", type=float, default=None)
    sp.set_defaults(func=_cmd_exceptional, out_default="exceptional.csv")

    sp = sub.add_parser("solve", help="evolve single-mode data, zero boundary")
    _add_common(sp, "abc", "basis")
    sp.add_argument("--mode", type=int, required=True)
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--beta", type=float, default=0.0)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--override", action="store_true",
                    help="evolve at exceptional c (data must be compatible)")
    sp.set_defaults(func=_cmd_solve, out_default="solve.csv")

    sp = sub.add_parser("boundary", help="evolve zero data under a boundary signal")
    _add_common(sp, "abc", "basis")
    sp.add_argument("--g0", type=float, required=True)
    sp.add_argument("--g1", type=float, required=True)
    sp.add_argument("--signal", choices=("constant", "sin", "poly", "burst"),
                    default="constant")
    sp.add_argument("--level", type=float, default=1.0)
    sp.add_argument("--omega", type=float, default=1.0)
    sp.add_argument("--coeffs", type=_coeffs, default="0,1")
    sp.add_argument("--n-rate", type=float, default=16.0)
    sp.add_argument("--T", type=float, required=True)
    sp.add_argument("--t", type=float, required=True)
    sp.set_defaults(func=_cmd_boundary, out_default="boundary.csv")

    sp = sub.add_parser("limit1", help="c -> 1/lam2 coefficient limit scan")
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--lambda-sq", type=float, required=True)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--j-min", type=int, default=1)
    sp.add_argument("--j-max", type=int, default=8)
    sp.set_defaults(func=_cmd_limit1, out_default="limit1.csv")

    sp = sub.add_parser("limit2", help="near-exceptional mode-walk scan")
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--k-min", type=int, default=4)
    sp.add_argument("--k-max", type=int, default=40)
    sp.add_argument("--t", type=float, required=True)
    sp.set_defaults(func=_cmd_limit2, out_default="limit2.csv")

    sp = sub.add_parser("limit3", help="sigma-form family scan (chi=2, gamma rho=4)")
    sp.add_argument("--k-min", type=int, default=1)
    sp.add_argument("--k-max", type=int, default=12)
    sp.add_argument("--t", type=float, required=True)
    sp.set_defaults(func=_cmd_limit3, out_default="limit3.csv")

    sp = sub.add_parser("heatcmp", help="distance to the heat solution vs sigma")
    sp.add_argument("--chi", type=float, default=2.0)
    sp.add_argument("--gamma-rho", type=float, default=4.0)
    sp.add_argument("--j-max", type=int, default=10)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--N", type=int, default=32)
    sp.add_argument("--mode", type=int, default=1)
    sp.set_defaults(func=_cmd_heatcmp, out_default="heatcmp.csv")

    sp = sub.add_parser("propagation", help="boundary burst mass arrival")
    _add_common(sp, "abc", "basis")
    sp.add_argument("--g0", type=float, required=True)
    sp.add_argument("--g1", type=float, required=True)
    sp.add_argument("--T", type=float, required=True)
    sp.add_argument("--n-max-exp", type=int, default=12,
                    help="burst rates n = 2^0 .. 2^j")
    sp.add_argument("--sub-lo", type=float, required=True)
    sp.add_argument("--sub-hi", type=float, required=True)
    sp.set_defaults(func=_cmd_propagation, out_default="propagation.csv")

    sp = sub.add_parser("wholeline", help="essential-singularity frequency scan")
    _add_common(sp, "abc")
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--j-min", type=int, default=1)
    sp.add_argument("--j-max", type=int, default=20)
    sp.add_argument("--side", choices=("above", "below"), default="above")
    sp.set_defaults(func=_cmd_wholeline, out_default="wholeline.csv")

    sp = sub.add_parser("verify", help="seeded self-check battery")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--quick", action="store_true")
    sp.set_defaults(func=_cmd_verify, out_default="verify.csv")

    for name, sp in sub.choices.items():
        sp.add_argument("--out", default=None, help="output CSV path")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # --help
        return int(e.code or 0)
    if args.out is None:
        args.out = args.out_default
    try:
        summary = args.func(args)
    except ValueError as e:   # the typed errors below derive from it
        print(f"error: {e}", file=sys.stderr)
        return (3 if isinstance(e, UnsolvableModeError) else
                2 if isinstance(e, (ExceptionalParameterError, SingularParameterError)) else 1)
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
