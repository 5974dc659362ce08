"""Dirichlet boundary control: lift map, boundary operator, mild evolution.

The inhomogeneous problem theta(0,t) = g0 f(t), theta(L,t) = g1 f(t) is
lifted with the map D solving (1 + c d_xx)(Dg) = 0 with traces g; on (0, L)

    (Dg)(x) = [g0 sin((L-x)/sqrt(c)) + g1 sin(x/sqrt(c))] / sin(L/sqrt(c)),

which exists precisely when sin(L/sqrt(c)) != 0, i.e. c outside the
exceptional set; the gate applies ``modal.is_degenerate`` to the two members
next to c in closed form, independent of the truncation.  Each mode has a 2x2
block A = [[0, 1], [k, -h]] with h = a/(1 - c lam2), k = -b lam2/(1-c lam2),
beta = b/c, forced through the state W = (theta_n, theta_n'):

    W' = A W - beta D_n f(t) + D_n f''(t),   D_n = (0, d_n).

Integrating the variation-of-constants formula by parts twice removes all
derivatives of f from under the integral:

    W(t) = E(t)[W(0) - D_n f'(0) - A D_n f(0)] + D_n f'(t) + A D_n f(t)
           + int_0^t E(t-s) (-beta I + A^2) D_n f(s) ds,

with E(t) = exp(A t) in the closed 2x2 form E = phi0 I + phi1 A of
``modal.propagator``.  Only f itself appears under the integral, so rough
signals are handled stably.  The integral is composite Simpson on uniform
nodes.  The eigenvalues of A are computed once per operator and the table
of E(t - s) at the nodes is formed from them block by block, through the
same kernel as ``modal.propagator`` (``modal._factors``).  The table does
not depend on f, so signals that share an operator, a time and a step
share one table (``_evolve_signals``; ``experiments.propagation_burst``
evolves all its burst rates that way).

A signal f is data (``BoundarySignal``): on each piece, the real part of a
sum of terms coef u^p e^{rate (s - origin)}, u = (s - origin)/unit, with
complex coef and rate.  One rule gives f' and f''; one numpy evaluator
samples them at all nodes at once, through the complex ``np.exp``, which
gives the bits of ``math.exp`` and ``math.sin`` (the real one does not).

A weaker solution notion that decouples the lift parameter from c exists in
principle but has no clear physical reading; it is intentionally not
implemented.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from functools import partialmethod
from typing import NamedTuple

import numpy as np

from .errors import ExceptionalParameterError
from .modal import (ParameterSet, _check_positive, _digits_kept, _factors, _roots,
                    is_degenerate)
from .solver import Field
from .spectrum import BasisDescriptor, _interval_neighbours, spectrum
from .util import scaled_exp, simpson_weights

# Modes per propagator table in evolve_with_boundary: bounds the (modes, nodes)
# temporaries; every mode's result is the same for any block size.
MODE_BLOCK = 32
# mild_solution_check: internal step of the five-point second difference,
# and the bound on its residual.
FD_STEP = 1e-3
C2_TOL = 1e-5


class Piece(NamedTuple):
    """A signal from ``start`` on: for each (rate, over, coefs) in ``terms``,
    the terms coefs[p] u^p e^{rate (s - origin)}, divided by rate where
    ``over`` is set, with u = (s - origin)/unit."""

    start: float
    origin: float
    unit: float
    terms: tuple

    def derivative(self) -> "Piece":
        """d/ds P(u) e^{rate x} = (P'(u)/unit + rate P(u)) e^{rate x}; over rate,
        the second part keeps P as it is, so (scale/n) e^{n x} has the
        derivative scale e^{n x} exactly."""
        terms = []
        for rate, over, cs in self.terms:
            if len(cs) > 1:
                terms.append((rate, over, tuple(c * p / self.unit for p, c in enumerate(cs) if p)))
            if rate:
                terms.append((rate, False, cs if over else tuple(c * rate for c in cs)))
        return self._replace(terms=tuple(terms))


class BoundarySignal:
    """C^2 time signal f on [0, T] as data: ``pieces`` holds ``Piece``s in
    order of start, each up to the next (the first also below its own
    start).  ``value``, ``derivative`` and ``second_derivative`` evaluate f,
    f' and f'' over arrays of s (a scalar s gives a float).  Coefficients,
    rates, origins, units and piece starts must be finite."""

    def __init__(self, pieces, T: float, label: str = "custom"):
        if not (T > 0.0 and math.isfinite(T)):
            raise ValueError("signal horizon T must be positive and finite")
        f = tuple(Piece(float(a), float(o), float(u),
                        tuple((complex(r), bool(over), tuple(complex(c) for c in cs))
                              for r, over, cs in terms if len(cs)))
                  for a, o, u, terms in pieces)
        if not all(p.unit > 0.0 and all(r or not over for r, over, _ in p.terms) for p in f):
            raise ValueError("a signal needs positive units, and no term over a zero rate")
        stack = [f, tuple(p.derivative() for p in f)]
        stack.append(tuple(p.derivative() for p in stack[1]))
        self._tables = [[(p.origin, p.unit, [(r, np.array([c / r if over else c for c in cs]))
                                             for r, over, cs in p.terms])
                         for p in level] for level in stack]
        starts = [p.start for p in f]
        data = starts + [p.origin for p in f] + [
            v for level in self._tables for _, unit, terms in level
            for rate, coefs in terms for v in (unit, rate, *coefs)]
        if not (all(cmath.isfinite(v) for v in data) and starts == sorted(starts)):
            raise ValueError(f"{label} signal: piece starts (in order), origins, rates and "
                             "the coefficients of f, f' and f'' must be finite")
        self.pieces, self.T, self.label = f, float(T), label
        self._starts = np.array(starts[1:])

    def _evaluate(self, order: int, s):
        s = np.asarray(s, dtype=float)
        flat, out = s.reshape(-1), np.zeros(s.size)
        which = np.searchsorted(self._starts, flat, side="right")
        for i, (origin, unit, terms) in enumerate(self._tables[order]):
            at = which == i
            x = flat[at] - origin
            u = x / unit
            for j, (rate, coefs) in enumerate(terms):
                acc = np.full(x.shape, coefs[-1])
                for c in coefs[-2::-1]:
                    acc = acc * u + c
                e = np.exp(rate * x)  # Re(acc e) in real products: no fused multiply-add
                part = acc.real * e.real - acc.imag * e.imag
                out[at] = part if j == 0 else out[at] + part
        return float(out[0]) if s.ndim == 0 else out.reshape(s.shape)

    value = partialmethod(_evaluate, 0)
    derivative = partialmethod(_evaluate, 1)
    second_derivative = partialmethod(_evaluate, 2)

    @classmethod
    def constant(cls, T: float, level: float = 1.0) -> "BoundarySignal":
        return cls([(0.0, 0.0, 1.0, [(0, False, [level])])], T, "constant")

    @classmethod
    def sinusoid(cls, T: float, omega: float, amplitude: float = 1.0,
                 phase: float = 0.0) -> "BoundarySignal":
        """amplitude sin(omega t + phase) = Re amplitude (sin phase - i cos phase) e^{i omega t}"""
        sin, cos = (math.sin(phase), math.cos(phase)) if math.isfinite(phase) else (math.nan,) * 2
        coef = complex(amplitude * sin, -amplitude * cos)
        return cls([(0.0, 0.0, 1.0, [(complex(0.0, omega), False, [coef])])], T, "sinusoid")

    @classmethod
    def polynomial(cls, T: float, coeffs) -> "BoundarySignal":
        """f(t) = coeffs[0] + coeffs[1] t + ... (ascending powers)."""
        coeffs = np.asarray(coeffs, dtype=float).ravel()
        return cls([(0.0, 0.0, 1.0, [(0, False, coeffs)])], T, "polynomial")

    @classmethod
    def burst(cls, T: float, n: float, scale: float = 1.0) -> "BoundarySignal":
        """Sharpening ramp f(t) = (scale/n) exp(-n (T-t)); f'(T) = scale exactly."""
        if not n > 0.0:
            raise ValueError("burst rate n must be positive")
        return cls([(0.0, T, 1.0, [(n, True, [scale])])], T, f"burst(n={n:g})")

    @classmethod
    def smoothed_step(cls, T: float, t0: float, width: float,
                      height: float = 1.0) -> "BoundarySignal":
        """C^2 quintic ramp from 0 to height over [t0, t0 + width], in powers of
        u = (t - t0)/width, so that a narrow ramp keeps finite coefficients."""
        if not (width > 0.0 and 0.0 <= t0 and t0 + width <= T):
            raise ValueError("ramp must fit inside [0, T]")
        ramp = [0.0, 0.0, 0.0, 10.0 * height, -15.0 * height, 6.0 * height]
        return cls([(0.0, 0.0, 1.0, []), (t0, t0, width, [(0, False, ramp)]),
                    (t0 + width, 0.0, 1.0, [(0, False, [height])])], T, "smoothed_step")


@dataclass(frozen=True, eq=False)
class BoundaryOperator:
    """Per-mode 2x2 generators A = [[0, 1], [k, -h]] and lift coefficients d as
    arrays over the modes (``lambda_sq``, ``h``, ``k``, ``d``), with the scalar
    beta = b/c they share.

    ``len(op)`` is the mode count; ``op[i]`` and ``op[a:b]`` return the
    operator of the selected entries (scalar fields for an integer index), so
    iterating visits one mode at a time.
    """

    lambda_sq: np.ndarray
    h: np.ndarray
    k: np.ndarray
    d: np.ndarray
    beta: float

    def __len__(self) -> int:
        return len(self.lambda_sq)

    def __getitem__(self, i) -> "BoundaryOperator":
        return BoundaryOperator(self.lambda_sq[i], self.h[i], self.k[i], self.d[i],
                                self.beta)


def _interval_pair(g) -> tuple[float, float]:
    """The interval boundary values (g0, g1): exactly two finite real numbers."""
    try:
        pair = tuple(g)
    except TypeError:
        pair = ()
    if len(pair) != 2 or not all(isinstance(v, numbers.Real) for v in pair):
        raise ValueError("boundary data must be a pair (g0, g1) of finite numbers")
    g0, g1 = float(pair[0]), float(pair[1])
    if not (math.isfinite(g0) and math.isfinite(g1)):
        raise ValueError("boundary values must be finite")
    return g0, g1


def _lift_gate(c: float, L: float) -> float:
    """sin(L/sqrt(c)), the denominator of the lift, after the gate.

    The Dirichlet map exists exactly when 1/c is not an eigenvalue
    (n pi / L)^2, so c is rejected where ``modal.is_degenerate`` holds at
    one of the two members of the whole exceptional set next to it (the
    closed form of ``spectrum.exceptional_neighbours`` with no truncation):
    the test of ``evolve_modes`` and ``solver.check_wellposed``, in O(1).  A
    subnormal c meets the eigenvalue +inf there and is rejected.
    """
    _check_positive(c=c, L=L)
    n, lam_sq = _interval_neighbours(L, c)
    hit = is_degenerate(c, lam_sq)
    if np.any(hit):
        nearest = float(1.0 / lam_sq[np.argmax(hit)])
        raise ExceptionalParameterError(
            f"c={c} is exceptional for the Dirichlet map: it collides with the "
            f"member {nearest!r} of mode {n[np.argmax(hit)]:.17g}", value=c, nearest=nearest)
    return math.sin(L / math.sqrt(c))


def _lift_coefficients(c: float, L: float, g0: float, g1: float, N: int) -> np.ndarray:
    """Modal coefficients d_n of the lift, by integrating the map against phi_n twice
    by parts: d_n (1 - c lam2) = c (g1 phi_n'(L) - g0 phi_n'(0))."""
    ratio = math.pi / L
    scale = math.sqrt(2.0 / L)
    n = np.arange(1, N + 1, dtype=float)
    lam_sq = (n * ratio) ** 2
    signs = np.where(np.arange(1, N + 1) % 2 == 0, 1.0, -1.0)
    numer = c * scale * (n * ratio) * (g1 * signs - g0)
    return numer / (1.0 - c * lam_sq)


def dirichlet_map_interval(c: float, L: float, g, truncation: int = 64):
    """Dirichlet lift on (0, L): returns (u, field) with traces u(0)=g0, u(L)=g1.

    u satisfies (1 + c u'')(x) = 0 identically; ``field`` holds its modal
    projection over the first ``truncation`` modes in closed form.  Raises
    ExceptionalParameterError when c is in the exceptional set to the
    precision of ``modal.is_degenerate``, whatever the truncation.
    """
    g0, g1 = _interval_pair(g)
    s = _lift_gate(c, L)
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    beta_x = 1.0 / math.sqrt(c)

    def u(x):
        x = np.asarray(x, dtype=float)
        return (g0 * np.sin((L - x) * beta_x) + g1 * np.sin(x * beta_x)) / s

    basis = BasisDescriptor(1, (L,), truncation)
    field = Field(basis, _lift_coefficients(c, L, g0, g1, truncation))
    return u, field


def build_blocks(p: ParameterSet, basis: BasisDescriptor, g) -> BoundaryOperator:
    """The boundary operator of every basis mode with the lift of boundary datum g.

    Interval bases only; the exceptional gate is the Dirichlet-map condition
    that 1/c is no eigenvalue (``_lift_gate``).  Degenerate blocks cannot
    arise past the gate.
    """
    if basis.dimension != 1:
        raise ValueError("semigroup blocks are implemented on intervals")
    g0, g1 = _interval_pair(g)
    L = basis.lengths[0]
    _lift_gate(p.c, L)
    lam = spectrum(basis).lambda_sq
    eps = 1.0 - p.c * lam
    return BoundaryOperator(lam, p.a / eps, -p.b * lam / eps,
                            _lift_coefficients(p.c, L, g0, g1, basis.truncation),
                            p.b / p.c)


def _even_intervals(t: float, quad_step: float | None) -> int:
    step = 1e-3 * t if quad_step is None else quad_step
    if not step > 0.0:
        raise ValueError("quad_step must be positive")
    m = max(2, math.ceil(t / step))
    return m + (m % 2)


def evolve_with_boundary(blocks: BoundaryOperator, theta0: Field, theta1: Field,
                         signal: BoundarySignal, t: float,
                         quad_step: float | None = None) -> tuple[Field, Field]:
    """Evaluate the twice-integrated-by-parts mild formula at time t.

    The convolution integral contains only f itself and is computed by
    composite Simpson with the caller's step (default t/1000, rounded to an
    even interval count).  The propagator tables are formed in blocks of
    ``MODE_BLOCK`` modes.  Each mode's dominant exponent is kept out of the
    sums and applied last, so values beyond the e^700 range saturate to +/-inf
    with the flag set.  Subnormal data keep their digits: where a scaled
    value would lose them, the power of two at the mode's largest datum is
    factored out, as ``modal._state`` does.
    """
    return _evolve_signals(blocks, theta0, theta1, [signal], t, quad_step)[0]


def _evolve_signals(blocks: BoundaryOperator, theta0: Field, theta1: Field,
                    signals, t: float,
                    quad_step: float | None) -> list[tuple[Field, Field]]:
    """``evolve_with_boundary`` for several signals on one operator and one
    set of nodes: one (theta, theta') pair per signal, each bit for bit what
    a call with that signal alone gives.

    The eigenvalues of every block come from one ``modal._roots`` call per
    operator.  The propagator table of a mode block (phi0, phi1 and the
    log-scale weights at every node, from ``modal._factors``, which orders
    the roots once per mode) does not depend on the signal, so it is formed
    once per block and summed against each signal's Simpson-weighted
    samples (the table reuse of exponential integrators: Hochbruck &
    Ostermann, Acta Numerica 19, 2010, section 2).  The sums are numpy row
    sums over the nodes, not BLAS products, whose per-row result can depend
    on how many rows a call holds; so each mode's result is the same for
    any ``MODE_BLOCK``.
    """
    if theta0.basis != theta1.basis:
        raise ValueError("theta0 and theta1 must share one basis")
    basis = theta0.basis
    if len(blocks) != basis.truncation:
        raise ValueError("need exactly one block per basis mode")
    for signal in signals:
        if not 0.0 <= t <= signal.T * (1 + 1e-12):
            raise ValueError(f"t={t} outside the signal horizon [0, {signal.T}]")
    if t == 0.0:
        return [(Field(basis, theta0.coefficients.copy()),
                 Field(basis, theta1.coefficients.copy())) for _ in signals]
    d = blocks.d
    _, r_plus, r_minus, freq = _roots(1.0, blocks.h, -blocks.k)

    m_int = _even_intervals(t, quad_step)
    s_nodes = np.linspace(0.0, t, m_int + 1)
    tau = t - s_nodes
    rule = simpson_weights(m_int + 1)
    f_nodes = [signal.value(s_nodes) for signal in signals]
    fw = [rule * f * ((t / m_int) / 3.0) for f in f_nodes]

    # per mode: E(t) = e^shift (e0 I + e1 A) and, per signal, the quadrature
    # sums int_0^t E(tau) f = e^shift (p0 I + p1 A), shift = max log-scale >= 0
    n_modes = basis.truncation
    shift, e0, e1 = (np.empty(n_modes) for _ in range(3))
    p0, p1 = (np.empty((len(signals), n_modes)) for _ in range(2))
    for lo in range(0, n_modes, MODE_BLOCK):
        sl = slice(lo, lo + MODE_BLOCK)
        phi0, phi1, log_scale = _factors(r_plus[sl, None], r_minus[sl, None],
                                         freq[sl, None], tau)
        top = np.max(log_scale, axis=1, keepdims=True)   # tau = 0 gives 0
        weight = np.exp(np.subtract(log_scale, top, out=log_scale), out=log_scale)
        shift[sl] = top[:, 0]
        e0[sl] = phi0[:, 0] * weight[:, 0]                # tau[0] = t
        e1[sl] = phi1[:, 0] * weight[:, 0]
        for j, fw_j in enumerate(fw):
            # the last signal scales the weights and the factors in place:
            # fresh tables of this size cost page faults (5% of a
            # one-signal call at 2048 modes)
            last = j == len(fw) - 1
            weight_j = np.multiply(weight, fw_j, out=weight if last else None)
            p0[j, sl] = np.sum(np.multiply(phi0, weight_j, out=phi0 if last else None), axis=1)
            p1[j, sl] = np.sum(np.multiply(phi1, weight_j, out=phi1 if last else None), axis=1)

    lift = np.exp(-shift)
    results = []
    for j, signal in enumerate(signals):
        df_ends = signal.derivative(s_nodes[[0, -1]])
        f_ends = (f_nodes[j][0], df_ends[0], f_nodes[j][-1], df_ends[1])
        v1, v2 = _scaled_values(blocks, d, theta0.coefficients, theta1.coefficients,
                                e0, e1, (p0[j], p1[j], *f_ends), lift)
        exponent = None
        if not (_digits_kept(v1) and _digits_kept(v2)):
            # factor out the power of two at each mode's largest datum, theta
            # or d f (Higham, Accuracy and Stability, 2nd ed., 2.1): theta
            # enters times 2^-e, d times 2^-e_d and the signal times 2^-e_f,
            # e_d + e_f = e, which scales v1 and v2 by 2^-e; where d = 0 the
            # signal terms vanish and the signal is left as it is
            f_top = np.max(np.abs(np.concatenate((f_nodes[j], df_ends))))
            exponent = np.frexp(np.maximum(np.maximum(np.abs(theta0.coefficients),
                                                      np.abs(theta1.coefficients)),
                                           np.abs(d) * f_top))[1]
            e_d = np.frexp(d)[1]
            e_f = np.where(d != 0.0, exponent - e_d, 0)
            v1, v2 = _scaled_values(
                blocks, np.ldexp(d, -e_d), np.ldexp(theta0.coefficients, -exponent),
                np.ldexp(theta1.coefficients, -exponent), e0, e1,
                [np.ldexp(v, -e_f) for v in (p0[j], p1[j], *f_ends)], lift)
        vals, s1 = scaled_exp(v1, shift, exponent)
        derivs, s2 = scaled_exp(v2, shift, exponent)
        sat = s1 | s2
        results.append((Field(basis, vals, sat.copy()), Field(basis, derivs, sat.copy())))
    return results


def _scaled_values(blocks: BoundaryOperator, d, alpha, beta, e0, e1, signal_terms, lift):
    """(theta, theta') at t over e^shift from the data (alpha, beta), the
    lift coefficients d, and ``signal_terms`` = (p0, p1, f(0), f'(0), f(t),
    f'(t)): the quadrature sums and the end values of the signal."""
    h, k = blocks.h, blocks.k
    p0, p1, f0, df0, ft, dft = signal_terms
    adj1 = alpha - d * f0
    adj2 = beta - d * df0 + h * d * f0
    w1 = -h * d
    w2 = (k + h * h - blocks.beta) * d
    v1 = e0 * adj1 + e1 * adj2 + p0 * w1 + p1 * w2 + d * ft * lift
    v2 = (e0 * adj2 + e1 * (k * adj1 - h * adj2) + p0 * w2 + p1 * (k * w1 - h * w2)
          + (d * dft - h * d * ft) * lift)
    return v1, v2


@dataclass(frozen=True)
class MildSolutionReport:
    """Consistency diagnostics of a boundary-forced trajectory."""

    max_c2_residual: float

    @property
    def ok(self) -> bool:
        return self.max_c2_residual <= C2_TOL


def mild_solution_check(blocks: BoundaryOperator, theta0: Field, theta1: Field,
                        signal: BoundarySignal, t_grid,
                        quad_step: float | None = None) -> MildSolutionReport:
    """Check the computed trajectory against the lifted formulation.

    The lifted variable y = theta - d f(t) must be C^2-consistent: a
    fourth-order five-point second difference with internal step FD_STEP
    matches the governing y'' = k theta - h theta' - beta d f(t) to C2_TOL,
    relative to the larger of 1 and |y''|.  A nan residual (a mode that
    saturated) reaches the report, so that ``ok`` is False.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 5:
        raise ValueError("t_grid must hold at least 5 times")
    dt = t_grid[1] - t_grid[0]
    if dt <= 0.0 or np.max(np.abs(np.diff(t_grid) - dt)) > 1e-9 * dt:
        raise ValueError("t_grid must be uniform and increasing")
    if t_grid[0] < 2.0 * FD_STEP:
        raise ValueError(f"need t_grid[0] >= {2.0 * FD_STEP:g}, room for the stencil")

    times = t_grid[:, None] + FD_STEP * np.arange(-2.0, 3.0)   # the stencil of each time
    pairs = [evolve_with_boundary(blocks, theta0, theta1, signal, float(t), quad_step=quad_step)
             for t in times.ravel()]
    th, dth = (np.reshape([f.coefficients for f in fields], (*times.shape, -1))
               for fields in zip(*pairs))
    f = signal.value(times)[..., None]
    y = th - blocks.d * f
    with np.errstate(invalid="ignore"):  # inf - inf of a saturated mode
        ypp = blocks.k * th[:, 2] - blocks.h * dth[:, 2] - blocks.beta * blocks.d * f[:, 2]
        fd2 = (-y[:, 0] + 16.0 * y[:, 1] - 30.0 * y[:, 2] + 16.0 * y[:, 3] - y[:, 4]) / (
            12.0 * FD_STEP * FD_STEP)
        c2_res = np.abs(fd2 - ypp) / np.maximum(1.0, np.abs(ypp))
    return MildSolutionReport(float(np.max(c2_res)))
