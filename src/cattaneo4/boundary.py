"""Dirichlet boundary control: lift map, boundary operator, mild evolution.

The inhomogeneous problem theta(0,t) = g0 f(t), theta(L,t) = g1 f(t) is
lifted with the map D solving (1 + c d_xx)(Dg) = 0 with traces g; on (0, L)

    (Dg)(x) = [g0 sin((L-x)/sqrt(c)) + g1 sin(x/sqrt(c))] / sin(L/sqrt(c)),

which exists precisely when sin(L/sqrt(c)) != 0, i.e. c outside the
exceptional set (truncation-independent gate).  Each mode then carries a 2x2
block A = [[0, 1], [k, -h]] with h = a/(1 - c lam2), k = -b lam2/(1-c lam2),
beta = b/c, forced through the state W = (theta_n, theta_n'):

    W' = A W - beta D_n f(t) + D_n f''(t),   D_n = (0, d_n).

Integrating the variation-of-constants formula by parts twice removes all
derivatives of f from under the integral:

    W(t) = E(t)[W(0) - D_n f'(0) - A D_n f(0)] + D_n f'(t) + A D_n f(t)
           + int_0^t E(t-s) (-beta I + A^2) D_n f(s) ds,

with E(t) = exp(A t) in the closed 2x2 form E = phi0 I + phi1 A of
``modal.propagator``.  Only f itself appears under the integral, so rough
signals are handled stably.

A weaker solution notion that decouples the lift parameter from c exists in
principle but has no clear physical reading; it is intentionally not
implemented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ExceptionalParameterError
from .modal import ParameterSet, propagator
from .solver import Field
from .spectrum import BasisDescriptor, spectrum
from .util import scaled_exp, simpson_weights

# Modes per propagator call in evolve_with_boundary: bounds the (modes, nodes)
# temporaries; every mode's result is the same for any block size.
MODE_BLOCK = 32
# mild_solution_check: internal step of the five-point second difference,
# and the residual bounds of its two clauses.
FD_STEP = 1e-3
C2_TOL = 1e-5
RELATION_TOL = 1e-7


@dataclass(frozen=True)
class DirichletDatum:
    """Boundary values: an interval pair (g0, g1), or per-face sequences on a box."""

    values: tuple

    @classmethod
    def interval(cls, g0: float, g1: float) -> "DirichletDatum":
        return cls((float(g0), float(g1)))

    def interval_pair(self) -> tuple[float, float]:
        if (len(self.values) != 2
                or not all(isinstance(v, float) for v in self.values)):
            raise ValueError("datum does not describe an interval boundary")
        g0, g1 = self.values
        if not (math.isfinite(g0) and math.isfinite(g1)):
            raise ValueError("boundary values must be finite")
        return g0, g1


@dataclass
class BoundarySignal:
    """C^2 time signal f on [0, T] with its first two derivatives."""

    value: callable
    derivative: callable
    second_derivative: callable
    T: float
    label: str = "custom"

    def __post_init__(self):
        if not (self.T > 0.0 and math.isfinite(self.T)):
            raise ValueError("signal horizon T must be positive and finite")

    @classmethod
    def constant(cls, T: float, level: float = 1.0) -> "BoundarySignal":
        return cls(lambda t: level, lambda t: 0.0, lambda t: 0.0, T, "constant")

    @classmethod
    def sinusoid(cls, T: float, omega: float, amplitude: float = 1.0,
                 phase: float = 0.0) -> "BoundarySignal":
        def f(t):
            return amplitude * math.sin(omega * t + phase)

        def df(t):
            return amplitude * omega * math.cos(omega * t + phase)

        def d2f(t):
            return -amplitude * omega * omega * math.sin(omega * t + phase)

        return cls(f, df, d2f, T, "sinusoid")

    @classmethod
    def polynomial(cls, T: float, coeffs) -> "BoundarySignal":
        """f(t) = coeffs[0] + coeffs[1] t + ... (ascending powers)."""
        c0 = np.asarray(coeffs, dtype=float)
        c1 = np.polyder(c0[::-1])[::-1] if c0.size > 1 else np.zeros(1)
        c2 = np.polyder(c1[::-1])[::-1] if c1.size > 1 else np.zeros(1)

        def make(c):
            return lambda t: float(np.polyval(c[::-1], t))

        return cls(make(c0), make(c1), make(c2), T, "polynomial")

    @classmethod
    def burst(cls, T: float, n: float, scale: float = 1.0) -> "BoundarySignal":
        """Sharpening ramp f(t) = (scale/n) exp(-n (T-t)); f'(T) = scale exactly."""
        if not n > 0.0:
            raise ValueError("burst rate n must be positive")

        def f(t):
            return (scale / n) * math.exp(-n * (T - t))

        def df(t):
            return scale * math.exp(-n * (T - t))

        def d2f(t):
            return scale * n * math.exp(-n * (T - t))

        return cls(f, df, d2f, T, f"burst(n={n:g})")

    @classmethod
    def smoothed_step(cls, T: float, t0: float, width: float,
                      height: float = 1.0) -> "BoundarySignal":
        """C^2 quintic ramp from 0 to height over [t0, t0 + width]."""
        if not (width > 0.0 and 0.0 <= t0 and t0 + width <= T):
            raise ValueError("ramp must fit inside [0, T]")

        def f(t):
            u = (t - t0) / width
            if u <= 0.0:
                return 0.0
            if u >= 1.0:
                return height
            return height * u ** 3 * (10.0 - 15.0 * u + 6.0 * u * u)

        def df(t):
            u = (t - t0) / width
            if u <= 0.0 or u >= 1.0:
                return 0.0
            return height * 30.0 * u * u * (1.0 - u) ** 2 / width

        def d2f(t):
            u = (t - t0) / width
            if u <= 0.0 or u >= 1.0:
                return 0.0
            return height * 60.0 * u * (1.0 - u) * (1.0 - 2.0 * u) / (width * width)

        return cls(f, df, d2f, T, "smoothed_step")


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
    """Finite boundary values (g0, g1) from a DirichletDatum or a pair."""
    if not isinstance(g, DirichletDatum):
        g = DirichletDatum.interval(g[0], g[1])
    return g.interval_pair()


def _lift_gate(c: float, L: float) -> float:
    if not (c > 0.0 and math.isfinite(c)):
        raise ValueError("c must be positive and finite")
    if not (L > 0.0 and math.isfinite(L)):
        raise ValueError("L must be positive and finite")
    s = math.sin(L / math.sqrt(c))
    if abs(s) <= 1e-12:
        raise ExceptionalParameterError(
            f"c={c} is exceptional for the Dirichlet map: sin(L/sqrt(c)) = {s:.3e}",
            value=c)
    return s


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
    ExceptionalParameterError when sin(L/sqrt(c)) vanishes to gate precision
    (c in the exceptional set, truncation-independent).
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
    sin(L/sqrt(c)) != 0.  Degenerate blocks cannot arise past the gate.
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
    even interval count).  Modes go through ``propagator`` in blocks of
    ``MODE_BLOCK``.  Each mode's dominant exponent is kept out of the sums
    and applied last, so values beyond the e^700 range saturate to +/-inf
    with the flag set.
    """
    if theta0.basis != theta1.basis:
        raise ValueError("theta0 and theta1 must share one basis")
    basis = theta0.basis
    if len(blocks) != basis.truncation:
        raise ValueError("need exactly one block per basis mode")
    if not 0.0 <= t <= signal.T * (1 + 1e-12):
        raise ValueError(f"t={t} outside the signal horizon [0, {signal.T}]")
    if t == 0.0:
        return (Field(basis, theta0.coefficients.copy()),
                Field(basis, theta1.coefficients.copy()))
    h, k, d, beta = blocks.h, blocks.k, blocks.d, blocks.beta

    m_int = _even_intervals(t, quad_step)
    s_nodes = np.linspace(0.0, t, m_int + 1)
    tau = t - s_nodes
    f_nodes = np.array([signal.value(s) for s in s_nodes])
    f0, df0 = signal.value(0.0), signal.derivative(0.0)
    ft, dft = signal.value(t), signal.derivative(t)

    adj1 = theta0.coefficients - d * f0
    adj2 = theta1.coefficients - d * df0 + h * d * f0
    w1 = -h * d
    w2 = (k + h * h - beta) * d
    fw = simpson_weights(m_int + 1) * f_nodes * ((t / m_int) / 3.0)

    # per mode: E(t) = e^shift (e0 I + e1 A) and the quadrature sums
    # int_0^t E(tau) f = e^shift (p0 I + p1 A), shift = max log-scale >= 0
    n_modes = basis.truncation
    shift, e0, e1, p0, p1 = (np.empty(n_modes) for _ in range(5))
    for lo in range(0, n_modes, MODE_BLOCK):
        sl = slice(lo, lo + MODE_BLOCK)
        phi0, phi1, log_scale, _ = propagator(h[sl, None], k[sl, None], tau)
        top = np.max(log_scale, axis=1, keepdims=True)   # tau = 0 gives 0
        weight = np.exp(log_scale - top)
        shift[sl] = top[:, 0]
        e0[sl] = phi0[:, 0] * weight[:, 0]                # tau[0] = t
        e1[sl] = phi1[:, 0] * weight[:, 0]
        weight *= fw
        p0[sl] = np.sum(phi0 * weight, axis=1)
        p1[sl] = np.sum(phi1 * weight, axis=1)

    lift = np.exp(-shift)
    v1 = e0 * adj1 + e1 * adj2 + p0 * w1 + p1 * w2 + d * ft * lift
    v2 = (e0 * adj2 + e1 * (k * adj1 - h * adj2) + p0 * w2 + p1 * (k * w1 - h * w2)
          + (d * dft - h * d * ft) * lift)
    vals, s1 = scaled_exp(v1, shift)
    derivs, s2 = scaled_exp(v2, shift)
    sat = s1 | s2
    return Field(basis, vals, sat.copy()), Field(basis, derivs, sat.copy())


@dataclass(frozen=True)
class MildSolutionReport:
    """Consistency diagnostics of a boundary-forced trajectory."""

    max_c2_residual: float
    max_relation_residual: float

    @property
    def ok(self) -> bool:
        return (self.max_c2_residual <= C2_TOL
                and self.max_relation_residual <= RELATION_TOL)


def mild_solution_check(blocks: BoundaryOperator, theta0: Field, theta1: Field,
                        signal: BoundarySignal, t_grid,
                        quad_step: float | None = None) -> MildSolutionReport:
    """Check the computed trajectory against the lifted formulation.

    Two clauses: (1) the lifted variable y = theta - d f(t) is C^2-consistent:
    a fourth-order five-point second difference with internal step FD_STEP
    matches the governing y'' = k theta - h theta' - beta d f(t) to C2_TOL;
    (2) the lifted relation (y'' - beta y) = (k - beta) theta - h theta'
    holds along the trajectory to RELATION_TOL, testing the mutual wiring of
    (h, k, beta).  Residuals are relative to the larger of 1 and the local
    scale.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 5:
        raise ValueError("t_grid must hold at least 5 times")
    dt = t_grid[1] - t_grid[0]
    if dt <= 0.0 or np.max(np.abs(np.diff(t_grid) - dt)) > 1e-9 * dt:
        raise ValueError("t_grid must be uniform and increasing")
    if t_grid[0] < 2.0 * FD_STEP:
        raise ValueError(f"need t_grid[0] >= {2.0 * FD_STEP:g}, room for the stencil")

    h, k, d, beta = blocks.h, blocks.k, blocks.d, blocks.beta

    def lifted_at(t: float):
        f_t, f_dt = evolve_with_boundary(blocks, theta0, theta1, signal, t,
                                         quad_step=quad_step)
        fval = signal.value(t)
        th = f_t.coefficients
        return th - d * fval, th, f_dt.coefficients, fval

    c2_res = 0.0
    rel_res = 0.0
    for tj in t_grid:
        tj = float(tj)
        ys = [lifted_at(tj + m * FD_STEP)[0] for m in (-2, -1, 1, 2)]
        y0, th, dth, fval = lifted_at(tj)
        ypp = k * th - h * dth - beta * d * fval
        fd2 = (-ys[0] + 16.0 * ys[1] - 30.0 * y0 + 16.0 * ys[2] - ys[3]) / (
            12.0 * FD_STEP * FD_STEP)
        scale2 = np.maximum(1.0, np.abs(ypp))
        c2_res = max(c2_res, float(np.max(np.abs(fd2 - ypp) / scale2)))

        lhs = ypp - beta * y0
        rhs = (k - beta) * th - h * dth
        scale_r = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        rel_res = max(rel_res, float(np.max(np.abs(lhs - rhs) / scale_r)))

    return MildSolutionReport(c2_res, rel_res)
