"""Dirichlet boundary control: lift map, boundary operator, mild evolution.

The inhomogeneous problem theta(0,t) = g0 f(t), theta(L,t) = g1 f(t) is
lifted with the map D solving (1 + c d_xx)(Dg) = 0 with traces g; on (0, L)

    (Dg)(x) = [g0 sin((L-x)/sqrt(c)) + g1 sin(x/sqrt(c))] / sin(L/sqrt(c)),

which exists precisely when sin(L/sqrt(c)) != 0, i.e. c outside the
exceptional set; the gate applies ``modal.is_degenerate`` to the two members
next to c in closed form, independent of the truncation.  The roots of each
mode's generator (1 - c lam2, a, b lam2) are the eigenvalues of a 2x2 block
A = [[0, 1], [k, -h]]; with beta = b/c, W = (theta_n, theta_n') is forced:

    W' = A W + D_n q(t),   D_n = (0, d_n),   q = f'' - beta f.

The variation-of-constants formula

    W(t) = E(t) W(0) + int_0^t E(t-s) D_n q(s) ds,   E(t) = exp(A t),

is evaluated exactly.  The roots, E(t) (``modal._factors``), A
(``modal._companion``) and the finish of W (``modal._finish``: scaled,
subnormal data rescued, saturated past e^700) are those of the homogeneous
evolution, so a zero signal gives its bits.  q is again an exponential polynomial, so on each
piece [s_a, s_b] of the signal, length l, every term r^j e^{sigma r}
integrates to j! l^{j+1} F(A l) (0, 1), F(z) = exp[c, ..., c, z] with j + 1
copies of the node c = sigma l: a phi-function of (A - sigma I) l
(Hochbruck & Ostermann, Acta Numerica 19, 2010, section 2).  For the 2x2
block, F(A l) is the Newton form over the eigenvalue nodes mu_i l, so each
mode needs the divided differences of exp over (c, ..., c, mu_1 l, mu_2 l).
They are summed as a Taylor series where all nodes lie close together
(resonance sigma = mu, a double root, a short piece) and by recurrences that
divide by the widest gap elsewhere (``_divided_differences``), with the
dominant exponent factored out.  A time costs O(modes); there is no
quadrature and no node table.  One call evolves one signal to one time t,
with one root solve and one E(t) (``experiments.propagation_burst`` makes
one call per burst rate).  t = 0 returns the data.
f'' itself stands under the integral, so a ramp of width w carries a
rounding error of about eps/w per unit height in theta'; a ramp that ends
where it starts in floating point is a step.

A signal f is data (``BoundarySignal``): on each piece, the real part of a
sum of terms coef u^p e^{rate (s - origin)}, u = (s - origin)/unit, with
complex coef and rate.  One rule gives f' and f''; one numpy evaluator
samples them over arrays of s, through the complex ``np.exp``, which gives
the bits of ``math.exp`` and ``math.sin`` (the real one does not).

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
from .modal import (ParameterSet, _check_positive, _companion, _factors, _finish, _generator,
                    _product, is_degenerate, second_order_roots)
from .solver import Field
from .spectrum import BasisDescriptor, _interval_neighbours, spectrum

# Nodes of a divided difference that all lie within CLUSTER_RADIUS (at least;
# half the order for long polynomials) of each other are summed as one Taylor
# series of TAYLOR_TERMS terms about their mean; farther nodes are split by
# the recurrences, which then divide by gaps wider than that radius.
CLUSTER_RADIUS = 2.0
TAYLOR_TERMS = 40
# Powers u^0..u^(MAX_POWERS - 1) per signal term: the divided differences
# then have at most MAX_POWERS + 2 nodes (measured within 1e-14 of mpmath at
# 16 powers; 7.8e-12 at 32).
MAX_POWERS = 16
_INV_FACTORIAL = np.array([1.0 / math.factorial(n)
                           for n in range(TAYLOR_TERMS + MAX_POWERS + 3)])


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
        if any(len(cs) > MAX_POWERS for p in f for _, _, cs in p.terms):
            raise ValueError(f"a term of a signal holds at most {MAX_POWERS} powers")
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

    def _forcing(self, beta: float) -> list:
        """q = f'' - beta f piece by piece: (lo, hi, origin, unit, groups), q
        being Re sum coefs[p] u^p e^{rate (s - origin)} over the groups (rate,
        coefs) on [lo, hi); the first piece starts at -inf, the last ends at
        +inf.  Terms of f'' and f with one rate share one group; a group
        whose coefficients are all zero is dropped."""
        bounds = [-math.inf, *self._starts.tolist(), math.inf]
        out = []
        for i, ((origin, unit, f), (_, _, f2)) in enumerate(zip(self._tables[0], self._tables[2])):
            groups = {}
            for rate, coefs in [*f2, *((r, -beta * cs) for r, cs in f)]:
                have = groups.get(rate, np.zeros(0, dtype=complex))
                merged = np.zeros(max(have.size, coefs.size), dtype=complex)
                merged[:have.size] = have
                merged[:coefs.size] += coefs
                groups[rate] = merged
            out.append((bounds[i], bounds[i + 1], origin, unit,
                        [(rate, coefs) for rate, coefs in groups.items() if coefs.any()]))
        return out

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
    """Per-mode generators (``leading``, ``damping``, ``stiffness``) of
    ``modal._generator`` and lift coefficients ``d``, arrays over the modes
    ``lambda_sq``, with the scalar beta = b/c they share.  The block A =
    [[0, 1], [k, -h]] reads h = damping/leading, k = -stiffness/leading.

    ``len(op)`` is the mode count; ``op[i]`` and ``op[a:b]`` return the
    operator of the selected entries (scalar fields for an integer index), so
    iterating visits one mode at a time.
    """

    lambda_sq: np.ndarray
    leading: np.ndarray
    damping: np.ndarray
    stiffness: np.ndarray
    d: np.ndarray
    beta: float

    h = property(lambda self: self.damping / self.leading)
    k = property(lambda self: -self.stiffness / self.leading)

    def __len__(self) -> int:
        return len(self.lambda_sq)

    def __getitem__(self, i) -> "BoundaryOperator":
        return BoundaryOperator(self.lambda_sq[i], self.leading[i], self.damping[i],
                                self.stiffness[i], self.d[i], self.beta)


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
    return numer / _generator(1.0, 1.0, c, lam_sq)[0]   # (a, b) play no part


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
    leading, damping, stiffness = _generator(p.a, p.b, p.c, lam)
    return BoundaryOperator(lam, leading, np.full(lam.shape, damping), stiffness,
                            _lift_coefficients(p.c, L, g0, g1, basis.truncation),
                            p.b / p.c)


def _radius(K: int) -> float:
    return max(CLUSTER_RADIUS, 0.5 * K)


def _phis(z, mag, psi0, scale, K: int) -> list:
    """[e^-rho phi_k(z) for k = 1..K], elementwise, for rho >= max(0, Re z),
    from mag = |z|, psi0 = e^{z - rho} and scale = e^-rho.

    phi_k(z) = exp[0 (k times), z] = sum_m z^m/(m + k)!.  Where |z| exceeds
    ``_radius(K)`` the upward recurrence phi_k = (phi_{k-1} - 1/(k-1)!)/z
    from phi_0 = e^z divides by a wide gap; nearer 0 the Taylor series of
    phi_K and the downward recurrence phi_{k-1} = z phi_k + 1/(k-1)! are
    used (Kassam & Trefethen, SISC 26, 2005, on the cancellation near 0).
    """
    out = []
    with np.errstate(all="ignore"):
        shrink = 1.0 / mag
        inverse = np.conj(z) * shrink * shrink   # 1/z without a complex division
        psi = psi0
        for k in range(1, K + 1):
            psi = (psi - scale * _INV_FACTORIAL[k - 1]) * inverse
            out.append(psi)
    near = mag <= _radius(K)
    if near.any():
        zs, ss = z[near], scale[near]
        acc = np.full(zs.shape, _INV_FACTORIAL[TAYLOR_TERMS + K], dtype=complex)
        for m in range(TAYLOR_TERMS - 1, -1, -1):
            acc = acc * zs + _INV_FACTORIAL[m + K]
        psi = ss * acc
        out[K - 1][near] = psi
        for k in range(K, 1, -1):
            psi = zs * psi + ss * _INV_FACTORIAL[k - 1]
            out[k - 2][near] = psi
    return out


def _divided_differences(z1, z2, g1, g2, rho, base, a, b) -> list:
    """[e^-rho exp[0 (j + 1 times), z1, z2] for j = 0..K-1], elementwise,
    from g1, g2 = |z1|, |z2|, base = e^-rho exp[z1, z2] and a, b = ``_phis``
    at z1, z2.

    The recurrence divides by the widest gap between the nodes: by z2 - z1
    where that is widest, (phi_{j+1}(z2) - phi_{j+1}(z1))/(z2 - z1); else
    by the node z_far farther from 0, (x_{j-1} - phi_{j+1}(z_near))/z_far.
    Where every gap is within ``_radius(K)`` the nodes form one cluster, and
    the Taylor series of exp about their mean zeta is summed instead,
    exp[nodes] = e^zeta sum_m h_m(nodes - zeta)/(m + n)!, with h_m the
    complete homogeneous symmetric polynomials of the n + 1 nodes.
    """
    K = len(a)
    gap = z2 - z1
    g12 = np.abs(gap)
    with np.errstate(all="ignore"):
        out = [(b[j] - a[j]) / gap for j in range(K)]
        rest = g12 < np.maximum(g1, g2)
        if rest.any():
            far1 = (g1 >= g2)[rest]
            z_far = np.where(far1, z1[rest], z2[rest])
            x = base[rest]
            for j in range(K):
                x = (x - np.where(far1, b[j][rest], a[j][rest])) / z_far
                out[j][rest] = x
    cluster = np.maximum(g12, np.maximum(g1, g2)) <= _radius(K)
    if cluster.any():
        u1, u2 = z1[cluster], z2[cluster]
        centre = (u1 + u2) / 3.0
        h = np.zeros((TAYLOR_TERMS + 1, u1.size), dtype=complex)
        h[0] = 1.0

        def absorb(node):   # multiply the series of h by 1/(1 - node x)
            for m in range(1, TAYLOR_TERMS + 1):
                h[m] += node * h[m - 1]

        absorb(u1 - centre)
        absorb(u2 - centre)
        lift = np.exp(centre - rho[cluster])
        for j in range(K):
            absorb(-centre)
            acc = np.zeros(u1.shape, dtype=complex)
            for m in range(TAYLOR_TERMS, -1, -1):
                acc += h[m] * _INV_FACTORIAL[m + j + 2]
            out[j][cluster] = lift * acc
    return out


def _convolution(mu1, mu2, sigma: complex, ell, coefs, phi1_ell, log_ell):
    """int_0^ell e^{A (ell - r)} (0, 1) sum_j coefs[j] (r/ell)^j e^{sigma r} dr
    in scaled form: returns (v1, v2, rho), the integral being e^{sigma ell +
    rho} (v1, v2).

    mu1 and mu2 are the eigenvalues of A (mode shape); ``phi1_ell`` and
    ``log_ell`` are the ``modal._factors`` of exp(A ell).  Term j gives
    j! ell F(A ell) (0, 1) with F(z) = exp[c (j+1 times), z], c = sigma ell;
    in the Newton form over the nodes m_i = mu_i ell,

        F(M) (0, 1) = (ell exp[c.., m1, m2], (z e^z)[c.., m1, m2]),

    the first from ``_divided_differences`` (shifted by c) and the second
    by the Leibniz rule (z e^z)[x_0..x_n] = x_0 exp[x_0..x_n] + exp[x_1..x_n]
    with x_0 the node of least magnitude, so that a stiff root or a fast
    rate does not cancel the slow part.  rho = max(0, Re(m_i - c)) is the
    dominant exponent, factored out (Hochbruck & Ostermann, Acta Numerica
    19, 2010, section 2).
    """
    c = sigma * ell
    m1, m2 = mu1 * ell, mu2 * ell
    z1, z2 = m1 - c, m2 - c
    g1, g2 = np.abs(z1), np.abs(z2)
    rho = np.maximum(0.0, np.maximum(z1.real, z2.real))
    scale = np.exp(-rho)
    # e^{z - rho} as real exponentials times unit phases: Im m2 = -Im m1, and
    # the phase of c is one per time (a complex exp costs 30 real ones)
    turn = np.exp(-1j * c.imag)
    spin = np.ones(m1.shape, dtype=complex)
    turning = m1.imag != 0.0
    if turning.any():
        spin[turning] = np.exp(1j * m1.imag[turning])
    K = len(coefs)
    a = _phis(z1, g1, np.exp(z1.real - rho) * (spin * turn), scale, K)
    b = _phis(z2, g2, np.exp(z2.real - rho) * (np.conj(spin) * turn), scale, K)
    with np.errstate(all="ignore"):
        base = np.exp(log_ell - c.real - rho) * (phi1_ell / ell) * turn
    x = _divided_differences(z1, z2, g1, g2, rho, base, a, b)
    mag1, mag2 = np.abs(mu1) * ell, np.abs(mu2) * ell
    by_m = np.abs(c) > np.minimum(mag1, mag2)   # else the node c
    mixed = bool(by_m.any())
    if mixed:
        by_2 = (mag2 <= mag1)[by_m]
        node = np.where(by_2, m2[by_m], m1[by_m])
    s1 = s2 = 0.0
    prev = base
    for j, cj in enumerate(coefs):
        y = c * x[j] + prev
        if mixed:
            y[by_m] = node * x[j][by_m] + np.where(by_2, a[j][by_m], b[j][by_m])
        w = cj * float(math.factorial(j))
        s1 = s1 + w * x[j]
        s2 = s2 + w * y
        prev = x[j]
    return ell * (ell * s1), ell * s2, rho


def _taylor_shift(coefs, u: float) -> list:
    """Coefficients of P(u + w) in powers of w, for P = sum coefs[p] w^p."""
    s = list(coefs)
    if u != 0.0:
        for i in range(len(s) - 1):
            for k in range(len(s) - 2, i - 1, -1):
                s[k] += u * s[k + 1]
    return s


def evolve_with_boundary(blocks: BoundaryOperator, theta0: Field, theta1: Field,
                         signal: BoundarySignal, t: float) -> tuple[Field, Field]:
    """(theta, theta') at time t from the data (theta0, theta1) under the
    boundary signal, by the exact variation-of-constants formula

        W(t) = E(t) W(0) + int_0^t E(t - s) D_n q(s) ds,   q = f'' - beta f,

    with W = (theta_n, theta_n'), D_n = (0, d_n) and E(t) = exp(A t).  The
    eigenvalues of every block come from one ``modal.second_order_roots``
    call on the generators, and E(t) from one ``modal._factors`` call.  The
    integral is evaluated in closed form, piece by piece of the signal, from
    divided differences of exp (``_convolution``); there is no quadrature.
    A piece [s_a, s_b] that starts before t adds one ``_convolution`` per
    nonzero rate group of q on the piece, carried to t by E(t - s_b).  Every
    step is elementwise over the modes, so a call costs O(modes).  Each
    mode's dominant exponent is kept out of the sums and applied last by
    ``modal._finish``, the finish of ``modal.evolve_modes``: values beyond
    the e^700 range saturate to +/-inf with the flag set, and subnormal data
    keep their digits; infinite data are flagged.  t = 0 returns the data
    exactly, flagged where they are not finite; a zero signal gives
    ``solver.evolve_homogeneous`` bit for bit.  The blocks must hold the
    eigenvalues of the data's basis (``build_blocks`` on that basis); else
    ValueError.
    """
    basis = theta0.basis
    if basis != theta1.basis:
        raise ValueError("theta0 and theta1 must share one basis")
    if not np.array_equal(blocks.lambda_sq, spectrum(basis).lambda_sq):
        raise ValueError("need exactly one block per basis mode, with its eigenvalue")
    t = float(t)
    if not 0.0 <= t <= signal.T * (1 + 1e-12):
        raise ValueError(f"t={t} outside the signal horizon [0, {signal.T}]")
    alpha, beta = theta0.coefficients, theta1.coefficients
    infinite = ~(np.isfinite(alpha) & np.isfinite(beta))
    if t == 0.0:   # the data, exactly
        return Field(basis, alpha.copy(), infinite), Field(basis, beta.copy(), infinite.copy())
    r_plus, r_minus, freq = second_order_roots(blocks.leading, blocks.damping,
                                               blocks.stiffness)[2:]
    k, minus_h = _companion(r_plus, r_minus, freq)
    first = r_plus >= r_minus
    mu1 = np.where(first, r_plus, r_minus) + 1j * freq
    mu2 = np.where(first, r_minus, r_plus) - 1j * freq
    e0, e1, log_e = _factors(r_plus, r_minus, freq, t)

    # the scaled response of each (piece, rate) at t: (u1, u2, log) is
    # e^log (u1, u2), before the factor d
    parts = []
    for lo, hi, origin, unit, groups in signal._forcing(blocks.beta):
        s_a, s_b = max(lo, 0.0), min(hi, t)
        if s_b <= s_a or not groups:
            continue
        ell = s_b - s_a
        kappa = ell / unit
        if s_a == 0.0 and s_b == t:
            phi1_ell, log_ell = e1, log_e   # the piece is all of [0, t]
        else:
            _, phi1_ell, log_ell = _factors(r_plus, r_minus, freq, ell)
        if s_b < t:
            f0, f1, log_tau = _factors(r_plus, r_minus, freq, t - s_b)
        for rate, coefs in groups:
            # q on the piece in powers of v = (s - s_a)/ell: u = u_a + kappa v
            shifted = _taylor_shift(coefs, (s_a - origin) / unit)
            coefs_v = [cj * kappa ** j for j, cj in enumerate(shifted)]
            v1, v2, rho = _convolution(mu1, mu2, rate, ell, coefs_v, phi1_ell, log_ell)
            w = rate * (s_b - origin)
            phase = np.exp(1j * w.imag)
            u1, u2, log = (phase * v1).real, (phase * v2).real, w.real + rho
            if s_b < t:
                u1, u2 = _product(f0, f1, k, minus_h, u1, u2)
                log = log + log_tau
            parts.append((u1, u2, log))
    theta, dtheta, sat = _combine(blocks.d, k, minus_h, alpha, beta, e0, e1, log_e, parts)
    sat = sat | infinite
    return Field(basis, theta, sat), Field(basis, dtheta, sat.copy())


def _combine(d, k, minus_h, alpha, beta, e0, e1, log_e, parts):
    """(theta, theta', saturated) from the scaled homogeneous factors and the
    scaled signal parts: shift = the largest log-scale of each entry is kept
    out of the sums, and ``modal._finish`` applies it last; without parts,
    as in ``modal._state``."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if not parts:
            return _finish(e0, e1, log_e, k, minus_h, alpha, beta)[:3]
        shift = log_e
        for _, _, log in parts:
            shift = np.maximum(shift, log)
        weight = np.exp(log_e - shift)
        e0, e1 = e0 * weight, e1 * weight
        p1 = p2 = np.zeros(shift.shape)
        for u1, u2, log in parts:
            lift = np.exp(log - shift)
            p1, p2 = p1 + u1 * lift, p2 + u2 * lift
        return _finish(e0, e1, shift, k, minus_h, alpha, beta, (d, p1, p2))[:3]
