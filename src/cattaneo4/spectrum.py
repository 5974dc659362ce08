"""Dirichlet Laplacian spectrum on intervals and boxes, and exceptional sets.

Eigenvalues are stored as positive numbers lambda_sq with A phi = -lambda_sq
phi, so on (0, L) the interval spectrum is (n pi / L)^2 and a box spectrum is
the sum of per-axis interval values.  The exceptional parameter sets are
E = {1/lambda_n^2} for the c-form equation and Z = gamma_rho * E for the
sigma-form; parameters inside them break well-posedness for generic data.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .util import fit_slope


@dataclass(frozen=True)
class EigenMode:
    """One Dirichlet eigenpair: 1-based index, eigenvalue, per-axis indices."""

    index: int
    lambda_sq: float
    multi_index: tuple[int, ...]

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("mode index is 1-based")
        if not self.lambda_sq > 0.0:
            raise ValueError("lambda_sq must be positive")
        if not self.multi_index or any(n < 1 for n in self.multi_index):
            raise ValueError("multi_index entries must be >= 1")


@dataclass(frozen=True)
class BasisDescriptor:
    """Domain and truncation for a sine eigenbasis."""

    dimension: int
    lengths: tuple[float, ...]
    truncation: int

    def __post_init__(self):
        object.__setattr__(self, "lengths", tuple(self.lengths))  # hashable key
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if len(self.lengths) != self.dimension:
            raise ValueError("need one side length per dimension")
        if any(not (L > 0.0 and math.isfinite(L)) for L in self.lengths):
            raise ValueError("side lengths must be positive and finite")
        if self.truncation < 1:
            raise ValueError("truncation must be >= 1")


@dataclass(frozen=True)
class ExceptionalSet:
    """Sorted exceptional parameter values with their originating kind."""

    kind: str
    values: tuple[float, ...]
    gamma_rho: float | None = None

    def __post_init__(self):
        if self.kind not in ("for_c", "for_sigma"):
            raise ValueError("kind must be 'for_c' or 'for_sigma'")
        if not self.values:
            raise ValueError("exceptional set may not be empty")
        if any(b < a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("values must be nondecreasing")


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Read-only arrays of a basis: eigenvalues ``lambda_sq`` (N,) in mode
    order (ascending), per-axis indices ``multi_index`` (N, d), and the
    exceptional values 1/lambda_sq sorted ascending, ``inverse`` (N,);
    ``inverse[i]`` belongs to mode N - i."""

    lambda_sq: np.ndarray
    multi_index: np.ndarray
    inverse: np.ndarray


def _interval_lambda_sq(L: float, N: int) -> np.ndarray:
    """(n pi / L)^2 for n = 1..N.

    The ratio pi/L is formed once so that the common cases L = pi and
    L = pi/2 yield exact integer eigenvalues.
    """
    if not (L > 0.0 and math.isfinite(L)):
        raise ValueError("L must be positive and finite")
    if N < 1:
        raise ValueError("N must be >= 1")
    return (np.arange(1, N + 1) * (math.pi / L)) ** 2


def interval_modes(L: float, N: int) -> list[EigenMode]:
    """First N Dirichlet modes on (0, L): lambda_n^2 = (n pi / L)^2."""
    return [EigenMode(n, lam, (n,))
            for n, lam in enumerate(_interval_lambda_sq(L, N).tolist(), start=1)]


def box_modes(desc: BasisDescriptor) -> list[EigenMode]:
    """First ``desc.truncation`` modes of a d-dimensional box, ascending.

    Eigenvalues repeat according to multiplicity; ties are broken by
    lexicographic multi-index so the ordering is total and reproducible.
    """
    d, N = desc.dimension, desc.truncation
    ratios = [math.pi / L for L in desc.lengths]
    rmin = min(ratios)
    m = max(2, math.ceil(N ** (1.0 / d)) + 1)
    while True:
        cand = []
        for idx in itertools.product(range(1, m + 1), repeat=d):
            lam = math.fsum((n * r) ** 2 for n, r in zip(idx, ratios))
            cand.append((lam, idx))
        cand.sort()
        if len(cand) >= N and cand[N - 1][0] < ((m + 1) * rmin) ** 2:
            # every tuple outside the grid exceeds the N-th candidate
            break
        m *= 2
    return [EigenMode(i + 1, lam, idx) for i, (lam, idx) in enumerate(cand[:N])]


@functools.lru_cache(maxsize=16)
def spectrum(desc: BasisDescriptor) -> Spectrum:
    """Cached arrays of a descriptor: interval enumeration in 1-d, box otherwise."""
    if desc.dimension == 1:
        lam = _interval_lambda_sq(desc.lengths[0], desc.truncation)
        idx = np.arange(1, desc.truncation + 1).reshape(-1, 1)
    else:
        modes = box_modes(desc)
        lam = np.array([m.lambda_sq for m in modes])
        idx = np.array([m.multi_index for m in modes])
    inverse = 1.0 / lam[::-1]
    for arr in (lam, idx, inverse):
        arr.flags.writeable = False
    return Spectrum(lam, idx, inverse)


def modes_for(desc: BasisDescriptor) -> list[EigenMode]:
    """The modes of ``spectrum(desc)`` as a list of EigenMode."""
    spec = spectrum(desc)
    return [EigenMode(i, lam, tuple(idx)) for i, (lam, idx) in enumerate(
        zip(spec.lambda_sq.tolist(), spec.multi_index.tolist()), start=1)]


def exceptional_for_c(modes) -> ExceptionalSet:
    """Exceptional set E = {1 / lambda_n^2} of the c-form equation."""
    if not modes:
        raise ValueError("need at least one mode")
    values = tuple(sorted({1.0 / m.lambda_sq for m in modes}))
    return ExceptionalSet("for_c", values)


def exceptional_for_sigma(modes, gamma_rho: float) -> ExceptionalSet:
    """Exceptional set Z = {gamma_rho / lambda_n^2} of the sigma-form equation.

    Computed as gamma_rho * (1/lambda_n^2) elementwise so the identity
    Z = gamma_rho * E holds exactly in floating point.
    """
    if not (math.isfinite(gamma_rho) and gamma_rho > 0.0):
        raise ValueError("gamma_rho must be positive and finite")
    base = exceptional_for_c(modes)
    values = tuple(gamma_rho * v for v in base.values)
    return ExceptionalSet("for_sigma", values, gamma_rho=gamma_rho)


def distance_to_exceptional(value: float, exc: ExceptionalSet) -> tuple[float, float]:
    """Distance from ``value`` to the set and the nearest member.

    Ties are resolved toward the smaller member.  ``value`` must be positive;
    the set is never empty by construction.
    """
    if not value > 0.0:
        raise ValueError("parameter value must be positive")
    return nearest_member(exc.values, value)


def nearest_member(values, value: float) -> tuple[float, float]:
    """(|value - v|, v) for the member v of the ascending ``values`` nearest
    to ``value``, ties toward the smaller member.

    Rounded distances are monotone on each side of ``value``, so only its
    two neighbours need comparing.
    """
    i = bisect.bisect_left(values, value)
    best = min((float(v) for v in values[max(i - 1, 0):i + 1]),
               key=lambda v: abs(value - v))
    return abs(value - best), best


def weyl_exponent_fit(modes, d: int) -> float:
    """Least-squares slope of log(lambda_k) against log(k).

    Diagnostic for the Weyl growth lambda_k ~ k^(1/d); the fitted exponent
    should approach 1/d as the truncation grows.
    """
    if len(modes) < 16:
        raise ValueError("need at least 16 modes for a meaningful fit")
    if any(len(m.multi_index) != d for m in modes):
        raise ValueError("mode dimension disagrees with d")
    xs = [math.log(m.index) for m in modes]
    ys = [0.5 * math.log(m.lambda_sq) for m in modes]
    return fit_slope(xs, ys)
