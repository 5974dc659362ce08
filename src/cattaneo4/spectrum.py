"""Dirichlet Laplacian spectrum on intervals and boxes, as cached arrays.

Eigenvalues are stored as positive numbers lambda_sq with A phi = -lambda_sq
phi, so on (0, L) the interval spectrum is (n pi / L)^2 and a box spectrum is
the sum of per-axis interval values.  ``spectrum(basis)`` holds them with the
per-axis mode indices and the exceptional values E = {1/lambda_n^2} of the
c-form equation, ascending; the sigma-form set is Z = gamma_rho * E.
Parameters inside these sets break well-posedness for generic data; the one
lookup that places c against E is ``exceptional_neighbours``.  The module
needs numpy alone; the Weyl-law fit is ``experiments.weyl_exponent_fit``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


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


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Read-only arrays of a basis: eigenvalues ``lambda_sq`` (N,) in mode
    order (ascending), per-axis indices ``multi_index`` (N, d), and the
    exceptional values 1/lambda_sq sorted ascending, ``inverse`` (N,);
    ``inverse[i]`` belongs to mode N - i."""

    lambda_sq: np.ndarray
    multi_index: np.ndarray
    inverse: np.ndarray


# x * _UP_DOWN, ceiled, times _UP_DOWN is (ceil(x), floor(x)), as floor(x) = -ceil(-x)
_UP_DOWN = np.array([1.0, -1.0])


def _interval_lambda_sq(L: float, n) -> np.ndarray:
    """(n pi / L)^2 for mode indices n, elementwise.

    The ratio pi/L is formed once so that the common cases L = pi and
    L = pi/2 yield exact integer eigenvalues.
    """
    return (n * (math.pi / L)) ** 2


def _interval_neighbours(L: float, c, top: float = math.inf):
    """Modes n and eigenvalues of the two members (L / (n pi))^2 next to c on
    (0, L), each of shape (..., 2): n = ceil and floor of L / (pi sqrt(c))
    clipped to [1, top], the smaller member first; +inf past the float range."""
    with np.errstate(over="ignore"):
        x = np.expand_dims(L / (math.pi * np.sqrt(c)), -1)
        n = np.minimum(np.maximum(np.ceil(x * _UP_DOWN) * _UP_DOWN, 1.0), top)
        return n, _interval_lambda_sq(L, n)


def _box_arrays(desc: BasisDescriptor) -> tuple[np.ndarray, np.ndarray]:
    """The first ``desc.truncation`` eigenvalues of a box, ascending, and
    their multi-indices.

    Eigenvalues repeat according to multiplicity; ties are broken by
    lexicographic multi-index (C-order candidates, stable sort), so the
    ordering is total and reproducible.  Each candidate is an fsum of the
    per-axis squares (n pi / L)^2.
    """
    d, N = desc.dimension, desc.truncation
    ratios = [math.pi / L for L in desc.lengths]
    m = max(2, math.ceil(N ** (1.0 / d)) + 1)
    while True:
        idx = np.indices((m,) * d).reshape(d, -1).T + 1
        lam = np.array([math.fsum((n * r) ** 2 for n, r in zip(row, ratios))
                        for row in idx.tolist()])
        first = np.argsort(lam, kind="stable")[:N]
        if lam[first[-1]] < ((m + 1) * min(ratios)) ** 2:
            # every multi-index outside the grid exceeds the N-th candidate
            return lam[first], idx[first]
        m *= 2


@functools.lru_cache(maxsize=16)
def spectrum(desc: BasisDescriptor) -> Spectrum:
    """Cached arrays of a descriptor: interval enumeration in 1-d, box otherwise."""
    if desc.dimension == 1:
        n = np.arange(1, desc.truncation + 1)
        lam, idx = _interval_lambda_sq(desc.lengths[0], n), n.reshape(-1, 1)
    else:
        lam, idx = _box_arrays(desc)
    inverse = 1.0 / lam[::-1]
    for arr in (lam, idx, inverse):
        arr.flags.writeable = False
    return Spectrum(lam, idx, inverse)


def exceptional_neighbours(desc: BasisDescriptor, c) -> np.ndarray:
    """lambda_sq of the two members of the truncated exceptional set next to
    a scalar or array c, shape (..., 2), the smaller member first; past an end
    of the truncation the end member repeats.  On an interval in closed form,
    bit for bit the cached eigenvalues, without building the spectrum; on a
    box by one binary search of the cached ``inverse``."""
    if desc.dimension == 1:
        return _interval_neighbours(desc.lengths[0], c, desc.truncation)[1]
    spec = spectrum(desc)
    i = np.searchsorted(spec.inverse, c)
    descending = spec.lambda_sq[::-1]
    return np.stack([descending[np.maximum(i - 1, 0)],
                     descending[np.minimum(i, desc.truncation - 1)]], axis=-1)
