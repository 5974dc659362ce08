"""Spectral fields on the Dirichlet sine basis and homogeneous evolution.

A Field is a coefficient vector over the first N eigenmodes of a box or
interval.  Evolution is mode-diagonal: each coefficient follows its own
closed-form modal solution; well-posedness of the whole problem is the
statement that c avoids the exceptional set E = {1/lambda_n^2}.

Reductions over modes (norms, reconstruction) accumulate in ascending mode
order with compensated summation, so results are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ExceptionalParameterError
from .modal import ParameterSet, evolve_modes, is_degenerate
from .spectrum import BasisDescriptor, nearest_member, spectrum
from .util import simpson_weights, thread_count


@dataclass(eq=False)
class Field:
    """Coefficients of a function over the first N Dirichlet modes."""

    basis: BasisDescriptor
    coefficients: np.ndarray
    saturated: np.ndarray = dc_field(default=None)

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if self.coefficients.shape != (self.basis.truncation,):
            raise ValueError("coefficient count must match basis truncation")
        if self.saturated is None:
            self.saturated = np.zeros(self.basis.truncation, dtype=bool)
        else:
            self.saturated = np.asarray(self.saturated, dtype=bool)
            if self.saturated.shape != self.coefficients.shape:
                raise ValueError("saturation mask must match coefficients")
        bad = ~np.isfinite(self.coefficients) & ~self.saturated
        if np.any(bad):
            raise ValueError("non-finite coefficients must carry the saturation flag")


@dataclass(frozen=True)
class WellPosednessReport:
    """Distance of c to the truncated exceptional set and the verdict."""

    c_value: float
    distance: float
    nearest: float
    verdict: str  # 'well_posed' | 'near_exceptional' | 'exceptional'
    threshold: float


def zero_field(basis: BasisDescriptor) -> Field:
    return Field(basis, np.zeros(basis.truncation))


def basis_field(basis: BasisDescriptor, n: int, amplitude: float = 1.0) -> Field:
    """Field with a single nonzero coefficient on mode n (1-based)."""
    if not 1 <= n <= basis.truncation:
        raise ValueError("mode index outside truncation")
    coeff = np.zeros(basis.truncation)
    coeff[n - 1] = amplitude
    return Field(basis, coeff)


def _check_axis(x: np.ndarray, L: float, min_pts: int):
    n = x.size
    if n < min_pts:
        raise ValueError(f"grid too coarse: need at least {min_pts} points per axis, got {n}")
    if n % 2 == 0:
        raise ValueError("per-axis sample count must be odd (composite Simpson)")
    tol = 1e-9 * L
    if abs(x[0]) > tol or abs(x[-1] - L) > tol:
        raise ValueError("samples must span [0, L] endpoints included")
    h = (x[-1] - x[0]) / (n - 1)
    if np.max(np.abs(np.diff(x) - h)) > 1e-9 * h:
        raise ValueError("sample grid must be uniform")
    return h


def _fsum_rows(mat: np.ndarray) -> np.ndarray:
    return np.array([math.fsum(row) for row in mat])


def project_samples(samples, basis: BasisDescriptor) -> Field:
    """L^2 projection of gridded samples onto the first N modes.

    ``samples`` is ``(x, values)`` on an interval or ``(axes, values)`` on a
    box, with each axis a uniform odd-count grid spanning [0, L] and at least
    4x the per-axis mode index range (coarser grids are rejected rather than
    silently aliased).
    """
    idx = spectrum(basis).multi_index
    axes_needed = [4 * int(idx[:, ax].max()) + 1 for ax in range(basis.dimension)]
    if basis.dimension == 1:
        x, vals = samples
        x = np.asarray(x, dtype=float)
        vals = np.asarray(vals, dtype=float)
        if vals.shape != x.shape:
            raise ValueError("values must match the sample grid")
        L = basis.lengths[0]
        h = _check_axis(x, L, axes_needed[0])
        w = simpson_weights(x.size) * (h / 3.0)
        ratio = math.pi / L
        scale = math.sqrt(2.0 / L)
        coeffs = np.empty(basis.truncation)
        for i, n in enumerate(idx[:, 0].tolist()):
            phi = scale * np.sin(n * ratio * x)
            coeffs[i] = math.fsum(w * vals * phi)
        return Field(basis, coeffs)

    axes, vals = samples
    if len(axes) != basis.dimension:
        raise ValueError("need one sample axis per dimension")
    axes = [np.asarray(ax, dtype=float) for ax in axes]
    vals = np.asarray(vals, dtype=float)
    if vals.shape != tuple(ax.size for ax in axes):
        raise ValueError("values must match the tensor sample grid")
    weights = []
    for ax, L, need in zip(axes, basis.lengths, axes_needed):
        h = _check_axis(ax, L, need)
        weights.append(simpson_weights(ax.size) * (h / 3.0))
    wv = vals.copy()
    for axis, w in enumerate(weights):
        shape = [1] * basis.dimension
        shape[axis] = w.size
        wv = wv * w.reshape(shape)
    coeffs = np.empty(basis.truncation)
    for i, multi_index in enumerate(idx.tolist()):
        phi = np.ones((1,) * basis.dimension)
        for axis, (n_ax, L) in enumerate(zip(multi_index, basis.lengths)):
            s = math.sqrt(2.0 / L) * np.sin(n_ax * (math.pi / L) * axes[axis])
            shape = [1] * basis.dimension
            shape[axis] = s.size
            phi = phi * s.reshape(shape)
        coeffs[i] = math.fsum((wv * phi).ravel())
    return Field(basis, coeffs)


def check_wellposed(c_value: float, basis: BasisDescriptor,
                    threshold: float = 1e-9) -> WellPosednessReport:
    """Locate c relative to the truncated exceptional set.

    Verdicts: 'exceptional' when some mode is first order by the test
    ``solve_mode`` applies (``modal.is_degenerate``), 'near_exceptional'
    within ``threshold`` of a member, or for c below the smallest enumerated
    member, where collisions with the un-enumerated tail cannot be excluded
    at this truncation.  Otherwise 'well_posed'.
    """
    if threshold < 0.0:
        raise ValueError("threshold must be nonnegative")
    if not c_value > 0.0:
        raise ValueError("parameter value must be positive")
    spec = spectrum(basis)
    dist, nearest = nearest_member(spec.inverse, c_value)
    # |1 - c lam2| = lam2 |1/lam2 - c| is least at a neighbour of c
    i = int(np.searchsorted(spec.inverse, c_value))
    if np.any(is_degenerate(c_value, spec.lambda_sq[::-1][max(i - 1, 0):i + 1])):
        verdict = "exceptional"
    elif dist <= threshold or c_value < spec.inverse[0]:
        verdict = "near_exceptional"
    else:
        verdict = "well_posed"
    return WellPosednessReport(c_value, dist, nearest, verdict, threshold)


def evolve_homogeneous(p: ParameterSet, theta0: Field, theta1: Field, t: float,
                       override_exceptional: bool = False,
                       tol_degenerate: float | None = None,
                       compat_tol: float = 1e-9,
                       threads: int | None = None) -> tuple[Field, Field]:
    """Evolve initial data (theta0, theta1) by time t with zero boundary values.

    With c in the exceptional set the problem is ill posed for generic data
    and ExceptionalParameterError is raised; callers that know their data
    satisfy the per-mode compatibility condition pass
    ``override_exceptional=True`` and the degenerate modes evolve first order
    (incompatible data surface as UnsolvableModeError with the mode index).
    Every mode goes through one vectorized ``evolve_modes`` call; ``threads``
    is validated and has no effect.
    """
    if theta0.basis != theta1.basis:
        raise ValueError("theta0 and theta1 must share one basis")
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    thread_count(threads)
    basis = theta0.basis
    report = check_wellposed(p.c, basis, threshold=0.0)
    if report.verdict == "exceptional" and not override_exceptional:
        raise ExceptionalParameterError(
            f"c={p.c} lies in the exceptional set (nearest member {report.nearest}); "
            "pass override_exceptional=True only with compatible data",
            value=p.c, nearest=report.nearest)
    vals, derivs, sat = evolve_modes(p, spectrum(basis).lambda_sq,
                                     theta0.coefficients, theta1.coefficients, t,
                                     tol_degenerate=tol_degenerate,
                                     compat_tol=compat_tol)
    return Field(basis, vals, sat.copy()), Field(basis, derivs, sat.copy())


def field_norm(f: Field) -> float:
    """L^2(Omega) norm via Parseval; +inf if any coefficient saturated.

    The coefficients are scaled by the power of two at their largest
    magnitude before the compensated sum of squares, so no square overflows
    or all underflow; the result is +inf only when the norm itself exceeds
    the float range.
    """
    c = f.coefficients
    if np.any(~np.isfinite(c)):
        return math.inf
    top = float(np.max(np.abs(c), initial=0.0))
    if top == 0.0:
        return 0.0
    exponent = math.frexp(top)[1]
    x = np.ldexp(c, -exponent)
    with np.errstate(over="ignore"):
        return float(np.ldexp(math.sqrt(math.fsum((x * x).tolist())), exponent))


def reconstruct(f: Field, points) -> np.ndarray:
    """Evaluate the field at physical points.

    Points are an array of abscissae on an interval, or an (npts, d) array
    on a box; all must lie inside the closed domain.  Accumulation over modes
    is ascending-index compensated summation.
    """
    idx = spectrum(f.basis).multi_index.astype(float)
    if f.basis.dimension == 1:
        x = np.atleast_1d(np.asarray(points, dtype=float))
        L = f.basis.lengths[0]
        if np.any(x < -1e-12) or np.any(x > L * (1 + 1e-12)):
            raise ValueError("evaluation points outside [0, L]")
        ratio = math.pi / L
        scale = math.sqrt(2.0 / L)
        phi = scale * np.sin(np.outer(x, idx[:, 0] * ratio))  # (npts, N)
        contrib = phi * f.coefficients
        return _fsum_rows(contrib)

    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != f.basis.dimension:
        raise ValueError("box evaluation points must have shape (npts, d)")
    for ax, L in enumerate(f.basis.lengths):
        if np.any(pts[:, ax] < -1e-12) or np.any(pts[:, ax] > L * (1 + 1e-12)):
            raise ValueError("evaluation points outside the box")
    phi = np.ones((pts.shape[0], idx.shape[0]))
    for ax, L in enumerate(f.basis.lengths):
        phi *= math.sqrt(2.0 / L) * np.sin(np.outer(pts[:, ax], idx[:, ax] * (math.pi / L)))
    contrib = phi * f.coefficients
    return _fsum_rows(contrib)
