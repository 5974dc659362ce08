"""Spectral fields on the Dirichlet sine basis and homogeneous evolution.

A Field is a coefficient vector over the first N eigenmodes of a box or
interval.  Evolution is mode-diagonal: each coefficient follows its own
closed-form modal solution; well-posedness of the whole problem is the
statement that c avoids the exceptional set E = {1/lambda_n^2}.

Projection of gridded samples and reconstruction on the grids x_j = j L/M
go through a type-I discrete sine transform per axis (``dst1``), in
O(npts log npts); projection weights the samples by the composite Simpson
rule (``simpson_weights``) first.  The other reductions over modes (the
norm, and reconstruction at any other point set) accumulate in ascending
mode order with compensated summation.  Either way results are
reproducible bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ExceptionalParameterError
from .modal import NEAR_TOL, ParameterSet, evolve_modes, is_degenerate
from .spectrum import BasisDescriptor, exceptional_neighbours, spectrum

EPS = float(np.finfo(float).eps)
# Points per block of the compensated-sum path of reconstruct: bounds its
# (points, modes) temporaries; every point's sum is the same for any block size.
POINT_BLOCK = 128


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
    if not np.all(np.isfinite(x)):
        raise ValueError("sample abscissae must be finite")
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


def _fsum(row: np.ndarray) -> float:
    """math.fsum of one row, with nan where infinities of both signs meet.

    Where partial sums of finite terms leave the float range, the row is
    summed again with the power of two at its largest magnitude factored
    out, as in ``field_norm``: the result is finite whenever the sum is a
    float, and +/-inf only when the sum itself is out of range.
    """
    try:
        return math.fsum(row.tolist())
    except ValueError:  # -inf + inf
        return math.nan
    except OverflowError:
        pass
    inf = row[np.isinf(row)]
    if inf.size:  # finite terms do not move a sum of infinities
        return _fsum(inf)
    exponent = _top_exponent(row)
    with np.errstate(over="ignore"):
        return float(np.ldexp(math.fsum(np.ldexp(row, -exponent).tolist()), exponent))


def _top_exponent(x: np.ndarray) -> int:
    """The power of two of the largest finite |x| (frexp), 0 if there is none."""
    top = float(max(x.max(initial=0.0), -x.min(initial=0.0)))
    if not math.isfinite(top):
        top = float(np.max(np.abs(x), initial=0.0, where=np.isfinite(x)))
    return math.frexp(top)[1]


def _sines(n, L: float, x):
    """Normalized Dirichlet eigenfunctions sqrt(2/L) sin(n pi x / L) of one axis."""
    return math.sqrt(2.0 / L) * np.sin(x * (n * (math.pi / L)))


def _norm(lengths) -> float:
    """Product of the per-axis normalizations sqrt(2/L) of the eigenfunctions."""
    return math.prod(math.sqrt(2.0 / L) for L in lengths)


def _axis_shape(axis: int, d: int) -> list[int]:
    return [-1 if a == axis else 1 for a in range(d)]


def simpson_weights(n: int) -> np.ndarray:
    """Composite Simpson weights 1, 4, 2, ..., 2, 4, 1 for n samples (times h/3)."""
    if n < 3 or n % 2 == 0:
        raise ValueError("composite Simpson needs an odd sample count >= 3")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w


def dst1(x, axis: int = -1) -> np.ndarray:
    """Type-I discrete sine transform along one axis, end samples included.

    For x of length M + 1 along ``axis`` (grid points j = 0..M) returns y of
    the same shape with

        y_n = sum_{j=1}^{M-1} x_j sin(pi n j / M),   n = 0..M,

    so the end samples x_0, x_M do not enter and y_0 = y_M = 0 exactly.  The
    transform is symmetric and squares to (M/2) I on the interior.  Computed
    as a real FFT of the odd extension of length 2M (Van Loan, Computational
    Frameworks for the FFT, SIAM 1992, section 4.4) in O(M log M).
    """
    x = np.moveaxis(np.asarray(x, dtype=float), axis, -1)
    m = x.shape[-1] - 1
    if m < 1:
        raise ValueError("dst1 needs at least two samples along the axis")
    ext = np.zeros(x.shape[:-1] + (2 * m,))
    ext[..., 1:m] = x[..., 1:m]
    ext[..., m + 1:] = -x[..., m - 1:0:-1]
    y = np.fft.rfft(ext, axis=-1).imag * -0.5
    y[..., 0] = 0.0
    y[..., m] = 0.0
    return np.moveaxis(y, -1, axis)


def project_samples(samples, basis: BasisDescriptor) -> Field:
    """L^2 projection of gridded samples onto the first N modes.

    ``samples`` is ``(x, values)`` on an interval or ``(axes, values)`` on a
    box, with each axis a uniform odd-count grid spanning [0, L] and at least
    4x the per-axis mode index range (coarser grids are rejected rather than
    silently aliased).  An interval is the one-axis box.  The samples are
    taken to sit at x_j = j L/M (the uniformity check accepts deviations up
    to 1e-9 h): the Simpson-weighted values go through one DST-I per axis,
    O(npts log npts), and the coefficients are read at the mode indices.
    The power of two at the largest |sample| is factored out for the
    transforms, which is exact; coefficients beyond the float range raise
    ValueError.
    """
    d = basis.dimension
    idx = spectrum(basis).multi_index
    axes, vals = samples
    if d == 1:
        axes = (axes,)
    if len(axes) != d:
        raise ValueError("need one sample axis per dimension")
    axes = [np.asarray(ax, dtype=float) for ax in axes]
    vals = np.asarray(vals, dtype=float)
    if vals.shape != tuple(ax.size for ax in axes):
        raise ValueError("values must match the sample grid")
    exponent = _top_exponent(vals)  # factored out, so no FFT sum overflows
    wv = np.ldexp(vals, -exponent)
    for axis, (ax, L) in enumerate(zip(axes, basis.lengths)):
        h = _check_axis(ax, L, 4 * int(idx[:, axis].max()) + 1)
        wv = dst1(wv * (simpson_weights(ax.size) * (h / 3.0)).reshape(_axis_shape(axis, d)),
                  axis)
    with np.errstate(over="ignore"):
        coefficients = np.ldexp(wv[tuple(idx.T)] * _norm(basis.lengths), exponent)
    if not np.all(np.isfinite(coefficients)) and np.all(np.isfinite(vals)):
        raise ValueError("projected coefficients exceed the float range")
    return Field(basis, coefficients)


def _locate(c, basis: BasisDescriptor):
    """``check_wellposed`` elementwise: arrays (distance, nearest, exceptional,
    near) for the verdicts.  |1 - c lam2| = lam2 |1/lam2 - c| and the rounded
    distance are least at a neighbour of c, so the two neighbours decide."""
    c = np.asarray(c, dtype=float)
    if not ((c > 0.0) & np.isfinite(c)).all():
        raise ValueError("parameter value must be positive and finite")
    lam = exceptional_neighbours(basis, c)
    members = 1.0 / lam
    gap = np.abs(c[..., None] - members)
    nearest = np.where(gap[..., 0] <= gap[..., 1], members[..., 0], members[..., 1])
    distance = np.minimum(gap[..., 0], gap[..., 1])
    hit = is_degenerate(c[..., None], lam)
    return (distance, nearest, hit[..., 0] | hit[..., 1],
            (distance <= NEAR_TOL) | (c < members[..., 0]))


def check_wellposed(c_value: float, basis: BasisDescriptor) -> WellPosednessReport:
    """Locate c relative to the truncated exceptional set.

    Verdicts: 'exceptional' when some mode is first order by the test
    ``evolve_modes`` applies (``modal.is_degenerate``), 'near_exceptional'
    within the absolute ``modal.NEAR_TOL`` of a member, or for c below the
    smallest enumerated member, where collisions with the un-enumerated tail
    cannot be excluded at this truncation.  Otherwise 'well_posed'.  c must be
    positive and finite.  One ``spectrum.exceptional_neighbours`` lookup.
    """
    distance, nearest, exceptional, near = _locate(c_value, basis)
    verdict = "exceptional" if exceptional else "near_exceptional" if near else "well_posed"
    return WellPosednessReport(c_value, float(distance), float(nearest), verdict)


def evolve_homogeneous(p: ParameterSet, theta0: Field, theta1: Field, t: float,
                       override_exceptional: bool = False) -> tuple[Field, Field]:
    """Evolve initial data (theta0, theta1) by time t with zero boundary values.

    With c in the exceptional set the problem is ill posed for generic data
    and ExceptionalParameterError is raised; callers that know their data
    satisfy the per-mode compatibility condition pass
    ``override_exceptional=True``, which skips the gate (``check_wellposed``),
    and the degenerate modes evolve first order (incompatible data surface as
    UnsolvableModeError with the mode index).
    Every mode goes through one vectorized ``evolve_modes`` call.
    """
    if theta0.basis != theta1.basis:
        raise ValueError("theta0 and theta1 must share one basis")
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    basis = theta0.basis
    if not override_exceptional:
        report = check_wellposed(p.c, basis)
        if report.verdict == "exceptional":
            raise ExceptionalParameterError(
                f"c={p.c} lies in the exceptional set (nearest member {report.nearest}); "
                "pass override_exceptional=True only with compatible data",
                value=p.c, nearest=report.nearest)
    vals, derivs, sat = evolve_modes(p, spectrum(basis).lambda_sq,
                                     theta0.coefficients, theta1.coefficients, t)
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
    if not np.any(c):
        return 0.0
    exponent = _top_exponent(c)
    x = np.ldexp(c, -exponent)
    with np.errstate(over="ignore"):
        return float(np.ldexp(math.sqrt(math.fsum((x * x).tolist())), exponent))


def _grid_counts(pts: np.ndarray, lengths) -> tuple[int, ...] | None:
    """Per-axis interval counts (M_1, .., M_d) when ``pts`` is the C-order
    ('ij' meshgrid, raveled) tensor grid of x_j = j L/M, j = 0..M, on every
    axis, each abscissa within 4 eps L of its node; None otherwise."""
    npts, d = pts.shape
    counts, stride = [], 1
    for ax in reversed(range(d)):
        L = lengths[ax]
        run = pts[::stride, ax]
        n = int(np.argmax(run >= L - 4.0 * EPS * L)) + 1
        if n < 2 or npts % (stride * n):
            return None
        counts.append(n - 1)
        stride *= n
    if stride != npts:
        return None
    counts = tuple(reversed(counts))
    nodes = np.meshgrid(*(np.arange(m + 1) * (L / m) for m, L in zip(counts, lengths)),
                        indexing="ij")
    for ax, (node, L) in enumerate(zip(nodes, lengths)):
        if not np.max(np.abs(pts[:, ax] - node.ravel())) <= 4.0 * EPS * L:
            return None  # `not <=`, so that a nan abscissa fails too
    return counts


def reconstruct(f: Field, points) -> np.ndarray:
    """Evaluate the field at physical points.

    Points are an array of abscissae on an interval, or an (npts, d) array
    on a box; all must be finite and lie inside the closed domain.  When the
    points are the C-order tensor grid of x_j = j L/M per axis (see
    ``_grid_counts``), every mode index is below M on its axis and the
    coefficients are finite, the values come from one DST-I per axis,
    O(npts log npts), and are exactly 0 on the boundary; the power of two at
    the largest |coefficient| is factored out for the transforms.  Any other
    point set is summed over modes with compensated summation, O(N npts), in
    blocks of POINT_BLOCK points; a point where saturated coefficients of both
    signs meet gets nan.  Either way a value is +/-inf only where it exceeds
    the float range.
    """
    idx = spectrum(f.basis).multi_index
    pts = np.asarray(points, dtype=float)
    if f.basis.dimension == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[1] != f.basis.dimension:
        raise ValueError("box evaluation points must have shape (npts, d)")
    if not np.all(np.isfinite(pts)):
        raise ValueError("evaluation points must be finite")
    for ax, L in enumerate(f.basis.lengths):
        if np.any(pts[:, ax] < -1e-12) or np.any(pts[:, ax] > L * (1 + 1e-12)):
            raise ValueError("evaluation points outside the domain")
    counts = _grid_counts(pts, f.basis.lengths) if pts.size else None
    if (counts is not None and np.all(idx < np.array(counts))
            and np.all(np.isfinite(f.coefficients))):
        exponent = _top_exponent(f.coefficients)
        grid = np.zeros(tuple(m + 1 for m in counts))
        grid[tuple(idx.T)] = np.ldexp(f.coefficients, -exponent) * _norm(f.basis.lengths)
        for axis in range(f.basis.dimension):
            grid = dst1(grid, axis)
        with np.errstate(over="ignore"):
            return np.ldexp(grid, exponent).ravel()
    values = np.empty(len(pts))
    for lo in range(0, len(pts), POINT_BLOCK):
        phi = functools.reduce(np.multiply, (  # (points, N)
            _sines(idx[:, ax].astype(float), L, pts[lo:lo + POINT_BLOCK, ax, None])
            for ax, L in enumerate(f.basis.lengths)))
        values[lo:lo + POINT_BLOCK] = [_fsum(row) for row in phi * f.coefficients]
    return values
