import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cattaneo4 import (BasisDescriptor, ExceptionalParameterError, Field,
                       ParameterSet, UnsolvableModeError, basis_field,
                       check_wellposed, evolve_homogeneous, field_norm,
                       project_samples, reconstruct, zero_field)
from cattaneo4 import solver
from cattaneo4.modal import NEAR_TOL, is_degenerate
from cattaneo4.solver import dst1, simpson_weights
from cattaneo4.spectrum import spectrum
from oracle import simpson

PI = math.pi


def interval_basis(n: int) -> BasisDescriptor:
    return BasisDescriptor(1, (PI,), n)


def test_field_validation():
    basis = interval_basis(4)
    with pytest.raises(ValueError):
        Field(basis, np.zeros(3))
    with pytest.raises(ValueError):
        Field(basis, np.array([1.0, math.inf, 0.0, 0.0]))
    # non-finite allowed when flagged
    f = Field(basis, np.array([1.0, math.inf, 0.0, 0.0]),
              np.array([False, True, False, False]))
    assert field_norm(f) == math.inf
    with pytest.raises(ValueError):
        basis_field(basis, 5)


def test_projection_recovers_basis_function():
    basis = interval_basis(6)
    xs = np.linspace(0.0, PI, 4 * 6 + 1)
    e3 = math.sqrt(2.0 / PI) * np.sin(3.0 * xs)
    f = project_samples((xs, e3), basis)
    want = np.zeros(6)
    want[2] = 1.0
    assert np.max(np.abs(f.coefficients - want)) < 2e-4
    # finer grid, tighter recovery
    xs = np.linspace(0.0, PI, 257)
    f = project_samples((xs, math.sqrt(2.0 / PI) * np.sin(3.0 * xs)), basis)
    assert np.max(np.abs(f.coefficients - want)) < 1e-9


def test_projection_parabola_closed_form():
    # x(pi - x) has sine coefficients sqrt(2/pi) * 2 (1 - (-1)^n) / n^3
    basis = interval_basis(8)
    xs = np.linspace(0.0, PI, 4097)
    f = project_samples((xs, xs * (PI - xs)), basis)
    for i in range(8):
        n = i + 1
        want = math.sqrt(2.0 / PI) * 2.0 * (1.0 - (-1.0) ** n) / n**3
        assert f.coefficients[i] == pytest.approx(want, abs=1e-10)


def test_projection_grid_requirements():
    basis = interval_basis(8)
    with pytest.raises(ValueError):
        xs = np.linspace(0.0, PI, 17)  # < 4*8+1 points
        project_samples((xs, np.zeros(17)), basis)
    with pytest.raises(ValueError):
        xs = np.linspace(0.0, PI, 34)  # even count
        project_samples((xs, np.zeros(34)), basis)
    with pytest.raises(ValueError):
        xs = np.linspace(0.0, PI / 2, 65)  # wrong endpoint
        project_samples((xs, np.zeros(65)), basis)


def test_projection_box():
    basis = BasisDescriptor(2, (PI, PI), 4)
    xs = np.linspace(0.0, PI, 33)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    vals = (2.0 / PI) * np.sin(X) * np.sin(2.0 * Y)  # normalized (1,2) mode
    f = project_samples(((xs, xs), vals), basis)
    modes = [(1, 1), (1, 2), (2, 1), (2, 2)]
    for i, mi in enumerate(modes):
        want = 1.0 if mi == (1, 2) else 0.0
        assert f.coefficients[i] == pytest.approx(want, abs=1e-6)


def test_reconstruct_interval_and_roundtrip():
    basis = interval_basis(5)
    f = basis_field(basis, 2, 1.5)
    xs = np.array([0.0, 0.3, PI / 2, PI])
    got = reconstruct(f, xs)
    want = 1.5 * math.sqrt(2.0 / PI) * np.sin(2.0 * xs)
    assert np.allclose(got, want, atol=1e-15)
    # project(reconstruct) is the identity on the span
    grid = np.linspace(0.0, PI, 129)
    coeffs = np.array([0.5, -0.25, 0.0, 1.0, 0.125])
    g = Field(basis, coeffs)
    back = project_samples((grid, reconstruct(g, grid)), basis)
    assert np.max(np.abs(back.coefficients - coeffs)) < 1e-10


def test_reconstruct_box_point_values():
    basis = BasisDescriptor(2, (PI, PI), 3)
    f = basis_field(basis, 1, 2.0)  # mode (1,1)
    pts = np.array([[PI / 2, PI / 2], [0.0, 1.0]])
    got = reconstruct(f, pts)
    assert got[0] == pytest.approx(2.0 * (2.0 / PI), rel=1e-15)
    assert got[1] == 0.0
    with pytest.raises(ValueError):
        reconstruct(f, np.array([[1.0, 2.0, 3.0]]))


def test_parseval():
    basis = interval_basis(6)
    coeffs = np.array([1.0, -0.5, 0.25, 0.0, 0.3, -0.1])
    f = Field(basis, coeffs)
    assert field_norm(f) == pytest.approx(float(np.linalg.norm(coeffs)), rel=1e-15)
    xs = np.linspace(0.0, PI, 2049)
    vals = reconstruct(f, xs)
    l2 = math.sqrt(simpson(vals * vals, PI / 2048))
    assert l2 == pytest.approx(field_norm(f), rel=1e-10)


def test_field_norm_scales_before_summing():
    basis = interval_basis(3)
    # squares are finite, their sum is not: the norm itself is representable
    f = Field(basis, np.array([1e154, 1e154, 1.0]))
    assert field_norm(f) == pytest.approx(math.sqrt(2.0) * 1e154, rel=1e-15)
    big = np.finfo(float).max
    assert field_norm(Field(basis, np.array([big, 0.0, 0.0]))) == big
    # the true norm exceeds the float range
    assert field_norm(Field(basis, np.array([big, big, 0.0]))) == math.inf
    # every square underflows, the norm does not
    tiny = Field(basis, np.array([3e-170, 4e-170, 0.0]))
    assert field_norm(tiny) == pytest.approx(5e-170, rel=1e-15)
    assert field_norm(zero_field(basis)) == 0.0


def test_check_wellposed_verdicts():
    basis = interval_basis(10)
    rep = check_wellposed(0.26, basis)
    assert rep.verdict == "well_posed"
    assert rep.nearest == 0.25
    assert rep.distance == pytest.approx(0.01, rel=1e-12)

    assert check_wellposed(0.25, basis).verdict == "exceptional"
    assert check_wellposed(1.0, basis).verdict == "exceptional"

    rep = check_wellposed(0.25 + 1e-10, basis)
    assert rep.verdict == "near_exceptional"
    assert check_wellposed(0.25 + 2e-9, basis).verdict == "well_posed"

    # below the enumerated tail the verdict cannot be well_posed
    rep = check_wellposed(1e-9, basis)
    assert rep.verdict == "near_exceptional"
    # an infinite c is no member of the exceptional set, just invalid
    for c in (math.inf, math.nan, 0.0, -0.25):
        with pytest.raises(ValueError):
            check_wellposed(c, basis)


def brute_force_wellposed(c, basis):
    """(distance, nearest, verdict) of check_wellposed from a scan of the
    whole truncated spectrum."""
    spec = spectrum(basis)
    gaps = np.abs(c - spec.inverse)
    i = int(np.argmin(gaps))  # the first minimum: ties to the smaller member
    if np.any(is_degenerate(c, spec.lambda_sq)):
        verdict = "exceptional"
    elif gaps[i] <= NEAR_TOL or c < spec.inverse[0]:
        verdict = "near_exceptional"
    else:
        verdict = "well_posed"
    return float(gaps[i]), float(spec.inverse[i]), verdict


# relative offsets of c from a member: |1 - c lam2| on both sides of the
# 1e-12 gate, at the near-exceptional scale, and far off
MEMBER_OFFSETS = [0.0, 5e-13, 8e-13, 1e-12, 1.2e-12, 2e-12, 1e-9, 1e-6, 0.3]


@st.composite
def lookup_cases(draw):
    """(c, basis): an interval with modes up to 1e6 or a box with d = 2, 3,
    and c off a member by MEMBER_OFFSETS, off its neighbour, or anywhere."""
    if draw(st.booleans()):
        basis = BasisDescriptor(1, (draw(st.sampled_from([PI, 1.0, 7.3])),),
                                draw(st.sampled_from([1, 2, 7, 1000, 10**6 + 1])))
        n = draw(st.integers(1, min(basis.truncation + 2, 10**6)))
        lam2 = (n * (PI / basis.lengths[0])) ** 2
    else:
        d = draw(st.sampled_from([2, 3]))
        basis = BasisDescriptor(d, draw(st.sampled_from([(PI,) * d, (1.0, 2.3, 0.7)[:d]])),
                                draw(st.sampled_from([1, 5, 60, 400])))
        lam2 = float(spectrum(basis).lambda_sq[draw(st.integers(0, basis.truncation - 1))])
    kind = draw(st.sampled_from(["member", "member", "anywhere"]))
    if kind == "anywhere":
        return 10.0 ** draw(st.floats(-13.0, 2.0)), basis
    offset = draw(st.sampled_from(MEMBER_OFFSETS)) * draw(st.sampled_from([-1.0, 1.0]))
    return (1.0 + offset) / lam2, basis


@given(lookup_cases())
@settings(max_examples=150, deadline=None)
def test_check_wellposed_matches_brute_force(case):
    c, basis = case
    rep = check_wellposed(c, basis)
    assert (rep.distance, rep.nearest, rep.verdict) == brute_force_wellposed(c, basis)


def test_check_wellposed_builds_no_interval_spectrum():
    basis = interval_basis(10**12)
    before = spectrum.cache_info()
    for c in (0.26, 0.25, (1.0 + 5e-13) / 1e12, 1e-30, 5e-324):
        check_wellposed(c, basis)
    assert spectrum.cache_info() == before
    assert check_wellposed(0.25, basis).verdict == "exceptional"
    assert check_wellposed(1e-30, basis).verdict == "near_exceptional"  # below mode 1e12


def test_exceptional_gate_agrees_with_evolve_modes():
    # |1 - c lam2| = 1e-8 at mode 5000: second order for evolve_modes, so
    # neither 'exceptional' nor refused by evolve_homogeneous
    basis = interval_basis(6000)
    c = (1.0 + 1e-8) / 5000.0**2
    rep = check_wellposed(c, basis)
    assert rep.verdict == "near_exceptional"
    assert rep.nearest == 1.0 / 5000.0**2
    p = ParameterSet(2.0, 1.0, c)
    th, _ = evolve_homogeneous(p, basis_field(basis, 1), basis_field(basis, 5000), 0.1)
    assert th.saturated[4999] and not th.saturated[0]
    # inside the degeneracy gate of evolve_modes the verdict is 'exceptional'
    for rel in (4e-13, -4e-13):
        c = (1.0 + rel) / 5000.0**2
        assert abs(1.0 - c * 5000.0**2) <= 1e-12
        assert check_wellposed(c, basis).verdict == "exceptional"
        with pytest.raises(ExceptionalParameterError):
            evolve_homogeneous(ParameterSet(2.0, 1.0, c), zero_field(basis),
                               zero_field(basis), 0.1)


def test_evolve_at_zero_time_returns_the_data():
    basis = interval_basis(64)
    rng = np.random.default_rng(2)
    theta0 = Field(basis, rng.normal(size=64) * 1e300)
    theta1 = Field(basis, rng.normal(size=64))
    th, dth = evolve_homogeneous(ParameterSet(2.0, 1.0, 1e-3), theta0, theta1, 0.0)
    assert np.array_equal(th.coefficients, theta0.coefficients)
    assert np.array_equal(dth.coefficients, theta1.coefficients)
    assert not th.saturated.any()


def test_evolve_rejects_exceptional_c():
    basis = interval_basis(4)
    p = ParameterSet(2.0, 1.0, 0.25)
    with pytest.raises(ExceptionalParameterError) as err:
        evolve_homogeneous(p, basis_field(basis, 1), zero_field(basis), 0.5)
    assert err.value.nearest == 0.25


def test_evolve_override_with_compatible_data():
    # c = 1/4: mode 2 degenerates; compatible data there evolves first order
    basis = interval_basis(4)
    p = ParameterSet(2.0, 1.0, 0.25)
    rate = -(p.b * 4.0) / p.a
    theta0 = basis_field(basis, 2, 1.0)
    theta1 = basis_field(basis, 2, rate)
    th, dth = evolve_homogeneous(p, theta0, theta1, 0.7,
                                 override_exceptional=True)
    assert th.coefficients[1] == pytest.approx(math.exp(rate * 0.7), rel=1e-14)
    assert dth.coefficients[1] == pytest.approx(rate * math.exp(rate * 0.7),
                                                rel=1e-14)
    # incompatible data surfaces per mode
    with pytest.raises(UnsolvableModeError) as err:
        evolve_homogeneous(p, theta0, zero_field(basis), 0.7,
                           override_exceptional=True)
    assert err.value.mode_index == 2


def test_evolve_override_skips_the_gate(monkeypatch):
    # with override_exceptional=True the gate cannot raise, so it is not run;
    # without it, the one check_wellposed call stays
    calls = []
    check = solver.check_wellposed
    monkeypatch.setattr(solver, "check_wellposed", lambda *a: calls.append(a) or check(*a))
    basis = interval_basis(4)
    p = ParameterSet(2.0, 1.0, 0.25)
    theta0 = basis_field(basis, 2, 1.0)
    theta1 = basis_field(basis, 2, -(p.b * 4.0) / p.a)
    evolve_homogeneous(p, theta0, theta1, 0.7, override_exceptional=True)
    assert calls == []
    with pytest.raises(ExceptionalParameterError):
        evolve_homogeneous(p, theta0, theta1, 0.7)
    assert len(calls) == 1


def test_evolve_mixed_data_and_masks():
    basis = interval_basis(8)
    p = ParameterSet(1.0, 1.0, 0.2)  # modes n >= 3 sit above 1/c = 5
    rng = np.random.default_rng(3)
    theta0 = Field(basis, rng.normal(size=8))
    theta1 = Field(basis, rng.normal(size=8))
    th, dth = evolve_homogeneous(p, theta0, theta1, 400.0)
    # growing modes overflow at t=400 and must be flagged, stable ones not
    assert bool(th.saturated[0]) is False
    assert th.saturated[2:].all()
    assert field_norm(th) == math.inf


def test_evolve_saturated_field_keeps_its_flags():
    # saturated +/-inf coefficients evolve to flagged infinities; the finite
    # modes come out exactly as from the field without them
    basis = interval_basis(6)
    p = ParameterSet(1.0, 1.0, 0.2)
    c0 = np.array([1.0, math.inf, 0.5, -math.inf, 0.0, 2.0])
    sat = ~np.isfinite(c0)
    th, dth = evolve_homogeneous(p, Field(basis, c0, sat), zero_field(basis), 0.3)
    assert (th.saturated == sat).all() and (dth.saturated == sat).all()
    assert th.coefficients[1] == math.inf and th.coefficients[3] == -math.inf
    assert np.isinf(dth.coefficients[sat]).all()
    fin, dfin = evolve_homogeneous(p, Field(basis, np.where(sat, 0.0, c0)),
                                   zero_field(basis), 0.3)
    assert th.coefficients[~sat].tobytes() == fin.coefficients[~sat].tobytes()
    assert dth.coefficients[~sat].tobytes() == dfin.coefficients[~sat].tobytes()


def test_evolve_field_with_infinities_of_both_signs():
    # (inf, -inf) and (inf, inf) data on a complex-pair mode: inf - inf may
    # leave nan, but only in flagged coefficients, so the Field is valid;
    # t = 0 flags them as well
    basis = interval_basis(4)
    p = ParameterSet(1.0, 1.0, 0.05)
    c0 = np.array([0.5, math.inf, math.inf, 1.0])
    c1 = np.array([0.0, -math.inf, math.inf, 0.0])
    want = ~np.isfinite(c0)
    for t in (0.5, 0.0):
        th, dth = evolve_homogeneous(p, Field(basis, c0, want), Field(basis, c1, want), t)
        assert (th.saturated == want).all() and (dth.saturated == want).all()
        assert np.isfinite(th.coefficients[~want]).all()
        assert np.isfinite(dth.coefficients[~want]).all()
    assert field_norm(th) == math.inf


def test_evolve_linearity():
    basis = interval_basis(6)
    p = ParameterSet(3.0, 1.0, 0.01)
    rng = np.random.default_rng(11)
    a1, b1 = rng.normal(size=6), rng.normal(size=6)
    a2, b2 = rng.normal(size=6), rng.normal(size=6)
    th1, dth1 = evolve_homogeneous(p, Field(basis, a1), Field(basis, b1), 0.9)
    th2, dth2 = evolve_homogeneous(p, Field(basis, a2), Field(basis, b2), 0.9)
    th12, dth12 = evolve_homogeneous(p, Field(basis, a1 + 2.0 * a2),
                                     Field(basis, b1 + 2.0 * b2), 0.9)
    assert np.allclose(th12.coefficients,
                       th1.coefficients + 2.0 * th2.coefficients,
                       rtol=1e-12, atol=1e-14)
    assert np.allclose(dth12.coefficients,
                       dth1.coefficients + 2.0 * dth2.coefficients,
                       rtol=1e-12, atol=1e-14)


def test_evolve_basis_mismatch():
    p = ParameterSet(3.0, 1.0, 0.01)
    with pytest.raises(ValueError):
        evolve_homogeneous(p, zero_field(interval_basis(4)),
                           zero_field(interval_basis(5)), 0.1)
    with pytest.raises(ValueError):
        evolve_homogeneous(p, zero_field(interval_basis(4)),
                           zero_field(interval_basis(4)), math.inf)


@given(st.floats(min_value=0.0, max_value=2.0),
       st.integers(min_value=1, max_value=6))
@settings(max_examples=30, deadline=None)
def test_energy_decays_for_stable_parameters(t, n):
    # c below 1/lambda_N^2 keeps every mode damped, so the L2 norm at t is
    # no larger than a loose multiple of the initial norm
    basis = interval_basis(6)
    p = ParameterSet(2.0, 1.0, 1.0 / 40.0)
    theta0 = basis_field(basis, n, 1.0)
    th, _ = evolve_homogeneous(p, theta0, zero_field(basis), t)
    assert field_norm(th) <= 1.5 * field_norm(theta0) + 1e-12


# --- sine transforms on uniform grids -------------------------------------

U = 2.0 ** -53

# (dimension, lengths, truncation, per-axis interval counts M)
TRANSFORM_CASES = [
    (1, (PI,), 15, (64,)),
    (2, (1.0, 2.5), 40, (20, 50)),
    (3, (PI, 1.5, 2.0), 30, (24, 14, 16)),
]


def grid_axes(lengths, counts):
    return [np.arange(m + 1) * (L / m) for m, L in zip(counts, lengths)]


def grid_points(lengths, counts, indexing="ij"):
    mesh = np.meshgrid(*grid_axes(lengths, counts), indexing=indexing)
    return np.column_stack([g.ravel() for g in mesh])


def exact_sines(basis, counts):
    """(npts, N) table of the normalized eigenfunctions at the 'ij' grid
    nodes j L/M, each argument reduced exactly: sin(pi ((n j) mod 2M) / M)."""
    idx = spectrum(basis).multi_index
    phi = np.ones((1, basis.truncation))
    for ax, (m, L) in enumerate(zip(counts, basis.lengths)):
        j = np.arange(m + 1)[:, None]
        s = math.sqrt(2.0 / L) * np.sin(PI * ((idx[:, ax] * j) % (2 * m)) / m)
        phi = (phi[:, None, :] * s[None, :, :]).reshape(-1, basis.truncation)
    return phi


def spy_on_transform(monkeypatch):
    """Record the axis of every DST-I that solver runs."""
    calls = []
    monkeypatch.setattr(solver, "dst1",
                        lambda x, axis: calls.append(axis) or dst1(x, axis))
    return calls


def fft_bound(counts, lengths, norm_in):
    """Higham (2002) section 24.1: the 2-norm of the FFT error is of order
    u log2(2M) per axis times the 2-norm of the transformed vector, which
    Parseval puts at prod sqrt(M/L) times the 2-norm of the input."""
    log_term = sum(math.log2(2 * m) for m in counts)
    scale = math.prod(math.sqrt(m / L) for m, L in zip(counts, lengths))
    return 4.0 * U * log_term * scale * norm_in


@pytest.mark.parametrize("d, lengths, n, counts", TRANSFORM_CASES)
def test_transforms_match_fsum_reference(d, lengths, n, counts, monkeypatch):
    basis = BasisDescriptor(d, lengths, n)
    calls = spy_on_transform(monkeypatch)
    phi = exact_sines(basis, counts)
    rng = np.random.default_rng(d)
    coeffs = rng.normal(size=n)
    pts = grid_points(lengths, counts)
    points = pts[:, 0] if d == 1 else pts
    vals = reconstruct(Field(basis, coeffs), points)
    want = np.array([math.fsum(row) for row in (phi * coeffs).tolist()])
    assert np.linalg.norm(vals - want) <= fft_bound(counts, lengths,
                                                   np.linalg.norm(coeffs))
    # the boundary nodes are exactly zero
    on_boundary = np.zeros(len(pts), dtype=bool)
    for ax, L in enumerate(lengths):
        on_boundary |= (pts[:, ax] == 0.0) | (pts[:, ax] == L)
    assert (vals[on_boundary] == 0.0).all() and on_boundary.any()
    # projection: Simpson-weighted samples against the same exact sines
    samples = rng.normal(size=[m + 1 for m in counts])
    wv = samples
    for ax, (m, L) in enumerate(zip(counts, lengths)):
        w = simpson_weights(m + 1) * (L / m / 3.0)
        wv = wv * w.reshape([-1 if a == ax else 1 for a in range(d)])
    axes = grid_axes(lengths, counts)
    axes = axes[0] if d == 1 else axes
    got = project_samples((axes, samples), basis).coefficients
    want = np.array([math.fsum(col) for col in (phi * wv.reshape(-1, 1)).T.tolist()])
    interior = wv[tuple(slice(1, -1) for _ in range(d))]
    assert np.linalg.norm(got - want) <= fft_bound(counts, lengths,
                                                  np.linalg.norm(interior))
    assert len(calls) == 2 * d
    # repeated calls are bit-identical
    assert np.array_equal(vals, reconstruct(Field(basis, coeffs), points))
    assert np.array_equal(got, project_samples((axes, samples), basis).coefficients)


def fallback_cases():
    box = BasisDescriptor(2, (1.0, 2.5), 40)
    counts = (20, 50)
    rng = np.random.default_rng(9)
    off = grid_points(box.lengths, counts)
    off[17, 1] += 1e-12
    line = interval_basis(10)
    return [
        ("xy order", box, grid_points(box.lengths, counts, indexing="xy")),
        ("shuffled", box, rng.permutation(grid_points(box.lengths, counts))),
        ("off the nodes", box, off),
        ("subinterval", line, np.linspace(1.0, 2.0, 33)),
        ("mode index >= M", line, np.linspace(0.0, PI, 11)),  # index 10 = M
    ]


@pytest.mark.parametrize("label, basis, pts", fallback_cases(),
                         ids=[c[0] for c in fallback_cases()])
def test_reconstruct_falls_back_to_fsum(label, basis, pts, monkeypatch):
    calls = spy_on_transform(monkeypatch)
    rng = np.random.default_rng(4)
    coeffs = rng.normal(size=basis.truncation)
    got = reconstruct(Field(basis, coeffs), pts)
    pts2 = np.asarray(pts, dtype=float).reshape(len(pts), -1)
    idx = spectrum(basis).multi_index
    want = []
    for q in pts2.tolist():
        terms = []
        for c, mi in zip(coeffs.tolist(), idx.tolist()):
            for x, n, L in zip(q, mi, basis.lengths):
                c *= math.sqrt(2.0 / L) * math.sin(n * PI * x / L)
            terms.append(c)
        want.append(math.fsum(terms))
    # both sides round the phase n pi x / L, by up to u n pi per factor
    n_max = int(idx.max())
    tol = (8 * U * (1 + n_max * PI) * np.sum(np.abs(coeffs))
           * math.prod(math.sqrt(2.0 / L) for L in basis.lengths))
    assert np.max(np.abs(got - np.array(want))) <= tol
    assert np.array_equal(got, reconstruct(Field(basis, coeffs), pts))
    assert calls == []


def test_reconstruct_grid_within_tolerance_takes_transform(monkeypatch):
    # a node one ulp off j L/M is still on the grid
    basis = interval_basis(10)
    xs = np.linspace(0.0, PI, 41)
    xs[7] = np.nextafter(xs[7], 4.0)
    calls = spy_on_transform(monkeypatch)
    reconstruct(basis_field(basis, 3), xs)
    assert calls == [0]


def test_nan_abscissa_is_not_a_grid_node(monkeypatch):
    # every comparison with nan is False, so the domain check alone would let
    # it through; both directions reject it
    calls = spy_on_transform(monkeypatch)
    basis = interval_basis(10)
    xs = np.linspace(0.0, PI, 41)
    xs[5] = math.nan
    with pytest.raises(ValueError, match="finite"):
        reconstruct(basis_field(basis, 3), xs)
    assert calls == []
    with pytest.raises(ValueError, match="finite"):
        project_samples((xs, np.sin(3 * np.linspace(0.0, PI, 41))), basis)


def test_reconstruct_saturated_field_takes_fsum(monkeypatch):
    # a saturated (infinite) coefficient would spread nan through the
    # transform; the compensated sums keep +inf wherever its sine is positive
    calls = spy_on_transform(monkeypatch)
    basis = interval_basis(4)
    f = Field(basis, np.array([math.inf, 1.0, 0.0, 0.0]),
              np.array([True, False, False, False]))
    with np.errstate(invalid="ignore"):  # 0 * inf at x = 0
        vals = reconstruct(f, np.linspace(0.0, PI, 17))
    assert math.isnan(vals[0]) and (vals[1:-1] == math.inf).all()
    # infinities of both signs meet at x = 0.5: nan, as 0 * inf gives at x = 0
    g = Field(basis, np.array([math.inf, -math.inf, 0.0, 0.0]),
              np.array([True, True, False, False]))
    assert math.isnan(reconstruct(g, [0.5])[0])
    assert calls == []


def test_reconstruct_fsum_survives_intermediate_overflow():
    # partial sums of finite terms overflow; the value itself is a float
    basis = interval_basis(4)
    big = 1.7e308
    got = reconstruct(Field(basis, [big, big, -big, -big]), [0.7])[0]
    sines = [math.sin(n * 0.7) for n in (1, 2, 3, 4)]
    want = big * math.sqrt(2.0 / PI) * math.fsum([s * c for s, c in zip(sines, (1, 1, -1, -1))])
    assert want == pytest.approx(5.85e307, rel=1e-3)
    assert got == pytest.approx(want, rel=1e-14)
    # here the value itself, 1.95e308, is beyond the float range
    assert reconstruct(Field(basis, [1.5e308, 1.5e308, 0.0, 0.0]), [0.7])[0] == math.inf
    assert reconstruct(Field(basis, [-1.5e308, -1.5e308, 0.0, 0.0]), [0.7])[0] == -math.inf


def test_reconstruct_fsum_blocks_bound_memory(monkeypatch):
    basis = interval_basis(2000)
    coeffs = np.random.default_rng(9).normal(size=2000)
    xs = np.linspace(0.1, 3.0, 5001)  # not a grid: the compensated-sum path
    tracemalloc.start()
    try:
        got = reconstruct(Field(basis, coeffs), xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6
    monkeypatch.setattr(solver, "POINT_BLOCK", xs.size)
    assert np.array_equal(got, reconstruct(Field(basis, coeffs), xs))


def test_transforms_survive_intermediate_overflow(monkeypatch):
    calls = spy_on_transform(monkeypatch)
    basis = interval_basis(4)
    xs = np.linspace(0.0, PI, 17)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = project_samples((xs, np.full(17, 1e308)), basis)
        want = 1e308 * project_samples((xs, np.ones(17)), basis).coefficients
        assert f.coefficients[0] == pytest.approx(1.6e308, rel=1e-2)
        np.testing.assert_allclose(f.coefficients, want, rtol=1e-14, atol=0.0)
        vals = reconstruct(Field(basis, [1e308, 1e308, 0.0, 0.0]), xs)
        want = 1e308 * math.sqrt(2.0 / PI) * (np.sin(xs) + np.sin(2.0 * xs))
        assert np.all(np.isfinite(vals))
        assert vals[3:6] == pytest.approx(want[3:6], rel=1e-14)
        np.testing.assert_allclose(vals, want, rtol=1e-14, atol=1e-14 * np.max(np.abs(want)))
    assert len(calls) == 3
    # coefficients that exceed the float range are refused
    with pytest.raises(ValueError, match="float range"):
        project_samples((xs, np.full(17, 1.7e308)), basis)
