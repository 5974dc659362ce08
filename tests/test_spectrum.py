import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from cattaneo4 import (BasisDescriptor, box_modes, distance_to_exceptional,
                       exceptional_for_c, exceptional_for_sigma,
                       interval_modes, modes_for, weyl_exponent_fit)
from cattaneo4.spectrum import nearest_member, spectrum


def fd_interval_eigenvalues(L: float, count: int, grid: int):
    # second-difference Dirichlet Laplacian; eigenvalues (2/h^2)(1-cos k pi h/L)
    # converge to (k pi / L)^2 at O(h^2)
    h = L / grid
    main = np.full(grid - 1, 2.0 / h**2)
    off = np.full(grid - 2, -1.0 / h**2)
    vals = eigh_tridiagonal(main, off, select="i",
                            select_range=(0, count - 1))[0]
    return vals


def test_interval_eigenvalues_match_fd_oracle():
    # Richardson-extrapolate the O(h^2) grids 5k and 10k to kill the leading
    # error term
    for L in (math.pi, 1.0, 2.5):
        lam = [m.lambda_sq for m in interval_modes(L, 12)]
        coarse = fd_interval_eigenvalues(L, 12, 5_000)
        fine = fd_interval_eigenvalues(L, 12, 10_000)
        ref = fine + (fine - coarse) / 3.0
        assert np.allclose(lam, ref, rtol=1e-8, atol=0.0)


def test_interval_eigenvalues_exact_for_pi():
    lam = [m.lambda_sq for m in interval_modes(math.pi, 20)]
    assert lam == [float(n * n) for n in range(1, 21)]
    lam_half = [m.lambda_sq for m in interval_modes(math.pi / 2, 5)]
    assert lam_half == [4.0, 16.0, 36.0, 64.0, 100.0]


def test_interval_modes_metadata():
    ms = interval_modes(2.0, 4)
    assert [m.index for m in ms] == [1, 2, 3, 4]
    assert [m.multi_index for m in ms] == [(1,), (2,), (3,), (4,)]
    assert ms[1].lambda_sq == pytest.approx((2 * math.pi / 2.0) ** 2, rel=1e-15)


def brute_force_box(lengths, N):
    # dense enumeration over a generous index cube, then lexicographic sort
    cap = N + 8
    out = []
    import itertools

    for idx in itertools.product(range(1, cap + 1), repeat=len(lengths)):
        lam = sum((i * math.pi / L) ** 2 for i, L in zip(idx, lengths))
        out.append((lam, idx))
    out.sort()
    return out[:N]


@pytest.mark.parametrize("lengths", [(math.pi, math.pi),
                                     (1.0, 2.0),
                                     (math.pi, 1.5, 2.0)])
def test_box_modes_match_brute_force(lengths):
    N = 25
    got = box_modes(BasisDescriptor(len(lengths), lengths, N))
    want = brute_force_box(lengths, N)
    for m, (lam, idx) in zip(got, want):
        assert m.lambda_sq == pytest.approx(lam, rel=1e-13)
        assert m.multi_index == idx


def test_box_square_degeneracies_tie_break():
    ms = box_modes(BasisDescriptor(2, (math.pi, math.pi), 6))
    assert [m.lambda_sq for m in ms] == [2.0, 5.0, 5.0, 8.0, 10.0, 10.0]
    # equal eigenvalues ordered by index tuple
    assert ms[1].multi_index == (1, 2)
    assert ms[2].multi_index == (2, 1)
    assert ms[4].multi_index == (1, 3)


def test_modes_for_dispatch():
    d1 = BasisDescriptor(1, (math.pi,), 5)
    assert [m.lambda_sq for m in modes_for(d1)] == [1.0, 4.0, 9.0, 16.0, 25.0]
    d2 = BasisDescriptor(2, (math.pi, math.pi), 3)
    assert [m.lambda_sq for m in modes_for(d2)] == [2.0, 5.0, 5.0]


def test_cached_spectrum_arrays():
    for desc in (BasisDescriptor(1, (math.pi / 3,), 50),
                 BasisDescriptor(2, (math.pi, 1.5), 40),
                 BasisDescriptor(3, [math.pi, 1.0, 2.0], 30)):
        spec = spectrum(desc)
        assert spectrum(desc) is spec
        modes = modes_for(desc)
        assert spec.lambda_sq.tolist() == [m.lambda_sq for m in modes]
        assert [tuple(i) for i in spec.multi_index.tolist()] == [m.multi_index for m in modes]
        assert spec.multi_index.shape == (desc.truncation, desc.dimension)
        assert spec.inverse.tolist() == sorted(1.0 / m.lambda_sq for m in modes)
        for arr in (spec.lambda_sq, spec.multi_index, spec.inverse):
            with pytest.raises(ValueError):
                arr[0] = 1
    assert modes_for(BasisDescriptor(1, (math.pi,), 9)) == interval_modes(math.pi, 9)


def test_nearest_member_ties_go_to_the_smaller():
    values = (0.25, 0.5, 0.75)
    assert nearest_member(values, 0.625) == (0.125, 0.5)
    assert nearest_member(np.array(values), 0.375) == (0.125, 0.25)
    assert nearest_member(values, 0.1) == (0.15, 0.25)
    assert nearest_member(values, 2.0) == (1.25, 0.75)


def test_exceptional_for_c_sorted_dedup():
    ms = box_modes(BasisDescriptor(2, (math.pi, math.pi), 6))
    exc = exceptional_for_c(ms)
    # lambda^2 = 2, 5, 5, 8, 10, 10 -> four distinct reciprocals, ascending
    assert exc.values == (0.1, 0.125, 0.2, 0.5)
    assert exc.kind == "for_c"


def test_exceptional_for_sigma_scales_elementwise():
    ms = interval_modes(math.pi, 6)
    exc_c = exceptional_for_c(ms)
    exc_s = exceptional_for_sigma(ms, 4.0)
    assert exc_s.kind == "for_sigma"
    assert exc_s.gamma_rho == 4.0
    assert exc_s.values == tuple(4.0 * v for v in exc_c.values)
    # gamma_rho/lambda^2 must be float-exact so collisions can be detected
    assert 4.0 / 4.0 in exc_s.values
    assert 4.0 / 16.0 in exc_s.values


@pytest.mark.parametrize("gamma_rho", [math.inf, math.nan, 0.0, -4.0])
def test_exceptional_for_sigma_needs_finite_positive_gamma_rho(gamma_rho):
    with pytest.raises(ValueError, match="positive and finite"):
        exceptional_for_sigma(interval_modes(math.pi, 3), gamma_rho)


def test_distance_to_exceptional_values():
    exc = exceptional_for_c(interval_modes(math.pi, 10))
    dist, nearest = distance_to_exceptional(5.0 / 4.0, exc)
    assert nearest == 1.0
    assert dist == pytest.approx(0.25, abs=0.0)
    dist, nearest = distance_to_exceptional(0.26, exc)
    assert nearest == 0.25
    assert dist == pytest.approx(0.01, rel=1e-12)
    dist, nearest = distance_to_exceptional(1.0, exc)
    assert dist == 0.0


def test_weyl_exponent_fits():
    # lambda_n^2 ~ n^{2/d}: fitted exponent of lambda_n vs n is about 1/d
    m1 = interval_modes(math.pi, 400)
    assert weyl_exponent_fit(m1, 1) == pytest.approx(1.0, abs=0.02)
    m2 = box_modes(BasisDescriptor(2, (math.pi, math.pi), 400))
    assert weyl_exponent_fit(m2, 2) == pytest.approx(0.5, abs=0.05)
    m3 = box_modes(BasisDescriptor(3, (math.pi, math.pi, math.pi), 400))
    assert weyl_exponent_fit(m3, 3) == pytest.approx(1.0 / 3.0, abs=0.05)


def test_validation_errors():
    with pytest.raises(ValueError):
        interval_modes(0.0, 4)
    with pytest.raises(ValueError):
        interval_modes(math.pi, 0)
    with pytest.raises(ValueError):
        BasisDescriptor(2, (math.pi,), 4)
    with pytest.raises(ValueError):
        weyl_exponent_fit(interval_modes(math.pi, 8), 1)
    with pytest.raises(ValueError):
        weyl_exponent_fit(interval_modes(math.pi, 20), 2)


@given(st.integers(min_value=1, max_value=200),
       st.floats(min_value=0.1, max_value=50.0,
                 allow_nan=False, allow_infinity=False))
@settings(max_examples=60, deadline=None)
def test_interval_spectrum_monotone_and_scaling(n, L):
    ms = interval_modes(L, n)
    lam = [m.lambda_sq for m in ms]
    assert all(x < y for x, y in zip(lam, lam[1:]))
    assert lam[0] == pytest.approx((math.pi / L) ** 2, rel=1e-12)


@given(st.floats(min_value=1e-6, max_value=10.0,
                 allow_nan=False, allow_infinity=False))
@settings(max_examples=60, deadline=None)
def test_distance_is_a_distance(c):
    exc = exceptional_for_c(interval_modes(math.pi, 30))
    dist, nearest = distance_to_exceptional(c, exc)
    assert dist == abs(c - nearest)
    assert all(abs(c - v) >= dist for v in exc.values)
