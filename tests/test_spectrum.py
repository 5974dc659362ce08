import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from cattaneo4 import BasisDescriptor, check_wellposed, weyl_exponent_fit
from cattaneo4.cli import main
from cattaneo4.spectrum import exceptional_neighbours, spectrum


def interval_lambda_sq(L, N):
    return spectrum(BasisDescriptor(1, (L,), N)).lambda_sq.tolist()


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
        lam = interval_lambda_sq(L, 12)
        coarse = fd_interval_eigenvalues(L, 12, 5_000)
        fine = fd_interval_eigenvalues(L, 12, 10_000)
        ref = fine + (fine - coarse) / 3.0
        assert np.allclose(lam, ref, rtol=1e-8, atol=0.0)


def test_interval_eigenvalues_exact_for_pi():
    lam = interval_lambda_sq(math.pi, 20)
    assert lam == [float(n * n) for n in range(1, 21)]
    lam_half = interval_lambda_sq(math.pi / 2, 5)
    assert lam_half == [4.0, 16.0, 36.0, 64.0, 100.0]


def test_interval_modes_metadata():
    spec = spectrum(BasisDescriptor(1, (2.0,), 4))
    assert spec.multi_index.tolist() == [[1], [2], [3], [4]]
    assert spec.lambda_sq[1] == pytest.approx((2 * math.pi / 2.0) ** 2, rel=1e-15)


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
    got = spectrum(BasisDescriptor(len(lengths), lengths, N))
    want = brute_force_box(lengths, N)
    for got_lam, got_idx, (lam, idx) in zip(got.lambda_sq, got.multi_index.tolist(), want):
        assert got_lam == pytest.approx(lam, rel=1e-13)
        assert tuple(got_idx) == idx


def test_box_square_degeneracies_tie_break():
    spec = spectrum(BasisDescriptor(2, (math.pi, math.pi), 6))
    assert spec.lambda_sq.tolist() == [2.0, 5.0, 5.0, 8.0, 10.0, 10.0]
    # equal eigenvalues ordered by index tuple
    assert spec.multi_index[1].tolist() == [1, 2]
    assert spec.multi_index[2].tolist() == [2, 1]
    assert spec.multi_index[4].tolist() == [1, 3]


def test_spectrum_dispatch():
    d1 = BasisDescriptor(1, (math.pi,), 5)
    assert spectrum(d1).lambda_sq.tolist() == [1.0, 4.0, 9.0, 16.0, 25.0]
    d2 = BasisDescriptor(2, (math.pi, math.pi), 3)
    assert spectrum(d2).lambda_sq.tolist() == [2.0, 5.0, 5.0]


def test_cached_spectrum_arrays():
    for desc in (BasisDescriptor(1, (math.pi / 3,), 50),
                 BasisDescriptor(2, (math.pi, 1.5), 40),
                 BasisDescriptor(3, [math.pi, 1.0, 2.0], 30)):
        spec = spectrum(desc)
        assert spectrum(desc) is spec
        lam = spec.lambda_sq.tolist()
        assert lam == sorted(lam)
        # each eigenvalue is the fsum of its per-axis squares (n pi / L)^2
        assert lam == [math.fsum((n * (math.pi / L)) ** 2 for n, L in zip(idx, desc.lengths))
                       for idx in spec.multi_index.tolist()]
        assert spec.multi_index.shape == (desc.truncation, desc.dimension)
        assert spec.inverse.tolist() == sorted(1.0 / v for v in lam)
        for arr in (spec.lambda_sq, spec.multi_index, spec.inverse):
            with pytest.raises(ValueError):
                arr[0] = 1


def nearest(c, desc):
    rep = check_wellposed(c, desc)
    return rep.distance, rep.nearest


def test_nearest_member_ties_go_to_the_smaller():
    # members (L/(n pi))^2 exact in binary, c halfway between two of them
    assert nearest(0.625, BasisDescriptor(1, (math.pi,), 8)) == (0.375, 0.25)
    assert nearest(2.5, BasisDescriptor(1, (2 * math.pi,), 8)) == (1.5, 1.0)
    assert nearest(0.15625, BasisDescriptor(1, (math.pi / 2,), 8)) == (0.09375, 0.0625)
    # past either end of the truncation the end member is the nearest
    assert nearest(0.1, BasisDescriptor(1, (math.pi,), 2)) == (0.15, 0.25)
    assert nearest(2.0, BasisDescriptor(1, (math.pi,), 2)) == (1.0, 1.0)
    assert nearest(3.0, BasisDescriptor(2, (math.pi, math.pi), 8)) == (2.5, 0.5)
    assert nearest(1e-3, BasisDescriptor(2, (math.pi, math.pi), 3)) == (0.199, 0.2)


@pytest.mark.parametrize("desc", [BasisDescriptor(1, (math.pi,), 6),
                                  BasisDescriptor(1, (2.3,), 6),
                                  BasisDescriptor(2, (math.pi, 1.3), 6),
                                  BasisDescriptor(3, (1.0, 1.0, 1.0), 6)])
def test_exceptional_neighbours_bracket_c(desc):
    spec = spectrum(desc)
    inv = spec.inverse.tolist()
    cs = np.array([0.5 * inv[0], *inv, *np.sqrt(np.multiply(inv[1:], inv[:-1])), 2.0 * inv[-1]])
    lam = exceptional_neighbours(desc, cs)
    assert lam.shape == (cs.size, 2)
    for c, (lo, hi) in zip(cs.tolist(), lam.tolist()):
        # eigenvalues of the cache, the smaller member first, c between them
        assert lo in spec.lambda_sq and hi in spec.lambda_sq
        assert 1.0 / lo <= 1.0 / hi
        assert 1.0 / lo <= c <= 1.0 / hi or c < inv[0] or c > inv[-1]
        assert exceptional_neighbours(desc, c).tolist() == [lo, hi]
    assert lam[0].tolist() == [spec.lambda_sq[-1]] * 2
    assert lam[-1].tolist() == [spec.lambda_sq[0]] * 2


def test_exceptional_for_sigma_scales_elementwise():
    # the sigma-form set is Z = gamma_rho * E, elementwise
    exc_c = spectrum(BasisDescriptor(1, (math.pi,), 6)).inverse
    exc_s = 4.0 * exc_c
    assert exc_s.tolist() == [4.0 * v for v in exc_c.tolist()]
    # gamma_rho/lambda^2 must be float-exact so collisions can be detected
    assert 4.0 / 4.0 in exc_s.tolist()
    assert 4.0 / 16.0 in exc_s.tolist()


@pytest.mark.parametrize("gamma_rho", [math.inf, math.nan, 0.0, -4.0])
def test_exceptional_for_sigma_needs_finite_positive_gamma_rho(gamma_rho, tmp_path, capsys):
    # the sigma-form set is formed by the `exceptional --kind sigma` command
    out = tmp_path / "exc.csv"
    assert main(["exceptional", "--N", "3", "--kind", "sigma",
                 "--gamma-rho", repr(gamma_rho), "--out", str(out)]) == 1
    assert "positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_distance_to_exceptional_values():
    desc = BasisDescriptor(1, (math.pi,), 10)
    dist, member = nearest(5.0 / 4.0, desc)
    assert member == 1.0
    assert dist == pytest.approx(0.25, abs=0.0)
    dist, member = nearest(0.26, desc)
    assert member == 0.25
    assert dist == pytest.approx(0.01, rel=1e-12)
    dist, member = nearest(1.0, desc)
    assert dist == 0.0


def test_weyl_exponent_fits():
    # lambda_n^2 ~ n^{2/d}: fitted exponent of lambda_n vs n is about 1/d
    m1 = spectrum(BasisDescriptor(1, (math.pi,), 400)).lambda_sq
    assert weyl_exponent_fit(m1) == pytest.approx(1.0, abs=0.02)
    m2 = spectrum(BasisDescriptor(2, (math.pi, math.pi), 400)).lambda_sq
    assert weyl_exponent_fit(m2) == pytest.approx(0.5, abs=0.05)
    m3 = spectrum(BasisDescriptor(3, (math.pi, math.pi, math.pi), 400)).lambda_sq
    assert weyl_exponent_fit(m3) == pytest.approx(1.0 / 3.0, abs=0.05)


def test_validation_errors():
    with pytest.raises(ValueError):
        BasisDescriptor(1, (0.0,), 4)
    with pytest.raises(ValueError):
        BasisDescriptor(1, (math.pi,), 0)
    with pytest.raises(ValueError):
        BasisDescriptor(2, (math.pi,), 4)
    with pytest.raises(ValueError):
        weyl_exponent_fit(interval_lambda_sq(math.pi, 15))


@given(st.integers(min_value=1, max_value=200),
       st.floats(min_value=0.1, max_value=50.0,
                 allow_nan=False, allow_infinity=False))
@settings(max_examples=60, deadline=None)
def test_interval_spectrum_monotone_and_scaling(n, L):
    lam = interval_lambda_sq(L, n)
    assert all(x < y for x, y in zip(lam, lam[1:]))
    assert lam[0] == pytest.approx((math.pi / L) ** 2, rel=1e-12)


@given(st.floats(min_value=1e-6, max_value=10.0,
                 allow_nan=False, allow_infinity=False))
@settings(max_examples=60, deadline=None)
def test_distance_is_a_distance(c):
    desc = BasisDescriptor(1, (math.pi,), 30)
    dist, member = nearest(c, desc)
    assert dist == abs(c - member)
    assert all(abs(c - v) >= dist for v in spectrum(desc).inverse.tolist())
