import math
import time
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest

from cattaneo4 import (BasisDescriptor, ExceptionalParameterError, Field,
                       ParameterSet, SingularParameterError, basis_field,
                       evolve_modes, first_crossing, heat_comparison,
                       limit1_reference, limit1_scan, limit2_scan, limit3_scan,
                       propagation_burst, singularity_scan, whole_line_mode)
from cattaneo4 import experiments
from cattaneo4.boundary import BoundarySignal, build_blocks, evolve_with_boundary
from cattaneo4.modal import is_degenerate
from cattaneo4.spectrum import spectrum
from oracle import integrate_modes

PI = math.pi


def kernel_value(p, lam2, alpha, beta, t):
    """theta(t) of one mode from the modal evaluator, as Python float."""
    return float(evolve_modes(p, lam2, alpha, beta, t)[0])


def kernel_flag(p, lam2, alpha, beta, t):
    """The scan flag of one mode: the saturation of theta(t) alone."""
    value = kernel_value(p, lam2, alpha, beta, t)
    return "saturated" if math.isinf(value) else "ok"


def same_bits(x, y):
    return np.float64(x).tobytes() == np.float64(y).tobytes()


# ------------------------------------------------------------------ limit 1


def test_limit1_coefficients_converge():
    a, b, lam_sq, t = 2.0, 1.0, 2.0, 0.3
    ref = limit1_reference(a, b, lam_sq, t)
    assert ref["A_limit"] == -1.0
    assert ref["value_limit"] == pytest.approx(-math.exp(-t), rel=1e-15)

    cs = [(1.0 - 10.0 ** (-j)) / lam_sq for j in range(1, 9)]
    rows = limit1_scan(a, b, lam_sq, t, cs)
    errs_a = [abs(r.coeff_first - ref["A_limit"]) for r in rows]
    assert all(x > y for x, y in zip(errs_a, errs_a[1:]))
    assert errs_a[-1] < 1e-7

    # B/eps^2 approaches b lam2 / a^3
    for r in rows[-3:]:
        eps = 1.0 - r.parameter * lam_sq
        assert r.coeff_second / eps ** 2 == pytest.approx(
            ref["B_over_eps_sq_limit"], rel=1e-4)

    # trajectory value itself converges from below the exceptional point
    assert abs(rows[-1].value_at_t - ref["value_limit"]) < 1e-6


def test_limit1_exceptional_and_saturated_rows():
    a, b, lam_sq, t = 2.0, 1.0, 2.0, 1.5
    exact = 1.0 / lam_sq
    rows = limit1_scan(a, b, lam_sq, t,
                       [exact * (1.0 - 1e-3), exact, exact * (1.0 + 1e-12)])
    assert rows[0].flag == "ok"
    assert rows[1].flag == "exceptional"
    assert rows[1].exp_first == pytest.approx(-(b * lam_sq) / a, rel=1e-15)
    # just above, the fast root is positive and huge: value saturates but the
    # log magnitude stays finite
    assert rows[2].flag == "saturated"
    assert rows[2].exp_second > 0.0
    assert math.isfinite(rows[2].log_abs_value)


def test_limit1_rows_are_evolve_modes_values():
    # every row is the evolve_modes value of its c, bit for bit, the exactly
    # exceptional rows (c lam2 within 1e-12 of 1) and the saturated ones included
    for a, b, lam_sq, t in ((1.0, 1.0, 1.0, 0.3), (2.0, 1.0, 2.0, 1.5),
                            (0.7, 3.0, 9.0, 0.05), (3.0, 0.5, 0.3, 2.0)):
        exact = 1.0 / lam_sq
        cs = [exact * (1.0 + s * 10.0 ** (-j)) for s in (-1.0, 1.0) for j in range(1, 16)]
        rows = limit1_scan(a, b, lam_sq, t, cs + [exact])
        assert sum(row.flag == "exceptional" for row in rows) >= 4
        for row in rows:
            mode = (ParameterSet(a, b, row.parameter), lam_sq, -a / (b * lam_sq), 1.0, t)
            assert same_bits(row.value_at_t, kernel_value(*mode)), row
            assert row.flag in ("exceptional", kernel_flag(*mode)), row


def test_limit1_exponent_sign_tracks_side():
    a, b, lam_sq = 2.0, 1.0, 2.0
    below = [(1.0 - 10.0 ** (-j)) / lam_sq for j in range(1, 7)]
    above = [(1.0 + 10.0 ** (-j)) / lam_sq for j in range(1, 7)]
    for r in limit1_scan(a, b, lam_sq, 0.1, below):
        assert r.exp_second < 0.0
    for r in limit1_scan(a, b, lam_sq, 0.1, above):
        assert r.exp_second > 0.0


def test_limit1_validation():
    with pytest.raises(ValueError):
        limit1_scan(-1.0, 1.0, 2.0, 0.1, [0.3])
    with pytest.raises(ValueError):
        limit1_scan(1.0, 1.0, 2.0, -0.1, [0.3])
    with pytest.raises(ValueError):
        limit1_scan(1.0, 1.0, 2.0, 0.1, [0.0])
    # a non-finite c is invalid, not an 'exceptional' row
    for c in (math.inf, math.nan):
        with pytest.raises(ValueError) as exc:
            limit1_scan(1.0, 1.0, 2.0, 0.1, [0.3, c])
        assert not isinstance(exc.value, ExceptionalParameterError)


def test_limit1_oscillatory_rows_come_from_the_kernel():
    # 1 - 4 eps < 0 at eps = 0.95, 0.9, 0.8: a complex pair has no real split
    a, b, lam_sq, t = 1.0, 1.0, 1.0, 0.3
    rows = limit1_scan(a, b, lam_sq, t, [0.05, 0.1, 0.2])
    for row in rows:
        split = (row.coeff_first, row.coeff_second, row.exp_first, row.exp_second)
        assert all(math.isnan(x) for x in split)
        assert row.flag == "ok"
        want = kernel_value(ParameterSet(a, b, row.parameter), lam_sq, -a / (b * lam_sq), 1.0, t)
        assert same_bits(row.value_at_t, want)
        assert row.log_abs_value == pytest.approx(math.log(abs(want)), rel=1e-15)


def readme_scan_rows():
    """(row, ParameterSet, lam2, alpha, beta, t) of the README limit1, limit2
    and limit3 commands."""
    cs = [1.0 - 10.0 ** (-j) for j in range(1, 9)] + [1.0 + 10.0 ** (-j) for j in range(1, 9)]
    for row in limit1_scan(1.0, 1.0, 1.0, 0.3, cs):
        yield row, ParameterSet(1.0, 1.0, row.parameter), 1.0, -1.0, 1.0, 0.3
    lam_sq = spectrum(BasisDescriptor(1, (PI,), 2 * 40 + 8)).lambda_sq
    for row in limit2_scan(1.0, 1.0, 1.0, range(4, 41), 0.5).rows:
        yield (row, ParameterSet(1.0, 1.0, row.parameter), float(lam_sq[row.k - 1]),
               0.0, 1.0 / row.k, 0.5)
    for row in limit3_scan(range(1, 13), 0.1).rows:
        k = row.k
        yield (row, ParameterSet.from_physical(2.0, row.parameter, 4.0), float(k * k),
               1.0 / k ** 4,
               -1.0 / (2 * k * k), 0.1)


def test_scan_values_are_the_modal_kernel():
    # every value of the three README scans is the evolve_modes value of its
    # one mode, bit for bit, and a row is 'saturated' exactly where that
    # value is; the scans share the kernel, not a second formula
    rows = list(readme_scan_rows())
    assert len(rows) == 16 + 37 + 12
    assert sum(row.flag == "saturated" for row, *_ in rows) == 5  # limit1, c >= 1 + 1e-4
    for row, *mode in rows:
        assert same_bits(row.value_at_t, kernel_value(*mode)), row
        assert row.flag == kernel_flag(*mode), row
        assert math.isfinite(row.log_abs_value)


def test_scans_reject_non_finite_t():
    # the kernel would return nan with no flag; a scan time must be a number
    for t in (math.nan, math.inf, -1.0):
        for scan in (lambda: limit1_scan(1.0, 1.0, 1.0, t, [0.5]),
                     lambda: limit2_scan(1.0, 1.0, 1.0, [4, 5], t),
                     lambda: limit3_scan([1, 2], t),
                     lambda: whole_line_mode(1.0, 1.0, 0.25, 1.0, 1.0, t)):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                scan()


def test_scans_reject_non_finite_parameters():
    # an infinite a, b, c, lambda_sq or gamma gave nan rows flagged 'ok' or
    # a math domain error; each is now a ValueError naming the argument
    for bad in (math.inf, math.nan, 0.0, -1.0):
        for name, scan in (
                ("a", lambda: limit1_scan(bad, 1.0, 1.0, 0.5, [0.5])),
                ("b", lambda: limit1_scan(1.0, bad, 1.0, 0.5, [0.5])),
                ("lambda_sq", lambda: limit1_scan(1.0, 1.0, bad, 0.5, [0.5])),
                ("a", lambda: limit2_scan(bad, 1.0, 1.0, range(4, 6), 0.5)),
                ("b", lambda: limit2_scan(1.0, bad, 1.0, range(4, 6), 0.5)),
                ("gamma", lambda: limit2_scan(1.0, 1.0, bad, range(4, 6), 0.5)),
                ("a", lambda: whole_line_mode(bad, 1.0, 0.25, 2.5, 1.0, 1.0)),
                ("b", lambda: whole_line_mode(1.0, bad, 0.25, 2.5, 1.0, 1.0)),
                ("c", lambda: whole_line_mode(1.0, 1.0, bad, 2.5, 1.0, 1.0)),
                ("c", lambda: singularity_scan(1.0, 1.0, bad, 1.0, [1, 2]))):
            with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
                scan()


# ------------------------------------------------------------------ limit 2


def test_limit2_fits():
    res = limit2_scan(1.0, 1.0, 1.0, range(4, 41), 1.0)
    assert res.growth_exponent_fit == 1.4329553250828573
    assert 1.40 <= res.growth_exponent_fit <= 1.60
    assert -2.6 <= res.coeff_decay_fit <= -2.4
    # both addenda share one coefficient magnitude which vanishes with k
    mags = [abs(r.coeff_first) for r in res.rows]
    assert all(abs(r.coeff_first + r.coeff_second) < 1e-18 for r in res.rows)
    assert mags[-1] < mags[0] * 5e-3  # k^(-5/2) across 4..40 is ~3.2e-3


def test_limit2_exceptional_collision():
    # gamma = 6 puts c_2 = 1/4 + 6/8 = 1 = 1/lam_1^2 exactly
    with pytest.raises(ExceptionalParameterError):
        limit2_scan(1.0, 1.0, 6.0, [2], 1.0)
    with pytest.raises(ValueError):
        limit2_scan(1.0, 1.0, 1.0, [0, 3], 1.0)


# ------------------------------------------------------------------ limit 3


def test_limit3_first_rows_closed_form():
    res = limit3_scan(range(1, 3), 0.1)
    r1, r2 = res.rows
    assert r1.parameter == 5.0
    assert r1.exp_first == pytest.approx(2.0, rel=1e-14)
    assert r1.exp_second == pytest.approx(-0.4, rel=1e-14)
    assert r1.coeff_first == pytest.approx(-1.0 / 24.0, rel=1e-12)
    assert r1.coeff_second == pytest.approx(25.0 / 24.0, rel=1e-12)
    assert r2.exp_first == pytest.approx(8.0, rel=1e-14)
    assert r2.exp_second == pytest.approx(-1.6, rel=1e-14)
    assert r2.coeff_first == pytest.approx(-1.0 / 384.0, rel=1e-12)
    assert r2.coeff_second == pytest.approx(25.0 / 384.0, rel=1e-12)
    assert res.heat_compat_exact


def test_limit3_value_structure():
    start = time.perf_counter()
    res = limit3_scan(range(1, 13), 0.1)
    assert time.perf_counter() - start < 1.0
    for row in res.rows:
        k = row.k
        # t = 0 recovers the data exactly
        assert abs((row.coeff_first + row.coeff_second) - 1.0 / k ** 4) < 1e-12
        # decaying addendum never exceeds 2/k^4
        for t in (0.01, 0.1, 1.0):
            assert abs(row.coeff_second) * math.exp(row.exp_second * t) < 2.0 / k ** 4
    assert res.smallest_k_exceeding == 9


def test_limit3_matches_ode_oracle():
    res = limit3_scan(range(1, 13), 0.1)
    for row in res.rows:
        k = row.k
        p = ParameterSet.from_physical(2.0, 5.0 / (k * k), 4.0)
        got, _ = integrate_modes(1.0 - p.c * k * k, p.a, p.b * k * k,
                                 1.0 / k ** 4, -1.0 / (2 * k * k), 0.1,
                                 rel_tol=1e-11, abs_tol=1e-13)(0.1)
        assert row.value_at_t == pytest.approx(got, rel=1e-8)


def test_limit3_log_magnitude_past_saturation():
    # at t = 1 the growing addendum e^{2 k^2} passes e^700 from k = 19 on;
    # the log column stays finite and matches the exact solution of each
    # float-parameter mode, computed in mpmath
    res = limit3_scan(range(1, 25), 1.0)
    saturated = [r for r in res.rows if r.flag == "saturated"]
    assert [r.k for r in saturated] == list(range(19, 25))
    assert all(r.value_at_t == -math.inf for r in saturated)
    with mp.workdps(40):
        for row in res.rows:
            k = row.k
            p = ParameterSet.from_physical(2.0, row.parameter, 4.0)
            lead, damp, stiff = (mp.mpf(1) - mp.mpf(p.c) * k * k, mp.mpf(p.a),
                                 mp.mpf(p.b) * k * k)
            disc = mp.sqrt(damp * damp - 4 * stiff * lead)
            r1, r2 = (-damp + disc) / (2 * lead), (-damp - disc) / (2 * lead)
            alpha, beta = mp.mpf(1) / k ** 4, mp.mpf(-1) / (2 * k * k)
            theta = ((beta - alpha * r2) * mp.exp(r1) - (beta - alpha * r1) * mp.exp(r2)) / (r1 - r2)
            want = mp.log(abs(theta))
            assert math.isfinite(row.log_abs_value)
            assert abs(row.log_abs_value - want) <= 1e-14 * abs(want), k


def test_limit3_rerun_stability():
    a = limit3_scan(range(1, 13), 0.1)
    b = limit3_scan(range(1, 13), 0.1)
    assert a.smallest_k_exceeding == b.smallest_k_exceeding == 9
    for ra, rb in zip(a.rows, b.rows):
        assert ra == rb


# ------------------------------------------------------------- heat limit


def test_heat_comparison_first_order_in_sigma():
    basis = BasisDescriptor(1, (PI,), 8)
    heat_rate = 2.0 / 4.0
    theta0 = basis_field(basis, 1, 1.0)
    theta1 = basis_field(basis, 1, -heat_rate)  # slow-manifold pairing
    sigmas = [3.0 * 2.0 ** (-j) for j in range(2, 9)]
    rows = heat_comparison(2.0, 4.0, sigmas, theta0, theta1, 0.5)
    dists = [r.distance for r in rows]
    assert all(r.flag == "ok" for r in rows)
    assert all(x > y for x, y in zip(dists, dists[1:]))
    # halving sigma halves the distance once sigma is small
    for x, y in zip(dists[-3:], dists[-2:]):
        assert x / y == pytest.approx(2.0, rel=0.15)


def test_heat_comparison_matches_per_mode_reference():
    basis = BasisDescriptor(1, (PI,), 8)
    rng = np.random.default_rng(17)
    theta0 = Field(basis, rng.normal(size=8))
    theta1 = Field(basis, rng.normal(size=8))
    heat_rate = 2.0 / 4.0
    # sigma = 1.001 sits just above the member 4/2^2, so mode 2 grows like
    # e^{2000 t} and passes e^700 by t = 0.5
    sigmas, t = [0.3, 0.05, 1.001, 0.01], 0.5
    rows = heat_comparison(2.0, 4.0, sigmas, theta0, theta1, t)
    assert [r.sigma for r in rows] == sigmas
    for row, sigma in zip(rows, sigmas):
        p = ParameterSet.from_physical(2.0, sigma, 4.0)
        terms, saturated = [], False
        for n, (a0, b0) in enumerate(zip(theta0.coefficients, theta1.coefficients), 1):
            value, _, sat = evolve_modes(p, float(n * n), a0, b0, t)
            saturated |= bool(sat)
            terms.append((float(value) - a0 * math.exp(-heat_rate * n * n * t)) ** 2)
        if saturated:
            assert row.flag == "saturated" and row.distance == math.inf
        else:
            assert row.flag == "ok"
            assert row.distance == pytest.approx(math.sqrt(math.fsum(terms)), rel=1e-12)
    assert [r.flag for r in rows] == ["ok", "ok", "saturated", "ok"]


def test_heat_comparison_distance_of_a_large_finite_state():
    # at sigma = 3 2^(-14/3) and t = 2 mode states reach 1e245: their squares
    # overflow, the distance does not, and no RuntimeWarning escapes
    basis = BasisDescriptor(1, (PI,), 32)
    rng = np.random.default_rng(0)
    theta0 = Field(basis, rng.normal(size=32) / np.arange(1, 33))
    theta1 = Field(basis, rng.normal(size=32))
    sigma, t = 3.0 * 2.0 ** (-14.0 / 3.0), 2.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (row,) = heat_comparison(2.0, 4.0, [sigma], theta0, theta1, t)
    lam2 = spectrum(basis).lambda_sq
    value = evolve_modes(ParameterSet.from_physical(2.0, sigma, 4.0), lam2,
                         theta0.coefficients, theta1.coefficients, t)[0]
    heat = theta0.coefficients * np.exp(-0.5 * lam2 * t)
    assert row.flag == "ok" and 1e245 < row.distance < math.inf
    assert row.distance == pytest.approx(math.hypot(*(value - heat).tolist()), rel=1e-14)
    # at t < 0 the heat reference of mode 64 is out of range while the state
    # stays finite: the distance is +inf, as the difference is, and the row
    # is 'saturated'; modes without data have the reference 0, not 0 * inf
    basis = BasisDescriptor(1, (PI,), 64)
    theta0, theta1 = basis_field(basis, 64, 1.0), basis_field(basis, 64, -2048.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (row,) = heat_comparison(2.0, 4.0, [0.3], theta0, theta1, -0.35)
        # a saturated datum whose reference factor e^(-lam2 t / 2) underflows
        infinite = np.where(np.arange(64) == 63, np.inf, 0.0)
        (flagged,) = heat_comparison(2.0, 4.0, [0.3], Field(basis, infinite, np.isinf(infinite)),
                                     Field(basis, np.zeros(64)), 1.0)
    assert row.flag == "saturated" and row.distance == math.inf
    assert flagged.flag == "saturated" and flagged.distance == math.inf


def test_heat_comparison_rejects_exceptional_sigma():
    basis = BasisDescriptor(1, (PI,), 8)
    theta0 = basis_field(basis, 1, 1.0)
    theta1 = basis_field(basis, 1, 0.0)
    # 1.0 = 4/2^2 sits in the sigma-form exceptional set
    with pytest.raises(ExceptionalParameterError):
        heat_comparison(2.0, 4.0, [1.0], theta0, theta1, 0.5)
    # a non-finite sigma, chi or gamma_rho is invalid, not exceptional
    for sigma in (math.inf, math.nan):
        with pytest.raises(ValueError) as exc:
            heat_comparison(2.0, 4.0, [0.3, sigma], theta0, theta1, 0.5)
        assert not isinstance(exc.value, ExceptionalParameterError)
    for bad in (math.inf, math.nan, 0.0, -4.0):
        for chi, gamma_rho in ((bad, 4.0), (2.0, bad)):
            with pytest.raises(ValueError, match="positive and finite") as exc:
                heat_comparison(chi, gamma_rho, [0.3], theta0, theta1, 0.5)
            assert not isinstance(exc.value, ExceptionalParameterError)


# --------------------------------------------------------------- wholeline


def test_whole_line_zero_frequency_closed_form():
    a, t = 1.7, 0.9
    m = whole_line_mode(a, 1.0, 0.01, 0.0, 1.0, t)
    assert m.value == pytest.approx((1.0 - math.exp(-a * t)) / a, rel=1e-14)
    assert m.r_plus == 0.0
    assert m.r_minus == pytest.approx(-a, rel=1e-15)


def test_whole_line_matches_mode_oracle():
    a, b, c, w1 = 1.0, 1.0, 0.04, 0.7
    for lam in (0.5, 2.0, 40.0):
        m = whole_line_mode(a, b, c, lam, w1, 0.4)
        eps = 1.0 - c * lam * lam
        got, _ = integrate_modes(eps, a, b * lam * lam, 0.0, w1, 0.4,
                                 rel_tol=1e-11, abs_tol=1e-13)(0.4)
        assert m.value == pytest.approx(got, rel=1e-8, abs=1e-12)
    # oscillatory regime flags itself
    m = whole_line_mode(0.1, 1.0, 0.01, 1.0, 1.0, 0.4)
    assert m.oscillatory


def test_whole_line_exact_double_root():
    # a^2 = 4 b lam^2 (1 - c lam^2) at a = b = lam = 1, c = 0.75: the roots
    # meet at -2 and theta_hat = w1 t e^{-2 t}
    m = whole_line_mode(1.0, 1.0, 0.75, 1.0, 1.0, 0.5)
    assert m.delta_sq == 0.0 and m.r_plus == m.r_minus == -2.0
    assert m.value == pytest.approx(0.5 * math.exp(-1.0), rel=1e-15)
    assert m.log_abs_first == m.log_abs_second == pytest.approx(math.log(m.value), rel=1e-15)
    for lam in (1.0 - 1e-6, 1.0 + 1e-6):  # complex pair below, real roots above
        near = whole_line_mode(1.0, 1.0, 0.75, lam, 1.0, 0.5)
        assert near.value == pytest.approx(m.value, rel=1e-5)


def test_whole_line_singular_frequency_gate():
    with pytest.raises(SingularParameterError):
        whole_line_mode(1.0, 1.0, 0.04, 5.0, 1.0, 0.1)
    # 1 - c lam^2 = -6e-13 is inside the one degeneracy gate of the modes
    lam = 2.0 * (1.0 + 3e-13)
    assert is_degenerate(0.25, lam * lam)
    with pytest.raises(SingularParameterError):
        whole_line_mode(1.0, 1.0, 0.25, lam, 1.0, 1.0)
    with pytest.raises(ValueError):
        whole_line_mode(-1.0, 1.0, 0.04, 1.0, 1.0, 0.1)
    # nan or infinite lam or w1 is invalid input, not a nan 'ok' row; so is a
    # lam whose square leaves the float range
    for lam, w1 in ((math.nan, 1.0), (math.inf, 1.0), (-1.0, 1.0), (1.0, math.nan),
                    (1.0, math.inf), (1e200, 1.0)):
        with pytest.raises(ValueError) as exc:
            whole_line_mode(1.0, 1.0, 0.04, lam, w1, 0.1)
        assert not isinstance(exc.value, SingularParameterError)


@pytest.mark.parametrize("side", ["above", "below"])
def test_singularity_rows_are_whole_line_modes(side):
    # the scan is one array pass of the path whole_line_mode takes for one
    # frequency: every column equal bit for bit
    rows = singularity_scan(1.0, 1.0, 0.25, 1.0, range(-3 if side == "above" else 0, 21),
                            side=side)
    for row in rows:
        m = whole_line_mode(1.0, 1.0, 0.25, row.lam, 1.0, 1.0)
        assert row.flag == m.flag
        for got, want in ((row.r_plus, m.r_plus), (row.r_minus, m.r_minus),
                          (row.log_abs_first, m.log_abs_first),
                          (row.log_abs_second, m.log_abs_second)):
            assert same_bits(got, want), (row.j, got, want)


def test_each_scan_solves_its_quadratic_once(monkeypatch):
    # modal._generator forms a scan's quadratic and second_order_roots solves
    # it once for all rows; modal._state takes those roots.  An exactly
    # exceptional c (1.0 at lam2 = 1) is a first-order row of the same call.
    from cattaneo4 import modal

    calls = []
    exact = modal.second_order_roots

    def counted(*args):
        calls.append(args)
        return exact(*args)

    for module in (modal, experiments):
        monkeypatch.setattr(module, "second_order_roots", counted)
    runs = {
        "limit1_scan": lambda: limit1_scan(1.0, 1.0, 1.0, 0.3, [0.9, 0.999, 1.0, 1.001]),
        "limit2_scan": lambda: limit2_scan(1.0, 1.0, 1.0, range(4, 12), 0.5),
        "limit3_scan": lambda: limit3_scan(range(1, 8), 0.1),
        "whole_line_mode": lambda: whole_line_mode(1.0, 1.0, 0.04, 2.0, 0.7, 0.4),
        "singularity_scan": lambda: singularity_scan(1.0, 1.0, 0.25, 1.0, range(1, 21)),
    }
    for name, run in runs.items():
        calls.clear()
        run()
        assert len(calls) == 1, (name, len(calls))


def test_singularity_scan_sides():
    rows_up = singularity_scan(1.0, 1.0, 0.01, 1.0, range(1, 21), side="above")
    # approaching from above, the fast addendum blows up without bound
    assert rows_up[19].log_abs_second - rows_up[9].log_abs_second > math.log(10.0)
    assert all(r.r_minus > 0.0 for r in rows_up)
    # the slow addendum stays bounded throughout
    assert all(r.log_abs_first < math.log(10.0) for r in rows_up)

    rows_dn = singularity_scan(1.0, 1.0, 0.01, 1.0, range(1, 21), side="below")
    assert all(r.r_minus < 0.0 for r in rows_dn)
    assert rows_dn[19].log_abs_second < rows_dn[9].log_abs_second
    # exponent magnitude diverges on both sides
    assert abs(rows_dn[19].r_minus) > 10.0 * abs(rows_dn[9].r_minus)

    with pytest.raises(ValueError):
        singularity_scan(1.0, 1.0, 0.01, 1.0, [1], side="sideways")


# ------------------------------------------------------------- propagation


def test_propagation_mass_arrives():
    # the basis must resolve the lift's oscillation at frequency 1/sqrt(c),
    # so modes past that frequency (here n >= 19) are necessarily unstable;
    # slow bursts excite them and only the sharp tail of the ladder is
    # governed by the limit object
    p = ParameterSet(2.0, 1.0, 0.003)
    basis = BasisDescriptor(1, (PI,), 64)
    ns = [2.0 ** j for j in range(4, 13)]
    rows = propagation_burst(p, basis, (1.0, 0.0), 0.05, ns, (1.0, 2.0))
    ratios = [r.ratio for r in rows]
    assert first_crossing(rows) == 32.0
    assert ratios[-1] > 0.9
    assert all(x < y for x, y in zip(ratios[-4:], ratios[-3:]))
    assert first_crossing(rows, level=2.0) is None
    assert all(r.target_mass == rows[0].target_mass for r in rows)


def test_propagation_validation():
    p = ParameterSet(2.0, 1.0, 0.003)
    basis = BasisDescriptor(1, (PI,), 8)
    with pytest.raises(ValueError):
        propagation_burst(p, basis, (1.0, 0.0), 0.05, [1.0], (1.0, 4.0))
    with pytest.raises(ValueError):
        propagation_burst(p, basis, (0.0, 0.0), 0.05, [1.0], (1.0, 2.0))
    with pytest.raises(ValueError):
        propagation_burst(p, basis, (1.0, 0.0), 0.05, [-1.0], (1.0, 2.0))
    with pytest.raises(ValueError):
        propagation_burst(p, BasisDescriptor(2, (PI, PI), 4), (1.0, 0.0),
                          0.05, [1.0], (1.0, 2.0))


def lift_mass_reference(c, L, g, lo, hi):
    """int_lo^hi u^2 of the Dirichlet lift by mpmath quadrature."""
    with mp.workdps(30):
        p, Lm = 1 / mp.sqrt(mp.mpf(c)), mp.mpf(L)
        return mp.quad(lambda x: ((g[0] * mp.sin((Lm - x) * p) + g[1] * mp.sin(x * p))
                                  / mp.sin(Lm * p)) ** 2, [lo, hi])


def test_subregion_mass_matches_mpmath(monkeypatch):
    # the closed-form masses against mpmath integrals of w^2 and u^2; the
    # Simpson masses they replace were 2e-11 off at the README arguments
    p = ParameterSet(2.0, 1.0, 0.003)
    basis = BasisDescriptor(1, (PI,), 64)
    T, n, g = 0.05, 64.0, (0.7, -0.3)
    row, = propagation_burst(p, basis, g, T, [n], (1.0, 2.0))
    z = Field(basis, np.zeros(64))
    _, rate = evolve_with_boundary(build_blocks(p, basis, g), z, z,
                                   BoundarySignal.burst(T, n), T)
    with mp.workdps(30):
        coeffs = [mp.mpf(float(v)) for v in rate.coefficients]
        scale, k = mp.sqrt(2 / mp.mpf(PI)), mp.pi / mp.mpf(PI)

        def w(x):
            return scale * mp.fsum(cv * mp.sin((i + 1) * k * x) for i, cv in enumerate(coeffs))

        mass = mp.quad(lambda x: w(x) ** 2, mp.linspace(1, 2, 18), method="gauss-legendre")
        assert abs(row.mass_in_subregion / mass - 1) < 1e-13
        target = lift_mass_reference(0.003, PI, g, 1.0, 2.0)
        assert abs(row.target_mass / target - 1) < 1e-14
        target = lift_mass_reference(0.5, PI, (1.0, 0.0), 1.0, 2.0)
        readme, = propagation_burst(ParameterSet(3.0, 1.0, 0.5), BasisDescriptor(1, (PI,), 8),
                                    (1.0, 0.0), T, [n], (1.0, 2.0))
        assert abs(readme.target_mass / target - 1) < 1e-14
    # the row blocks of G do not change a mass
    monkeypatch.setattr(experiments, "_MASS_ROWS", 5)
    assert propagation_burst(p, basis, g, T, [n], (1.0, 2.0)) == [row]



def test_mass_of_a_large_finite_rate_field():
    # at (3, 1, 0.5) the rate field of one burst (n = 1) grows with T: at
    # T = 119 it peaks at 2.35e154, and the products of its coefficients
    # overflow unless the power of two at the largest one is factored out;
    # at T = 200 the mass itself is past the float range
    p, basis = ParameterSet(3.0, 1.0, 0.5), BasisDescriptor(1, (PI,), 16)
    masses = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for T in (118.0, 119.0, 200.0):
            row, = propagation_burst(p, basis, (1.0, 0.0), T, [1.0], (1.0, 2.0))
            masses[T] = row.mass_in_subregion
    assert masses[118.0] == 2.454843725426241e+305   # the bits of the unscaled sum
    assert masses[200.0] == math.inf
    z = Field(basis, np.zeros(16))
    _, rate = evolve_with_boundary(build_blocks(p, basis, (1.0, 0.0)), z, z,
                                   BoundarySignal.burst(119.0, 1.0), 119.0)
    assert 2e154 < np.abs(rate.coefficients).max() < math.inf
    with mp.workdps(40):
        # c^T G c with G_nm = [S(k_n - k_m) - S(k_n + k_m)] / L, S(k) = int_1^2 cos(k x)
        c = [mp.mpf(float(v)) for v in rate.coefficients]
        L, k = mp.mpf(PI), [(n + 1) * (mp.pi / mp.mpf(PI)) for n in range(16)]

        def S(w):
            return mp.mpf(1) if w == 0 else (mp.sin(2 * w) - mp.sin(w)) / w

        want = mp.fsum(c[n] * c[m] * (S(k[n] - k[m]) - S(k[n] + k[m]))
                       for n in range(16) for m in range(16)) / L
        assert abs(masses[119.0] / want - 1) < 1e-15

def test_saturated_rate_field_has_infinite_mass():
    # at T = 40 modes 19..32 saturate: one of them alone (T = 0.5 with c
    # just above 1/19^2), or several of one sign, whose sampled sums met
    # as inf - inf = nan
    for c, T in (((1.0 + 1e-4) / 19.0**2, 0.5), (0.003, 40.0)):
        rows = propagation_burst(ParameterSet(2.0, 1.0, c), BasisDescriptor(1, (PI,), 32),
                                 (1.0, 0.0), T, [1.0, 8.0], (1.0, 2.0))
        for row in rows:
            assert row.mass_in_subregion == math.inf and row.ratio == math.inf
            assert math.isfinite(row.target_mass)


def test_mass_blocks_memory_is_linear_in_modes():
    # G at N = 4096 would take 134 MB; its blocks of _MASS_ROWS rows need a
    # few (rows, N) arrays
    n_modes = 4096
    coeffs = np.random.default_rng(2).normal(size=(n_modes, 3)) / np.arange(1, n_modes + 1)[:, None]
    tracemalloc.start()
    try:
        masses = experiments._subregion_masses(coeffs, PI, 1.0, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * experiments._MASS_ROWS * n_modes * 8
    assert all(0.0 < m < math.inf for m in masses)
