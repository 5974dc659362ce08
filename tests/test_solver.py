import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cattaneo4 import (BasisDescriptor, ExceptionalParameterError, Field,
                       ParameterSet, UnsolvableModeError, basis_field,
                       check_wellposed, evolve_homogeneous, field_norm,
                       project_samples, quad_integrate, reconstruct,
                       zero_field)

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
    l2 = math.sqrt(quad_integrate(vals * vals, PI / 2048))
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
    rep = check_wellposed(0.26, basis, threshold=1e-3)
    assert rep.verdict == "well_posed"
    assert rep.nearest == 0.25
    assert rep.distance == pytest.approx(0.01, rel=1e-12)

    assert check_wellposed(0.25, basis).verdict == "exceptional"
    assert check_wellposed(1.0, basis).verdict == "exceptional"

    rep = check_wellposed(0.25 + 1e-10, basis, threshold=1e-9)
    assert rep.verdict == "near_exceptional"

    # below the enumerated tail the verdict cannot be well_posed
    rep = check_wellposed(1e-9, basis)
    assert rep.verdict == "near_exceptional"
    with pytest.raises(ValueError):
        check_wellposed(0.3, basis, threshold=-1.0)


def test_exceptional_gate_agrees_with_solve_mode():
    # |1 - c lam2| = 1e-8 at mode 5000: second order for solve_mode, so
    # neither 'exceptional' nor refused by evolve_homogeneous
    basis = interval_basis(6000)
    c = (1.0 + 1e-8) / 5000.0**2
    rep = check_wellposed(c, basis)
    assert rep.verdict == "near_exceptional"
    assert rep.nearest == 1.0 / 5000.0**2
    p = ParameterSet(2.0, 1.0, c)
    th, _ = evolve_homogeneous(p, basis_field(basis, 1), basis_field(basis, 5000), 0.1)
    assert th.saturated[4999] and not th.saturated[0]
    # inside the degeneracy gate of solve_mode the verdict is 'exceptional'
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
