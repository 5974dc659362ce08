import cmath
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cattaneo4 import (DegenerateModeError, ParameterSet,
                       UnsolvableModeError, characteristic_roots, evolve_modes,
                       reference_telegraph_mode, second_order_roots)
from cattaneo4 import modal
from cattaneo4.modal import _physical_map
import oracle
from oracle import integrate_modes


def mode(p, lam2, alpha, beta, t):
    """(theta, theta', saturated) of one mode as Python scalars."""
    v, d, s = evolve_modes(p, lam2, alpha, beta, t)
    return float(v), float(d), bool(s)


def factors(h, k, tau):
    """modal._factors of A = [[0, 1], [k, -h]] at the scalar time tau:
    exp(A tau) = e^log_scale (phi0 I + phi1 A)."""
    return modal._factors(*second_order_roots(1.0, h, np.negative(k))[2:], tau)


def vandermonde_state(leading, damping, stiffness, alpha, beta, t):
    """Textbook reference: solve the 2x2 Vandermonde system in complex
    arithmetic, no stable-form tricks.  Valid away from double roots."""
    mu1 = (-damping + cmath.sqrt(damping**2 - 4 * leading * stiffness)) / (2 * leading)
    mu2 = (-damping - cmath.sqrt(damping**2 - 4 * leading * stiffness)) / (2 * leading)
    mat = np.array([[1.0, 1.0], [mu1, mu2]], dtype=complex)
    c1, c2 = np.linalg.solve(mat, np.array([alpha, beta], dtype=complex))
    val = c1 * cmath.exp(mu1 * t) + c2 * cmath.exp(mu2 * t)
    der = c1 * mu1 * cmath.exp(mu1 * t) + c2 * mu2 * cmath.exp(mu2 * t)
    return val.real, der.real


def test_parameter_set_maps():
    p = ParameterSet.from_physical(chi=2.0, sigma=5.0, gamma_rho=4.0)
    assert (p.a, p.b, p.c) == (0.4, 0.2, 1.25)
    # both invariants of the physical map
    assert p.a**2 * p.c == pytest.approx(p.b, rel=1e-15)
    assert p.b * 5.0 * 4.0 == pytest.approx(4.0, rel=1e-15)
    # the map applied to an array of sigma gives each triple's bits
    sigma = np.array([5.0, 0.3, 5.0 / 49.0, 1e-300])
    for i, row in enumerate(zip(*_physical_map(2.0, sigma, 4.0))):
        q = ParameterSet.from_physical(2.0, float(sigma[i]), 4.0)
        assert row == (q.a, q.b, q.c)


def test_parameter_set_validation():
    with pytest.raises(ValueError):
        ParameterSet(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ParameterSet(1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        ParameterSet.from_physical(chi=2.0, sigma=-5.0, gamma_rho=4.0)


def test_discriminant_examples():
    # a^2 - 4 b lam2 (1 - c lam2) of the mode ODE (1 - c lam2, a, b lam2)
    assert second_order_roots(1.0 - 0.05 * 4.0, 1.0, 4.0)[0] == \
        pytest.approx(1.0 - 16.0 * 0.8, rel=1e-15)
    # exact double root: lam2=1, c=0.75 -> eps=0.25, 4*1*0.25 = 1 = a^2
    assert second_order_roots(1.0 - 0.75, 1.0, 1.0)[0] == 0.0


def test_characteristic_roots_regimes():
    r = characteristic_roots(ParameterSet(3.0, 1.0, 0.5), 1.0)
    assert r.kind == "real_distinct"
    s7 = math.sqrt(7.0)
    assert r.mu_plus.real == pytest.approx(-2.0 / (3.0 + s7), rel=1e-15)
    assert r.mu_minus.real == pytest.approx(-(3.0 + s7) / 1.0, rel=1e-15)

    r = characteristic_roots(ParameterSet(1.0, 1.0, 0.05), 4.0)
    assert r.kind == "complex_pair"
    assert r.mu_plus == r.mu_minus.conjugate()
    assert r.mu_plus.real == pytest.approx(-1.0 / 1.6, rel=1e-14)

    r = characteristic_roots(ParameterSet(1.0, 1.0, 0.75), 1.0)
    assert r.kind == "double"
    assert r.mu_plus == r.mu_minus == -2.0

    with pytest.raises(DegenerateModeError):
        characteristic_roots(ParameterSet(1.0, 1.0, 0.25), 4.0)


def test_characteristic_roots_array_call_is_the_per_mode_calls():
    # one array call gives, entry by entry, the record of the call on that
    # mode alone, bit for bit: real (0.1, 2, 9), double (1) and complex (0.5)
    # modes of one parameter set; one degenerate entry raises for the call
    p = ParameterSet(1.0, 1.0, 0.75)
    lam2 = np.array([[0.1, 0.5, 1.0], [2.0, 9.0, 0.5]])
    roots = characteristic_roots(p, lam2)
    assert roots.kind.tolist() == [["real_distinct", "complex_pair", "double"],
                                   ["real_distinct", "real_distinct", "complex_pair"]]
    for idx in np.ndindex(lam2.shape):
        one = characteristic_roots(p, float(lam2[idx]))
        assert str(roots.kind[idx]) == str(one.kind)
        for name in ("delta_sq", "delta", "r_plus", "r_minus", "freq", "mu_plus", "mu_minus"):
            got, want = np.asarray(getattr(roots, name)[idx]), np.asarray(getattr(one, name))
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (idx, name)
    with pytest.raises(DegenerateModeError, match="lambda_sq=4.0"):
        characteristic_roots(ParameterSet(1.0, 1.0, 0.25), [1.0, 4.0, 9.0])
    with pytest.raises(ValueError, match="positive"):
        characteristic_roots(p, [1.0, 0.0])



def test_degenerate_mode_error_names_its_mode():
    # the 1-based index of the first-order entry, as UnsolvableModeError gives
    with pytest.raises(DegenerateModeError) as err:
        characteristic_roots(ParameterSet(1.0, 1.0, 0.25), np.array([1.0, 4.0, 9.0]))
    assert err.value.mode_index == 2
    with pytest.raises(DegenerateModeError) as err:
        characteristic_roots(ParameterSet(1.0, 1.0, 0.25), 4.0)
    assert err.value.mode_index == 1


def test_evolve_modes_outputs_take_the_broadcast_shape_at_every_time():
    # scalar data over an array of modes, and a (3, 1) grid of modes over (4,)
    # data: theta, theta' and the flags all take the broadcast shape, at
    # t = 0 (which returns the data) as at t > 0
    p = ParameterSet(3.0, 1.0, 0.5)
    lam2 = np.array([1.0, 4.0, 9.0])
    for t in (0.0, 0.5):
        value, deriv, sat = evolve_modes(p, lam2, 1.0, 0.0, t)
        assert value.shape == deriv.shape == sat.shape == (3,), t
    value, deriv, sat = evolve_modes(p, lam2, 1.0, 0.0, 0.0)
    assert value.tolist() == [1.0] * 3 and deriv.tolist() == [0.0] * 3 and not sat.any()
    value[0] = 2.0   # a writable array of its own
    assert value.tolist() == [2.0, 1.0, 1.0]
    alpha, beta = np.array([1.0, -2.0, 0.5, np.inf]), np.array([0.0, 1.0, 2.0, 0.0])
    for t in (0.5, 0.0):
        value, deriv, sat = evolve_modes(p, lam2[:, None], alpha, beta, t)
        assert value.shape == deriv.shape == sat.shape == (3, 4), t
        assert sat[:, 3].all() and not sat[:, :3].any()
    assert (value == alpha).all() and (deriv == beta).all()

def test_limit3_family_roots_are_exact():
    # sigma-form family chi=2, gamma rho=4 at sigma_k = 5/k^2, mode k:
    # roots come out as exactly 2k^2 and -2k^2/5
    for k in (1, 2, 3, 5, 8):
        p = ParameterSet.from_physical(2.0, 5.0 / k**2, 4.0)
        r = characteristic_roots(p, float(k * k))
        assert r.r_minus == 2.0 * k * k
        assert r.r_plus == pytest.approx(-0.4 * k * k, rel=1e-15)


def test_sigma_form_and_normalized_form_agree():
    # k=1: raw -5/4 y'' + 2 y' + y = 0 is the unnormalized version of the
    # mapped parameter set; its exponential at (h, k) = (2, 1)/(-5/4) and the
    # mapped mode must produce the same trajectory
    p = ParameterSet.from_physical(chi=2.0, sigma=5.0, gamma_rho=4.0)
    roots = characteristic_roots(p, 1.0)
    assert roots.kind == "real_distinct" and roots.r_minus == 2.0
    assert second_order_roots(-1.25, 2.0, 1.0)[3] == 2.0
    for t in (0.0, 0.3, 1.1):
        phi0, phi1, log_scale = factors(2.0 / -1.25, -1.0 / -1.25, t)
        raw = math.exp(log_scale) * (phi0 * 1.0 + phi1 * -0.5)
        assert raw == pytest.approx(mode(p, 1.0, 1.0, -0.5, t)[0], rel=1e-14)


def test_real_distinct_against_linear_solve():
    p = ParameterSet(3.0, 1.0, 0.5)
    for t in (0.1, 0.7, 2.0):
        want_v, want_d = vandermonde_state(0.5, 3.0, 1.0, 1.0, 0.25, t)
        value, deriv, _ = mode(p, 1.0, 1.0, 0.25, t)
        assert value == pytest.approx(want_v, rel=1e-13)
        assert deriv == pytest.approx(want_d, rel=1e-13)


def test_complex_pair_against_linear_solve():
    p = ParameterSet(1.0, 1.0, 0.05)
    assert characteristic_roots(p, 4.0).kind == "complex_pair"
    for t in (0.2, 1.0, 3.0):
        want_v, want_d = vandermonde_state(0.8, 1.0, 4.0, 0.7, -0.3, t)
        value, deriv, _ = mode(p, 4.0, 0.7, -0.3, t)
        assert value == pytest.approx(want_v, rel=1e-12, abs=1e-14)
        assert deriv == pytest.approx(want_d, rel=1e-12, abs=1e-14)


def test_double_root_closed_form():
    # (A + B t) e^{-2t} with A = alpha, B = beta + 2 alpha
    p = ParameterSet(1.0, 1.0, 0.75)
    assert characteristic_roots(p, 1.0).kind == "double"
    for t in (0.0, 0.4, 2.5):
        want = (1.0 + (0.5 + 2.0) * t) * math.exp(-2.0 * t)
        assert mode(p, 1.0, 1.0, 0.5, t)[0] == pytest.approx(want, rel=1e-14)


def test_root_products_and_sums():
    # Vieta: mu+ * mu- = b lam2 / eps, mu+ + mu- = -a / eps
    for (a, b, c, lam2) in [(3.0, 1.0, 0.5, 1.0), (1.0, 2.0, 0.01, 9.0),
                            (0.5, 1.0, 2.0, 4.0)]:
        eps = 1.0 - c * lam2
        r = characteristic_roots(ParameterSet(a, b, c), lam2)
        assert r.mu_plus * r.mu_minus == pytest.approx(b * lam2 / eps, rel=1e-12)
        assert r.mu_plus + r.mu_minus == pytest.approx(-a / eps, rel=1e-12)


def test_degenerate_dispatch_and_compatibility():
    p = ParameterSet(2.0, 1.0, 0.25)  # exceptional at lam2 = 4
    required = -(1.0 * 4.0) / 2.0
    with pytest.raises(DegenerateModeError):
        characteristic_roots(p, 4.0)

    value, deriv, sat = mode(p, 4.0, 1.0, required, 0.5)
    assert value == pytest.approx(math.exp(required * 0.5), rel=1e-15)
    assert deriv == pytest.approx(required * math.exp(required * 0.5), rel=1e-15)
    assert not sat
    assert mode(p, 4.0, 1.0, required, 0.0) == (1.0, required, False)

    # mode 2 of the batch is the degenerate one
    with pytest.raises(UnsolvableModeError) as exc:
        evolve_modes(p, [1.0, 4.0], [0.0, 1.0], [0.0, required + 0.1], 0.5)
    assert exc.value.mode_index == 2
    assert "required -2.0" in str(exc.value) and "beta/alpha = -1.9" in str(exc.value)


def test_zero_alpha_compatibility_is_exact():
    p = ParameterSet(2.0, 1.0, 0.25)
    assert mode(p, 4.0, 0.0, 0.0, 0.5) == (0.0, -0.0, False)
    with pytest.raises(UnsolvableModeError):
        evolve_modes(p, 4.0, 0.0, 1e-300, 0.5)


def test_near_degenerate_stays_second_order():
    eps = 1e-9
    p = ParameterSet(1.0, 1.0, (1.0 - eps) / 4.0)
    roots = characteristic_roots(p, 4.0)
    assert roots.kind == "real_distinct"
    # slow root approaches the first-order rate -b lam2 / a
    assert roots.r_plus == pytest.approx(-4.0, rel=1e-6)


def test_eval_saturation_flags():
    # eps < 0 puts one root at roughly a/|eps| > 0; t=1 overflows e^709
    eps = -1e-6
    p = ParameterSet(1.0, 1.0, (1.0 - eps) / 4.0)
    roots = characteristic_roots(p, 4.0)
    assert roots.kind == "real_distinct" and roots.r_minus > 1e5
    value, deriv, sat = mode(p, 4.0, 1.0, 0.0, 1.0)
    assert sat
    assert math.isinf(value) and math.isinf(deriv)


def test_eval_time_validation():
    p = ParameterSet(1.0, 1.0, 0.05)
    for t in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            evolve_modes(p, 4.0, 1.0, 0.0, t)


def test_evolve_modes_data_validation():
    p = ParameterSet(1.0, 1.0, 0.05)
    for lam2 in (0.0, -4.0, math.nan, [4.0, 0.0]):
        with pytest.raises(ValueError):
            evolve_modes(p, lam2, 1.0, 0.0, 0.5)
    for alpha, beta in ((math.nan, 0.0), (1.0, math.nan), ([1.0, math.nan], 0.0)):
        with pytest.raises(ValueError):
            evolve_modes(p, [4.0, 9.0], alpha, beta, 0.5)
    # saturated data are not rejected: they evolve to a flagged value
    value, _, sat = mode(p, 4.0, math.inf, 0.0, 0.5)
    assert sat and math.isinf(value)


def test_infinite_data_come_back_flagged():
    # a complex-pair mode: phi0 and phi1 share a sign at t = 0.5, so
    # (inf, -inf) meets inf - inf in theta and (inf, inf) in theta'
    p = ParameterSet(1.0, 1.0, 0.05)
    for alpha, beta in ((math.inf, -math.inf), (math.inf, math.inf),
                        (-math.inf, 0.0), (0.0, math.inf)):
        for t in (0.5, 0.0):
            value, deriv, sat = mode(p, 4.0, alpha, beta, t)
            assert sat, (alpha, beta, t)
    # in a batch only the mode with infinite data is flagged
    value, deriv, sat = evolve_modes(p, [4.0, 9.0], [math.inf, 1.0], [-math.inf, 0.0], 0.5)
    assert sat.tolist() == [True, False]
    assert np.isfinite([value[1], deriv[1]]).all()


def test_degenerate_mode_rejects_infinite_data():
    # compatibility of an infinite datum means nothing: every sign pair is a
    # plain ValueError, before the inf - inf of the compatibility test
    p = ParameterSet(2.0, 1.0, 0.25)  # exceptional at lam2 = 4, rate -2
    for alpha, beta in ((math.inf, math.inf), (math.inf, -math.inf),
                        (-math.inf, math.inf), (math.inf, 0.0), (1.0, math.inf)):
        with pytest.raises(ValueError) as exc:
            evolve_modes(p, [1.0, 4.0], [0.0, alpha], [0.0, beta], 0.5)
        assert not isinstance(exc.value, UnsolvableModeError)
        assert "finite" in str(exc.value)
    # infinite data on a second-order mode of the same batch are fine, also
    # where the compatibility test of the batch meets inf - inf
    value, _, sat = evolve_modes(p, [1.0, 4.0], [math.inf, 1.0], [-math.inf, -2.0], 0.5)
    assert sat.tolist() == [True, False] and math.isfinite(value[1])


def test_telegraph_reference_roots_and_limit():
    # tau=1, kappa lam2=1: mu^2 + mu + 1 = 0 -> (-1 +- i sqrt3)/2
    delta_sq, delta, r_plus, r_minus, _ = second_order_roots(1.0, 1.0, 1.0)
    assert delta_sq < 0.0 and r_plus == r_minus == -0.5
    w = delta / 2.0
    assert w == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-14)
    got = reference_telegraph_mode(tau=1.0, kappa=1.0, lambda_sq=1.0,
                                   data=(1.0, 0.0), t=0.7)
    want = math.exp(-0.35) * (math.cos(0.7 * w) + 0.5 / w * math.sin(0.7 * w))
    assert got == pytest.approx(want, rel=1e-14)
    with pytest.raises(ValueError):
        reference_telegraph_mode(1.0, 1.0, 1.0, (math.nan, 0.0), 0.7)
    # tau -> 0 recovers the heat decay alpha e^{-(b lam2/a) t} = e^{-t} on
    # compatible data
    for t in (0.2, 1.0):
        heat = math.exp(-t)
        tele = reference_telegraph_mode(tau=1e-8, kappa=1.0, lambda_sq=1.0,
                                        data=(1.0, -1.0), t=t)
        assert tele == pytest.approx(heat, rel=1e-6)


mode_params = st.tuples(
    st.floats(min_value=0.3, max_value=4.0),
    st.floats(min_value=0.2, max_value=3.0),
    st.floats(min_value=0.01, max_value=2.0),
    st.floats(min_value=0.5, max_value=16.0),
)


@given(mode_params,
       st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=80, deadline=None)
def test_t0_reproduces_data_exactly(params, alpha, beta):
    a, b, c, lam2 = params
    assume(abs(1.0 - c * lam2) > 1e-6)
    value, deriv, sat = mode(ParameterSet(a, b, c), lam2, alpha, beta, 0.0)
    assert value == alpha
    assert deriv == beta
    assert not sat


@given(mode_params,
       st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=0.05, max_value=1.0))
@settings(max_examples=25, deadline=None)
def test_closed_form_matches_ode_oracle(params, alpha, beta, t):
    a, b, c, lam2 = params
    eps = 1.0 - c * lam2
    assume(abs(eps) > 0.02)
    assume(abs(alpha) + abs(beta) > 1e-3)
    p = ParameterSet(a, b, c)
    traj = integrate_modes(eps, a, b * lam2, alpha, beta, 1.0)
    ref_v, ref_d = traj(t)
    value, deriv, _ = mode(p, lam2, alpha, beta, t)
    scale = max(1.0, abs(ref_v), abs(ref_d))
    assert abs(value - ref_v) / scale < 1e-8
    assert abs(deriv - ref_d) / scale < 1e-8


@given(st.sampled_from([1.0, 4.0, 16.0, 64.0]),
       st.floats(min_value=-2.0, max_value=2.0),
       st.booleans())
@example(1.0, 5e-324, True)
@settings(max_examples=40, deadline=None)
def test_compatibility_dichotomy(lam2, alpha, compat):
    # c = 1/lam2 is float-exact for powers of four, so the degenerate branch
    # is taken with certainty
    p = ParameterSet(1.5, 1.0, 1.0 / lam2)
    required = -(1.0 * lam2) / 1.5
    beta = required * alpha if compat else required * alpha + 0.5
    with pytest.raises(DegenerateModeError):
        characteristic_roots(p, lam2)
    if compat:
        # the first-order decay alpha e^{required t}
        value, deriv, sat = mode(p, lam2, alpha, beta, 0.25)
        assert value == pytest.approx(alpha * math.exp(0.25 * required), rel=1e-14, abs=1e-300)
        assert deriv == pytest.approx(beta * math.exp(0.25 * required), rel=1e-14, abs=1e-300)
        assert not sat
    else:
        with pytest.raises(UnsolvableModeError):
            evolve_modes(p, lam2, alpha, beta, 0.25)


# ------------------------------------------- extended-precision kernel checks
#
# The closed forms against mpmath's 2x2 matrix exponential (50 digits) where
# they cancel.  lam2 is a power of four and c = (1 - eps)/lam2, so the
# program's 1 - c lam2 is exactly the eps of the reference.  Gate: normwise
# error <= 64 u (1 + |mu| t), with the error of (theta, theta') relative to
# max|E_ij| (|alpha| + |beta|), or to FLOOR when that is smaller.

U = 2.0 ** -53
LOG_SAT = 700.0
FLOOR = 1e-280  # states below this are compared absolutely (underflow)


def mp_mode_state(a, b, c, lam2, alpha, beta, t):
    """(theta, theta', max|E_ij| (|alpha| + |beta|), |mu| t) in mpmath."""
    with mp.workdps(50):
        a, b, c, lam2, alpha, beta, t = (mp.mpf(float(v))
                                         for v in (a, b, c, lam2, alpha, beta, t))
        eps = 1 - c * lam2
        m = mp.matrix([[0, 1], [-b * lam2 / eps, -a / eps]])
        e = mp.expm(m * t)
        theta = e[0, 0] * alpha + e[0, 1] * beta
        dtheta = e[1, 0] * alpha + e[1, 1] * beta
        size = max(abs(e[i, j]) for i in range(2) for j in range(2)) * (abs(alpha) + abs(beta))
        tr, det = m[1, 1], -m[1, 0]
        disc = mp.sqrt(mp.mpc(tr * tr - 4 * det))
        radius = max(abs((tr + disc) / 2), abs((tr - disc) / 2))
        return theta, dtheta, size, float(radius * t)


def normwise_error(got, ref):
    theta, dtheta, size, _ = ref
    err = max(abs(mp.mpf(float(got[0])) - theta), abs(mp.mpf(float(got[1])) - dtheta))
    return float(err / max(size, FLOOR))


def check_against_reference(a, b, c, lam2, alpha, beta, t):
    """evolve_modes against the reference, saturation included."""
    ref = mp_mode_state(a, b, c, lam2, alpha, beta, t)
    value, deriv, sat = mode(ParameterSet(a, b, c), lam2, alpha, beta, t)
    logs = [float(mp.log(abs(x))) if x != 0 else -math.inf for x in ref[:2]]
    if max(logs) > LOG_SAT + 1e-6:
        assert sat
        for got, want, lg in zip((value, deriv), ref[:2], logs):
            if lg > LOG_SAT + 1e-6:
                assert math.isinf(got) and (got > 0) == (want > 0)
        return
    if max(logs) > LOG_SAT - 1e-6:
        return  # at the saturation edge either answer is right
    assert not sat
    assert normwise_error((value, deriv), ref) <= 64 * U * (1.0 + ref[3])


data = st.floats(min_value=-2.0, max_value=2.0)
lam2s = st.sampled_from([1.0, 4.0, 16.0, 64.0])


@given(st.floats(min_value=0.5, max_value=3.0), st.floats(min_value=0.05, max_value=0.9),
       lam2s, st.sampled_from([1e-3, 1e-8]), st.floats(min_value=0.5, max_value=2.0),
       st.sampled_from([-1.0, 1.0]), data, data, st.floats(min_value=0.05, max_value=3.0))
@settings(max_examples=60, deadline=None)
def test_kernel_near_double_roots(a, eps, lam2, sep, stretch, side, alpha, beta, t):
    # roots sep * stretch apart: delta = that times eps, on the real or the
    # complex side; b rounds, so the smallest gaps land on either side
    delta_sq = side * (sep * stretch * eps) ** 2
    b = (a * a - delta_sq) / (4.0 * eps * lam2)
    check_against_reference(a, b, (1.0 - eps) / lam2, lam2, alpha, beta, t)


@given(st.floats(min_value=0.5, max_value=3.0), st.floats(min_value=0.1, max_value=0.9),
       lam2s, st.floats(min_value=-12.0, max_value=-3.0), data, data,
       st.floats(min_value=0.05, max_value=3.0))
@settings(max_examples=40, deadline=None)
def test_kernel_delta_to_a(a, eps, lam2, log_ratio, alpha, beta, t):
    # 4 b lam2 eps / a^2 = 10^log_ratio, so delta = a (1 - tiny) and the slow
    # root -2 b lam2 / (a + delta) must keep its digits
    b = a * a * 10.0 ** log_ratio / (4.0 * eps * lam2)
    check_against_reference(a, b, (1.0 - eps) / lam2, lam2, alpha, beta, t)


@given(st.floats(min_value=0.5, max_value=3.0), st.floats(min_value=0.2, max_value=2.0),
       lam2s, st.floats(min_value=-12.0, max_value=-6.0), st.sampled_from([-1.0, 1.0]),
       data, data, st.floats(min_value=0.05, max_value=3.0))
@settings(max_examples=40, deadline=None)
def test_kernel_near_exceptional(a, b, lam2, log_eps, side, alpha, beta, t):
    # |1 - c lam2| in [1e-12, 1e-6] on both sides, outside the 1e-12 gate
    eps = side * max(10.0 ** log_eps, 2e-12)
    check_against_reference(a, b, (1.0 - eps) / lam2, lam2, alpha, beta, t)


@given(st.floats(min_value=0.5, max_value=3.0), st.floats(min_value=0.2, max_value=2.0),
       lam2s, st.floats(min_value=0.05, max_value=1.0), st.floats(min_value=690.0, max_value=712.0),
       data, data)
@settings(max_examples=40, deadline=None)
@example(1.0, 1.0, 1.0, 1.0, 690.0, 0.0, 5e-324)  # subnormal beta: 1.0e-24, not 0.0
def test_kernel_saturation_edge(a, b, lam2, neg_eps, target, alpha, beta):
    # a growing mode (eps < 0) timed so that its exponent crosses 700
    eps = -neg_eps
    c = (1.0 - eps) / lam2
    grow = float(characteristic_roots(ParameterSet(a, b, c), lam2).r_minus)
    check_against_reference(a, b, c, lam2, alpha, beta, target / grow)


def test_decay_past_e_minus_708_keeps_its_digits():
    # alpha = 1e300 decays by e^-740: log_scale = r_plus t is below -708, so
    # exp(log_scale) alone is subnormal and would cost the product its digits
    args = (3.0, 1.0, 0.5, 1.0, 1e300, 0.0, 2090.0)
    check_against_reference(*args)
    ref = mp_mode_state(*args)
    got = mode(ParameterSet(*args[:3]), *args[3:])
    for value, want in zip(got[:2], ref[:2]):
        assert abs(mp.mpf(value) - want) <= 1e-13 * abs(want)


@given(st.floats(min_value=-50.0, max_value=50.0), st.floats(min_value=-400.0, max_value=400.0),
       st.floats(min_value=0.0, max_value=3.0))
@settings(max_examples=60, deadline=None)
@example(1e-3, 0.0, 1.0)        # zero eigenvalue next to a small one
@example(-2.0, -1.0, 1.5)       # exact double root with negative h
@example(-600.0, 100.0, 2.0)    # e^{600 t}: scaled factors stay finite
def test_propagator_matches_matrix_exponential(h, k, tau):
    phi0, phi1, log_scale = factors(h, k, tau)
    assert np.isfinite([phi0, phi1, log_scale]).all()
    with mp.workdps(50):
        a = mp.matrix([[0, 1], [mp.mpf(k), -mp.mpf(h)]])
        e = mp.expm(a * mp.mpf(tau))
        got = mp.exp(mp.mpf(float(log_scale))) * (
            mp.mpf(float(phi0)) * mp.eye(2) + mp.mpf(float(phi1)) * a)
        err = max(abs(got[i, j] - e[i, j]) for i in range(2) for j in range(2))
        size = max(abs(e[i, j]) for i in range(2) for j in range(2))
        disc = mp.sqrt(mp.mpc(h * h + 4 * k))
        radius = max(abs((-h + disc) / 2), abs((-h - disc) / 2)) * tau
    assert float(err / size) <= 64 * U * (1.0 + float(radius))


def test_propagator_table_matches_scalar_calls():
    # one array of modes at one scalar tau against one call per mode, bit for
    # bit: complex modes among real ones, an exact double root (gap = 0), a
    # near-double pair and a mode that grows past e^700, for either sign of
    # tau; tau = 0 is the identity
    h = np.array([3.0, 0.5, -2.0, -2.0, 0.2, -600.0, 1e-3, -0.5])
    k = np.array([-2.0, -4.0, -1.0, -1.0 + 1e-12, -9.0, 100.0, 0.0, -9.0])
    for tau in (2.0, 0.75, 0.0, -0.75, -2.0):
        table = factors(h, k, tau)
        for i in range(h.size):
            one = factors(h[i], k[i], tau)
            assert all(same_bits(x[i], y) for x, y in zip(table, one)), (i, tau)
        phi0, phi1, log_scale = table
        if tau == 0.0:   # phi1 = +0.0 on every mode
            assert (phi0 == 1.0).all() and (log_scale == 0.0).all()
            assert same_bits(phi1, np.zeros(h.size))
        assert np.isfinite(table).all()
        # e^{600 tau} passes e^700 forward in time only
        assert (log_scale[5] > LOG_SAT) == (tau > 1.0)
        assert (np.delete(log_scale, 5) < LOG_SAT).all()


def test_propagator_phi1_where_gap_tau_underflows():
    # g = gap tau rounds to 0 with neither factor 0 (gap = -0.4 at a
    # subnormal tau, gap = -1e-160 at tau = 1e-170): phi1 = tau, as at a
    # double root, in an array of modes and in one-mode calls alike
    h, k = np.array([0.4, 1e-160]), np.array([0.0, 0.0])
    for tau in (5e-324, 1e-170, 1.0):
        phi0, phi1, _ = factors(h, k, tau)
        if tau < 1.0:
            assert (phi0 == 1.0).all()
        for i in range(2):
            one = factors(h[i], k[i], tau)
            assert same_bits(phi0[i], one[0]) and same_bits(phi1[i], one[1])
    assert same_bits(factors(h, k, 5e-324)[1][0], 5e-324)
    assert same_bits(factors(h, k, 1e-170)[1][1], 1e-170)


def same_bits(x, y):
    return np.asarray(x).tobytes() == np.asarray(y).tobytes()


def test_rows_do_not_depend_on_a_subnormal_neighbour():
    # the digit rescue of modal._finish factors a power of two out of the
    # entries that would lose digits alone, and out of no other: one mode with
    # subnormal data put in front of 2000 generic ones leaves theta, theta',
    # the flag and log|theta| of every other entry bit for bit, with or
    # without a forcing d (p1, p2).  The data span 10^-150 to 10^150, d 10^+/-50
    # and p1, p2 10^+/-200, so a power of two taken at the largest datum would
    # push some p2 below the normal range
    rng = np.random.default_rng(11)
    n = 2000
    a, b, c = rng.uniform(0.5, 3.0, n), rng.uniform(0.2, 2.0, n), rng.uniform(0.05, 2.0, n)
    r_plus, r_minus, freq = second_order_roots(
        *modal._generator(a, b, c, rng.uniform(0.5, 9.0, n)))[2:]
    phi0, phi1, log_scale = modal._factors(r_plus, r_minus, freq, 0.7)
    factors = (phi0, phi1, log_scale, -(r_plus * r_minus + freq * freq), r_plus + r_minus)
    sizes = rng.uniform(-1.0, 1.0, (5, n)) * [[150], [150], [50], [200], [200]]
    alpha, beta, d, p1, p2 = rng.choice([-1.0, 1.0], (5, n)) * 10.0 ** sizes

    def prepend(first, x):
        return np.concatenate(([first], x))

    for forcing in (None, (d, p1, p2)):
        alone = modal._finish(*factors, alpha, beta, forcing)
        joined = modal._finish(*(prepend(x[0], x) for x in factors), prepend(1e-320, alpha),
                               prepend(0.0, beta), forcing and (
                                   prepend(1e-320, d), prepend(1.0, p1), prepend(1.0, p2)))
        assert all(same_bits(x[1:], y) for x, y in zip(joined, alone))


@given(st.floats(min_value=1e-6, max_value=1e12),
       st.one_of(st.floats(min_value=-4e-12, max_value=4e-12),
                 st.floats(min_value=-0.999, max_value=1e6)))
@example(1.0, 0.9e-12)
@example(1.0, -0.9e-12)
@example(1.0, 1.1e-12)
@example(1.0, -1.1e-12)
@example(9.869604401089358, 1e-12)
@settings(max_examples=300, deadline=None)
def test_first_order_gate_is_the_degeneracy_test(lam2, gap):
    # _first_order decides on the leading coefficient 1 - c lam2 already formed,
    # with 1 - leading in place of c lam2: the verdicts of the defining test
    # |1 - c lam2| <= DEGENERATE_TOL max(1, c lam2), on both sides of the gate
    c = (1.0 + gap) / lam2
    want = abs(1.0 - c * lam2) <= modal.DEGENERATE_TOL * max(1.0, c * lam2)
    assert bool(modal._first_order(modal._generator(1.0, 1.0, c, lam2)[0])) == want


def test_batch_matches_single_mode_calls():
    # one array call against one call per mode, bit for bit (signs of zero
    # included), across the complex, real-decaying, growing and saturated
    # regimes of c next to the exceptional member 1/lam_200^2, plus one
    # degenerate mode
    n = np.arange(1, 401, dtype=float)
    lam2 = (n / 16.0) ** 2
    rng = np.random.default_rng(5)
    alpha, beta = rng.normal(size=400), rng.normal(size=400)
    for c, t in (((1 + 1e-7) / lam2[199], 1.7), ((1 - 1e-5) / lam2[199], 4.0)):
        p = ParameterSet(2.0, 1.0, c)
        v, d, s = evolve_modes(p, lam2, alpha, beta, t)
        assert s.any() and not s.all()
        for i in range(400):
            one = evolve_modes(p, lam2[i:i + 1], alpha[i:i + 1], beta[i:i + 1], t)
            assert all(same_bits(x[i:i + 1], y) for x, y in zip((v, d, s), one))
    # c = 1/lam_4^2 exactly: mode 4 is first order; compatible data there
    p = ParameterSet(2.0, 1.0, 1.0 / lam2[3])
    beta_c = beta.copy()
    beta_c[3] = -(p.b * lam2[3]) / p.a * alpha[3]
    v, d, s = evolve_modes(p, lam2[:8], alpha[:8], beta_c[:8], 0.9)
    for i in range(8):
        one = evolve_modes(p, lam2[i:i + 1], alpha[i:i + 1], beta_c[i:i + 1], 0.9)
        assert all(same_bits(x[i:i + 1], y) for x, y in zip((v, d, s), one))
    with pytest.raises(DegenerateModeError):
        characteristic_roots(p, lam2[3])
    assert v[3] == pytest.approx(alpha[3] * math.exp(-0.9 * lam2[3] / 2.0), rel=1e-14)
    with pytest.raises(UnsolvableModeError) as err:
        evolve_modes(p, lam2[:8], alpha[:8], beta[:8], 0.9)
    assert err.value.mode_index == 4


# each entry's (leading, damping, stiffness) is drawn from one of these
# regimes; 'near first order' has |leading| = 1e-13 and a huge fast root,
# 'fast decay' puts both roots far past e^-708 over a unit time, and 'decay
# past e^-708' just past it, where huge data keep a normal value
REGIMES = {
    "real distinct": ((0.2, 2.0), (3.0, 6.0), (0.1, 1.0)),
    "complex": ((0.2, 2.0), (0.1, 1.0), (2.0, 50.0)),
    "growing": ((-2.0, -1e-3), (0.5, 3.0), (0.5, 50.0)),
    "saturating": ((-1e-4, -1e-6), (0.5, 3.0), (1e2, 1e4)),
    "near first order": ((-1e-13, 1e-13), (0.5, 3.0), (0.5, 5.0)),
    "fast decay": ((1e-5, 1e-4), (0.5, 2.0), (1e5, 1e6)),
    "decay past e^-708": ((1e-3, 1e-3), (1.44, 1.8), (1e3, 1e4)),
}
DOUBLE_ROOTS = ((1.0, 2.0, 1.0), (0.25, 1.0, 1.0), (-1.0, 2.0, -1.0))


def chain_inputs(seed, shape, negative_damping):
    """Seeded (leading, damping, stiffness, alpha, beta, d, p1, p2, mask) of
    the given shape, every regime and exact double roots mixed; the data mix
    ordinary values with zeros, huge ones and subnormals (the digit rescue)."""
    rng = np.random.default_rng(seed)
    n = math.prod(shape)
    kinds = rng.integers(0, len(REGIMES) + 1, n)
    gen = np.empty((3, n))
    for i, kind in enumerate(kinds):
        if kind == len(REGIMES):
            gen[:, i] = DOUBLE_ROOTS[rng.integers(len(DOUBLE_ROOTS))]
        else:
            gen[:, i] = [rng.uniform(*span) for span in list(REGIMES.values())[kind]]
    if negative_damping:   # the same quadratics negated: the roots stay
        gen[:, rng.random(n) < 0.5] *= -1.0

    def data(size):
        scale = rng.choice([1.0, 0.0, 1e200, 1e-200, 1e-310, 5e-324], n, p=[.5, .1, .1, .1, .1, .1])
        return rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 2.0, n) * scale * size

    d = data(1.0)
    p1, p2 = (rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-200, 200, n) for _ in "12")
    arrays = (*gen, data(1.0), data(1.0), d, p1, p2, rng.random(n) < 0.2)
    if shape == ():   # numpy scalars, as the scalar callers pass them
        return tuple(x[0] for x in arrays)
    return tuple(x.reshape(shape) for x in arrays)


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([(), (1,), (24,), (3, 8)]), st.booleans(),
       st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, 40.0]),
                 st.floats(min_value=-10.0, max_value=10.0)))
@settings(max_examples=80, deadline=None)
@example(0, (24,), False, 0.0)
@example(1, (3, 8), True, -2.5)
@example(2, (), False, 3.0)
@example(1, (24,), False, 1.0)  # log_scale in (-1100, -708) on data of 1e200
def test_buffered_chain_is_the_out_of_place_chain_bit_for_bit(seed, shape, negative_damping, tau):
    # the roots, the scaled factors of exp(A tau), A, and the finish with and
    # without a forcing are byte for byte those of the out-of-place chain kept
    # in tests/oracle.py: values, derivatives, flags and log-magnitudes, for
    # every regime, tau < 0, = 0 and > 0, 0-d and 2-D arguments, and rows
    # with damping < 0
    leading, damping, stiffness, alpha, beta, d, p1, p2, mask = chain_inputs(
        seed, shape, negative_damping)
    with np.errstate(all="ignore"):
        roots = modal.second_order_roots(leading, damping, stiffness)
        want = oracle.second_order_roots(leading, damping, stiffness)
        assert all(same_bits(x, y) for x, y in zip(roots, want))
        factors = modal._factors(*roots[2:], tau)
        assert all(same_bits(x, y) for x, y in zip(factors, oracle._factors(*want[2:], tau)))
        companion = modal._companion(*roots[2:])
        assert all(same_bits(x, y) for x, y in zip(companion, oracle._companion(*want[2:])))
        for forcing in (None, (d, p1, p2)):
            got = modal._finish(*factors, *companion, alpha, beta, forcing)
            ref = oracle._finish(*factors, *companion, alpha, beta, forcing)
            assert all(same_bits(x, y) for x, y in zip(got, ref)), forcing is None
        rate = -stiffness / damping
        for first_order in (None, (mask, rate)):
            got = modal._state(*roots[2:], alpha, beta, tau, first_order)
            ref = oracle._state(*want[2:], alpha, beta, tau, first_order)
            assert all(same_bits(x, y) for x, y in zip(got, ref))


def evolve_workload_modes(rho):
    """(ParameterSet, lam2, alpha, beta, t) of the ``evolve`` benchmark's shape:
    2e4 modes on (0, 128 pi), so lam_n = n/128, and c at relative offset rho
    from the exceptional member of mode 1e4."""
    n = np.arange(1, 20001)
    lam2 = (n / 128.0) ** 2
    rng = np.random.default_rng(27)
    alpha, beta = rng.normal(size=(2, n.size)) / np.sqrt(n)
    return ParameterSet(2.0, 1.0, (1.0 + rho) / lam2[9999]), lam2, alpha, beta, 2.0


def test_evolve_modes_peak_memory_on_the_evolve_workload():
    # one 2e4-mode call holds at most 16 arrays of N floats at a time
    # (2500 KB; the out-of-place chain peaked at 2918 KB), with complex,
    # growing and saturated modes all present; its states are those of the
    # out-of-place chain byte for byte
    for rho in (2e-5, -3e-7):
        p, lam2, alpha, beta, t = evolve_workload_modes(rho)
        evolve_modes(p, lam2, alpha, beta, t)
        tracemalloc.start()
        try:
            value, deriv, sat = evolve_modes(p, lam2, alpha, beta, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2500 * 1024, peak / 1024
        roots = second_order_roots(*modal._generator(p.a, p.b, p.c, lam2))
        assert (roots.freq > 0.0).any() and (roots.r_minus > 0.0).any() and sat.any()
        with np.errstate(all="ignore"):
            want = oracle._state(*oracle.second_order_roots(
                *modal._generator(p.a, p.b, p.c, lam2))[2:], alpha, beta, t)
        assert all(same_bits(x, y) for x, y in zip((value, deriv, sat), want))

