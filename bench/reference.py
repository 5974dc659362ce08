"""Extended-precision references, computed apart from the program.

Nothing here imports the package under test.  Each mode equation

    (1 - c lam2) theta'' + a theta' + b lam2 theta = 0

is solved as the 2x2 first-order system W' = M W, W = (theta, theta'),
M = [[0, 1], [-b lam2/eps, -a/eps]], eps = 1 - c lam2, through mpmath's
matrix exponential (scaling and squaring of a Taylor series at 40 digits).
The floats the program received are converted exactly, so the reference
solves the same problem the program solved.
"""

from __future__ import annotations

import math

import mpmath as mp

DPS = 40
U = 2.0 ** -53          # unit roundoff of binary64
LOG_SATURATION = 700.0  # log-magnitude past which the program saturates
FLOOR = 1e-280          # values below this are compared absolutely (underflow)


def _mpf(*xs):
    return [mp.mpf(float(x)) for x in xs]


def mode_matrix(a, b, c, lam2):
    a, b, c, lam2 = _mpf(a, b, c, lam2)
    eps = 1 - c * lam2
    return mp.matrix([[0, 1], [-b * lam2 / eps, -a / eps]])


def regime(a, b, c, lam2) -> str:
    """'complex', 'real_growing' (eps < 0) or 'real_decaying'."""
    with mp.workdps(DPS):
        a, b, c, lam2 = _mpf(a, b, c, lam2)
        eps = 1 - c * lam2
        if a * a - 4 * b * lam2 * eps < 0:
            return "complex"
        return "real_growing" if eps < 0 else "real_decaying"


def roots(m):
    """The two roots of the 2x2 matrix's characteristic polynomial."""
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = mp.sqrt(mp.mpc(tr * tr - 4 * det))
    return (tr + disc) / 2, (tr - disc) / 2


def mode_state(a, b, c, lam2, alpha, beta, t):
    """Reference (theta(t), theta'(t)), the size of the state, and the
    spectral radius of M t.

    The size is the larger of max|E_ij| (|alpha| + |beta|) and the sum of the
    magnitudes of the two eigen-terms c_i (1, mu_i) e^{mu_i t} the closed
    form adds; near a double root those terms are large and cancel, and a
    sum of terms is only as accurate as the sum of their magnitudes."""
    with mp.workdps(DPS):
        m = mode_matrix(a, b, c, lam2)
        tm = mp.mpf(float(t))
        e = mp.expm(m * tm)
        al, be = _mpf(alpha, beta)
        theta = e[0, 0] * al + e[0, 1] * be
        dtheta = e[1, 0] * al + e[1, 1] * be
        size = max(abs(e[i, j]) for i in range(2) for j in range(2)) * (abs(al) + abs(be))
        mu1, mu2 = roots(m)
        if mu1 != mu2:
            c1 = abs((be - al * mu2) / (mu1 - mu2) * mp.exp(mu1 * tm))
            c2 = abs((al * mu1 - be) / (mu1 - mu2) * mp.exp(mu2 * tm))
            size = max(size, c1 + c2, c1 * abs(mu1) + c2 * abs(mu2))
        return theta, dtheta, size, max(abs(mu1), abs(mu2)) * tm


def log_abs(x) -> float:
    return float(mp.log(abs(x))) if x != 0 else -math.inf


def state_error(theta, dtheta, ref_theta, ref_dtheta, size) -> float:
    """Normwise error of a computed state against the reference, relative to
    the propagated size; states below FLOOR are compared absolutely."""
    err = max(abs(mp.mpf(float(theta)) - ref_theta),
              abs(mp.mpf(float(dtheta)) - ref_dtheta))
    return float(err / max(size, mp.mpf(FLOOR)))


def closed_form_tol(radius_t) -> float:
    """Rounding allowance of a closed-form 2x2 exponential: the phase or
    exponent |mu| t carries a few ulps of relative error."""
    return 64.0 * U * (1.0 + float(radius_t))


# ---- Dirichlet boundary forcing ----------------------------------------------

def lift_pieces(n: int, L: float, c: float):
    """(I0, I1) with d_n = g0 I0 + g1 I1, the n-th sine coefficient of the lift

        Dg(x) = [g0 sin((L - x)/sqrt c) + g1 sin(x/sqrt c)] / sin(L/sqrt c),

    from the product-to-sum integrals of sin(p x) sin(q x) over (0, L)."""
    with mp.workdps(DPS):
        Lm, cm = _mpf(L, c)
        p = 1 / mp.sqrt(cm)
        q = n * mp.pi / Lm
        norm = mp.sqrt(2 / Lm) / mp.sin(p * Lm)
        i1 = (mp.sin((p - q) * Lm) / (p - q) - mp.sin((p + q) * Lm) / (p + q)) / 2
        i0 = ((mp.sin(p * Lm) + mp.sin(q * Lm)) / (p + q)
              - (mp.sin(q * Lm) - mp.sin(p * Lm)) / (q - p)) / 2
        return i0 * norm, i1 * norm


def boundary_unit_state(n: int, L: float, a, b, c, omega, t):
    """State (theta, theta') at t of mode n from zero data under the
    sinusoid f = sin(omega s), for a unit lift coefficient d_n = 1:

        W(t) = e^{At} (W0 - Wp(0)) + Wp(t),
        Wp(s) = Im[(i omega I - A)^{-1} (0, -(b/c + omega^2))^T e^{i omega s}],

    and the spectral radius |mu| of A.  W is linear in d_n."""
    with mp.workdps(DPS):
        Lm = mp.mpf(float(L))
        lam2 = (n * mp.pi / Lm) ** 2
        am, bm, cm, w, tm = _mpf(a, b, c, omega, t)
        eps = 1 - cm * lam2
        A = mp.matrix([[0, 1], [-bm * lam2 / eps, -am / eps]])
        force = mp.matrix([0, -(bm / cm + w * w)])
        x = mp.lu_solve(1j * w * mp.eye(2) - A, force)
        e = mp.expm(A * tm)
        wp0 = [mp.im(x[i]) for i in range(2)]
        wpt = [mp.im(x[i] * mp.exp(1j * w * tm)) for i in range(2)]
        state = [-(e[i, 0] * wp0[0] + e[i, 1] * wp0[1]) + wpt[i] for i in range(2)]
        return state[0], state[1], max(abs(mu) for mu in roots(A))


def simpson_gate(radius, t: float, intervals: int) -> float:
    """Allowed relative error of composite Simpson on e^{mu tau} f(s) with
    step h = t/intervals: |E| <= (t h^4/180) max|g''''| gives roughly
    (1 + t|mu|/180) (|mu| h)^4, plus a rounding floor."""
    mu = float(radius)
    h = t / intervals
    return (1.0 + t * mu / 180.0) * (mu * h) ** 4 + 1e-10
