"""The four workloads: seeded inputs, one operation each, and its checks.

Every workload is a closed loop run by one worker process: one operation at
a time, each the same size, only the seeded data changing.  A round is
``round_size`` operations on distinct inputs; a run repeats whole rounds, so
each input is run several times and its repeats must give identical output.

A workload object has

* ``setup()``: build the inputs (not timed as operations),
* ``op(j)``: the program calls of one operation on input ``j`` (timed),
* ``capture(j, out)``: the parts of the output the checks need,
* ``check(j, cap)``: problems found against the independent references.
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import reference as ref
import tables

BENCH_DIR = Path(__file__).resolve().parent


def _log_uniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


class _Workload:
    child_traces = ()  # span files of child processes of the last operation

    def __init__(self, c4, rng, workdir, seed):
        self.c4, self.rng, self.workdir, self.seed = c4, rng, Path(workdir), seed

    def warm_up(self):
        self.op(0)


# ---------------------------------------------------------------------------
# evolve: check_wellposed + evolve_homogeneous + field_norm, 2e4 modes
# ---------------------------------------------------------------------------

class Evolve(_Workload):
    """Homogeneous evolution on one reused 1-d basis of N = 20000 modes.

    L = 128 pi makes lam_n = n/128 exact.  Each input puts c next to the
    exceptional member 1/lam_{n*}^2, n* in [9500, 10500], at relative offset
    rho: so modes below n* are complex (or real-decaying at the low end), the
    ones above grow, and a band just above n* passes e^700 and saturates.
    The four inputs of a round take rho = +-[1e-9, 1e-6] (the n* mode itself
    saturates, or decays at rate ~1/rho) and rho = +-[1e-5, 5e-5] (well
    posed by the 1e-9 threshold of check_wellposed).
    """

    name = "evolve"
    round_size = 4
    N = 20000
    RATIO = 128

    def setup(self):
        c4, rng, N = self.c4, self.rng, self.N
        self.L = self.RATIO * math.pi
        self.basis = c4.BasisDescriptor(1, (self.L,), N)
        n = np.arange(1, N + 1)
        lam2 = (n / self.RATIO) ** 2
        self.inputs = []
        for j in range(self.round_size):
            nstar = int(rng.integers(9500, 10501))
            size = (1e-9, 1e-6) if j < 2 else (1e-5, 5e-5)
            rho = _log_uniform(rng, *size) * (1.0 if j % 2 == 0 else -1.0)
            a, b = rng.uniform(1.5, 3.0), rng.uniform(0.8, 1.25)
            t = rng.uniform(1.8, 2.2)
            c = (1.0 + rho) / (nstar / self.RATIO) ** 2
            scale = 1.0 / np.sqrt(n)
            alpha = rng.normal(size=N) * scale
            beta = rng.normal(size=N) * scale
            eps = 1.0 - c * lam2
            disc = a * a - 4.0 * b * lam2 * eps
            low_real = n[(disc >= 0) & (eps > 0) & (n < nstar // 2)]
            cplx = n[disc < 0]
            grow = n[eps < 0]
            band = grow[grow < nstar + 600]
            picks = {1, 2, int(low_real[-1]), int(cplx[0]), N,
                     *range(nstar - 2, nstar + 3)}
            picks.update(int(k) for k in rng.choice(cplx, 3, replace=False))
            picks.update(int(k) for k in rng.choice(grow, 3, replace=False))
            picks.update(int(k) for k in rng.choice(band, 3, replace=False))
            self.inputs.append(dict(
                p=c4.ParameterSet(a, b, c), t=t, nstar=nstar, rho=rho,
                theta0=c4.Field(self.basis, alpha), theta1=c4.Field(self.basis, beta),
                modes=np.array(sorted(picks)),
                regimes={"complex": int(cplx.size), "real_growing": int(grow.size),
                         "real_decaying": int(N - cplx.size - grow.size)}))

    def op(self, j):
        c4, x = self.c4, self.inputs[j]
        report = c4.check_wellposed(x["p"].c, self.basis)
        th, dth = c4.evolve_homogeneous(x["p"], x["theta0"], x["theta1"], x["t"])
        return report, th, dth, c4.field_norm(th)

    def capture(self, j, out):
        report, th, dth, norm = out
        idx = self.inputs[j]["modes"] - 1
        finite = np.isfinite(th.coefficients)
        return {"verdict": report.verdict, "distance": report.distance,
                "nearest": report.nearest, "norm": norm,
                "all_finite": bool(finite.all()),
                "theta": th.coefficients[idx], "dtheta": dth.coefficients[idx],
                "sat": th.saturated[idx] | dth.saturated[idx],
                "sat_count": int((th.saturated | dth.saturated).sum())}

    def check(self, j, cap):
        x = self.inputs[j]
        p, t = x["p"], x["t"]
        problems = []
        # well-posedness against the exceptional member next to c
        with ref.mp.workdps(ref.DPS):
            member = self.RATIO ** 2 / ref.mp.mpf(x["nstar"]) ** 2
            dist = abs(ref.mp.mpf(p.c) - member)
        expected = "near_exceptional" if dist <= 1e-9 else "well_posed"
        if cap["verdict"] != expected:
            problems.append(f"verdict {cap['verdict']} != {expected}")
        if abs(cap["nearest"] - member) > 2 * ref.U * member:
            problems.append(f"nearest member {cap['nearest']!r}")
        if abs(cap["distance"] - dist) > 4 * ref.U * p.c:
            problems.append(f"distance {cap['distance']!r} vs {float(dist)!r}")
        if cap["all_finite"] == math.isinf(cap["norm"]):
            problems.append(f"field_norm {cap['norm']!r} with all_finite={cap['all_finite']}")
        # sampled modes against the 2x2 matrix exponential
        alpha = x["theta0"].coefficients
        beta = x["theta1"].coefficients
        for k, th, dth, sat in zip(x["modes"], cap["theta"], cap["dtheta"], cap["sat"]):
            lam2 = (k / self.RATIO) ** 2
            r_th, r_dth, size, radius = ref.mode_state(p.a, p.b, p.c, lam2,
                                                       alpha[k - 1], beta[k - 1], t)
            logmag = max(ref.log_abs(r_th), ref.log_abs(r_dth))
            if logmag > 1.01 * ref.LOG_SATURATION:
                if not sat:
                    problems.append(f"mode {k}: log|W| = {logmag:.1f} but not saturated")
                elif math.isinf(th) and (th > 0) != (r_th > 0):
                    problems.append(f"mode {k}: saturated with the wrong sign")
                continue
            if sat and logmag < 0.99 * ref.LOG_SATURATION:
                problems.append(f"mode {k}: saturated at log|W| = {logmag:.1f}")
                continue
            if sat:
                continue  # at the saturation edge either answer is right
            err = ref.state_error(th, dth, r_th, r_dth, size)
            if not err <= ref.closed_form_tol(radius):
                problems.append(f"mode {k} ({ref.regime(p.a, p.b, p.c, lam2)}): "
                                f"error {err:.2e}")
        return problems

    def describe(self, j, cap):
        x = self.inputs[j]
        return dict(x["regimes"], saturated=cap["sat_count"], nstar=x["nstar"],
                    rho=x["rho"], verdict=cap["verdict"])


# ---------------------------------------------------------------------------
# sample: project_samples -> evolve_homogeneous -> reconstruct
# ---------------------------------------------------------------------------

def _box_modes(N: int, m: int):
    """First N (i, j) of the unit-ratio box, ascending i^2 + j^2, ties by (i, j)."""
    cand = sorted((i * i + j * j, (i, j)) for i in range(1, m + 1)
                  for j in range(1, m + 1))
    if cand[N - 1][0] >= (m + 1) ** 2:
        raise ValueError(f"{m} per axis does not hold the first {N} modes")
    return [ij for _, ij in cand[:N]]


class Sample(_Workload):
    """Gridded data through projection, evolution and reconstruction.

    Interval (0, pi), N = 1024 modes on its 4N + 1 = 4097-point grid, and the
    box (0, pi)^2, N = 256 modes on its 73 x 73 grid.  The sampled fields are
    sine series with 12 (interval) and 8 (box) nonzero coefficients, on the
    first and the last mode and on seeded others;
    c = [0.3, 0.9]/lam_N^2 keeps every mode decaying.
    """

    name = "sample"
    round_size = 2
    N_INT, K_INT = 1024, 12
    N_BOX, K_BOX, M_BOX = 256, 8, 18

    def setup(self):
        c4, rng = self.c4, self.rng
        L = math.pi
        self.basis = c4.BasisDescriptor(1, (L,), self.N_INT)
        self.x = np.linspace(0.0, L, 4 * self.N_INT + 1)
        self.box = c4.BasisDescriptor(2, (L, L), self.N_BOX)
        self.box_ij = _box_modes(self.N_BOX, self.M_BOX)
        self.g = np.linspace(0.0, L, 4 * self.M_BOX + 1)
        gx, gy = np.meshgrid(self.g, self.g, indexing="ij")
        self.pts = np.column_stack([gx.ravel(), gy.ravel()])
        self.zero, self.zero_box = c4.zero_field(self.basis), c4.zero_field(self.box)
        self.inputs = []
        for _ in range(self.round_size):
            # the first and last modes always carry data
            ks = np.sort(np.r_[1, self.N_INT, rng.choice(
                np.arange(2, self.N_INT), self.K_INT - 2, replace=False)])
            amp = rng.normal(size=self.K_INT)
            vals = sum(A * math.sqrt(2.0 / L) * np.sin(k * self.x) for k, A in zip(ks, amp))
            kb = np.sort(np.r_[0, self.N_BOX - 1, rng.choice(
                np.arange(1, self.N_BOX - 1), self.K_BOX - 2, replace=False)])
            ampb = rng.normal(size=self.K_BOX)
            vb = np.zeros_like(gx)
            for i, A in zip(kb, ampb):
                m1, m2 = self.box_ij[i]
                vb += A * (2.0 / L) * np.sin(m1 * gx) * np.sin(m2 * gy)
            a, b, t = rng.uniform(1.0, 3.0), rng.uniform(0.5, 2.0), rng.uniform(0.2, 0.5)
            c = rng.uniform(0.3, 0.9) / self.N_INT ** 2
            m1, m2 = self.box_ij[-1]
            cb = rng.uniform(0.3, 0.9) / (m1 * m1 + m2 * m2)
            self.inputs.append(dict(
                ks=ks, amp=amp, vals=vals, kb=kb, ampb=ampb, vb=vb, t=t,
                p=c4.ParameterSet(a, b, c), pb=c4.ParameterSet(a, b, cb),
                xi=np.sort(rng.choice(self.x.size, 16, replace=False)),
                pi=np.sort(rng.choice(len(self.pts), 16, replace=False))))

    def op(self, j):
        c4, x = self.c4, self.inputs[j]
        f = c4.project_samples((self.x, x["vals"]), self.basis)
        th, _ = c4.evolve_homogeneous(x["p"], f, self.zero, x["t"])
        r = c4.reconstruct(th, self.x)
        fb = c4.project_samples(((self.g, self.g), x["vb"]), self.box)
        thb, _ = c4.evolve_homogeneous(x["pb"], fb, self.zero_box, x["t"])
        rb = c4.reconstruct(thb, self.pts)
        return f, th, r, fb, thb, rb

    def capture(self, j, out):
        f, th, r, fb, thb, rb = out
        x = self.inputs[j]
        return {"coef": f.coefficients.copy(), "theta": th.coefficients[x["ks"] - 1],
                "values": r[x["xi"]], "coef_box": fb.coefficients.copy(),
                "theta_box": thb.coefficients[x["kb"]], "values_box": rb[x["pi"]],
                "sat": bool(th.saturated.any() or thb.saturated.any())}

    def check(self, j, cap):
        x, L = self.inputs[j], math.pi
        problems = []
        if cap["sat"]:
            problems.append("a decaying mode saturated")
        mp = ref.mp
        with mp.workdps(ref.DPS):
            root = mp.sqrt(2 / mp.mpf(L))
            phis = [[root * mp.sin(int(k) * mp.mpf(self.x[i])) for k in x["ks"]]
                    for i in x["xi"]]
            phis_box = [[root ** 2 * mp.sin(self.box_ij[i][0] * mp.mpf(self.pts[q, 0]))
                         * mp.sin(self.box_ij[i][1] * mp.mpf(self.pts[q, 1]))
                         for i in x["kb"]] for q in x["pi"]]
            parts = (
                ("interval", cap["coef"], x["ks"] - 1, x["amp"], cap["theta"], x["p"],
                 [float(k * k) for k in x["ks"]], self.N_INT, self.N_INT,
                 cap["values"], phis, math.sqrt(2 / L)),
                ("box", cap["coef_box"], x["kb"], x["ampb"], cap["theta_box"], x["pb"],
                 [float(sum(v * v for v in self.box_ij[i])) for i in x["kb"]], self.M_BOX,
                 self.N_BOX, cap["values_box"], phis_box, 2 / L),
            )
            for part in parts:
                problems += self._check_part(x["t"], *part)
        return problems

    @staticmethod
    def _check_part(t, label, coef, idx, amp, theta, p, lam2s, n_max, n_modes, values,
                    phis, phi_max):
        problems = []
        true = np.zeros(n_modes)
        true[idx] = amp
        sum_amp = float(np.sum(np.abs(amp)))
        # exact up to rounding: the phase n x carries u n_max L
        tol_proj = 8 * ref.U * n_max * math.pi * sum_amp
        err = float(np.max(np.abs(coef - true)))
        if not err <= tol_proj:
            problems.append(f"{label}: projection error {err:.2e} > {tol_proj:.2e}")
        evolved_true = []
        for k, lam2, th in zip(idx, lam2s, theta):
            # evolution of the projected coefficient the program used
            r_th, _, size, radius = ref.mode_state(p.a, p.b, p.c, lam2, coef[k], 0.0, t)
            e = float(abs(ref.mp.mpf(float(th)) - r_th) / max(size, ref.FLOOR))
            if not e <= ref.closed_form_tol(radius):
                problems.append(f"{label}: mode {k + 1} evolution error {e:.2e}")
            evolved_true.append(ref.mode_state(p.a, p.b, p.c, lam2, true[k], 0.0, t)[0])
        # reconstruction against the known series evolved in mpmath; every
        # mode carries projection rounding of at most tol_proj
        tol_rec = n_modes * tol_proj * phi_max + 64 * ref.U * sum_amp
        for q, (v, row) in enumerate(zip(values, phis)):
            want = ref.mp.fsum(ev * ph for ev, ph in zip(evolved_true, row))
            e = float(abs(ref.mp.mpf(float(v)) - want))
            if not e <= tol_rec:
                problems.append(f"{label}: reconstruction error {e:.2e} at point {q}")
        return problems

    def describe(self, j, cap):
        x = self.inputs[j]
        return {"interval_modes": self.N_INT, "interval_points": self.x.size,
                "box_modes": self.N_BOX, "box_points": len(self.pts),
                "c": x["p"].c, "c_box": x["pb"].c}


# ---------------------------------------------------------------------------
# boundary: build_blocks + evolve_with_boundary from zero data
# ---------------------------------------------------------------------------

class BoundaryCase:
    """The stiff sinusoid case: a = 2, b = 1, c = 0.003 on (0, pi), f = sin(3 s)
    up to T = 1, evaluated at t = 0.8 with the default quadrature step t/1000.
    1/sqrt(c) = 18.26, so mode 19 is the first growing mode and the stiffest."""

    A, B, C, OMEGA, T, TIME, INTERVALS = 2.0, 1.0, 0.003, 3.0, 1.0, 0.8, 1000

    def __init__(self, c4, N, modes):
        self.c4, self.N = c4, N
        self.basis = c4.BasisDescriptor(1, (math.pi,), N)
        self.p = c4.ParameterSet(self.A, self.B, self.C)
        self.signal = c4.BoundarySignal.sinusoid(self.T, self.OMEGA)
        self.zero = c4.zero_field(self.basis)
        self.modes = np.array(sorted(modes))
        self._unit = {}

    def run(self, g):
        blocks = self.c4.build_blocks(self.p, self.basis, g)
        th, dth = self.c4.evolve_with_boundary(blocks, self.zero, self.zero,
                                                self.signal, self.TIME)
        return blocks, th, dth

    def capture(self, out):
        blocks, th, dth = out
        idx = self.modes - 1
        return {"theta": th.coefficients[idx], "dtheta": dth.coefficients[idx],
                "d": np.array([blocks[i].d for i in idx]),
                "lambda_sq": np.array([blocks[i].lambda_sq for i in idx]),
                "all_finite": bool(np.isfinite(th.coefficients).all()
                                   and np.isfinite(dth.coefficients).all())}

    def unit(self, n):
        if n not in self._unit:
            self._unit[n] = (ref.boundary_unit_state(n, math.pi, self.A, self.B, self.C,
                                                     self.OMEGA, self.TIME),
                             ref.lift_pieces(n, math.pi, self.C))
        return self._unit[n]

    def check(self, g, cap):
        """Problems, and the worst relative error of the mode values."""
        mp = ref.mp
        problems, worst = [], (0.0, 0)
        if not cap["all_finite"]:
            problems.append("non-finite mode values")
        for n, th, dth, d, lam2 in zip(self.modes, cap["theta"], cap["dtheta"],
                                       cap["d"], cap["lambda_sq"]):
            (u_th, u_dth, radius), (i0, i1) = self.unit(int(n))
            with mp.workdps(ref.DPS):
                d_ref = g[0] * i0 + g[1] * i1
                lam2_ref = (n * mp.pi / mp.mpf(math.pi)) ** 2
                r_th, r_dth = d_ref * u_th, d_ref * u_dth
                if abs(lam2 - lam2_ref) > 4 * ref.U * lam2_ref:
                    problems.append(f"mode {n}: lambda_sq {float(lam2)!r}")
                if abs(d - d_ref) > 1e-12 * abs(d_ref):
                    problems.append(f"mode {n}: lift coefficient {float(d)!r}"
                                    f" vs {float(d_ref)!r}")
                # (theta, theta'/|mu|) puts both components on one scale
                err = (abs(mp.mpf(float(th)) - r_th)
                       + abs(mp.mpf(float(dth)) - r_dth) / radius)
                size = abs(r_th) + abs(r_dth) / radius
                rel = float(err / size)
                gate = ref.simpson_gate(radius, self.TIME, self.INTERVALS)
                if not rel <= gate:
                    problems.append(f"mode {n}: state error {rel:.2e} > {gate:.2e}")
                value_err = float(abs(mp.mpf(float(th)) - r_th) / abs(r_th))
                worst = max(worst, (value_err, int(n)))
        return problems, worst


def quad_probe(c4):
    """quad_rel_err of the boundary case on its first 40 modes, g = (1, 0)."""
    case = BoundaryCase(c4, 40, range(1, 41))
    cap = case.capture(case.run((1.0, 0.0)))
    return case.check((1.0, 0.0), cap)


class Boundary(_Workload):
    """build_blocks + evolve_with_boundary on N = 2048 modes of the stiff case.

    The seeded data are the boundary values g = (g0, g1), g0 in [0.5, 1.5],
    g1 in [-0.4, 0.4], so no lift coefficient vanishes.  Checked modes: every
    mode with lam in [0.5, 2]/sqrt(c) (9..36), modes 1, 2, N and 16 seeded
    others."""

    name = "boundary"
    round_size = 4
    N = 2048

    def setup(self):
        rng, N = self.rng, self.N
        picks = {1, 2, N, *range(9, 37)}
        picks.update(int(k) for k in rng.choice(np.arange(37, N), 16, replace=False))
        self.case = BoundaryCase(self.c4, N, picks)
        self.inputs = [(float(rng.uniform(0.5, 1.5)), float(rng.uniform(-0.4, 0.4)))
                       for _ in range(self.round_size)]
        self.worst = (0.0, 0)

    def op(self, j):
        return self.case.run(self.inputs[j])

    def capture(self, j, out):
        return self.case.capture(out)

    def check(self, j, cap):
        problems, worst = self.case.check(self.inputs[j], cap)
        self.worst = max(self.worst, worst)
        return problems

    def describe(self, j, cap):
        g = self.inputs[j]
        return {"N": self.N, "quad_intervals": BoundaryCase.INTERVALS,
                "g0": g[0], "g1": g[1], "checked_modes": len(self.case.modes)}


# ---------------------------------------------------------------------------
# tables: the README's CLI commands, one fresh process each
# ---------------------------------------------------------------------------

def table_commands(seed: int):
    return [
        ["spectrum", "--L", "pi", "--N", "16"],
        ["exceptional", "--L", "pi", "--N", "32", "--kind", "sigma", "--gamma-rho", "4"],
        ["limit1", "--a", "1", "--b", "1", "--lambda-sq", "1", "--t", "0.3",
         "--j-min", "1", "--j-max", "8"],
        ["limit2", "--a", "1", "--b", "1", "--gamma", "1", "--k-min", "4",
         "--k-max", "40", "--t", "0.5"],
        ["limit3", "--k-min", "1", "--k-max", "12", "--t", "0.1"],
        ["heatcmp", "--chi", "2", "--gamma-rho", "4", "--j-max", "10", "--t", "0.5",
         "--N", "32"],
        ["wholeline", "--a", "1", "--b", "1", "--c", "0.25", "--t", "1",
         "--j-min", "1", "--j-max", "20"],
        ["propagation", "--a", "3", "--b", "1", "--c", "0.5", "--L", "pi", "--N", "256",
         "--g0", "1", "--g1", "0", "--T", "0.05", "--n-max-exp", "12",
         "--sub-lo", "1", "--sub-hi", "2"],
        ["verify", "--quick", "--seed", str(seed % 1000)],
    ]


class Tables(_Workload):
    """One operation is a pass over the nine tables, each a fresh
    ``python -m cattaneo4`` process writing one CSV, so every operation has
    the same size; the seed is verify's.  Under tracing each child is
    ``tracecli.py``, which times the import and records spans around
    ``cattaneo4.cli.main``; ``child_traces`` lists their span files."""

    name = "tables"
    round_size = 1

    def setup(self):
        self.trace_dir = None
        self.commands = table_commands(self.seed)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.runs = 0

    def _run(self, argv):
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "cattaneo4", *argv]
            env = self.env
        else:
            self.runs += 1
            trace_file = self.trace_dir / f"child-{self.runs}.npz"
            self.child_traces.append(trace_file)
            cmd = [sys.executable, str(BENCH_DIR / "tracecli.py"), *argv]
            env = dict(self.env, BENCH_TRACE_FILE=str(trace_file))
        return subprocess.run(cmd, cwd=self.workdir, env=env, capture_output=True,
                              timeout=120)

    def warm_up(self):
        self._run(self.commands[0])

    def op(self, j):
        self.child_traces = []
        return [self._run(argv) for argv in self.commands]

    def capture(self, j, out):
        caps = []
        for argv, proc in zip(self.commands, out):
            out_file = self.workdir / f"{argv[0]}.csv"
            data = out_file.read_bytes() if out_file.exists() else b""
            out_file.unlink(missing_ok=True)
            caps.append({"rc": proc.returncode, "stdout": proc.stdout, "csv": data,
                         "stderr": proc.stderr[-400:]})
        return caps

    def check(self, j, cap):
        problems = []
        for argv, c in zip(self.commands, cap):
            if c["rc"] != 0:
                problems.append(f"{argv[0]} exited {c['rc']}: {c['stderr']!r}")
                continue
            problems += [f"{argv[0]}: {p}" for p in tables.check(argv, c["stdout"].decode(),
                                                                 c["csv"].decode())]
        return problems

    def describe(self, j, cap):
        return {"commands": [" ".join(argv) for argv in self.commands],
                "digests": [hashlib.sha256(c["stdout"] + c["csv"]).hexdigest() for c in cap]}


WORKLOADS = {w.name: w for w in (Evolve, Sample, Boundary, Tables)}
