"""Checks of the README tables against values computed apart from the program.

``check(argv, stdout, text)`` takes one CLI command line, its standard output
and the CSV it wrote, and returns the problems found (an empty list when the
table is right).  Tolerances are a few units of roundoff times the
conditioning of the quantity, or, for the limit statements, the size of the
remaining term of the limit.
"""

from __future__ import annotations

import csv
import io
import math
import re

import mpmath as mp

import reference as ref

U = ref.U


def _opts(argv):
    return {k[2:]: v for k, v in zip(argv[1::2], argv[2::2])}


def _rows(text):
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    return header, [dict(zip(header, row)) for row in reader]


def _rel(x, want):
    want = mp.mpf(want)
    return float(abs(mp.mpf(x) - want) / abs(want))


def _length(token):
    return math.pi if token == "pi" else float(token)


def _spectrum(o, stdout, rows):
    L, N = _length(o["L"]), int(o["N"])
    if len(rows) != N:
        return [f"{len(rows)} rows for N = {N}"]
    problems = []
    for n, row in enumerate(rows, start=1):
        want = (n * mp.pi / mp.mpf(L)) ** 2
        if int(row["index"]) != n or row["multi_index"] != str(n):
            problems.append(f"row {n}: index {row['index']} {row['multi_index']}")
        if _rel(float(row["lambda_sq"]), want) > 4 * U:
            problems.append(f"row {n}: lambda_sq {row['lambda_sq']}")
    return problems


def _exceptional(o, stdout, rows):
    L, N = _length(o["L"]), int(o["N"])
    scale = mp.mpf(float(o["gamma-rho"])) if o.get("kind") == "sigma" else mp.mpf(1)
    want = sorted(scale / (n * mp.pi / mp.mpf(L)) ** 2 for n in range(1, N + 1))
    if len(rows) != N:
        return [f"{len(rows)} rows for N = {N}"]
    return [f"value {i + 1}: {row['value']}" for i, (row, w) in enumerate(zip(rows, want))
            if _rel(float(row["value"]), w) > 4 * U]


def _limit1(o, stdout, rows):
    a, b, lam2, t = (float(o[k]) for k in ("a", "b", "lambda-sq", "t"))
    jmin, jmax = int(o["j-min"]), int(o["j-max"])
    alpha = -a / (b * lam2)
    problems = []
    for row in rows:
        c = float(row["c"])
        th, dth, size, radius = ref.mode_state(a, b, c, lam2, alpha, 1.0, t)
        got = float(row["logvalue"])
        want = ref.log_abs(th)
        if abs(got - want) > ref.closed_form_tol(radius) * max(1.0, abs(want)):
            problems.append(f"k {row['k']}: logvalue {got!r} vs {want!r}")
    # closest approach from below: the remaining terms are O(1 - c lam2)
    below = rows[jmax - jmin]
    limit = math.log(a / (b * lam2)) - (b * lam2 / a) * t
    if abs(float(below["logvalue"]) - limit) > 100 * 10.0 ** -jmax:
        problems.append(f"row {below['k']} is {below['logvalue']}, limit {limit!r}")
    return problems


def _limit2(o, stdout, rows):
    a, b, gamma, t = (float(o[k]) for k in ("a", "b", "gamma", "t"))
    ks = range(int(o["k-min"]), int(o["k-max"]) + 1)
    fits = dict(re.findall(r"(growth_fit|decay_fit)=(\S+)", stdout))
    problems = []
    with mp.workdps(ref.DPS):
        logk, grow, coeff = [], [], []
        for k, row in zip(ks, rows):
            lam = mp.mpf(k)
            delta = mp.sqrt(a * a + 4 * b * lam * gamma)
            rate = lam * (a + delta) / (2 * gamma)
            # eps = 1 - c_k lam^2 = -gamma/lam cancels: condition ~ lam/gamma
            if _rel(float(row["exp2"]), rate) > 64 * U * (1 + k / gamma):
                problems.append(f"k {k}: exp2 {row['exp2']} vs {mp.nstr(rate, 17)}")
            logk.append(mp.log(k))
            grow.append(mp.log(rate))
            coeff.append(mp.log(gamma / (k * lam * delta)))

        def slope(xs, ys):
            xb, yb = mp.fsum(xs) / len(xs), mp.fsum(ys) / len(ys)
            return (mp.fsum((x - xb) * (y - yb) for x, y in zip(xs, ys))
                    / mp.fsum((x - xb) ** 2 for x in xs))

        want = {"growth_fit": slope(logk, grow), "decay_fit": slope(logk, coeff)}
    for name, asymptote, width in (("growth_fit", 1.5, 0.1), ("decay_fit", -2.5, 0.05)):
        if name not in fits:
            problems.append(f"no {name} in {stdout!r}")
            continue
        got = float(fits[name])
        if abs(got - float(want[name])) > 1e-10:
            problems.append(f"{name} {got!r} vs {mp.nstr(want[name], 17)}")
        if abs(got - asymptote) > width:
            problems.append(f"{name} {got!r} is not near {asymptote}")
    return problems


def _limit3(o, stdout, rows):
    t = float(o["t"])
    problems = []
    with mp.workdps(ref.DPS):
        tm = mp.mpf(t)
        for row in rows:
            k = int(row["k"])
            k2, k4 = mp.mpf(k * k), mp.mpf(k) ** 4
            want = {"coeff1": -1 / (24 * k4), "exp1": 2 * k2,
                    "coeff2": 25 / (24 * k4), "exp2": -mp.mpf(2) / 5 * k2}
            for key, w in want.items():
                if _rel(float(row[key]), w) > 64 * U:
                    problems.append(f"k {k}: {key} {row[key]} vs {mp.nstr(w, 17)}")
            t1 = want["coeff1"] * mp.exp(want["exp1"] * tm)
            t2 = want["coeff2"] * mp.exp(want["exp2"] * tm)
            value = t1 + t2
            cond = (abs(t1) + abs(t2)) / abs(value) * (1 + 2 * k2 * tm)
            got = float(row["logvalue"])
            if abs(got - float(mp.log(abs(value)))) > 64 * U * float(cond):
                problems.append(f"k {k}: logvalue {got!r} vs {mp.nstr(mp.log(abs(value)), 17)}")
    return problems


def _heatcmp(o, stdout, rows):
    chi, gr, t = float(o["chi"]), float(o["gamma-rho"]), float(o["t"])
    heat_rate = chi / gr
    problems = []
    dists = []
    for row in rows:
        sigma, d = float(row["sigma"]), float(row["distance"])
        dists.append(d)
        a, b, c = chi / sigma, chi * chi / (sigma * gr), sigma / gr
        # only mode 1 carries data: (1, -heat_rate), heat solution e^{-heat_rate t}
        th, _, size, radius = ref.mode_state(a, b, c, 1.0, 1.0, -heat_rate, t)
        heat = mp.exp(-mp.mpf(heat_rate) * mp.mpf(t))
        want = abs(th - heat)
        # a, b, c are rounded by the program: a few ulps, times the cancellation
        tol = ref.closed_form_tol(radius) * float(abs(th) + heat)
        if abs(d - float(want)) > tol:
            problems.append(f"sigma {sigma!r}: distance {d!r} vs {mp.nstr(want, 17)}")
    ratios = [x / y for x, y in zip(dists, dists[1:])]
    tail = [abs(r - 2.0) for r in ratios[-3:]]
    if not (tail and max(tail) <= 0.03 and tail == sorted(tail, reverse=True)):
        problems.append(f"distance ratios {ratios[-3:]} do not approach 2")
    return problems


def _wholeline(o, stdout, rows):
    a, b, c, t = (float(o[k]) for k in ("a", "b", "c", "t"))
    problems = []
    with mp.workdps(ref.DPS):
        for row in rows:
            lam = mp.mpf(float(row["lam"]))
            eps = 1 - mp.mpf(c) * lam * lam
            disc = a * a - 4 * b * lam * lam * eps
            if disc <= 0:
                problems.append(f"j {row['j']}: complex pair on the growing side")
                continue
            delta = mp.sqrt(disc)
            r_plus = -2 * b * lam * lam / (a + delta)
            r_minus = -(a + delta) / (2 * eps)
            coeff = eps / delta
            log_second = mp.log(abs(coeff)) + r_minus * t
            for key, want in (("r_plus", r_plus), ("r_minus", r_minus)):
                if _rel(float(row[key]), want) > 64 * U:
                    problems.append(f"j {row['j']}: {key} {row[key]} vs {mp.nstr(want, 17)}")
            if abs(float(row["log_second"]) - log_second) > 64 * U * max(1, abs(log_second)):
                problems.append(f"j {row['j']}: log_second {row['log_second']}")
    return problems


def _propagation(o, stdout, rows):
    a, c = float(o["a"]), float(o["c"])
    L, g0, g1 = _length(o["L"]), float(o["g0"]), float(o["g1"])
    lo, hi = float(o["sub-lo"]), float(o["sub-hi"])
    with mp.workdps(30):
        p = 1 / mp.sqrt(mp.mpf(c))
        Lm = mp.mpf(L)
        target = mp.quad(lambda x: ((g0 * mp.sin((Lm - x) * p) + g1 * mp.sin(x * p))
                                    / mp.sin(Lm * p)) ** 2, [lo, hi])
    problems = []
    ratios = [float(r["ratio"]) for r in rows]
    for row in rows:
        if _rel(float(row["target"]), target) > 1e-10:
            problems.append(f"target {row['target']} vs {mp.nstr(target, 17)}")
            break
    gaps = [1.0 - r for r in ratios[2:]]
    if gaps != sorted(gaps, reverse=True) or not ratios or not 0.99 <= ratios[-1] <= 1.0:
        problems.append(f"ratios {ratios} do not approach 1")
    return problems


def _verify(o, stdout, rows):
    bad = [r["check"] for r in rows if r["status"] != "ok"]
    return [f"verify rows failed: {bad}"] if bad or not rows else []


CHECKS = {"spectrum": _spectrum, "exceptional": _exceptional, "limit1": _limit1,
          "limit2": _limit2, "limit3": _limit3, "heatcmp": _heatcmp,
          "wholeline": _wholeline, "propagation": _propagation, "verify": _verify}


def check(argv, stdout: str, text: str) -> list[str]:
    try:
        _, rows = _rows(text)
    except StopIteration:
        return ["empty table"]
    return CHECKS[argv[0]](_opts(argv), stdout, rows)
