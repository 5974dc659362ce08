import ast
import csv
import hashlib
import importlib.util
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cattaneo4
from cattaneo4 import cli
from cattaneo4.cli import main

RUN = [sys.executable, "-m", "cattaneo4"]


def run_cli(args, cwd, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(RUN + list(args), cwd=cwd, env=env,
                          capture_output=True, text=True)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def row(check, seed=7, quick=True):
    """(max_error, tol) of one verify row, the function ``check``, run alone."""
    return cli._verify_row(cli._VERIFY_ROWS.index(check), seed, quick)[1:]


def digest(summary, cwd):
    """sha256 of a command's summary line and the bytes of the CSV it names."""
    out = summary.rsplit("-> ", 1)[1].strip()
    return hashlib.sha256(summary.encode("utf-8") + (Path(cwd) / out).read_bytes()).hexdigest()


def test_production_modules_do_not_import_the_oracle():
    # the oracle is test code (tests/oracle.py): no module of the package
    # imports it or scipy, or names scipy at all, so every command runs on
    # numpy alone
    src = Path(cattaneo4.__file__).parent
    modules = sorted(src.glob("*.py"))
    assert {m.stem for m in modules} >= {"__init__", "cli", "modal"}
    for path in modules:
        text = path.read_text()
        assert "scipy" not in text, path.name
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom):
                mods = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            else:
                continue
            assert not any(m.split(".")[-1] == "oracle" for m in mods), (path.name, mods)
    assert importlib.util.find_spec("cattaneo4.oracle") is None


def test_only_the_generator_forms_the_mode_quadratic():
    # 1 - c lam2 is formed in modal._generator alone: no other `1.0 - c * x`,
    # `1.0 - p.c * x` or `1.0 - c_lam` anywhere in the package
    def is_c(node):
        return ((isinstance(node, ast.Name) and (node.id == "c" or node.id.startswith("c_")))
                or (isinstance(node, ast.Attribute) and node.attr == "c"))

    formed = []
    for path in sorted(Path(cattaneo4.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = {id(n): f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                  for n in ast.walk(f)}   # the innermost function wins: walk is outer first
        for node in ast.walk(tree):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                    and isinstance(node.left, ast.Constant) and node.left.value == 1
                    and (is_c(node.right) or (isinstance(node.right, ast.BinOp)
                                              and isinstance(node.right.op, ast.Mult)
                                              and is_c(node.right.left)))):
                formed.append((path.name, inside.get(id(node))))
    assert formed == [("modal.py", "_generator")]


def test_only_finish_calls_scaled_exp():
    # every saturating exponential of the package, and so every mode value
    # and log-magnitude, comes out of modal._finish
    def calls_scaled_exp(node):
        return isinstance(node, ast.Call) and "scaled_exp" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))

    callers = set()
    for path in sorted(Path(cattaneo4.__file__).parent.glob("*.py")):
        for f in ast.walk(ast.parse(path.read_text())):
            if isinstance(f, ast.FunctionDef) and any(map(calls_scaled_exp, ast.walk(f))):
                callers.add((path.name, f.name))
    assert callers == {("modal.py", "_finish")}


def test_experiments_use_only_public_boundary_names():
    # the experiments drive the boundary evolution through its public API
    tree = ast.parse((Path(cattaneo4.__file__).parent / "experiments.py").read_text())
    imported = [a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "boundary"
                for a in node.names]
    assert "evolve_with_boundary" in imported
    private = [n for n in imported if n.startswith("_")]
    private += [node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and getattr(node.value, "id", None) == "boundary"]
    assert private == []


def test_import_does_not_load_scipy(tmp_path):
    code = ("import sys, cattaneo4; from cattaneo4.cli import main; "
            "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
            "print(loaded()); rc = main(['verify', '--quick']); print(rc, loaded())")
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                         text=True, check=True)
    lines = out.stdout.splitlines()
    assert lines[0] == "[]" and lines[-1] == "0 []"
    # every exported name resolves; of the modal layer the package exports
    # only the one evaluator, the root report and their helpers, and none of
    # the test oracle's routes, records or errors
    assert [n for n in cattaneo4.__all__ if not hasattr(cattaneo4, n)] == []

    def exported(module):
        return {n for n in dir(cattaneo4)
                if getattr(getattr(cattaneo4, n), "__module__", None) == module}

    assert exported("cattaneo4.modal") == {
        "CharacteristicRoots", "ParameterSet", "characteristic_roots", "evolve_modes",
        "reference_telegraph_mode", "second_order_roots"}
    assert not {"GridSolution", "fd_solve", "integrate_modes", "DiscreteExceptionalError",
                "StiffnessError"} & set(cattaneo4.__all__)
    # nor names that no command or module of the package calls
    assert not {"propagator", "mild_solution_check", "MildSolutionReport",
                "reference_heat_mode"} & set(dir(cattaneo4))


# Run in a child whose sys.modules holds None for scipy, so any import of it
# raises ImportError, as where scipy is not installed.
NO_SCIPY = "import sys; sys.modules['scipy'] = None; "


def test_verify_runs_without_scipy(tmp_path):
    # the closed-form row of verify checks against numpy alone
    cmd, want = next((cmd, d) for cmd, d in README_COMMANDS if cmd == "verify --seed 7")
    code = NO_SCIPY + "from cattaneo4.cli import main; sys.exit(main(sys.argv[1:]))"
    out = subprocess.run([sys.executable, "-c", code, *cmd.split()], cwd=tmp_path,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert digest(out.stdout, tmp_path) == want


@pytest.mark.parametrize("roots", [(-1.0, -3.0), (-0.5, -60.0), (-1 + 5j, -1 - 5j),
                                   (-2.0, -2.0), (3.0, -5.0), (8j, -8j)],
                         ids=["real", "stiff", "complex", "double", "growing", "centre"])
def test_verify_matrix_exponential_matches_mpmath(roots):
    # the generator of (1 - c lam2) y'' + a y' + b lam2 y = 0 with these roots,
    # h = a/eps and k = b lam2/eps, eps = 1 - c lam2 (negative for "growing"),
    # at times that put ||A t|| between 0.01 and 100
    import mpmath as mp

    from cattaneo4.cli import _expm_2x2

    h, k = -(roots[0] + roots[1]).real, (roots[0] * roots[1]).real
    gen = np.array([[0.0, 1.0], [-k, -h]])
    norm = float(np.max(np.sum(np.abs(gen), axis=1)))
    for size in (0.01, 0.3, 1.0, 7.0, 30.0, 100.0):
        m = gen * (size / norm)
        with mp.workdps(40):
            ref = mp.expm(mp.matrix(m.tolist()))
            want = np.array([[float(ref[i, j]) for j in range(2)] for i in range(2)])
        scale = max(1.0, float(np.max(np.sum(np.abs(want), axis=1))))
        assert np.max(np.abs(_expm_2x2(m) - want)) <= 1e-13 * scale, size


def test_closed_form_row_over_seeds():
    # the reference is exact to rounding: 8.6e-14 at worst over these seeds
    for quick in (True, False):
        for seed in range(200):
            err, tol = row(cli._closed_form_vs_expm, seed, quick)
            assert err <= 1e-12 and tol == 1e-11, (seed, quick, err)


def test_closed_form_row_fails_on_a_wrong_closed_form(monkeypatch):
    # a closed form off by 1e-10 of its value fails the row
    from cattaneo4 import modal

    exact = modal.evolve_modes
    monkeypatch.setattr(modal, "evolve_modes",
                        lambda *args: (exact(*args)[0] * (1 + 1e-10),) + exact(*args)[1:])
    err, tol = row(cli._closed_form_vs_expm)
    assert err > tol


def test_spectrum_roundtrip(tmp_path):
    out = tmp_path / "spec.csv"
    rc = main(["spectrum", "--L", "pi", "--N", "4", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert rows[0] == ["index", "multi_index", "lambda_sq"]
    assert [r[0] for r in rows[1:]] == ["1", "2", "3", "4"]
    assert float(rows[1][2]) == 1.0
    assert float(rows[4][2]) == 16.0


def test_exceptional_subcommand(tmp_path):
    out = tmp_path / "exc.csv"
    rc = main(["exceptional", "--N", "4", "--kind", "sigma",
               "--gamma-rho", "4", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    vals = sorted(float(r[1]) for r in rows[1:])
    assert vals == [0.25, 4.0 / 9.0, 1.0, 4.0]


@pytest.mark.parametrize("a, c", [("inf", "0.25"), ("1", "0"), ("1", "inf")])
def test_wholeline_rejects_bad_parameters(tmp_path, capsys, a, c):
    out = tmp_path / "wl.csv"
    rc = main(["wholeline", "--a", a, "--b", "1", "--c", c, "--t", "1",
               "--side", "above", "--j-min", "0", "--j-max", "1", "--out", str(out)])
    assert rc == 1
    assert "must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    ("wholeline --a 1 --b 1 --c 0.25 --t 1 --j-min 5 --j-max 1", "must not be empty"),
    ("heatcmp --t 0.5 --j-max -1", "must not be empty"),
    ("propagation --a 3 --b 1 --c 0.5 --N 8 --g0 1 --g1 0 --T 0.05 --n-max-exp -1 "
     "--sub-lo 1 --sub-hi 2", "must not be empty"),
    ("limit1 --a 1 --b 1 --lambda-sq 1 --t 0.3 --j-min 5 --j-max 1", "must not be empty"),
    ("limit1 --a 1 --b 1 --lambda-sq 0 --t 0.3", "lambda_sq must be positive"),
    ("spectrum --L pi --N 3 --lengths pi,x", "argument --lengths: invalid length 'x'"),
    ("propagation --a 3 --b 1 --c 0.5 --N 8 --g0 1 --g1 0 --T 0.05 --n-max-exp 2000 "
     "--sub-lo 1 --sub-hi 2", "n_max_exp must be at most 1023"),
    ("heatcmp --t 0.5 --j-max 2000", "(chi, sigma, gamma_rho) = (2.0, 8.344026969402005e-309"),
    ("limit2 --a 1 --b 1 --gamma 1 --k-min 4 --k-max 4 --t 0.5",
     "k_range must hold at least two values"),
    ("wholeline --a 1 --b 1 --c 0.25 --t 1 --j-min -2000 --j-max -1999",
     "j = -2000 is below -1023: the offset 2^2000 overflows"),
    ("limit1 --a 1 --b 1 --lambda-sq 1 --t 0.3 --j-min -400 --j-max -399",
     "j_min must be at least 1"),
    ("wholeline --a 1 --b 1 --c 0.25 --t 1 --j-min -3 --j-max 2 --side below",
     "offset 2^3 pushes lam below zero"),
    ("boundary --a 3 --b 1 --c 0.5 --N 8 --g0 1 --g1 0 --T 1 --t 1 --signal poly --coeffs x",
     "argument --coeffs: invalid coefficients 'x'"),
    ("verify --seed -1", "seed must be nonnegative"),
    ("solve --a 3 --b 1 --c 0.5 --N 8 --mode 1 --alpha inf --t 0.7",
     "alpha and beta must be finite"),
    ("solve --a 3 --b 1 --c 0.5 --N 8 --mode 1 --alpha -inf --t 0.7",
     "alpha and beta must be finite"),
], ids=["wholeline", "heatcmp", "propagation", "limit1", "limit1-lambda-sq-0",
        "spectrum-lengths", "propagation-n-max-exp", "heatcmp-sigma", "limit2-one-value",
        "wholeline-offset-overflow", "limit1-j-min-below-1", "wholeline-below-zero",
        "boundary-coeffs", "verify-seed", "solve-alpha-inf", "solve-alpha-minus-inf"])
def test_empty_ranges_exit_1_with_a_named_error(tmp_path, args, message):
    # an empty scan range, or an argument that breaks the arithmetic (1/0, a
    # float overflow, a subnormal sigma, a bad length token), is an invalid
    # argument, not a traceback or an empty table
    out = run_cli(args.split(), cwd=tmp_path)
    assert out.returncode == 1
    assert out.stderr.startswith("error:") and "Traceback" not in out.stderr, out.stderr
    assert message in out.stderr, out.stderr
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, flag", [
    ("solve --a 3 --b 1 --c 0.5 --L pi --N 8 --mode 1 --alpha 1 --t 0.7", "--beta"),
    ("boundary --a 3 --b 1 --c 0.5 --N 8 --g1 0 --T 1 --t 1", "--g0"),
], ids=["solve-beta", "boundary-g0"])
def test_negative_values_with_an_exponent(tmp_path, command, flag):
    # "-1e-3" is a value, not an option: it writes the bytes of "=-1e-3"
    # and of "-0.001"
    written = []
    for i, value in enumerate(([flag, "-1e-3"], [f"{flag}=-1e-3"], [flag, "-0.001"])):
        out = tmp_path / f"{i}.csv"
        assert main([*command.split(), *value, "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1] == written[2]


@pytest.mark.parametrize("gamma_rho", ["inf", "nan", "0"])
def test_exceptional_rejects_bad_gamma_rho(tmp_path, capsys, gamma_rho):
    out = tmp_path / "exc.csv"
    rc = main(["exceptional", "--N", "3", "--kind", "sigma",
               "--gamma-rho", gamma_rho, "--out", str(out)])
    assert rc == 1
    assert "gamma_rho must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_limit3_schema(tmp_path):
    out = tmp_path / "l3.csv"
    rc = main(["limit3", "--t", "0.1", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert rows[0] == ["k", "sigma", "coeff1", "exp1", "coeff2", "exp2",
                       "logvalue", "flag"]
    assert len(rows) == 13
    assert float(rows[1][1]) == 5.0
    assert float(rows[1][3]) == 2.0  # growth rate, not rate * t
    assert float(rows[1][5]) == -0.4
    assert all(r[7] in ("ok", "saturated", "exceptional") for r in rows[1:])


def test_exit_codes(tmp_path):
    # usage error
    assert main(["solve", "--a", "2"]) == 1
    # exceptional c without override
    rc = main(["solve", "--a", "2", "--b", "1", "--c", "0.25", "--N", "4",
               "--mode", "1", "--t", "0.5",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    # override with incompatible data: the degenerate mode is unsolvable
    rc = main(["solve", "--a", "2", "--b", "1", "--c", "0.25", "--N", "4",
               "--mode", "2", "--alpha", "1", "--beta", "0", "--t", "0.5",
               "--override", "--out", str(tmp_path / "y.csv")])
    assert rc == 3
    # singular whole-line frequency
    rc = main(["wholeline", "--a", "1", "--b", "1", "--c", "0.25",
               "--t", "1", "--side", "above", "--j-min", "0", "--j-max", "0",
               "--out", str(tmp_path / "z.csv")])
    assert rc == 0  # offset 1 clears the singular frequency
    assert main(["nosuchcommand"]) == 1
    # non-finite boundary value
    rc = main(["boundary", "--a", "3", "--b", "1", "--c", "0.5", "--N", "8",
               "--g0", "inf", "--g1", "0", "--T", "1", "--t", "1",
               "--out", str(tmp_path / "w.csv")])
    assert rc == 1


def test_solve_writes_values(tmp_path):
    out = tmp_path / "solve.csv"
    rc = main(["solve", "--a", "2", "--b", "1", "--c", "0.003", "--N", "4",
               "--mode", "2", "--alpha", "0.5", "--t", "0.25",
               "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert rows[0][0] == "n"
    assert len(rows) == 5



def test_out_of_range_results_are_written_without_warnings(tmp_path):
    # the heat reference of mode 32 at t = -2 and the subregion mass at
    # T = 200 are past the float range: both read inf, the heat row is
    # 'saturated', and no RuntimeWarning escapes
    heat, mass = tmp_path / "heat.csv", tmp_path / "mass.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["heatcmp", "--chi", "2", "--gamma-rho", "4", "--j-max", "0", "--t", "-2",
                     "--N", "32", "--mode", "32", "--out", str(heat)]) == 0
        assert main(["propagation", "--a", "3", "--b", "1", "--c", "0.5", "--L", "pi",
                     "--N", "16", "--g0", "1", "--g1", "0", "--T", "200", "--n-max-exp", "0",
                     "--sub-lo", "1", "--sub-hi", "2", "--out", str(mass)]) == 0
    assert read_csv(heat) == [["sigma", "distance", "flag"], ["3", "inf", "saturated"]]
    assert read_csv(mass)[1] == ["1", "inf", "0.56416419468006351", "inf"]

def test_out_default_naming(tmp_path):
    rc = run_cli(["spectrum", "--N", "3"], cwd=tmp_path)
    assert rc.returncode == 0
    assert (tmp_path / "spectrum.csv").exists()
    assert "spectrum.csv" in rc.stdout


def test_verify_battery(tmp_path):
    rc = run_cli(["verify", "--quick", "--seed", "3"], cwd=tmp_path)
    assert rc.returncode == 0, rc.stderr
    rows = read_csv(tmp_path / "verify.csv")
    assert rows[0] == ["check", "max_error", "tol", "status"]
    assert len(rows) > 5
    assert all(r[3] == "ok" for r in rows[1:])


def test_verify_lift_row_checks_the_identity_in_double(monkeypatch):
    # the dirichlet_map_residual row tests the discrete form of u'' = -u/c in
    # double: the lift passes it to rounding, and a lift whose frequency is
    # off by 5e-8 (the same traces) fails it
    from cattaneo4 import boundary

    err, tol = row(cli._dirichlet_map_residual)
    assert err <= 1e-13 and tol == 1e-10
    exact = boundary.dirichlet_map_interval
    monkeypatch.setattr(boundary, "dirichlet_map_interval",
                        lambda c, L, g, truncation=64: exact(c * (1 + 1e-7), L, g, truncation))
    err, tol = row(cli._dirichlet_map_residual)
    assert err > tol


@pytest.mark.parametrize("args", [
    ["solve", "--a", "2", "--b", "1", "--c", "0.003", "--N", "24",
     "--mode", "3", "--t", "0.6"],
    ["boundary", "--a", "2", "--b", "1", "--c", "0.003", "--N", "16",
     "--g0", "1", "--g1", "0", "--signal", "sin", "--omega", "3",
     "--T", "2", "--t", "1.1"],
    ["limit2", "--a", "1", "--b", "1", "--gamma", "1", "--t", "1"],
])
def test_byte_identical_across_threads_and_reruns(tmp_path, args):
    blobs = []
    for tag, threads in (("r1", "1"), ("r2", "1"), ("r3", "4")):
        d = tmp_path / tag
        d.mkdir()
        rc = run_cli(args, cwd=d, env_extra={"CATTANEO4_THREADS": threads})
        assert rc.returncode == 0, rc.stderr
        name = args[0] + ".csv"
        blobs.append((d / name).read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_csv_is_utf8_lf(tmp_path):
    out = tmp_path / "w.csv"
    rc = main(["wholeline", "--a", "1", "--b", "1", "--c", "0.01",
               "--t", "1", "--out", str(out)])
    assert rc == 0
    raw = out.read_bytes()
    assert b"\r" not in raw
    raw.decode("utf-8")
    txt = raw.decode()
    # 17 significant digits survive the round trip
    lam_cell = txt.splitlines()[1].split(",")[1]
    assert float(lam_cell) == 1.0 / math.sqrt(0.01) + 0.5


def test_help_exits_zero():
    assert main(["--help"]) == 0
    assert main(["solve", "--help"]) == 0


# The eleven README commands, then a box spectrum, the other side of the
# whole-line scan and the README boundary run under the other CLI signals.  Each digest is the sha256 of the summary line and the CSV
# bytes, recorded with the numpy version that CI pins (no command uses
# scipy); a change that moves any README table must update its digest and
# say why.
README_COMMANDS = [
    ("spectrum --L pi --N 16",
     "c1324d160b2be2a379566c8f61e47ef35231cf8ce9890ecccff66e388ece39f1"),
    ("exceptional --L pi --N 32 --kind sigma --gamma-rho 4",
     "e628aa64bd75718ae8e264d7efc07c8ff86e3c1a8d32b8040236515745b3d489"),
    ("solve --a 3 --b 1 --c 0.5 --L pi --N 8 --mode 1 --alpha 1 --t 0.7",
     "52f0f37af12290ee5f386e750a5f23721d13ea4c8979c6ced383fa45d679f5a0"),
    ("boundary --a 3 --b 1 --c 0.5 --L pi --N 32 --g0 1 --g1 0 "
     "--signal sin --omega 2 --T 1 --t 1",
     "631a96ef07835a55f4937343ecb2e7b02a5dd2f8c8c9344c08cb366ca71c852c"),
    ("limit1 --a 1 --b 1 --lambda-sq 1 --t 0.3 --j-min 1 --j-max 8",
     "2718f880455258b44bf25bfab73a0b1d4401cd187eab91a52b71947fcf363dec"),
    ("limit2 --a 1 --b 1 --gamma 1 --k-min 4 --k-max 40 --t 0.5",
     "23a9fe0aded962e9f0ba40c6c2b1352b9e34b942227e238de770c2ff27ab80f0"),
    ("limit3 --k-min 1 --k-max 12 --t 0.1",
     "d4e9fa987764ebdaba6e66bf8f8c8609834625a17236bacc4d5aa84261dd2d07"),
    ("heatcmp --chi 2 --gamma-rho 4 --j-max 10 --t 0.5 --N 32",
     "363130498745016b0a883a998535e0ec72199b1cff63d71666c2e3ed66da050b"),
    ("propagation --a 3 --b 1 --c 0.5 --L pi --N 256 --g0 1 --g1 0 "
     "--T 0.05 --n-max-exp 12 --sub-lo 1 --sub-hi 2",
     "bfef2e453e0638e5a7aabc53cc9df4d8637ea0a4bca9d10f4485a41e0385e99d"),
    ("wholeline --a 1 --b 1 --c 0.25 --t 1 --j-min 1 --j-max 20",
     "7f55deb98a572c97195a9d1041ffa4d8cde32ff6243614b6e384d495a24b1a06"),
    ("verify --seed 7",
     "608c465de8c7ff96e410bb188cd7478c8feb1f67a9abdb04a8abd3ea492f58d3"),
    ("spectrum --lengths pi,pi --N 20",
     "f713ab8042258b41f88b0e111e971548c0e5ce1949415e3d000544761d43a9b0"),
    ("wholeline --a 1 --b 1 --c 0.25 --t 1 --j-min 1 --j-max 20 --side below",
     "5743e6da069b2499ee06387cfc8d9df44ccc8a9401010bc0d89da4250e112ec7"),
    ("boundary --a 3 --b 1 --c 0.5 --L pi --N 32 --g0 1 --g1 0 "
     "--signal constant --T 1 --t 1",
     "4da8b53d55bf717e6bf8fb3d83d133f217a3f5d51e80839a5fc22f68dede2780"),
    ("boundary --a 3 --b 1 --c 0.5 --L pi --N 32 --g0 1 --g1 0 "
     "--signal poly --coeffs 0,1,0.5 --T 1 --t 1",
     "04fee5ff62a0307d736b147f33c16fea368c64f6a359889e061c87b53acbdf87"),
    ("boundary --a 3 --b 1 --c 0.5 --L pi --N 32 --g0 1 --g1 0 "
     "--signal burst --n-rate 16 --T 1 --t 1",
     "bb3553bc248f710f53081692f01d63abcabbb5cb759dac6a5323461d4c923b1e"),
]


def readme_cli_commands():
    """The arguments of each `cattaneo4 ...` line of the README's Command line
    block, continuation lines joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", text, re.S).group(1)
    return [" ".join(line.split()[1:]) for line in block.replace("\\\n", " ").splitlines()]


def test_readme_commands_are_frozen(tmp_path, monkeypatch, capsys):
    readme = readme_cli_commands()
    assert len(readme) == 11
    assert readme == [cmd for cmd, _ in README_COMMANDS[:11]]
    monkeypatch.chdir(tmp_path)
    for cmd, want in README_COMMANDS:
        assert main(cmd.split()) == 0, cmd
        assert digest(capsys.readouterr().out, tmp_path) == want, cmd
