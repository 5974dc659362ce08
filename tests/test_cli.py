import ast
import csv
import hashlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cattaneo4
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


def test_production_modules_do_not_import_the_oracle():
    src = Path(cattaneo4.__file__).parent
    for name in ("experiments", "solver", "boundary", "modal", "spectrum", "util"):
        for node in ast.walk(ast.parse((src / f"{name}.py").read_text())):
            if isinstance(node, ast.ImportFrom):
                mods = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            else:
                continue
            assert not any(m.split(".")[-1] == "oracle" for m in mods), (name, mods)


def test_import_does_not_load_scipy():
    # scipy is imported inside the oracle functions that use it
    code = ("import sys, cattaneo4; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
    # every exported name resolves, and of the modal layer the package
    # exports only the one evaluator, the root report and their helpers
    assert [n for n in cattaneo4.__all__ if not hasattr(cattaneo4, n)] == []
    modal_names = {n for n in dir(cattaneo4)
                   if getattr(getattr(cattaneo4, n), "__module__", None) == "cattaneo4.modal"}
    assert modal_names == {"CharacteristicRoots", "ParameterSet", "characteristic_roots",
                           "evolve_modes", "propagator", "reference_heat_mode",
                           "reference_telegraph_mode", "second_order_roots"}


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


# The eleven README commands, then a box spectrum and the other side of the
# whole-line scan.  Each digest is the sha256 of the summary line and the CSV
# bytes, recorded with the numpy and scipy versions that CI pins; a change
# that moves any README table must update its digest and say why.
README_COMMANDS = [
    ("spectrum --L pi --N 16",
     "c1324d160b2be2a379566c8f61e47ef35231cf8ce9890ecccff66e388ece39f1"),
    ("exceptional --L pi --N 32 --kind sigma --gamma-rho 4",
     "e628aa64bd75718ae8e264d7efc07c8ff86e3c1a8d32b8040236515745b3d489"),
    ("solve --a 3 --b 1 --c 0.5 --L pi --N 8 --mode 1 --alpha 1 --t 0.7",
     "52f0f37af12290ee5f386e750a5f23721d13ea4c8979c6ced383fa45d679f5a0"),
    ("boundary --a 3 --b 1 --c 0.5 --L pi --N 32 --g0 1 --g1 0 "
     "--signal sin --omega 2 --T 1 --t 1",
     "430e30e87b989fcf759f88b67d5786ce9d9ecb07e150a630140ced4ad39f8dc6"),
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
     "edf381b7566d86b6a939547408fe3236eec57b5a39c740ad2d75ccb6819621bd"),
    ("wholeline --a 1 --b 1 --c 0.25 --t 1 --j-min 1 --j-max 20",
     "7f55deb98a572c97195a9d1041ffa4d8cde32ff6243614b6e384d495a24b1a06"),
    ("verify --seed 7",
     "edc79201f809c71f4997abf3ea4aff558003905256ebb2697fea7efb3b1444f2"),
    ("spectrum --lengths pi,pi --N 20",
     "f713ab8042258b41f88b0e111e971548c0e5ce1949415e3d000544761d43a9b0"),
    ("wholeline --a 1 --b 1 --c 0.25 --t 1 --j-min 1 --j-max 20 --side below",
     "5743e6da069b2499ee06387cfc8d9df44ccc8a9401010bc0d89da4250e112ec7"),
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
    for cmd, digest in README_COMMANDS:
        assert main(cmd.split()) == 0, cmd
        summary = capsys.readouterr().out
        out = summary.rsplit("-> ", 1)[1].strip()
        blob = summary.encode("utf-8") + (tmp_path / out).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == digest, cmd
