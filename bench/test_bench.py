"""Tests of the benchmark itself (not collected by the package's test run).

    python3 -m pytest -q bench/test_bench.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import reference as ref  # noqa: E402
import tables  # noqa: E402
import tracer as tr  # noqa: E402


def _run(*args, cwd=BENCH.parent, timeout=300):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=timeout)


def test_smoke_runs_every_workload_with_every_check():
    proc = _run("--smoke", "--seed", "3")
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = [json.loads(x) for x in proc.stdout.splitlines()]
    assert [x["workload"] for x in lines] == ["evolve", "sample", "boundary", "tables"]
    for x in lines:
        assert x["correct"] and x["failed"] == 0 and x["attempted"] >= 1
        assert set(x["metrics"]) == {"setup_s", "op_ms", "ops_per_s", "peak_rss_mb",
                                     "quad_rel_err"}
        assert all(m["value"] > 0 for m in x["metrics"].values())
    # mode 19 of the stiff boundary case sets the quadrature error
    assert lines[2]["metrics"]["quad_rel_err"]["value"] == pytest.approx(4.62e-6, rel=0.01)


def test_traced_smoke_reports_layers():
    proc = _run("--smoke", "--workload", "evolve", "--trace", "1")
    assert proc.returncode == 0, proc.stderr[-2000:]
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    assert metrics["modal.mode_calls"]["value"] == 20000
    assert metrics["spectrum.modes_for_calls"]["value"] >= 1
    assert metrics["solver.evolve_homogeneous_self_ms"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    proc = _run("--workload", "evolve", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_children():
    t = tr.Tracer()
    t.record("outer", 0.0, 1.0)
    t.name.append(t.name_id("inner"))
    t.parent.append(0)
    t.op.append(-1)
    t.start.append(0.25)
    t.end.append(0.5)
    s = t.summary()
    assert s["outer"]["self_s"] == pytest.approx(0.75)
    assert s["inner"]["self_s"] == pytest.approx(0.25)


def test_mode_reference_matches_a_closed_form():
    # (1 - c) y'' + a y' + b y = 0 with a = 3, b = 2, c = 0: roots -1, -2
    th, dth, _, _ = ref.mode_state(3.0, 2.0, 1e-300, 1.0, 1.0, 0.0, 0.7)
    assert float(th) == pytest.approx(2 * math.exp(-0.7) - math.exp(-1.4), rel=1e-14)


LIMIT3 = ("k,sigma,coeff1,exp1,coeff2,exp2,logvalue,flag\n"
          "2,1.25,-0.0026041666666666661,8,0.065104166666666671,-1.6000000000000001,"
          "-3.0021038940939291,ok\n")


def test_table_check_accepts_the_program_output():
    assert tables.check(["limit3", "--k-min", "2", "--k-max", "2", "--t", "0.1"],
                        "", LIMIT3) == []


def test_table_check_rejects_a_perturbed_value():
    bad = LIMIT3.replace("-3.0021038940939291", "-3.0021038940929291")
    assert tables.check(["limit3", "--k-min", "2", "--k-max", "2", "--t", "0.1"],
                        "", bad)
