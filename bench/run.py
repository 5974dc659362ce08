"""Benchmark of cattaneo4: one workload per run, timed from outside the program.

    python3 bench/run.py --workload evolve --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

Run from the root of a checkout: the package is imported from ``src/`` of the
checkout this file sits in, by worker processes that get its absolute path
first on PYTHONPATH and one thread for the package, BLAS and OpenMP.

A run starts three workers one after another.  Each sets up (process start,
``import cattaneo4``, seeded inputs, a warm-up), then runs whole rounds of
operations for a third of ``--seconds``, then checks its outputs.
The last line of standard output is one JSON object:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

with the end-to-end metrics under ``--trace 0`` and the per-layer metrics
under ``--trace 1`` (workers 2 and 3 traced, worker 1 not, for the tracing
overhead).  A readable summary goes to standard error.  ``--smoke`` runs one
operation of each workload with every check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import IMPORT_SPAN as IMPORT, MAIN_SPAN as MAIN

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
WORKLOADS = ("evolve", "sample", "boundary", "tables")
WORKERS = 3
RUN_LIMIT_S = 170.0

EXPERIMENTS = ("limit1_scan", "limit2_scan", "limit3_scan", "heat_comparison",
               "singularity_scan", "whole_line_mode", "propagation_burst")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("CATTANEO4_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args: list[str], deadline: float) -> tuple[float, dict]:
    """Start a worker; return its set-up seconds and its result event."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    setup_s, result = None, None
    try:
        for line in proc.stdout:
            if not line.startswith("{"):
                continue
            event = json.loads(line)
            if event.get("event") == "ready":
                setup_s = time.perf_counter() - t0
            elif event.get("event") == "result":
                result = event
    finally:
        proc.stdout.close()
        rc = proc.wait()
        timer.cancel()
    if rc != 0 or setup_s is None or result is None:
        raise RuntimeError(f"worker {' '.join(args)} exited {rc} without a result")
    return setup_s, result


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def end_to_end(setups, results) -> dict:
    times = [t for r in results for t in r["times"]]
    quad = [r["quad_rel_err"] for r in results if "quad_rel_err" in r]
    return {
        "setup_s": {"value": _median(setups), "unit": "s"},
        "op_ms": {"value": 1e3 * _median(times), "unit": "ms"},
        "ops_per_s": {"value": len(times) / sum(r["timed_s"] for r in results),
                      "unit": "1/s"},
        "peak_rss_mb": {"value": max(r["rss_mb"] for r in results), "unit": "MB"},
        "quad_rel_err": {"value": max(quad), "unit": "1"},
    }


def per_layer(untraced, traced) -> tuple[dict, dict]:
    ops = sum(r["trace"]["ops"] for r in traced)
    spans: dict[str, dict] = {}
    counters: dict[str, float] = {}
    peaks: dict[str, float] = {}
    for r in traced:
        for name, s in r["trace"]["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += s[k]
        for k, v in r["trace"]["counters"].items():
            counters[k] = counters.get(k, 0.0) + v
        for k, v in r["trace"]["peaks"].items():
            peaks[k] = max(peaks.get(k, 0.0), v)

    def get(name, key="total_s"):
        return spans.get(name, {}).get(key, 0)

    def ms(name, key="total_s"):
        return 1e3 * get(name, key) / ops

    mode_calls = get("modal.solve_mode", "calls")
    ewb_calls = get("boundary.evolve_with_boundary", "calls")
    if get(IMPORT, "calls"):
        import_ms = 1e3 * get(IMPORT) / get(IMPORT, "calls")
    else:
        import_ms = 1e3 * _median([r["import_s"] for r in traced])
    traced_op = 1e3 * _median([t for r in traced for t in r["times"]])
    plain_op = 1e3 * _median([t for r in untraced for t in r["times"]])
    m = {
        "spectrum.modes_for_ms": (ms("spectrum.modes_for"), "ms"),
        "spectrum.modes_for_calls": (get("spectrum.modes_for", "calls") / ops, "count"),
        "spectrum.exceptional_ms": (sum(ms(f"spectrum.{f}", "self_s") for f in (
            "exceptional_for_c", "exceptional_for_sigma", "distance_to_exceptional")), "ms"),
        "modal.solve_mode_ms": (ms("modal.solve_mode"), "ms"),
        "modal.eval_mode_ms": (ms("modal.eval_mode"), "ms"),
        "modal.mode_calls": (mode_calls / ops, "count"),
        "modal.us_per_mode": (1e6 * (get("modal.solve_mode") + get("modal.eval_mode"))
                              / mode_calls if mode_calls else 0.0, "us"),
        "solver.check_wellposed_ms": (ms("solver.check_wellposed"), "ms"),
        "solver.evolve_homogeneous_self_ms": (ms("solver.evolve_homogeneous", "self_s"), "ms"),
        "solver.project_samples_ms": (ms("solver.project_samples"), "ms"),
        "solver.reconstruct_ms": (ms("solver.reconstruct"), "ms"),
        "solver.sample_terms": (counters.get("solver.sample_terms", 0.0) / ops, "count"),
        "boundary.build_blocks_ms": (ms("boundary.build_blocks"), "ms"),
        "boundary.evolve_with_boundary_ms": (ms("boundary.evolve_with_boundary"), "ms"),
        "boundary.quad_nodes": (counters.get("boundary.quad_nodes", 0.0) / ewb_calls
                                if ewb_calls else 0.0, "count"),
        "boundary.alloc_peak_mb": (peaks.get("boundary.alloc_peak_mb", 0.0), "MB"),
        "cli.import_ms": (import_ms, "ms"),
        "cli.main_ms": (ms(MAIN), "ms"),
        **{f"experiments.{f}_ms": (ms(f"experiments.{f}"), "ms") for f in EXPERIMENTS},
        "oracle.quad_integrate_ms": (ms("oracle.quad_integrate"), "ms"),
        "oracle.integrate_mode_ms": (ms("oracle.integrate_mode"), "ms"),
        "trace.op_ms": (traced_op, "ms"),
        "trace.overhead_ms": (traced_op - plain_op, "ms"),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
    absent = sorted({a for r in traced for a in r["trace"]["absent"]})
    summary = {"ops": ops, "absent": absent, "counters": counters, "peaks": peaks,
               "spans_per_op_ms": {n: {"calls": s["calls"] / ops,
                                       "total_ms": 1e3 * s["total_s"] / ops,
                                       "self_ms": 1e3 * s["self_s"] / ops}
                                   for n, s in sorted(spans.items())},
               "files": [r["trace"]["file"] for r in traced]}
    return metrics, summary


def quartiles(xs):
    if len(xs) < 2:
        return [xs[0]] * 3 if xs else []
    return statistics.quantiles(xs, n=4)


def run(workload: str, seed: int, seconds: float, trace: int,
        workers: int = WORKERS, ops: int = 0) -> dict:
    out = OUT / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    setups, results = [], []
    for k in range(workers):
        args = ["--workload", workload, "--seed", str(seed), "--index", str(k),
                "--seconds", str(seconds / workers), "--out", str(out),
                "--trace", str(int(trace and k > 0)),
                "--probe", str(int(k == workers - 1))]
        if ops:
            args += ["--ops", str(ops)]
        setup_s, result = run_worker(args, deadline)
        setups.append(setup_s)
        results.append(result)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if workload == "tables":
        # each worker makes one pass, so repeats of a table are across workers
        first = results[0]["inputs"].get("0", {}).get("digests")
        for r in results[1:]:
            if r["inputs"].get("0", {}).get("digests") != first:
                failed += r["attempted"] - r["failed"]
                r["problems"]["0"] = ["tables differ from the first worker's"]
    probe_problems = [p for r in results for p in r.get("probe_problems", [])]
    times = [t for r in results for t in r["times"]]
    report = {"workload": workload, "seed": seed, "setup_s": setups,
              "op_ms_quartiles": [1e3 * q for q in quartiles(times)],
              "ops": len(times), "rounds": [r["rounds"] for r in results],
              "import_s": [r["import_s"] for r in results],
              "problems": {f"w{k}/{j}": p for k, r in enumerate(results)
                           for j, p in r["problems"].items()},
              "errors": {f"w{k}/{j}": e for k, r in enumerate(results)
                         for j, e in r["errors"].items()},
              "probe_problems": probe_problems,
              "inputs": results[0]["inputs"]}
    if trace and workers > 1:
        metrics, summary = per_layer(results[:1], results[1:])
        (out / "trace-summary.json").write_text(json.dumps(summary, indent=1))
        report["absent"] = summary["absent"]
    else:
        metrics = end_to_end(setups, results)
        report["quad_mode"] = max((r["quad_rel_err"], r["quad_mode"])
                                  for r in results if "quad_rel_err" in r)[1]
    line = {"correct": not probe_problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    print(json.dumps(report, indent=1, default=str), file=sys.stderr)
    return line


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=21.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one operation of each workload with every check")
    args = ap.parse_args(argv)
    if not (SRC / "cattaneo4" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'cattaneo4'}", file=sys.stderr)
        return 2
    if args.workload is None and not args.smoke:
        ap.error("--workload is required without --smoke")
    try:
        if args.smoke:
            ok = True
            for name in ([args.workload] if args.workload else WORKLOADS):
                line = run(name, args.seed, 0.0, args.trace, workers=1 + args.trace, ops=1)
                print(json.dumps({"workload": name, **line}))
                ok &= line["correct"] and line["failed"] == 0
            return 0 if ok else 1
        line = run(args.workload, args.seed, args.seconds, args.trace)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
