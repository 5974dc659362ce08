"""One worker process of a benchmark run.

    python3 bench/worker.py --workload NAME --seed S --index K --seconds T
                            [--trace 0|1] [--probe 0|1] [--ops N] --out DIR

It imports the package, builds its seeded inputs and warms up (one
operation; one table for ``tables``), then prints ``{"event": "ready"}``.  The timed phase runs whole
rounds of the workload's operations, one operation at a time, and stops at the
round end nearest to T seconds (or after exactly N operations).  Afterwards every distinct input is
checked once against the references and every repeat must equal its first
run.  The last line is ``{"event": "result", ...}``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


def _same(x, y) -> bool:
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(_same(x[k], y[k]) for k in x)
    if isinstance(x, np.ndarray):
        return x.shape == y.shape and bool(np.array_equal(x, y, equal_nan=True))
    if isinstance(x, float) and math.isnan(x):
        return isinstance(y, float) and math.isnan(y)
    return x == y


def _rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _emit(event: dict) -> None:
    print(json.dumps(event), flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--index", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--ops", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--probe", type=int, default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    out = Path(args.out)

    t0 = time.perf_counter()
    import cattaneo4 as c4
    import_s = time.perf_counter() - t0
    rng = np.random.default_rng([args.seed, args.index, sorted(wl.WORKLOADS).index(args.workload)])
    work = wl.WORKLOADS[args.workload](c4, rng, out / f"work-{args.index}", args.seed)
    work.setup()
    try:
        work.warm_up()
    except Exception:  # the same operation fails again, and is counted, below
        pass
    _emit({"event": "ready", "import_s": import_s})

    tracer = None
    if args.trace:
        tracer = tr.Tracer()
        tr.install(tracer, c4)
        if args.workload == "tables":
            work.trace_dir = out / f"trace-{args.index}"
            work.trace_dir.mkdir(parents=True, exist_ok=True)

    times, runs, errors = [], [], {}
    clock = time.perf_counter
    start = clock()
    deadline = start + args.seconds
    rounds = 0
    while True:
        round_start = clock()
        for j in range(work.round_size):
            if args.ops and len(runs) >= args.ops:
                break
            if tracer is not None:
                tracer.current_op = len(times)
                op = tracer.wrap(tr.OP_SPAN, work.op)
            else:
                op = work.op
            span = len(tracer.start) if tracer is not None else -1
            t1 = clock()
            try:
                result = op(j)
            except Exception:  # a failed operation is counted, not fatal
                times.append(clock() - t1)
                errors.setdefault(j, traceback.format_exc(limit=3))
                runs.append((j, None))
                continue
            times.append(clock() - t1)
            if tracer is not None:
                for path in work.child_traces:
                    if path.exists():
                        tracer.merge_file(path, len(times) - 1, span)
            runs.append((j, work.capture(j, result)))
        rounds += 1
        if rounds == 1:
            # peak after the warm-up and one round: the allocator's later
            # growth depends on how many rounds fit in the run
            rss = _rss_mb(resource.RUSAGE_CHILDREN if args.workload == "tables"
                          else resource.RUSAGE_SELF)
        # stop at the round end nearest the deadline
        remaining = deadline - clock()
        if len(runs) >= args.ops if args.ops else remaining < (clock() - round_start) / 2:
            break
    timed_s = clock() - start

    # checks: each input once against the references, repeats for identity
    first, problems, describe = {}, {}, {}
    for j, cap in runs:
        if cap is None:
            continue
        if j not in first:
            first[j] = cap
            found = work.check(j, cap)
            describe[j] = work.describe(j, cap)
            if found:
                problems[j] = found
        elif not _same(cap, first[j]):
            problems.setdefault(j, []).append("output differs from its first run")
    failed = sum(1 for j, cap in runs if cap is None or j in problems)

    result = {"event": "result", "times": times, "timed_s": timed_s, "rounds": rounds,
              "attempted": len(runs), "failed": failed, "rss_mb": rss,
              "import_s": import_s, "errors": errors,
              "problems": {str(j): p[:5] for j, p in problems.items()},
              "inputs": {str(j): d for j, d in describe.items()}}
    if args.workload == "boundary":
        result["quad_rel_err"], result["quad_mode"] = work.worst
    elif args.probe and tracer is None:
        probe_problems, (err, mode) = wl.quad_probe(c4)
        result["quad_rel_err"], result["quad_mode"] = err, mode
        result["probe_problems"] = probe_problems
    if tracer is not None:
        path = out / f"trace-{args.workload}-seed{args.seed}-w{args.index}.npz"
        tracer.save(path)
        result["trace"] = {"spans": tracer.summary(), "counters": tracer.counters,
                           "peaks": tracer.peaks, "absent": tracer.absent,
                           "ops": len(times), "file": str(path)}
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
