"""Time single layers of ``cattaneo4`` in fresh interpreters, N by N.

For each package source given with ``--src LABEL=PATH``, each layer and
each of its sizes N, one fresh interpreter imports ``cattaneo4`` from PATH,
makes seeded data on (0, pi) with N modes, and reports the median wall time
of 5 calls and its own peak RSS.  The layers:

* ``project_samples`` and ``reconstruct`` on the 4N + 1 interval grid, N =
  1e3, 1e4, 1e5 (a full random series to reconstruct, a 12-mode sine series
  sampled on the grid to project);
* ``propagation_burst`` at the README's propagation arguments (a = 3, b = 1,
  c = 0.5, g = (1, 0), T = 0.05, subregion [1, 2], 13 rates 2^0..2^12) with
  N = 256, 1e3, 1e4 modes;
* ``propagation_cli``: the README's ``propagation`` command as a cold
  ``python -m cattaneo4`` process, interpreter start and import included,
  timed from outside; its peak RSS is that of the command;
* ``verify_cli``: ``verify --seed 7`` the same way; its "size" is the seed;
* ``evolve_with_boundary`` on the stiff case of the ``boundary`` benchmark
  workload (a = 2, b = 1, c = 0.003, g = (1, 0), f = sin 3t, zero data) at
  t = 0.8, the exact convolution (no quadrature nodes), N = 1e3, 1e4, 1e5;
  the operator is built outside the timed call;
* ``check_wellposed`` at c = 0.26 on (0, pi) with a cold spectrum cache
  (cleared before each call), N = 1e3, 1e4, 1e5;
* ``evolve_homogeneous`` in the shape of the ``evolve`` benchmark workload,
  N = 1e3, 1e4, 1e5: on (0, (N/156.25) pi), so lam_n = 156.25 n/N, with a
  = 2, b = 1, c = (1 + 2e-5)/lam_{N/2}^2 and t = 2, seeded data of size
  n^-1/2; the modes below N/2 are complex, the ones above grow, and a band
  just above it saturates.

The time of the next size is predicted from the last one at the layer's
growth order (quadratic for the sampling layers, the order of their
compensated-sum path; linear for ``propagation_burst`` and
``evolve_with_boundary``, whose boundary convolution is O(N) per time, for
``check_wellposed``, whose bound is a spectrum built from cold, and for
``evolve_homogeneous``, elementwise over the modes): past 60 s
the size is recorded as ``"skipped: > 60 s"`` and not run, and past 1 s it
is timed by one call.

    python3 tools/bench_sampling.py --src parent=../parent/src --src change=src

prints the ``layers`` object of a ``BENCH_*.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

REPEATS = 5
LIMIT_S = 60.0
# layer: (sizes N, growth order of its time in N)
LAYERS = {
    "project_samples": ((1000, 10000, 100000), 2),
    "reconstruct": ((1000, 10000, 100000), 2),
    "propagation_burst": ((256, 1000, 10000), 1),
    "propagation_cli": ((256,), 1),
    "verify_cli": ((7,), 1),
    "evolve_with_boundary": ((1000, 10000, 100000), 1),
    "check_wellposed": ((1000, 10000, 100000), 1),
    "evolve_homogeneous": ((1000, 10000, 100000), 1),
}
# the command of each CLI layer, completed by its size
CLI = {"propagation_cli": ["propagation", "--a", "3", "--b", "1", "--c", "0.5", "--L", "pi",
                           "--g0", "1", "--g1", "0", "--T", "0.05", "--n-max-exp", "12",
                           "--sub-lo", "1", "--sub-hi", "2", "--N"],
       "verify_cli": ["verify", "--seed"]}

CHILD = r"""
import json, math, os, resource, statistics, subprocess, sys, tempfile, time
import numpy as np

n, repeats, layer = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
times = []
cli = json.loads(sys.argv[4])
if layer in cli:
    with tempfile.TemporaryDirectory() as tmp:
        argv = [sys.executable, "-m", "cattaneo4", *cli[layer], str(n),
                "--out", os.path.join(tmp, "out.csv")]
        for _ in range(repeats):
            t0 = time.perf_counter()
            subprocess.run(argv, check=True, capture_output=True)
            times.append(time.perf_counter() - t0)
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
else:
    import cattaneo4 as c4
    basis = c4.BasisDescriptor(1, (math.pi,), n)
    x = np.linspace(0.0, math.pi, 4 * n + 1)
    rng = np.random.default_rng(n)
    field = c4.Field(basis, rng.normal(size=n) / np.arange(1, n + 1))
    values = sum(a * math.sqrt(2.0 / math.pi) * np.sin(k * x)
                 for k, a in zip(rng.choice(np.arange(1, n + 1), 12), rng.normal(size=12)))
    p = c4.ParameterSet(3.0, 1.0, 0.5)
    rates = [2.0 ** j for j in range(13)]
    stiff = c4.build_blocks(c4.ParameterSet(2.0, 1.0, 0.003), basis, (1.0, 0.0))
    sine, zero = c4.BoundarySignal.sinusoid(1.0, 3.0), c4.zero_field(basis)
    ratio = n / 156.25   # lam_k = k / ratio, and lam_{n/2} = 78.125 at every n
    ev_basis = c4.BasisDescriptor(1, (ratio * math.pi,), n)
    ev_p = c4.ParameterSet(2.0, 1.0, (1.0 + 2e-5) * (ratio / (n // 2)) ** 2)
    ev_data = [c4.Field(ev_basis, rng.normal(size=n) / np.sqrt(np.arange(1, n + 1)))
               for _ in range(2)]
    for _ in range(repeats):
        if layer == "check_wellposed":
            c4.spectrum.spectrum.cache_clear()  # a cold cache
        t0 = time.perf_counter()
        if layer == "check_wellposed":
            c4.check_wellposed(0.26, basis)
        elif layer == "reconstruct":
            c4.reconstruct(field, x)
        elif layer == "project_samples":
            c4.project_samples((x, values), basis)
        elif layer == "evolve_with_boundary":
            c4.evolve_with_boundary(stiff, zero, zero, sine, 0.8)
        elif layer == "evolve_homogeneous":
            c4.evolve_homogeneous(ev_p, *ev_data, 2.0)
        else:
            c4.propagation_burst(p, basis, (1.0, 0.0), 0.05, rates, (1.0, 2.0))
        times.append(time.perf_counter() - t0)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps({"median_ms": statistics.median(times) * 1e3,
                  "peak_rss_mb": round(rss, 1), "repeats": repeats}))
"""


def measure(src: str, n: int, repeats: int, layer: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", CHILD, str(n), str(repeats), layer,
                          json.dumps(CLI)],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", action="append", required=True,
                    help="LABEL=PATH of a directory holding the cattaneo4 package")
    args = ap.parse_args(argv)
    report = {"grid": "4N + 1 points on (0, pi) for the sampling layers",
              "note": ("median wall time of one call in ms and the peak RSS in MB of a "
                       f"fresh process running that call; a size predicted to pass "
                       f"{LIMIT_S:g} s is skipped, and one predicted to pass 1 s is "
                       "timed once")}
    for spec in args.src:
        label, _, src = spec.partition("=")
        side = report[label] = {}
        for layer, (sizes, order) in LAYERS.items():
            rows, last = side.setdefault(layer, {}), None
            for n in sizes:
                predicted_ms = 0.0 if last is None else last[1] * (n / last[0]) ** order
                if predicted_ms > LIMIT_S * 1e3:
                    rows[str(n)] = f"skipped: > {LIMIT_S:g} s"
                    continue
                rows[str(n)] = measure(src, n, REPEATS if predicted_ms < 1e3 else 1, layer)
                last = (n, rows[str(n)]["median_ms"])
                print(f"{label} {layer} N={n}: {rows[str(n)]}", file=sys.stderr)
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
