#!/bin/sh
# The without-scipy CI job: the package as pyproject declares it, on numpy
# alone.  Run from any directory, in an environment without scipy:
#
#   sh tools/ci/without_scipy.sh
#
# It runs the `cattaneo4` console script installed next to `python`; where
# there is none, `python -m cattaneo4` with this checkout's src on PYTHONPATH
# (a venv holding only numpy works offline).  The commands run in a fresh
# temporary directory, with every RuntimeWarning an error: one that escapes
# its np.errstate (an in-place ufunc of the modal chain, say) fails the step.
set -eu
repo=$(cd "$(dirname "$0")/../.." && pwd)
bin=$(python -c 'import os, sys; print(os.path.dirname(sys.executable))')
if [ -x "$bin/cattaneo4" ]; then
    run() { "$bin/cattaneo4" "$@"; }
else
    export PYTHONPATH="$repo/src${PYTHONPATH:+:$PYTHONPATH}"
    run() { python -m cattaneo4 "$@"; }
fi
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

echo "== no scipy; the package ships no test oracle or test-only helper and loads no scipy"
python -c 'import importlib.util; assert importlib.util.find_spec("scipy") is None'
python -c 'import importlib.util; assert importlib.util.find_spec("cattaneo4.oracle") is None'
python -c 'import importlib.util; assert importlib.util.find_spec("cattaneo4.util") is None'
python -c 'import cattaneo4, cattaneo4.modal as m, cattaneo4.boundary as b; assert not [n for n in ("propagator", "mild_solution_check", "MildSolutionReport", "reference_heat_mode", "reference_telegraph_mode", "_evolve_signals") for mod in (cattaneo4, m, b) if hasattr(mod, n)]'
python -c 'import sys, cattaneo4; assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]'

export PYTHONWARNINGS=error::RuntimeWarning

echo "== the README's Command line block"
# read as tests/test_cli.py::readme_cli_commands reads it: continuation
# lines joined, the leading `cattaneo4` dropped
python - "$repo/README.md" > commands.txt <<'PY'
import re, sys
text = open(sys.argv[1], encoding="utf-8").read()
block = re.search(r"## Command line\n\n```sh\n(.*?)```", text, re.S).group(1)
for line in block.replace("\\\n", " ").splitlines():
    print(" ".join(line.split()[1:]))
PY
[ -s commands.txt ]
while read -r args; do
    echo "cattaneo4 $args"
    # shellcheck disable=SC2086  # the arguments split on blanks, as in the README
    run $args < /dev/null
done < commands.txt
# a negative value with an exponent is read as a value, not as an option
run solve --a 3 --b 1 --c 0.5 --L pi --N 8 --mode 1 --alpha 1 --beta -1e-3 --t 0.7
# the help text and a box spectrum: a header and 20 modes
run --help
run spectrum --L pi,pi --N 20
[ "$(wc -l < spectrum.csv)" -eq 21 ]

echo "== results past the float range are written without warnings"
# the subregion mass at T = 200 and the heat reference at t = -2 read inf
# (the heat row 'saturated')
run propagation --a 3 --b 1 --c 0.5 --L pi --N 16 --g0 1 --g1 0 \
    --T 200 --n-max-exp 0 --sub-lo 1 --sub-hi 2
grep -qx '1,inf,0.56416419468006351,inf' propagation.csv
run heatcmp --chi 2 --gamma-rho 4 --j-max 0 --t -2 --N 32 --mode 32
grep -qx '3,inf,saturated' heatcmp.csv
echo "without-scipy: all steps passed"
