#!/bin/sh
# The tier-1 CI job: the test suite, the benchmark tests and a benchmark smoke
# run, from the root of a checkout with the test dependencies installed.
#
#   sh tools/ci/tier1.sh
#
# Every step runs even after one fails; the script names the failed steps and
# exits 1 if there are any.
set -u
cd "$(dirname "$0")/../.."
failed=""

step() {
    name=$1
    shift
    echo "== $name"
    "$@" || failed="$failed
  $name"
}

step "tier-1 tests" env PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python -m pytest -q --continue-on-collection-errors
step "benchmark tests" python3 -m pytest -q bench/test_bench.py
step "benchmark smoke run" python3 bench/run.py --smoke

if [ -n "$failed" ]; then
    echo "failed steps:$failed"
    exit 1
fi
