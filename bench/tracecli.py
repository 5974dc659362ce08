"""Traced stand-in for ``python -m cattaneo4``: times ``import cattaneo4``,
wraps the layer functions, runs ``cattaneo4.cli.main(argv)`` inside a span
and writes the spans to the file named by ``BENCH_TRACE_FILE``.

    BENCH_TRACE_FILE=spans.npz python3 bench/tracecli.py spectrum --N 16
"""

import os
import sys
import time

t0 = time.perf_counter()
import cattaneo4.cli  # noqa: E402
t1 = time.perf_counter()

import tracer as tr  # noqa: E402  (this file's directory is on sys.path)


def main() -> int:
    tracer = tr.Tracer()
    tracer.record(tr.IMPORT_SPAN, t0, t1)
    tr.install(tracer, cattaneo4)
    try:
        return tracer.wrap(tr.MAIN_SPAN, cattaneo4.cli.main)(sys.argv[1:])
    finally:
        tracer.save(os.environ["BENCH_TRACE_FILE"])


if __name__ == "__main__":
    sys.exit(main())
