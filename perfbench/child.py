"""One CLI invocation in a fresh interpreter, timed from the inside.

    python3 perfbench/child.py REPORT SPANS -- <bck-sim argv>

Times ``import bck_sim.cli`` (setup) and ``bck_sim.cli.main(argv)`` (run)
and writes them, the exit code and ru_maxrss as JSON to REPORT.  SPANS is
``-`` for an untraced run; otherwise the public functions of the package
are wrapped for the run and the spans are written to SPANS (.npz) with
their per-layer summary added to the report.  With no argv after ``--``
only the import is timed.
"""

import sys
import time

t_setup = time.perf_counter()
import bck_sim.cli  # noqa: E402

setup_s = time.perf_counter() - t_setup

import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402


def _versions():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
    }


def main(argv):
    report_path, spans_path = argv[0], argv[1]
    if argv[2] != "--":
        raise SystemExit("usage: child.py REPORT SPANS -- ARGV...")
    cli_argv = argv[3:]
    tracer = patches = None
    if spans_path != "-":
        import spans

        tracer = spans.Tracer()
        patches = spans.instrument(tracer)
    started = time.perf_counter()
    try:
        code = bck_sim.cli.main(cli_argv) if cli_argv else None
    finally:
        finished = time.perf_counter()
        if patches is not None:
            spans.restore(patches)
    report = {
        "setup_s": setup_s,
        "run_s": finished - started,
        "exit_code": code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "package_file": bck_sim.cli.__file__,
        "versions": _versions(),
    }
    if tracer is not None:
        tracer.save(spans_path)
        report["trace"] = spans.summarize(tracer, started, finished)
    Path(report_path).write_text(json.dumps(report), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
