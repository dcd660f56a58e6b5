"""Paths, workload table and small statistics shared by the benchmark scripts."""

import json
import os
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench-work"
CHILD = BENCH_DIR / "child.py"
KERNELS = BENCH_DIR / "kernels.py"

# The package under test, and a frozen copy of it (the seed revision of
# src/bck_sim) that every untraced run times in alternation with it, so
# that the machine's changing speed cancels from the reported timings.
PACKAGES = {"src": ROOT / "src", "baseline": BENCH_DIR / "baseline"}

# BLAS and OpenMP pools are pinned to one thread (at most nproc): on a
# two-core machine a second pool thread mostly adds run-to-run noise.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name -> CLI argv (without --out), expected exit code, reference directory.
# sim-2d's reference directory depends on the seed: seed0/ holds every
# artifact, seed1/ .. seed63/ hold summary.txt; every seed is also checked by
# seed-independent properties (see outputs.check_properties).
WORKLOADS = {
    "sim-1d": {
        "argv": ["simulate", "--config", "configs/nonlinear-small.conf"],
        "reference": "out/nonlinear-small",
    },
    "sim-2d": {
        "argv": ["simulate", "--config", "perfbench/configs/sim-2d.conf"],
        "reference": "perfbench/reference/sim-2d/seed{seed}",
        "seeded": True,
    },
    "picard-1d": {
        "argv": ["picard", "--config", "configs/picard-small.conf"],
        "reference": "out/picard-small",
    },
}

# run once per benchmark run, outside the timed loop
CHECK_RUNS = {
    "degenerate": {
        "argv": ["simulate", "--config", "configs/degenerate.conf"],
        "reference": "out/degenerate",
        "exit": 2,
    },
    "zero-amplitude": {
        "argv": ["simulate", "--config", "configs/zero-amplitude.conf"],
        "reference": "out/zero-amplitude",
        "exit": 0,
        "all_zero": True,
    },
}

# Median times of the frozen baseline measured on the reference machine
# (see README, Baseline): the import, the same for every workload, and
# each workload's run.  A timing is reported as the median over a run's
# rounds of (package under test) / (baseline) times its reference time:
# seconds at the reference machine's speed.
REFERENCE_SETUP_S = 0.92
REFERENCE_RUN_S = {"sim-1d": 2.43, "sim-2d": 4.60, "picard-1d": 1.20}


def reference_s(workload):
    """Reference time of each end-to-end timing of ``workload``."""
    run_s = REFERENCE_RUN_S[workload]
    return {"setup_s": REFERENCE_SETUP_S, "run_s": run_s, "total_s": REFERENCE_SETUP_S + run_s}


# time per nonlinear step (substeps=2) measured ad hoc before this benchmark
# existed; the kernel sweep prints its own figures beside these
BASELINE_STEP_MS = {"1d-n8": 0.84, "1d-n64": 1.1, "1d-n256": 5.1, "2d-n16": 2.5, "2d-n48": 15.3}


def child_env(package="src"):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(PACKAGES[package])
    env.pop("BCK_SIM_LOG", None)
    for var in _THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def config_eps_deg(path):
    """The degeneracy margin ``eps_deg`` that ``bck_sim`` reads from a config."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from bck_sim.config import load_config

    return load_config(ROOT / path).eps_deg


def load_benchmark():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(values):
    q1, med, q3 = quartiles(values)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "samples": list(values),
    }



def corrected(values, baseline_values, reference):
    """Timing at the reference machine's speed: the median over rounds of
    ``values[i] / baseline_values[i]`` (the package under test and the
    baseline, timed one after the other in round i), times ``reference``."""
    ratios = [ours / theirs for ours, theirs in zip(values, baseline_values, strict=True)]
    return statistics.median(ratios) * reference
