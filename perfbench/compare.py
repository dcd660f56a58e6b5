"""Compare two benchmark result files, workload by workload.

    python3 perfbench/compare.py BASE.json NEW.json

A result file is what suite.py writes (many runs) or what run.py writes
(one run).  For each workload and end-to-end metric this prints both
medians and quartiles of the per-run values over the files' untraced runs
and a verdict against the metric's bound in BENCHMARK.json:

* ``unresolved``       - either side's spread (q3 - q1 over the median)
                          exceeds the bound and neither side beats every run of
                          the other;
* ``worse than bound`` - NEW's median is worse than BASE's by more than the bound;
* ``improved``         - NEW wins at least 9 of 10 runs paired by seed and the
                          medians differ by more than BASE's own spread;
* ``within bound``     - otherwise.

Timings are compared at the reference speed (see run.py), so a change of
the machine's speed between the two files cancels; each workload also
shows both sides' raw median ``run_s`` of the frozen baseline, which
tracks that speed.  For workloads with traced runs on both sides it lists
the per-layer counts that differ; counts repeat exactly on one commit.
"""

import json
import statistics
import sys

import common

# per-layer units of counts and count ratios, which repeat exactly on one commit
REPEATING_UNITS = ("count", "evals/step", "guards/eval")


def load_runs(path):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return data["runs"] if "runs" in data else [data]


def _by_seed(runs, workload, metric):
    return {
        r["meta"]["seed"]: r["metrics"][metric]["value"]
        for r in runs
        if r["workload"] == workload and not r["trace"] and metric in r["metrics"]
    }


def _baseline_run_s(runs, workload):
    """Median raw run_s of the frozen baseline over the untraced runs."""
    values = [
        r["end_to_end"]["run_s"]["baseline"]["median"]
        for r in runs
        if r["workload"] == workload and not r["trace"] and "end_to_end" in r
    ]
    return statistics.median(values) if values else None


def verdict(base, new, bound, better="lower"):
    """Verdict for two {seed: value} maps of one metric; see the module doc."""
    b_vals, n_vals = list(base.values()), list(new.values())
    bq1, bmed, bq3 = common.quartiles(b_vals)
    nq1, nmed, nq3 = common.quartiles(n_vals)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (nmed - bmed) / bmed
    spread = max((bq3 - bq1) / bmed, (nq3 - nq1) / nmed)
    all_better = all(sign * (n - b) < 0 for n in n_vals for b in b_vals)
    all_worse = all(sign * (n - b) > 0 for n in n_vals for b in b_vals)
    pairs = [(base[s], new[s]) for s in base if s in new]
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    if spread > bound and not (all_better or all_worse):
        return "unresolved"
    if worse_by > bound:
        return "worse than bound"
    if pairs and wins >= 0.9 * len(pairs) and -worse_by * bmed > (bq3 - bq1):
        return "improved"
    return "within bound"


def count_differences(base_runs, new_runs, bench):
    """Workloads traced on both sides, and (workload, metric, distinct values)
    for each repeating per-layer count that differs among their traced runs."""
    units = {e["name"]: e["unit"] for e in bench["per_layer"]}
    checked, out = [], []
    for workload in common.WORKLOADS:
        b = [r for r in base_runs if r["workload"] == workload and r["trace"]]
        n = [r for r in new_runs if r["workload"] == workload and r["trace"]]
        if not b or not n:
            continue
        checked.append(workload)
        for name, unit in units.items():
            if unit not in REPEATING_UNITS:
                continue
            values = {r["metrics"][name]["value"] for r in b + n if name in r["metrics"]}
            if len(values) > 1:
                out.append((workload, name, sorted(values)))
    return checked, out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        raise SystemExit("usage: compare.py BASE.json NEW.json")
    bench = common.load_benchmark()
    base_runs, new_runs = load_runs(argv[0]), load_runs(argv[1])
    for label, runs in (("base", base_runs), ("new", new_runs)):
        meta = runs[0]["meta"]
        print(f"{label}: commit {meta.get('git_commit')} | {meta.get('cpu_model')} | "
              f"nproc {meta.get('nproc')} | {meta.get('blas')} threads {meta.get('blas_threads')} | "
              f"python {meta.get('python')} numpy {meta.get('numpy')} scipy {meta.get('scipy')}")
    for workload in common.WORKLOADS:
        gauges = (_baseline_run_s(base_runs, workload), _baseline_run_s(new_runs, workload))
        if None not in gauges:
            print(f"{workload:<10} frozen baseline raw run_s: base {gauges[0]:.4g} s, "
                  f"new {gauges[1]:.4g} s")
        for entry in bench["end_to_end"]:
            name = entry["name"]
            base = _by_seed(base_runs, workload, name)
            new = _by_seed(new_runs, workload, name)
            if not base or not new:
                continue
            bq1, bmed, bq3 = common.quartiles(list(base.values()))
            nq1, nmed, nq3 = common.quartiles(list(new.values()))
            result = verdict(base, new, entry["bound"], entry["better"])
            print(f"{workload:<10} {name:<12} base {bmed:.5g} [{bq1:.5g}, {bq3:.5g}] n={len(base)}  "
                  f"new {nmed:.5g} [{nq1:.5g}, {nq3:.5g}] n={len(new)}  "
                  f"{100 * (nmed / bmed - 1):+.1f}% (bound {100 * entry['bound']:.0f}%): {result}")
    checked, diffs = count_differences(base_runs, new_runs, bench)
    for workload, name, values in diffs:
        print(f"{workload:<10} {name}: traced counts differ {values}")
    if checked and not diffs:
        print(f"traced counts identical on {', '.join(checked)}")


if __name__ == "__main__":
    main()
