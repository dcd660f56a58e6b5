"""Run the benchmark over several seeds and workloads into one result file.

    python3 perfbench/suite.py --seeds 1-10 [--workloads sim-1d,picard-1d]
                               [--trace 0] [--out .perfbench-work/suite.json]

Calls run.py once per (workload, seed), one at a time, with BENCHMARK.json's
run_seconds.  The result file holds every run's record; compare.py takes
two of them.  For each end-to-end metric it prints the spread of the per-run
values (distance between the quartiles as a share of the median) next to
the metric's bound.
"""

import argparse
import json
import subprocess
import sys

import common
from common import ROOT, WORK


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread_table(runs, bench):
    """Per workload and end-to-end metric: median, IQR/median, bound, ok."""
    rows = []
    for workload in sorted({r["workload"] for r in runs}):
        chosen = [r for r in runs if r["workload"] == workload and not r["trace"]]
        if not chosen:
            continue
        for entry in bench["end_to_end"]:
            values = [r["metrics"][entry["name"]]["value"] for r in chosen]
            q1, med, q3 = common.quartiles(values)
            spread = (q3 - q1) / med
            rows.append((workload, entry["name"], med, spread, entry["bound"], len(values)))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(common.WORKLOADS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(WORK / "suite.json"))
    args = parser.parse_args(argv)
    bench = common.load_benchmark()
    runs = []
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            cmd = [
                sys.executable, str(common.BENCH_DIR / "run.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                continue
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            path = WORK / "results" / f"{workload}-seed{seed}-trace{args.trace}.json"
            record = json.loads(path.read_text(encoding="utf-8"))
            runs.append(record)
            shown = {k: round(v["value"], 4) for k, v in last["metrics"].items() if not args.trace}
            print(f"{workload} seed {seed}: correct={last['correct']} "
                  f"failed={last['failed']}/{last['attempted']} {shown}", flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"benchmark": bench, "runs": runs}, fh, indent=1)
    print(f"wrote {args.out}")
    for workload, metric, med, spread, bound, n in spread_table(runs, bench):
        flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
        print(f"  {workload:<10} {metric:<12} median {med:.5g}  spread {100 * spread:5.2f}% "
              f"(bound {100 * bound:.0f}%, n={n}) {flag}")


if __name__ == "__main__":
    main()
