"""Benchmark entry point: one workload, closed loop, fresh interpreter per call.

    python3 perfbench/run.py --workload sim-1d --seed 1 --seconds 30 --trace 0

Each invocation runs ``bck_sim.cli.main`` in a new interpreter (see
child.py), one at a time from this single process.  ``--trace 0`` runs
rounds of two invocations, one of the package under test (``src/``) and
one of the frozen baseline copy (``perfbench/baseline/``), in alternating
order, while at least half of the next round fits in ``--seconds``; each
timing is reported as the median over the rounds of the ratio of the two
sides' times, times the baseline's reference time (common.corrected).  Every invocation of the
package under test is checked (outputs.py); the ``degenerate`` and
``zero-amplitude`` configs run once each after the timed loop.
``--trace 1`` makes one traced invocation, untraced ones for the
overhead, and the kernel sweep, and reports the per-layer metrics.  The
last stdout line is the JSON result; the full record goes to
.perfbench-work/results/.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import common
import outputs
import spans
from common import ROOT, WORK, WORKLOADS, CHECK_RUNS

HARD_LIMIT_S = 170.0
KERNEL_RESERVE_S = 6.0  # of --seconds, kept for the kernel sweep of a traced run


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def preflight():
    """The checkout must hold the package, configs and references."""
    needed = [root / "bck_sim" / "cli.py" for root in common.PACKAGES.values()]
    needed.append(ROOT / "BENCHMARK.json")
    for spec in list(WORKLOADS.values()) + list(CHECK_RUNS.values()):
        needed.append(ROOT / spec["argv"][2])
        needed.append(ROOT / spec["reference"].format(seed=0) / "run_record.json")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"perfbench: checkout is incomplete, missing {missing}", file=sys.stderr)
        raise SystemExit(2)


def machine_info(versions, seed):
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_commit": commit,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas_threads": common.BLAS_THREADS,
        "pinned_cpu": min(os.sched_getaffinity(0)),
        **versions,
    }


class Runner:
    """Runs child invocations in sequence and keeps the operation tally."""

    def __init__(self, workload, seed, started):
        self.workload = workload
        self.seed = seed
        self.started = started
        self.work = WORK / workload
        self.attempted = 0
        self.failed = 0
        self.baseline_failed = 0
        self.problems = []
        self.versions = None
        spec = WORKLOADS[workload]
        self.eps_deg = common.config_eps_deg(spec["argv"][2]) if spec.get("seeded") else None

    def time_left(self):
        return HARD_LIMIT_S - (time.perf_counter() - self.started)

    def invoke(self, argv, out_dir=None, spans_path=None, script=common.CHILD, package="src"):
        """Run one child on ``package`` (a key of common.PACKAGES); return
        its report, or None if it did not finish."""
        report = self.work / "report.json"
        report.unlink(missing_ok=True)
        cmd = [sys.executable, str(script), str(report)]
        if script == common.CHILD:
            cmd += [str(spans_path) if spans_path else "-", "--", *argv]
            if out_dir is not None:
                shutil.rmtree(out_dir, ignore_errors=True)
                cmd += ["--out", str(out_dir)]
        try:
            proc = subprocess.run(
                cmd,
                cwd=ROOT,
                env=common.child_env(package),
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=max(self.time_left(), 1.0),
            )
        except subprocess.TimeoutExpired:
            self.problems.append(f"{argv}: timed out")
            return None
        if proc.returncode != 0 or not report.exists():
            tail = proc.stderr.strip().splitlines()[-1:] if proc.stderr else []
            self.problems.append(f"{argv}: child exited {proc.returncode} {tail}")
            return None
        data = json.loads(report.read_text(encoding="utf-8"))
        if script == common.CHILD:
            expected = common.PACKAGES[package] / "bck_sim" / "cli.py"
            if Path(data["package_file"]).resolve() != expected.resolve():
                self.problems.append(f"imported {data['package_file']}, not {expected}")
                return None
            self.versions = self.versions or data["versions"]
        return data

    def argv(self, spec):
        argv = list(spec["argv"])
        if spec.get("seeded"):
            argv += ["--seed", str(self.seed)]
        return argv

    def attempt(self, name, spec, spans_path=None):
        """One checked CLI invocation; returns the child's report, if any.

        A wrong exit code or a failed output check counts the operation as
        failed, but its timings are still reported.
        """
        self.attempted += 1
        out_dir = self.work / "out" / name
        report = self.invoke(self.argv(spec), out_dir, spans_path)
        problems = [] if report is not None else ["no report"]
        if report is not None:
            expected = spec.get("exit", 0)
            if report["exit_code"] != expected:
                problems.append(f"exit code {report['exit_code']}, expected {expected}")
            elif spec.get("seeded"):
                problems += outputs.check_properties(out_dir, self.eps_deg)
                reference = ROOT / spec["reference"].format(seed=self.seed)
                if reference.is_dir():
                    problems += outputs.compare_files(out_dir, reference)
            else:
                problems += outputs.compare_dirs(out_dir, ROOT / spec["reference"])
            if spec.get("all_zero") and not problems:
                problems += outputs.check_all_zero(out_dir)
        if problems:
            self.failed += 1
            self.problems.append(f"{name}: " + "; ".join(problems[:5]))
        return report

    def baseline(self, spec):
        """One invocation of the frozen baseline: a timing reference, not an
        operation of the package under test.  It must exit as expected."""
        report = self.invoke(self.argv(spec), self.work / "out" / "baseline", package="baseline")
        expected = spec.get("exit", 0)
        if report is not None and report["exit_code"] != expected:
            self.problems.append(f"baseline: exit code {report['exit_code']}, expected {expected}")
            report = None
        if report is None:
            self.baseline_failed += 1
        return report

    def run_checks(self):
        for name, spec in CHECK_RUNS.items():
            self.attempt(name, spec)

    def timed_loop(self, deadline, paired=True):
        """Closed loop of the workload; returns its rounds, each a dict from
        side ("src", "baseline") to that side's report.  Paired, each round
        runs both sides, in the order AB, BA, AB, ..., so that the two
        invocations of a round see nearly the same machine.  Another round
        starts while at least half of one (by the median so far) fits
        before the deadline, so that runs end near the deadline on average."""
        spec = WORKLOADS[self.workload]
        rounds, walls = [], []
        while True:
            t0 = time.perf_counter()
            order = ("src", "baseline") if len(walls) % 2 == 0 else ("baseline", "src")
            done = {}
            for side in order if paired else ("src",):
                if side == "src":
                    report = self.attempt(self.workload, spec)
                else:
                    report = self.baseline(spec)
                if report is not None:
                    done[side] = report
            rounds.append(done)
            walls.append(time.perf_counter() - t0)
            now = time.perf_counter()
            if self.failed > 3 or self.baseline_failed > 3:
                break
            if now + 0.5 * statistics.median(walls) > deadline:
                break
            if self.time_left() < 2 * max(walls):
                break
        return rounds

    def warm_up(self):
        """One import-only invocation of each side, untimed: the first import
        of a package in a fresh checkout compiles its bytecode."""
        for side in common.PACKAGES:
            if self.invoke([], package=side) is None:
                return


def end_to_end(runner, rounds):
    """Each timing's raw quartiles on both sides, and its ``value``: the
    median over the rounds of the package under test's time over the
    baseline's, at the reference speed (common.corrected)."""
    reference = common.reference_s(runner.workload)
    pairs = [(r["src"], r["baseline"]) for r in rounds if len(r) == 2]
    timings = {
        "setup_s": lambda r: r["setup_s"],
        "run_s": lambda r: r["run_s"],
        "total_s": lambda r: r["setup_s"] + r["run_s"],
    }
    e2e = {}
    for name, timing in timings.items():
        ours = [timing(a) for a, _ in pairs]
        theirs = [timing(b) for _, b in pairs]
        e2e[name] = common.summarize(ours)
        e2e[name]["baseline"] = common.summarize(theirs)
        e2e[name]["value"] = common.corrected(ours, theirs, reference[name])
    rss = common.summarize([r["src"]["peak_rss_mb"] for r in rounds if "src" in r])
    e2e["peak_rss_mb"] = {**rss, "value": rss["median"]}
    return e2e


def traced(runner, deadline):
    spec = WORKLOADS[runner.workload]
    spans_path = runner.work / "spans.npz"
    report = runner.attempt(runner.workload, spec, spans_path=spans_path)
    out_dir = runner.work / "out" / runner.workload
    artifact_bytes = sum(p.stat().st_size for p in out_dir.iterdir()) if out_dir.exists() else 0
    plain = [r["src"] for r in runner.timed_loop(deadline - KERNEL_RESERVE_S, paired=False) if r]
    kernels = runner.invoke([], script=common.KERNELS) or {}
    if report is None or not plain:
        return None
    summary = report["trace"]
    layer = spans.layer_metrics(summary, report["setup_s"])
    untraced_run_s = statistics.median(r["run_s"] for r in plain)
    layer["cli.artifact_bytes"] = (artifact_bytes, "B")
    layer["trace.run_s"] = (summary["run_s"], "s")
    layer["trace.untraced_run_s"] = (untraced_run_s, "s")
    layer["trace.overhead_pct"] = (100.0 * (summary["run_s"] / untraced_run_s - 1.0), "%")
    for name, value in kernels.items():
        layer[name] = (value, "ms" if name.endswith("_ms") else "us")
    return {"layers": layer, "summary": summary, "kernels": kernels, "untraced_n": len(plain)}


def print_e2e(e2e, bench):
    for entry in bench["end_to_end"]:
        name, unit, s = entry["name"], entry["unit"], e2e[entry["name"]]
        line = (f"  {name:<12} {s['value']:.6g} {unit} | src median {s['median']:.6g} "
                f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}] n={s['n']}")
        if "baseline" in s:
            b = s["baseline"]
            line += f" | baseline median {b['median']:.6g} [q1 {b['q1']:.6g}, q3 {b['q3']:.6g}] n={b['n']}"
        print(line)


def print_trace(result):
    layers = result["layers"]
    acc = result["summary"]["accounting"]
    print(f"  traced run_s {layers['trace.run_s'][0]:.4f} s | untraced run_s "
          f"{layers['trace.untraced_run_s'][0]:.4f} s (n={result['untraced_n']}) | "
          f"tracing overhead {layers['trace.overhead_pct'][0]:+.1f}%")
    self_sum = sum(layers[f"{layer}.self_s"][0] for layer in spans.LAYERS)
    print(f"  self-check: layer self times {self_sum:.4f} s + cli.other_s "
          f"{layers['cli.other_s'][0]:.4f} s = {self_sum + layers['cli.other_s'][0]:.4f} s "
          f"vs traced run_s {layers['trace.run_s'][0]:.4f} s; spans={result['summary']['spans']} "
          f"min self {acc['min_self_s']:.3g} s; {'ok' if acc['ok'] else 'FAILED'}")
    for name, (value, unit) in layers.items():
        if name.startswith("kernel."):
            continue
        shown = "-" if value is None else f"{value:.6g}"
        print(f"  {name:<34} {shown} {unit}")
    print("  kernel sweep: time per step, measured vs ROADMAP baseline")
    for label, base in common.BASELINE_STEP_MS.items():
        got = result["kernels"].get(f"kernel.step.{label}_ms")
        shown = "-" if got is None else f"{got:.3f}"
        print(f"    {label:<8} {shown:>8} ms   baseline {base} ms")


def pin_to_one_cpu():
    """Run this process and every child on one CPU.  The vCPUs of a shared
    host can differ in speed at a given moment, and where the scheduler
    puts a child can follow the order of the invocations; on one CPU both
    sides of a round see the same machine."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    return min(cpus)


def main(argv=None):
    args = parse_args(argv)
    started = time.perf_counter()
    preflight()
    cpu = pin_to_one_cpu()
    bench = common.load_benchmark()
    runner = Runner(args.workload, args.seed, started)
    runner.work.mkdir(parents=True, exist_ok=True)
    deadline = started + args.seconds

    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds}
    if args.trace:
        result = traced(runner, deadline)
        runner.run_checks()
        if result is None:
            print(f"perfbench: traced run failed: {runner.problems}", file=sys.stderr)
            raise SystemExit(1)
        layers = result["layers"]
        missing = [e["name"] for e in bench["per_layer"] if layers.get(e["name"], (None,))[0] is None]
        if missing:
            print(f"perfbench: per-layer metrics not measured: {missing} {runner.problems}",
                  file=sys.stderr)
            raise SystemExit(1)
        metrics = {e["name"]: {"value": layers[e["name"]][0], "unit": e["unit"]} for e in bench["per_layer"]}
        record["trace_report"] = {
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["layers"].items()},
            "functions": result["summary"]["functions"],
            "accounting": result["summary"]["accounting"],
        }
        correct_extra = result["summary"]["accounting"]["ok"]
    else:
        runner.warm_up()
        rounds = runner.timed_loop(deadline)
        if not any(len(r) == 2 for r in rounds):
            print(f"perfbench: no round completed: {runner.problems}", file=sys.stderr)
            raise SystemExit(1)
        e2e = end_to_end(runner, rounds)
        runner.run_checks()
        record["end_to_end"] = e2e
        metrics = {
            entry["name"]: {"value": e2e[entry["name"]]["value"], "unit": entry["unit"]}
            for entry in bench["end_to_end"]
        }
        correct_extra = runner.baseline_failed == 0

    record["meta"] = machine_info(runner.versions or {}, args.seed)
    record.update(
        attempted=runner.attempted, failed=runner.failed, problems=runner.problems, metrics=metrics
    )
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: closed loop, "
          f"1 client, BLAS threads {common.BLAS_THREADS}, nproc {os.cpu_count()}, "
          f"pinned to CPU {cpu}")
    if not args.trace:
        print("  timings at reference speed = median over rounds of src / baseline * "
              "reference time "
              f"{common.reference_s(args.workload)}")
    if args.trace:
        print_trace(result)
    else:
        print_e2e(record["end_to_end"], bench)
    print(f"  operations: {runner.attempted} attempted, {runner.failed} failed")
    for problem in runner.problems:
        print(f"  problem: {problem}")
    print(f"  result file: {path.relative_to(ROOT)}")
    correct = runner.failed == 0 and correct_extra
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
