"""Front-end tests: exit codes, overrides, output directories and the
committed ``out/`` artifacts as golden results."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bck_sim.cli as cli
from bck_sim.config import load_config
from bck_sim.linear import mode_eigenvalues_from_coefficients
from bck_sim.model import time_grid

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
GOLDEN = ROOT / "out"

# The committed artifacts regenerate with last-digit differences, so they
# are compared with a tolerance: |a - b| <= RTOL * max(|a|, |b|) + ATOL.
RTOL = 1e-9
ATOL = 1e-15
# both change with the output directory or the run itself
SKIP_KEYS = {"config_sha256", "wall_time_seconds"}


def _run(*argv):
    return cli.main([str(a) for a in argv])


def _number(token):
    try:
        return float(token)
    except ValueError:
        return None


def _same_token(a, b):
    x, y = _number(a), _number(b)
    if x is None or y is None:
        return a == b
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    if math.isinf(x) or math.isinf(y):
        return x == y
    return abs(x - y) <= RTOL * max(abs(x), abs(y)) + ATOL


def _records(path):
    """Comparable records of one artifact: (key, list of tokens) pairs."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        data = json.loads(text)
        return [(k, [json.dumps(v)]) for k, v in sorted(data.items()) if k not in SKIP_KEYS]
    if path.suffix == ".csv":
        rows = list(csv.reader(text.splitlines()))
        return [(f"row {i}", row) for i, row in enumerate(rows)]
    pairs = [line.partition(": ") for line in text.splitlines()]
    return [(k, v.split()) for k, _, v in pairs if k not in SKIP_KEYS]


def _relative_move(a, b):
    """|x - y| / max(|x|, |y|) of two tokens; 0 when they are equal, inf
    when they differ and are not both finite numbers."""
    if a == b:
        return 0.0
    x, y = _number(a), _number(b)
    if x is None or y is None or not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def _moves(got_dir, want_dir):
    """Structural problems, and per artifact and column the largest
    relative move over all its tokens: {(artifact, column): (move, where,
    got, want, within tolerance)}.  A CSV column is named by its header, a
    text or JSON entry by its key (with the token index when it holds
    several)."""
    got_files = sorted(p.name for p in got_dir.iterdir())
    want_files = sorted(p.name for p in want_dir.iterdir())
    if got_files != want_files:
        return [f"artifacts {got_files} != {want_files}"], {}
    problems, moves = [], {}
    for name in want_files:
        got, want = _records(got_dir / name), _records(want_dir / name)
        if [k for k, _ in got] != [k for k, _ in want]:
            problems.append(f"{name}: keys differ")
            continue
        header = want[0][1] if name.endswith(".csv") else None
        for (key, g), (_, w) in zip(got, want):
            if len(g) != len(w):
                problems.append(f"{name} {key}: {g} != {w}")
                continue
            for i, (a, b) in enumerate(zip(g, w)):
                column = header[i] if header else key if len(w) == 1 else f"{key}[{i}]"
                move, best = _relative_move(a, b), moves.get((name, column))
                within = _same_token(a, b) and (best is None or best[4])
                if best is None or move > best[0]:
                    best = (move, key, a, b)
                moves[(name, column)] = best[:4] + (within,)
    return problems, moves


def _differences(got_dir, want_dir):
    """Structural problems, then each artifact column holding a token
    outside the tolerance, with its largest relative move."""
    problems, moves = _moves(got_dir, want_dir)
    for (name, column), (move, key, a, b, within) in moves.items():
        if not within:
            problems.append(
                f"{name} {column}: largest relative move {move:.2g} ({key}: {a} != {b})"
            )
    return problems


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.conf")))
def test_config_reproduces_golden_artifacts(name, tmp_path):
    golden = GOLDEN / name
    record = json.loads((golden / "run_record.json").read_text(encoding="utf-8"))
    code = _run(record["command"], "--config", CONFIGS / f"{name}.conf", "--out", tmp_path)
    assert code == record["exit_status"]
    assert _differences(tmp_path, golden) == []


def test_differences_name_the_largest_move_per_column(tmp_path):
    """Only a column with a token outside the tolerance is reported, once,
    with its largest relative move."""
    golden = GOLDEN / "nonlinear-small"
    for path in golden.iterdir():
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    rows = list(csv.reader((golden / "trajectory.csv").read_text(encoding="utf-8").splitlines()))
    col = rows[0].index("E1")
    for r, scale in ((3, 1.0 + 1e-7), (5, 1.0 + 3e-6), (7, 1.0 + 1e-12)):
        rows[r][col] = repr(float(rows[r][col]) * scale)
    with open(tmp_path / "trajectory.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    (problem,) = _differences(tmp_path, golden)
    assert problem.startswith("trajectory.csv E1: largest relative move 3e-06 (row 5: ")


def test_linear_analyze_rows_are_the_array_spectrum(tmp_path):
    conf = CONFIGS / "linear-lowest-mode.conf"
    assert _run("linear-analyze", "--config", conf, "--out", tmp_path) == 0
    config = load_config(conf)
    params = config.params
    rows = list(csv.reader((tmp_path / "modes.csv").read_text(encoding="utf-8").splitlines()))
    assert rows[0] == ["index", "lambda", "re_mu1", "im_mu1", "re_mu2", "im_mu2", "re_mu3", "im_mu3"]
    values = np.array([[float(x) for x in row] for row in rows[1:]])
    lam_sorted = np.sort(config.domain.eigenvalue_grid.ravel())
    np.testing.assert_array_equal(values[:, 1], lam_sorted[values[:, 0].astype(int) - 1])
    mu = mode_eigenvalues_from_coefficients(values[:, 1], params.a, params.b, params.c)
    np.testing.assert_array_equal(values[:, 2::2], mu.real)
    np.testing.assert_array_equal(values[:, 3::2], mu.imag)
    report = dict(
        line.split(": ", 1)
        for line in (tmp_path / "linear_analysis.txt").read_text(encoding="utf-8").splitlines()
    )
    assert float(report["discrepancy"]) <= 1e-12


def test_degenerate_data_exits_with_code_2(tmp_path, capsys):
    assert _run("simulate", "--config", CONFIGS / "degenerate.conf", "--out", tmp_path) == 2
    assert "code=2 kind=DegeneracyError" in capsys.readouterr().err
    record = json.loads((tmp_path / "run_record.json").read_text(encoding="utf-8"))
    assert record["exit_status"] == 2


def test_unknown_config_key_exits_with_code_3(tmp_path, capsys):
    text = (CONFIGS / "nonlinear-small.conf").read_text(encoding="utf-8")
    bad = tmp_path / "bad.conf"
    bad.write_text(text.replace("[params]", "[params]\nviscosity = 1.0"), encoding="utf-8")
    assert _run("simulate", "--config", bad, "--out", tmp_path / "a") == 3
    assert "unknown key 'viscosity'" in capsys.readouterr().err
    conf = CONFIGS / "nonlinear-small.conf"
    assert _run("simulate", "--config", conf, "--set", "params.kappa=1", "--out", tmp_path / "b") == 3


def test_time_step_must_divide_the_run_length(tmp_path, capsys):
    """t_final = 1 with dt = 0.3 would end its samples at t = 0.9."""
    conf = CONFIGS / "nonlinear-small.conf"
    overrides = ("--set", "time.t_final=1.0", "--set", "time.dt=0.3")
    assert _run("simulate", "--config", conf, *overrides, "--out", tmp_path / "a") == 3
    assert "code=3 kind=ConfigError message=[time] T = 1 is not a whole number" in capsys.readouterr().err
    assert not (tmp_path / "a" / "trajectory.csv").exists()
    conv = CONFIGS / "convergence.conf"
    bad = ("--set", "convergence.dt_values=0.3 0.15 0.075", "--out", tmp_path / "b")
    assert _run("convergence", "--config", conv, *bad) == 3
    assert "[convergence] dt_values: T = " in capsys.readouterr().err


@pytest.mark.parametrize("eps_deg", ["1.0", "2.0", "0.0"])
def test_eps_deg_must_lie_in_the_unit_interval(tmp_path, capsys, eps_deg):
    """eps_deg >= 1 asks for |2k u_t| < 1 - eps_deg <= 0, which every run
    with k > 0 fails at t = 0."""
    conf = CONFIGS / "nonlinear-small.conf"
    override = ("--set", f"tolerances.eps_deg={eps_deg}", "--out", tmp_path)
    assert _run("simulate", "--config", conf, *override) == 3
    assert "[tolerances] eps_deg must lie in (0, 1)" in capsys.readouterr().err
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize(
    "conf, override, message",
    [
        ("decay-study", "sweep.amplitudes=", "[sweep] amplitudes must not be empty"),
        ("convergence", "convergence.modes_list=", "[convergence] modes_list must not be empty"),
        ("convergence", "convergence.modes_list=0 16", "[convergence] modes_list entries must be >= 1"),
        ("convergence", "convergence.reference_modes=0", "[convergence] reference_modes must be >= 1"),
        ("nonlinear-small", "domain.quadrature_points=-5", "[domain] quadrature_points must be >= 0"),
    ],
    ids=["empty-amplitudes", "empty-modes-list", "modes-list-below-1", "reference-modes-below-1",
         "negative-quadrature"],
)
def test_out_of_range_counts_and_lists_exit_with_code_3(tmp_path, capsys, conf, override, message):
    command = json.loads((GOLDEN / conf / "run_record.json").read_text(encoding="utf-8"))["command"]
    assert _run(command, "--config", CONFIGS / f"{conf}.conf", "--set", override, "--out", tmp_path) == 3
    assert f"kind=ConfigError message={message}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run_record.json"]
    assert json.loads((tmp_path / "run_record.json").read_text(encoding="utf-8"))["exit_status"] == 3


def test_zero_quadrature_points_mean_the_default():
    conf = CONFIGS / "nonlinear-small.conf"
    default = load_config(conf)
    config = load_config(conf, overrides=["domain.quadrature_points=0"])
    assert config.domain == default.domain
    assert config.config_sha256 == default.config_sha256


@pytest.mark.parametrize(
    "conf", sorted(CONFIGS.glob("*.conf")) + [ROOT / "perfbench" / "configs" / "sim-2d.conf"],
    ids=lambda p: p.stem,
)
def test_every_shipped_config_loads(conf):
    config = load_config(conf)
    assert time_grid(config.t_final, config.dt)[-1] == pytest.approx(config.t_final, rel=1e-12)


def _spy_solve(monkeypatch):
    calls = []
    real = cli.solve

    def spy(initial, params, T, dt, **kwargs):
        calls.append((params, kwargs))
        return real(initial, params, T, dt, **kwargs)

    monkeypatch.setattr(cli, "solve", spy)
    return calls


def test_set_override_reaches_the_solver(tmp_path, monkeypatch):
    calls = _spy_solve(monkeypatch)
    conf = CONFIGS / "nonlinear-small.conf"
    code = _run(
        "simulate", "--config", conf, "--set", "params.k=0.35", "--set", "time.t_final=0.05",
        "--out", tmp_path,
    )
    assert code == 0
    assert [params.k for params, _ in calls] == [0.35]
    assert "n_samples: 51\n" in (tmp_path / "summary.txt").read_text(encoding="utf-8")


def test_decay_study_passes_solver_options_to_every_march(tmp_path, monkeypatch):
    calls = _spy_solve(monkeypatch)
    conf = CONFIGS / "decay-study.conf"
    overrides = ("time.substeps=3", "tolerances.eps_deg=0.2", "time.t_final=0.5",
                 "sweep.b_values=")
    argv = ["decay-study", "--config", conf, "--out", tmp_path]
    for item in overrides:
        argv += ["--set", item]
    assert _run(*argv) == 0
    # three amplitudes, then only the s = 0 run: s = 1 at the base
    # amplitude is the first amplitude's march
    assert [params.s for params, _ in calls] == [1, 1, 1, 0]
    for _, kwargs in calls:
        assert kwargs == {"substep_iters": 3, "eps_deg": 0.2, "blowup_bound": 1e12}
    report = (tmp_path / "decay_report.txt").read_text(encoding="utf-8")
    rows = list(csv.reader((tmp_path / "decay_study.csv").read_text(encoding="utf-8").splitlines()))
    assert f"s1_omega: {rows[1][1]}\n" in report


def test_sim_2d_reproduces_the_benchmark_reference(tmp_path):
    """The 2D march at N = 48, seed 1, against the committed benchmark
    reference, which holds only the summary of that seed."""
    reference = ROOT / "perfbench" / "reference" / "sim-2d" / "seed1"
    conf = ROOT / "perfbench" / "configs" / "sim-2d.conf"
    assert _run("simulate", "--config", conf, "--seed", 1, "--out", tmp_path / "run") == 0
    got = tmp_path / "got"
    got.mkdir()
    for path in reference.iterdir():
        (tmp_path / "run" / path.name).rename(got / path.name)
    assert _differences(got, reference) == []


def test_output_directory_changes_no_artifact_number(tmp_path):
    conf = CONFIGS / "nonlinear-small.conf"
    for sub in ("first", "second/nested"):
        argv = ["simulate", "--config", conf, "--set", "time.t_final=0.1", "--out", tmp_path / sub]
        assert _run(*argv) == 0
    first, second = tmp_path / "first", tmp_path / "second" / "nested"
    for name in ("summary.txt", "trajectory.csv", "run_record.json"):
        a, b = _records(first / name), _records(second / name)
        assert a == b, name


def _hash(path):
    return json.loads((path / "run_record.json").read_text(encoding="utf-8"))["config_sha256"]


def test_config_hash_ignores_output_directory_and_label(tmp_path):
    conf = CONFIGS / "zero-amplitude.conf"
    runs = {
        "a": ("--out", tmp_path / "a"),
        "b": ("--set", "run.label=renamed", "--out", tmp_path / "b" / "nested"),
        "k": ("--set", "params.k=0.1", "--out", tmp_path / "k"),
    }
    for extra in runs.values():
        assert _run("simulate", "--config", conf, *extra) == 0
    a, b, k = (_hash(runs[name][-1]) for name in "abk")
    assert a == b
    # a physics value still changes the hash
    assert k != a


def test_cli_import_leaves_scipy_fft_out():
    code = (
        "import sys, bck_sim.cli; "
        "print(sorted(m for m in ('scipy.fft', 'scipy.special') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_csv_columns_format_like_single_values(tmp_path):
    # a formatter chosen per column writes the bytes of formatting each
    # value alone, also in a column of mixed types (the last one)
    rows = [
        (1, 0.1, np.float64(2.5), "x", True),
        (2, math.nan, np.float64(-0.0), "y", np.True_),
        (3, 1e300, np.float64(1.0) / 3.0, "z", 0.5),
    ]
    path = tmp_path / "t.csv"
    cli._write_csv(path, ("a", "b", "c", "d", "e"), rows)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[1] == "1,0.10000000000000001,2.5,x,true"
    assert lines[1:] == [",".join(cli._fmt(v) for v in row) for row in rows]
    assert lines[2] == "2,nan,-0,y,True"
