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
from bck_sim.errors import DegeneracyError
from bck_sim.linear import mode_eigenvalues_from_coefficients
from bck_sim.model import PhysicalParams, derive_params, time_grid
from bck_sim.spectral import DomainSpec, SpectralField, sq_norm

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
    assert _hash(tmp_path) == record["config_sha256"]


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


DEGENERATE_START = (
    "bck-sim: code=2 kind=DegeneracyError message=degeneracy guard tripped at t=0: "
    "1 + 2k u_t reaches 2.19125 at grid index 5 (require |2k u_t| < 0.95)\n"
)


def test_degenerate_data_exits_with_code_2(tmp_path, capsys):
    """The march's law call at t = 0 guards the initial velocity."""
    assert _run("simulate", "--config", CONFIGS / "degenerate.conf", "--out", tmp_path) == 2
    assert capsys.readouterr().err == DEGENERATE_START
    record = json.loads((tmp_path / "run_record.json").read_text(encoding="utf-8"))
    assert record["exit_status"] == 2
    assert record["artifacts"] == []


def test_degenerate_picard_start_exits_with_code_2_and_writes_its_report(tmp_path, capsys):
    """The iteration's start guard trips before any sweep, and the report
    says so, as for every other guard trip of the iteration."""
    assert _run("picard", "--config", CONFIGS / "degenerate.conf", "--out", tmp_path) == 2
    assert capsys.readouterr().err == DEGENERATE_START
    report = dict(
        line.split(": ", 1)
        for line in (tmp_path / "picard_report.txt").read_text(encoding="utf-8").splitlines()
    )
    assert report["converged"] == "false"
    assert report["iterations"] == "0"
    assert report["ratios"] == report["increments"] == ""
    record = json.loads((tmp_path / "run_record.json").read_text(encoding="utf-8"))
    assert record["exit_status"] == 2
    assert record["artifacts"] == ["picard_report.txt"]


def test_diverging_picard_exits_with_code_4_and_writes_its_report(tmp_path, capsys):
    """With k = 0 and amplitude 30 the increments grow by 7x and more per
    sweep; the configured blow-up bound stops the iteration while every
    value is finite (so no overflow warning is raised), and the report
    holds the sweeps measured before it."""
    conf = CONFIGS / "picard-small.conf"
    overrides = ("params.k=0.0", "initial.amplitude=30", "time.dt=1e-2")
    argv = ["picard", "--config", conf, "--out", tmp_path]
    for item in overrides:
        argv += ["--set", item]
    assert _run(*argv) == 4
    err = capsys.readouterr().err
    assert err.count("bck-sim: code=4 kind=BlowUpError") == 1
    assert "Traceback" not in err
    report = dict(
        line.split(": ", 1)
        for line in (tmp_path / "picard_report.txt").read_text(encoding="utf-8").splitlines()
    )
    assert report["converged"] == "false"
    increments = [float(x) for x in report["increments"].split()]
    assert int(report["iterations"]) == len(increments) >= 2
    assert all(math.isfinite(x) for x in increments)
    assert len(report["ratios"].split()) == len(increments) - 1
    record = json.loads((tmp_path / "run_record.json").read_text(encoding="utf-8"))
    assert record["exit_status"] == 4
    assert record["artifacts"] == ["picard_report.txt"]


def test_non_converging_picard_exits_with_code_4_and_writes_its_report(tmp_path, capsys):
    """Two sweeps do not reach picard_tol: the report holds the first two
    increments and the first ratio of the converging golden run."""
    conf = CONFIGS / "picard-small.conf"
    argv = ("picard", "--config", conf, "--set", "tolerances.picard_max_iter=2", "--out", tmp_path)
    assert _run(*argv) == 4
    assert capsys.readouterr().err.count("bck-sim: code=4 kind=NonConvergenceError") == 1

    def report(path):
        return dict(line.split(": ", 1) for line in path.read_text(encoding="utf-8").splitlines())

    got = report(tmp_path / "picard_report.txt")
    golden = report(GOLDEN / "picard-small" / "picard_report.txt")
    assert got["converged"] == "false"
    assert got["iterations"] == "2"
    for key, count in (("increments", 2), ("ratios", 1)):
        want = [float(x) for x in golden[key].split()[:count]]
        assert [float(x) for x in got[key].split()] == pytest.approx(want, rel=RTOL, abs=ATOL)
    record = json.loads((tmp_path / "run_record.json").read_text(encoding="utf-8"))
    assert record["exit_status"] == 4
    assert record["artifacts"] == ["picard_report.txt"]


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


# census configs that no shipped file holds: nonlinear-small with one fault
_SMALL = (CONFIGS / "nonlinear-small.conf").read_text(encoding="utf-8")
_DIRECT = "a = 1.0\nb = 1.0\nc = 1.0\nk = 0.2\n"
_MATERIAL = "nu = 1e-5\nprandtl = 0.7\nviscosity_number = 1.4\nc0 = 343.0\n"
_BROKEN = {
    "unknown-section": _SMALL + "\n[bogus]\nx = 1\n",
    "no-time": _SMALL.replace("[time]\nt_final = 1.0\ndt = 1e-3\n", ""),
    "no-dt": _SMALL.replace("dt = 1e-3\n", ""),
    "direct-without-k": _SMALL.replace("k = 0.2\n", ""),
    "material-without-c0": _SMALL.replace(_DIRECT, _MATERIAL.replace("c0", "gamma")),
    "material-without-gamma": _SMALL.replace(_DIRECT, _MATERIAL),
    "no-params": _SMALL.replace(_DIRECT, ""),
    "malformed": "t_final = 1.0\n" + _SMALL,
}


def _census_config(conf, tmp_path):
    """The path and command of a census config: a shipped one, the sim-2d
    benchmark one, a ``_BROKEN`` text, or else a file that does not exist."""
    if conf == "sim-2d":
        return ROOT / "perfbench" / "configs" / "sim-2d.conf", "simulate"
    golden = GOLDEN / conf / "run_record.json"
    if golden.exists():
        return CONFIGS / f"{conf}.conf", json.loads(golden.read_text(encoding="utf-8"))["command"]
    path = tmp_path / f"{conf}.conf"
    if conf in _BROKEN:
        path.write_text(_BROKEN[conf], encoding="utf-8")
    return path, "simulate"


# each case: a config of ``_census_config``, one --set override or a tuple
# of arguments, and the start of the message it must print
@pytest.mark.parametrize(
    "conf, override, message",
    [
        ("decay-study", "sweep.amplitudes=", "[sweep] amplitudes must not be empty"),
        ("convergence", "convergence.modes_list=", "[convergence] modes_list must not be empty"),
        ("convergence", "convergence.modes_list=0 16", "[convergence] modes_list entries must be >= 1"),
        ("convergence", "convergence.reference_modes=0", "[convergence] reference_modes must be >= 1"),
        ("convergence", "convergence.profile_ratio=1",
         "[convergence] profile_ratio must be in (0, 1)"),
        ("convergence", "convergence.reference_modes=32",
         "[convergence] reference_modes must exceed modes_list"),
        ("convergence", "convergence.dt_values=0.02 0.01 0.004",
         "[convergence] dt_values must be a halving triplet"),
        ("convergence", "convergence.dt_values=0.3 0.15 0.075", "[convergence] dt_values: T = "),
        ("nonlinear-small", "convergence.profile_ratio=2",
         "[convergence] profile_ratio must be in (0, 1)"),
        ("nonlinear-small", "domain.quadrature_points=-5", "[domain] quadrature_points must be >= 0"),
        ("decay-study", "sweep.b_values=-1", "[sweep] b_values entries must be positive and finite"),
        ("decay-study", "sweep.b_values=1 inf", "[sweep] b_values entries must be positive and finite"),
        ("decay-study", "sweep.amplitudes=nan", "[sweep] amplitudes must be finite"),
        ("convergence", "convergence.amplitude=nan", "[convergence] amplitude must be finite"),
        ("nonlinear-small", "initial.amplitude=inf", "[initial] amplitude must be finite"),
        ("nonlinear-small", "initial.u1_amplitude=nan", "[initial] u1_amplitude must be finite"),
        ("nonlinear-small", "time.t_final=inf", "[time] T, dt and T/dt must be finite"),
        ("zero-amplitude", "tolerances.c_hat=-1", "[tolerances] c_hat must be finite and >= 0"),
        ("zero-amplitude", "tolerances.c_hat=nan", "[tolerances] c_hat must be finite and >= 0"),
        ("decay-study", "initial.mode=99", "mode (99,) outside 1..8"),
        ("nonlinear-small", "time.substeps=0", "[time] substeps must be >= 1"),
        ("picard-small", "tolerances.picard_max_iter=0",
         "[tolerances] picard_max_iter must be >= 1"),
        ("nonlinear-small", "output.stride=0", "[output] stride must be >= 1"),
        ("picard-small", "tolerances.picard_tol=0", "[tolerances] picard_tol must be positive"),
        ("nonlinear-small", "tolerances.blowup_bound=-1",
         "[tolerances] blowup_bound must be positive"),
        ("nonlinear-small", "tolerances.eta=nan", "[tolerances] eta must be positive"),
        ("nonlinear-small", "tolerances.eps_deg=nan", "[tolerances] eps_deg must lie in (0, 1)"),
        ("nonlinear-small", "run.seed=-1", "[run] seed must be nonnegative"),
        ("nonlinear-small", ("--seed", "-1"), "[run] seed must be nonnegative"),
        ("nonlinear-small", "initial.preset=bogus",
         "unknown initial preset 'bogus'; choose from "
         "('zero', 'single-mode', 'multi-mode', 'random-seeded')"),
        ("nonlinear-small", "initial.preset=multi-mode", "multi-mode preset needs [initial] modes"),
        ("nonlinear-small",
         ("--set", "initial.preset=multi-mode", "--set", "initial.modes=1 2",
          "--set", "initial.amplitudes=1e-3"),
         "[initial] amplitudes must match modes in length"),
        ("sim-2d", "initial.preset=multi-mode", "multi-mode preset supports 1d domains only"),
        ("nonlinear-small", "initial.mode=1 2 3", "mode (1, 2, 3) does not fit a 1d domain"),
        ("nonlinear-small", "params.nu=1e-5",
         "[params] mixes direct coefficients with material data"),
        ("direct-without-k", (), "[params] direct form needs keys ['k']"),
        ("material-without-c0", (), "[params] material form needs keys ['c0']"),
        ("material-without-gamma", (), "provide exactly one of gamma / b_over_a"),
        ("no-params", (), "[params] provides neither direct coefficients nor material data"),
        ("unknown-section", (), "unknown section [bogus]"),
        ("no-time", (), "missing required section [time]"),
        ("no-dt", (), "missing required key 'dt' in [time]"),
        ("nonlinear-small", "time.dt=abc", "[time] dt: cannot parse 'abc' as float"),
        ("malformed", (), "malformed config "),
        ("missing", (), "cannot read config "),
        ("nonlinear-small", "initial", "--set needs section.key=value, got 'initial'"),
        ("nonlinear-small", "mode=1", "--set key must be section.key, got 'mode'"),
        ("nonlinear-small", "initial.shape=1", "--set targets unknown key [initial] shape"),
        ("nonlinear-small", "time.dt=2", "[time] needs 0 < dt <= t_final"),
        ("nonlinear-small", "domain.dimension=3", "dimension must be 1 or 2, got 3"),
        ("nonlinear-small", "domain.lengths=1 2", "lengths must provide one extent per axis"),
        ("nonlinear-small", "domain.modes=0", "modes_per_axis must be >= 1"),
        ("nonlinear-small", "domain.quadrature_points=5",
         "quadrature_points_per_axis must be >= ceil(3N/2) = 12, got 5"),
        ("nonlinear-small", "params.a=-1", "a must be positive and finite, got -1.0"),
        ("nonlinear-small", "params.s=2", "s must be 0 or 1, got 2"),
        # a mode is checked whatever its amplitude
        ("zero-amplitude", "initial.mode=99", "mode (99,) outside 1..8"),
        ("zero-amplitude", "initial.u1_mode=1 2 3", "mode (1, 2, 3) does not fit a 1d domain"),
    ],
    ids=["empty-amplitudes", "empty-modes-list", "modes-list-below-1", "reference-modes-below-1",
         "profile-ratio-not-below-1", "reference-modes-not-above-modes-list",
         "dt-values-not-halving", "dt-values-not-dividing", "simulate-profile-ratio-above-1",
         "negative-quadrature", "negative-b-value", "infinite-b-value", "nan-sweep-amplitude",
         "nan-convergence-amplitude", "infinite-initial-amplitude", "nan-u1-amplitude",
         "infinite-run-length", "negative-c-hat", "nan-c-hat", "initial-mode-out-of-range",
         "zero-substeps", "zero-picard-max-iter", "zero-stride", "zero-picard-tol",
         "negative-blowup-bound", "nan-eta", "nan-eps-deg", "negative-seed-set",
         "negative-seed-flag", "unknown-preset", "multi-mode-without-modes",
         "multi-mode-amplitudes-mismatch", "multi-mode-in-2d", "mode-does-not-fit-dimension",
         "mixed-params", "direct-params-incomplete", "material-params-incomplete",
         "material-params-without-gamma", "neither-params-form", "unknown-section",
         "missing-section", "missing-key", "unparsable-value", "malformed-file",
         "unreadable-file", "set-without-value", "set-without-section", "set-unknown-key",
         "dt-above-run-length", "dimension-3", "lengths-per-axis", "zero-modes",
         "quadrature-below-capacity", "negative-a", "s-not-0-or-1",
         "zero-amplitude-mode-out-of-range", "zero-amplitude-u1-mode-does-not-fit"],
)
def test_out_of_range_counts_and_lists_exit_with_code_3(
    tmp_path, monkeypatch, capsys, conf, override, message
):
    """Every value is checked before any solve, also one the command does
    not read (a [convergence] value of simulate)."""
    calls = _spy_solve(monkeypatch)
    path, command = _census_config(conf, tmp_path)
    args = ("--set", override) if isinstance(override, str) else override
    out = tmp_path / "out"
    assert _run(command, "--config", path, *args, "--out", out) == 3
    assert f"kind=ConfigError message={message}" in capsys.readouterr().err
    assert calls == []
    assert sorted(p.name for p in out.iterdir()) == ["run_record.json"]
    assert json.loads((out / "run_record.json").read_text(encoding="utf-8"))["exit_status"] == 3


def test_zero_quadrature_points_mean_the_default():
    conf = CONFIGS / "nonlinear-small.conf"
    default = load_config(conf)
    config = load_config(conf, overrides=["domain.quadrature_points=0"])
    assert config.domain == default.domain
    assert config.config_sha256 == default.config_sha256


def test_values_that_change_no_result_keep_the_hash():
    """An explicit default quadrature size, and the [initial] keys that
    the preset does not read, hash as their defaults; the keys it reads
    still move the hash."""
    conf = CONFIGS / "nonlinear-small.conf"
    base = load_config(conf).config_sha256
    for override in ("domain.quadrature_points=12", "initial.modes=3 4", "initial.amplitudes=1 2"):
        assert load_config(conf, [override]).config_sha256 == base, override
    assert load_config(conf, ["domain.quadrature_points=13"]).config_sha256 != base
    assert load_config(conf, ["initial.amplitude=2e-3"]).config_sha256 != base
    multi = ["initial.preset=multi-mode", "initial.modes=1 3"]
    other = ["initial.preset=multi-mode", "initial.modes=1 4"]
    assert load_config(conf, multi).config_sha256 != load_config(conf, other).config_sha256
    zero = CONFIGS / "zero-amplitude.conf"
    base = load_config(zero).config_sha256
    for override in ("initial.amplitude=5", "initial.modes=3 4", "initial.amplitudes=1 2"):
        assert load_config(zero, [override]).config_sha256 == base, override
    assert load_config(zero, ["initial.u1_amplitude=5"]).config_sha256 != base
    sim_2d = ROOT / "perfbench" / "configs" / "sim-2d.conf"
    base = load_config(sim_2d).config_sha256
    assert load_config(sim_2d, ["initial.modes=3 4"]).config_sha256 == base
    assert load_config(sim_2d, ["initial.amplitude=2e-2"]).config_sha256 != base


@pytest.mark.parametrize(
    "conf, overrides",
    [
        (CONFIGS / "convergence.conf", ()),
        (ROOT / "perfbench" / "configs" / "sim-2d.conf", ("domain.modes=6",)),
    ],
    ids=["1d", "2d"],
)
def test_spatial_errors_are_the_reference_modes_outside_each_resolution(
    tmp_path, monkeypatch, conf, overrides
):
    """The spatial study runs on the configured box.  Its k = s = 0 march
    is exact per mode, so the error at N modes per axis is the norm of the
    reference's modes outside [1..N]^d."""
    runs = []
    real = cli.solve

    def spy(initial, *args, **kwargs):
        traj = real(initial, *args, **kwargs)
        runs.append((initial.u, traj.u[-1]))
        return traj

    monkeypatch.setattr(cli, "solve", spy)
    argv = [a for item in overrides for a in ("--set", item)]
    assert _run("convergence", "--config", conf, *argv, "--out", tmp_path) == 0
    config = load_config(conf, overrides)
    dim, n_ref = config.domain.dimension, config.conv_reference
    u0, reference = runs[0]
    assert u0.domain == DomainSpec(dim, config.domain.lengths, n_ref)
    exponents = sum(np.ix_(*[np.arange(1, n_ref + 1)] * dim))
    want = config.conv_amplitude * config.conv_ratio**exponents
    np.testing.assert_allclose(u0.coeffs, want, rtol=1e-15, atol=0.0)
    rows = list(csv.reader((tmp_path / "spatial_errors.csv").read_text(encoding="utf-8").splitlines()))
    assert [int(n) for n, _ in rows[1:]] == list(config.conv_modes)
    for n, error in rows[1:]:
        outside = reference.copy()
        outside[(slice(int(n)),) * dim] = 0.0
        assert float(error) == pytest.approx(math.sqrt(sq_norm(u0.domain, outside)), rel=1e-9)


@pytest.mark.parametrize(
    "extra, material",
    [
        ("gamma = 1.4\n", {"gamma": 1.4}),
        ("b_over_a = 5.0\n", {"b_over_a": 5.0}),
    ],
    ids=["gas", "liquid"],
)
def test_material_params_are_the_derived_coefficients(tmp_path, extra, material):
    conf = tmp_path / "material.conf"
    conf.write_text(_SMALL.replace(_DIRECT, _MATERIAL + extra), encoding="utf-8")
    phys = PhysicalParams(nu=1e-5, prandtl=0.7, viscosity_number=1.4, c0=343.0, **material)
    assert load_config(conf).params == derive_params(phys, s=1)


@pytest.mark.parametrize(
    "amplitudes, want", [("", (1e-3, 1e-3)), ("amplitudes = 2e-3 -5e-4\n", (2e-3, -5e-4))],
    ids=["default-amplitudes", "own-amplitudes"],
)
def test_multi_mode_data_are_the_sum_of_single_modes(tmp_path, amplitudes, want):
    conf = tmp_path / "multi.conf"
    preset = "preset = multi-mode\nmodes = 1 3\n" + amplitudes
    conf.write_text(_SMALL.replace("preset = single-mode\nmode = 1\n", preset), encoding="utf-8")
    config = load_config(conf)
    first, third = (SpectralField.single_mode(config.domain, m, a) for m, a in zip((1, 3), want))
    assert np.array_equal(config.initial.u.coeffs, (first + third).coeffs)


def test_out_and_seed_flags_beat_set_overrides(tmp_path):
    conf = CONFIGS / "zero-amplitude.conf"
    argv = ["simulate", "--config", conf, "--set", f"output.directory={tmp_path / 'set'}",
            "--set", "run.seed=5", "--out", tmp_path / "flag", "--seed", 7]
    assert _run(*argv) == 0
    assert not (tmp_path / "set").exists()
    assert "seed: 7\n" in (tmp_path / "flag" / "summary.txt").read_text(encoding="utf-8")
    assert _hash(tmp_path / "flag") == load_config(conf, ["run.seed=7"]).config_sha256


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


def test_failed_decay_study_lists_the_artifact_it_wrote(tmp_path, monkeypatch, capsys):
    """A guard trip in the s-sweep (the 4th march) ends the run with code
    2; the amplitude table written before it is listed and complete."""
    conf = CONFIGS / "decay-study.conf"
    overrides = ("--set", "time.t_final=0.5", "--set", "sweep.b_values=")
    assert _run("decay-study", "--config", conf, *overrides, "--out", tmp_path / "full") == 0
    calls = []
    real = cli.solve

    def failing(*args, **kwargs):
        calls.append(args)
        if len(calls) == 4:
            raise DegeneracyError("guard tripped in the s-sweep")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "solve", failing)
    assert _run("decay-study", "--config", conf, *overrides, "--out", tmp_path / "cut") == 2
    assert "code=2 kind=DegeneracyError message=guard tripped in the s-sweep" in capsys.readouterr().err
    record = json.loads((tmp_path / "cut" / "run_record.json").read_text(encoding="utf-8"))
    assert record["exit_status"] == 2
    assert record["artifacts"] == ["decay_study.csv"]
    assert sorted(p.name for p in (tmp_path / "cut").iterdir()) == ["decay_study.csv", "run_record.json"]
    name = "decay_study.csv"
    assert (tmp_path / "cut" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()


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


def test_cli_imports_and_runs_without_scipy(tmp_path):
    """scipy is a test dependency only: importing the CLI loads no scipy
    module, and with scipy unimportable both solvers' commands still run."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    listed = (
        "import sys, bck_sim.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", listed], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
    blocked = (
        "import sys; sys.modules['scipy'] = None; import bck_sim.cli as cli; "
        f"codes = [cli.main(['simulate', '--config', {str(CONFIGS / 'nonlinear-small.conf')!r}, "
        f"'--out', {str(tmp_path / 'sim')!r}]), "
        f"cli.main(['picard', '--config', {str(CONFIGS / 'picard-small.conf')!r}, "
        f"'--out', {str(tmp_path / 'picard')!r}])]; "
        "print(codes)"
    )
    out = subprocess.run(
        [sys.executable, "-c", blocked], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip().splitlines()[-1] == "[0, 0]"


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

