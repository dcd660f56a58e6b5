"""Tests of the benchmark's own code: output check, span arithmetic,
attribute patching and the compare verdicts."""

import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import compare  # noqa: E402
import outputs  # noqa: E402
import spans  # noqa: E402


def _perturb_csv(path, row, column, factor):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    cells = lines[row].split(",")
    col = header.index(column)
    cells[col] = repr(float(cells[col]) * factor)
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_compare_dirs_flags_one_perturbed_value(tmp_path):
    ref = ROOT / "out" / "nonlinear-small"
    copy = tmp_path / "copy"
    shutil.copytree(ref, copy)
    assert outputs.compare_dirs(copy, ref) == []

    _perturb_csv(copy / "trajectory.csv", 10, "E1", 1.0 + 1e-12)
    assert outputs.compare_dirs(copy, ref) == []

    _perturb_csv(copy / "trajectory.csv", 10, "E1", 1.0 + 1e-6)
    problems = outputs.compare_dirs(copy, ref)
    assert len(problems) == 1
    assert "row 10 E1" in problems[0]


def test_compare_dirs_skips_hash_and_wall_time(tmp_path):
    ref = ROOT / "out" / "picard-small"
    copy = tmp_path / "copy"
    shutil.copytree(ref, copy)
    report = copy / "picard_report.txt"
    report.write_text(
        report.read_text(encoding="utf-8").replace("config_sha256: 0", "config_sha256: f"),
        encoding="utf-8",
    )
    record = copy / "run_record.json"
    record.write_text(
        record.read_text(encoding="utf-8").replace('"wall_time_seconds": ', '"wall_time_seconds": 9'),
        encoding="utf-8",
    )
    assert outputs.compare_dirs(copy, ref) == []
    (copy / "extra.txt").write_text("x: 1\n", encoding="utf-8")
    assert len(outputs.compare_dirs(copy, ref)) == 1


def test_seeded_reference_flags_one_perturbed_summary_value(tmp_path):
    ref = BENCH / "reference" / "sim-2d" / "seed0"
    copy = tmp_path / "copy"
    shutil.copytree(ref, copy)
    assert outputs.compare_files(copy, ref) == []
    assert outputs.check_properties(copy, 0.05) == []

    summary = copy / "summary.txt"
    pairs = outputs.read_keyvalues(summary)
    energy = pairs["energy_final"]
    text = summary.read_text(encoding="utf-8")
    summary.write_text(
        text.replace(f"energy_final: {energy}", f"energy_final: {float(energy) * (1 + 1e-6)!r}"),
        encoding="utf-8",
    )
    # the property check cannot see a small error; the seed's reference can
    assert outputs.check_properties(copy, 0.05) == []
    problems = outputs.compare_files(copy, ref)
    assert len(problems) == 1 and "energy_final" in problems[0]


def test_self_times_on_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9];
    # a second top-level span r2 covers [11, 12]; the run covers [0, 13]
    names = ["root", "a", "g", "b", "r2"]
    name_id = [0, 1, 2, 3, 4]
    parent = [-1, 0, 1, 0, -1]
    start = [0.0, 1.0, 2.0, 5.0, 11.0]
    end = [10.0, 4.0, 3.0, 9.0, 12.0]
    assert list(spans.self_times(parent, start, end)) == [3.0, 2.0, 1.0, 4.0, 1.0]

    out = spans.reduce_spans(names, name_id, parent, start, end, 0.0, 13.0)
    assert out["top_level_s"] == 11.0
    assert out["other_s"] == 2.0
    assert out["functions"]["root"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    self_sum = sum(f["self_s"] for f in out["functions"].values())
    assert self_sum + out["other_s"] == out["run_s"]
    assert out["accounting"]["ok"]

    # b ending at 13, past its parent, leaves the parent a negative self time
    bad = spans.reduce_spans(names, name_id, parent, start, [10.0, 4.0, 3.0, 13.0, 12.0], 0.0, 13.0)
    assert not bad["accounting"]["ok"]

    mask = [False, True, False, False, False]
    assert list(spans.descends_from(parent, mask)) == [False, False, True, False, False]


def test_instrument_patches_every_lookup_and_restores():
    import bck_sim.cli as cli
    from bck_sim import linear, model, nonlinear, spectral

    originals = {
        (model, "acceleration"): model.acceleration,
        (nonlinear, "acceleration"): nonlinear.acceleration,
        (cli, "load_config"): cli.load_config,
        (model, "product_dealiased"): model.product_dealiased,
        (spectral, "_fft"): spectral._fft,
        (linear.PropagatorTable, "build"): linear.PropagatorTable.__dict__["build"],
    }
    for attr in spans.FIELD_METHODS:
        originals[(spectral.SpectralField, attr)] = spectral.SpectralField.__dict__[attr]
    tracer = spans.Tracer()
    patches = spans.instrument(tracer)
    try:
        assert nonlinear.acceleration is model.acceleration
        assert model.acceleration is not originals[(model, "acceleration")]
        assert cli.load_config is not originals[(cli, "load_config")]
        domain = spectral.DomainSpec(1, (3.0,), 4)
        field = spectral.SpectralField(domain, [1.0, 0.0, 0.5, 0.0])
        model.product_dealiased(field, field)
        assert spectral.SpectralField.__rmul__ is spectral.SpectralField.__mul__
        2.0 * (field + field)
        linear.PropagatorTable.build(domain, model.ModelParams(1.0, 1.0, 1.0, 0.1), 0.01)
    finally:
        spans.restore(patches)
    traced = [tracer.names[i] for i in tracer.name_id]
    # the field built above, then the call through the model module's alias
    assert traced[:2] == ["spectral.SpectralField.__post_init__", "spectral.product_dealiased"]
    assert "linear.PropagatorTable.build" in traced
    assert traced.count("spectral.SpectralField.__post_init__") >= 4
    assert "spectral.SpectralField.__add__" in traced
    assert "spectral.SpectralField.__mul__" in traced
    assert tracer.counters["spectral.fft_calls"] >= 1
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original, (owner, attr)


def _runs(workload, values, trace=0):
    return [
        {"workload": workload, "trace": trace, "meta": {"seed": seed},
         "metrics": {"run_s": {"value": v, "unit": "s"}}}
        for seed, v in enumerate(values, start=1)
    ]


@pytest.mark.parametrize(
    "new, expected",
    [
        ([1.00, 1.01, 0.99, 1.02, 0.98], "within bound"),
        ([1.30, 1.31, 1.29, 1.32, 1.28], "worse than bound"),
        ([0.80, 0.81, 0.79, 0.82, 0.78], "improved"),
        ([0.60, 1.40, 1.00, 0.70, 1.30], "unresolved"),
    ],
)
def test_compare_verdicts_on_synthetic_result_files(tmp_path, new, expected):
    base_path, new_path = tmp_path / "base.json", tmp_path / "new.json"
    base_path.write_text(json.dumps({"runs": _runs("sim-1d", [1.0, 1.01, 0.99, 1.02, 0.98])}))
    new_path.write_text(json.dumps({"runs": _runs("sim-1d", new)}))
    base = compare._by_seed(compare.load_runs(base_path), "sim-1d", "run_s")
    fresh = compare._by_seed(compare.load_runs(new_path), "sim-1d", "run_s")
    assert compare.verdict(base, fresh, 0.1) == expected


def test_corrected_timing_cancels_machine_speed():
    import common

    # the machine slows 1.6 times from the third round on
    ours = [2.0, 2.2, 1.6 * 2.1, 1.6 * 2.4]
    theirs = [1.0, 1.0, 1.6 * 1.0, 1.6 * 1.3]
    assert common.corrected(ours, theirs, 0.5) == pytest.approx(1.025)
    with pytest.raises(ValueError):
        common.corrected(ours, theirs[:3], 0.5)
