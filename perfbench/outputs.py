"""Check a run's artifacts against reference files or against properties.

Numbers compare with a relative tolerance plus an absolute floor:
|a - b| <= RTOL * max(|a|, |b|) + ATOL, with nan matching nan.  Other
tokens compare as strings.  ``config_sha256`` and ``wall_time_seconds``
are skipped because both change when the output directory does.
"""

import csv
import json
import math
from pathlib import Path

# Regenerating the committed artifacts differs by at most ~2e-13 relative.
RTOL = 1e-9
ATOL = 1e-15
SKIP_KEYS = frozenset({"config_sha256", "wall_time_seconds"})


def _number(token):
    try:
        return float(token)
    except (TypeError, ValueError):
        return None


def close(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def _compare_tokens(where, got, want, problems):
    x, y = _number(got), _number(want)
    same = close(x, y) if x is not None and y is not None else got == want
    if not same:
        problems.append(f"{where}: {got!r} != {want!r}")


def read_keyvalues(path):
    pairs = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            pairs[key] = value
    return pairs


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _compare_keyvalues(name, got, want, problems):
    if set(got) != set(want):
        problems.append(f"{name}: keys differ: {sorted(set(got) ^ set(want))}")
    for key in sorted(set(got) & set(want) - SKIP_KEYS):
        g, w = got[key].split(), want[key].split()
        if len(g) != len(w):
            problems.append(f"{name} {key}: {got[key]!r} != {want[key]!r}")
            continue
        for i, (a, b) in enumerate(zip(g, w)):
            _compare_tokens(f"{name} {key}[{i}]", a, b, problems)


def _compare_csv(name, got, want, problems):
    if not got or not want or got[0] != want[0]:
        problems.append(f"{name}: header differs")
        return
    if len(got) != len(want):
        problems.append(f"{name}: {len(got) - 1} rows, expected {len(want) - 1}")
        return
    header = want[0]
    for r, (grow, wrow) in enumerate(zip(got[1:], want[1:]), start=1):
        if len(grow) != len(wrow):
            problems.append(f"{name} row {r}: {len(grow)} fields, expected {len(wrow)}")
            continue
        for col, a, b in zip(header, grow, wrow):
            _compare_tokens(f"{name} row {r} {col}", a, b, problems)


def _compare_json(name, got, want, problems):
    if set(got) != set(want):
        problems.append(f"{name}: keys differ: {sorted(set(got) ^ set(want))}")
    for key in sorted(set(got) & set(want) - SKIP_KEYS):
        if got[key] != want[key]:
            problems.append(f"{name} {key}: {got[key]!r} != {want[key]!r}")


def _files(directory):
    return sorted(p.name for p in Path(directory).iterdir() if p.is_file())


def compare_dirs(out_dir, ref_dir):
    """List of differences between two artifact directories (empty if equal)."""
    got_files, want_files = _files(out_dir), _files(ref_dir)
    problems = []
    if got_files != want_files:
        problems.append(f"artifacts {got_files} != {want_files}")
    return problems + compare_files(out_dir, ref_dir, sorted(set(got_files) & set(want_files)))


def compare_files(out_dir, ref_dir, names=None):
    """Differences in the named artifacts (default: every file ``ref_dir`` holds)."""
    out_dir, ref_dir = Path(out_dir), Path(ref_dir)
    problems = []
    for name in _files(ref_dir) if names is None else names:
        got, want = out_dir / name, ref_dir / name
        if not got.is_file():
            problems.append(f"artifact {name} is missing")
            continue
        if name.endswith(".json"):
            _compare_json(name, _load_json(got), _load_json(want), problems)
        elif name.endswith(".csv"):
            _compare_csv(name, read_csv(got), read_csv(want), problems)
        else:
            _compare_keyvalues(name, read_keyvalues(got), read_keyvalues(want), problems)
    return problems


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_properties(out_dir, eps_deg):
    """Seed-independent checks of a completed ``simulate`` run."""
    out_dir = Path(out_dir)
    problems = []
    record = _load_json(out_dir / "run_record.json")
    if record.get("exit_status") != 0:
        problems.append(f"exit_status {record.get('exit_status')}")
        return problems
    summary = read_keyvalues(out_dir / "summary.txt")
    for key, value in summary.items():
        x = _number(value)
        if x is not None and not math.isfinite(x):
            problems.append(f"summary.txt {key} is not finite: {value}")
    rows = read_csv(out_dir / "trajectory.csv")
    header = rows[0]
    for r, row in enumerate(rows[1:], start=1):
        for col, value in zip(header, row):
            # the centered residual is undefined at the two end samples
            if col == "residual" and r in (1, len(rows) - 1):
                continue
            x = _number(value)
            if x is None or not math.isfinite(x):
                problems.append(f"trajectory.csv row {r} {col} is not finite: {value}")
    guard = _number(summary.get("guard_min_overall"))
    if guard is None or not guard > eps_deg:
        problems.append(f"guard_min_overall {guard} <= eps_deg {eps_deg}")
    e0, e1 = _number(summary.get("energy_initial")), _number(summary.get("energy_final"))
    if e0 is None or e1 is None or not e1 < e0:
        problems.append(f"energy_final {e1} is not below energy_initial {e0}")
    return problems


def check_all_zero(out_dir):
    """Every trajectory value except t, guard_min and residual is zero."""
    rows = read_csv(Path(out_dir) / "trajectory.csv")
    header = rows[0]
    problems = []
    for r, row in enumerate(rows[1:], start=1):
        for col, value in zip(header, row):
            if col in ("t", "guard_min", "residual"):
                continue
            if _number(value) != 0.0:
                problems.append(f"trajectory.csv row {r} {col} = {value}, expected 0")
    return problems
