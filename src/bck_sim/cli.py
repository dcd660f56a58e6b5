"""Batch command-line front end.

Five subcommands run the solver library against a config file and emit
deterministic text artifacts plus a run record:

    bck-sim simulate        --config run.conf [--set sect.key=val ...]
    bck-sim linear-analyze  --config run.conf
    bck-sim picard          --config run.conf
    bck-sim convergence     --config run.conf
    bck-sim decay-study     --config run.conf

Each command is a generator of ``(name, content)`` artifacts: a
``(columns, rows)`` table for a ``.csv`` name, else a list of key-value
pairs.  ``main`` alone writes them, each as soon as it is yielded, so a run
that fails part-way keeps and lists what it wrote; it also writes the run
record.

Exit codes: 0 success, 2 degeneracy, 3 configuration error, 4 blow-up or
non-convergence.  Failures also print one machine-parsable line on
stderr.  The BCK_SIM_LOG environment variable sets log verbosity.
"""

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .config import load_config
from .energy import (
    barrier_audit,
    decay_fit,
    decay_norm_sum,
    energy_series,
    estimate_audit_linear,
    trajectory_norms,
)
from .errors import (
    BlowUpError,
    ConfigError,
    DegeneracyError,
    DivisionGuardError,
    FitError,
    NonConvergenceError,
)
from .linear import (
    generator_blocks,
    linear_decay_report,
    mode_eigenvalues_from_coefficients,
    spectral_bound,
)
from .model import (
    EvolutionState,
    pde_residual_series,
    time_grid,
)
from .nonlinear import picard_solve, solve, v_norm, vtilde_norm
from .spectral import (
    DomainSpec,
    SpectralField,
    l2_norm,
    product_collocation,
    product_dealiased,
    sq_norm,
)

log = logging.getLogger("bck_sim")

CSV_COLUMNS = (
    "t",
    "E1",
    "E2",
    "E_total",
    "k_functional",
    "linear_energy",
    "H4_u",
    "H3_ut",
    "H3_utt",
    "H1_uttt",
    "Linf_ut",
    "guard_min",
    "residual",
)

_BRANCH_LABELS = {
    "heat": "heat (a*lambda0)",
    "oscillatory": "oscillatory (b/2*lambda0)",
    "overdamped": "overdamped (c^2/b)",
}


def _formatter(kind):
    """The text form of values of type ``kind``."""
    if issubclass(kind, bool):
        return lambda value: "true" if value else "false"
    if issubclass(kind, float):
        return "%.17g".__mod__
    if issubclass(kind, (tuple, list, np.ndarray)):
        return lambda value: " ".join(_fmt(v) for v in value)
    return str


def _fmt(value):
    return _formatter(type(value))(value)


def _column_formatter(values):
    """The formatter of one CSV column: chosen once when the column holds
    values of one type, else ``_fmt`` per value."""
    kinds = set(map(type, values))
    return _formatter(kinds.pop()) if len(kinds) == 1 else _fmt


def _write_keyvalues(path, pairs):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in pairs:
            fh.write(f"{key}: {_fmt(value)}\n")


def _write_csv(path, columns, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        formats = [_column_formatter(col) for col in zip(*rows)]
        for row in rows:
            fh.write(",".join([fmt(v) for fmt, v in zip(formats, row)]) + "\n")


def _safe_fit(t_grid, series):
    try:
        fit = decay_fit(np.asarray(t_grid), np.asarray(series))
        return fit.omega, fit.M, fit.residual
    except FitError as err:
        log.info("decay fit unavailable: %s", err)
        return math.nan, math.nan, math.nan


def _solver_options(config):
    """The configured march options, for every nonlinear solve."""
    return {
        "substep_iters": config.substeps,
        "eps_deg": config.eps_deg,
        "blowup_bound": config.blowup_bound,
    }


def _at_rest(u0):
    """Data at t = 0 with displacement ``u0``, velocity and acceleration zero."""
    z = SpectralField.zeros(u0.domain)
    return EvolutionState(0.0, u0, z, z)


def cmd_simulate(config):
    params = config.params
    traj = solve(config.initial, params, config.t_final, config.dt, **_solver_options(config))
    # one norm pass and one energy series serve the CSV rows, fit, audits and norms
    norms = trajectory_norms(traj, params)
    series = energy_series(traj, params, norms)
    residuals = np.full(traj.n_samples, math.nan)
    residuals[1:-1] = pde_residual_series(
        traj.domain, params, traj.t_grid, traj.u, traj.ut, traj.utt
    )
    columns = dict(series, residual=residuals)
    rows = list(zip(*(columns[name][::config.stride] for name in CSV_COLUMNS)))
    yield "trajectory.csv", (CSV_COLUMNS, rows)

    bound = spectral_bound(params, config.domain.lambda0)
    omega, prefactor, fit_residual = _safe_fit(series["t"], decay_norm_sum(series))
    try:
        c_min = estimate_audit_linear(traj, series, norms)
    except DivisionGuardError as err:
        log.info("estimate audit skipped: %s", err)
        c_min = math.nan
    # c_hat = 0 means automatic: the audit's c_min when it is positive, else 1
    c_hat = config.c_hat or (c_min if math.isfinite(c_min) and c_min > 0.0 else 1.0)
    barrier = barrier_audit(series, eta=config.eta, c_hat=c_hat)

    interior = residuals[1:-1]
    yield "summary.txt", [
        ("command", "simulate"),
        ("label", config.label),
        ("config_sha256", config.config_sha256),
        ("t_final", config.t_final),
        ("dt", config.dt),
        ("n_samples", traj.n_samples),
        ("stride", config.stride),
        ("seed", config.seed),
        ("spectral_bound", bound.value),
        ("branch", _BRANCH_LABELS[bound.branch]),
        ("linear_rate", 2.0 * abs(bound.value)),
        ("fitted_omega", omega),
        ("fitted_prefactor", prefactor),
        ("fit_residual", fit_residual),
        ("guard_min_overall", float(series["guard_min"].min())),
        ("energy_initial", series["E_total"][0]),
        ("energy_final", series["E_total"][-1]),
        ("vtilde_sq", max(vtilde_norm(traj, norms).values())),
        ("v_norm", v_norm(traj, norms)),
        ("estimate_c_min", c_min),
        ("barrier_c_hat", c_hat),
        ("barrier_eta", config.eta),
        ("barrier_passed", barrier.passed),
        ("barrier_pointwise_ratio", barrier.pointwise_ratio),
        ("barrier_integrated_ratio", barrier.integrated_ratio),
        ("max_interior_residual", float(np.nanmax(interior)) if interior.size else math.nan),
    ]


def cmd_linear_analyze(config):
    domain, params = config.domain, config.params
    lam_sorted = np.sort(np.asarray(domain.eigenvalue_grid).ravel())
    n = lam_sorted.size
    picks = list(range(min(10, n)))
    if n - 1 not in picks:
        picks.append(n - 1)
    spectra = mode_eigenvalues_from_coefficients(lam_sorted[picks], params.a, params.b, params.c)
    rows = [
        (i + 1, float(lam_sorted[i])) + tuple(x for mu in mus for x in (mu.real, mu.imag))
        for i, mus in zip(picks, spectra)
    ]
    columns = ("index", "lambda", "re_mu1", "im_mu1", "re_mu2", "im_mu2", "re_mu3", "im_mu3")
    yield "modes.csv", (columns, rows)

    bound = spectral_bound(params, domain.lambda0)
    numeric = float(np.linalg.eigvals(generator_blocks(lam_sorted, params)).real.max())
    yield "linear_analysis.txt", [
        ("command", "linear-analyze"),
        ("config_sha256", config.config_sha256),
        ("modes", domain.modes_per_axis),
        ("lambda0", domain.lambda0),
        ("s_A", bound.value),
        ("branch", _BRANCH_LABELS[bound.branch]),
        ("numeric_sup", numeric),
        ("discrepancy", abs(numeric - bound.value)),
    ]


def cmd_picard(config):
    failure = None
    try:
        _, report = picard_solve(
            config.initial,
            config.params,
            config.t_final,
            config.dt,
            tol=config.picard_tol,
            max_iter=config.picard_max_iter,
            eps_deg=config.eps_deg,
            blowup_bound=config.blowup_bound,
        )
        ratios, increments = report.ratios, report.increments
    except (NonConvergenceError, DegeneracyError, BlowUpError) as err:
        failure = err
        ratios, increments = err.ratios, err.increments
    # the report is written whether or not the iteration converged
    yield "picard_report.txt", [
        ("command", "picard"),
        ("config_sha256", config.config_sha256),
        ("converged", failure is None),
        ("iterations", len(increments)),
        ("final_residual", increments[-1] if failure is None else math.nan),
        ("max_ratio", max(ratios) if ratios else math.nan),
        ("ratios", tuple(ratios)),
        ("increments", tuple(increments)),
    ]
    if failure is not None:
        raise failure


def _spatial_study(config):
    """Truncation error of a geometric-coefficient profile, linear run.

    Mode (k_1, ..., k_d) has the coefficient amplitude * ratio**(k_1 + ...
    + k_d) on the configured box.  The k = s = 0 march is exact per mode,
    so the measured error against the fine-resolution reference is pure
    spatial truncation.
    """
    params0 = dataclasses.replace(config.params, k=0.0, s=0)
    dim, lengths = config.domain.dimension, config.domain.lengths

    def run(n_modes):
        dom = DomainSpec(dim, lengths, n_modes)
        exponents = np.indices(dom.coeff_shape).sum(axis=0) + dim
        u0 = SpectralField(dom, config.conv_amplitude * config.conv_ratio**exponents)
        traj = solve(_at_rest(u0), params0, config.t_final, config.dt, **_solver_options(config))
        return traj.u[-1]

    reference = run(config.conv_reference)
    ref_domain = DomainSpec(dim, lengths, config.conv_reference)
    errors = []
    for n_modes in config.conv_modes:
        padded = np.zeros(ref_domain.coeff_shape)
        padded[(slice(n_modes),) * dim] = run(n_modes)
        errors.append(float(np.sqrt(sq_norm(ref_domain, padded - reference))))
    return errors


def _temporal_study(config):
    dom = config.domain
    data = _at_rest(SpectralField.single_mode(dom, 1, config.conv_amplitude))
    finals = [
        solve(data, config.params, config.t_final, dt, **_solver_options(config)).u[-1]
        for dt in config.conv_dts
    ]

    def dist(x, y):
        return float(np.sqrt(sq_norm(dom, x - y)))

    d1 = dist(finals[0], finals[1])
    d2 = dist(finals[1], finals[2])
    order = math.log2(d1 / d2) if d1 > 0.0 and d2 > 0.0 else math.nan
    return d1, d2, order


def _aliasing_study(config):
    rng = np.random.default_rng(config.seed)
    dom = config.domain
    lam = np.asarray(dom.eigenvalue_grid)
    falloff = (lam / dom.lambda0) ** -1.0
    f = SpectralField(dom, rng.standard_normal(dom.coeff_shape) * falloff)
    g = SpectralField(dom, rng.standard_normal(dom.coeff_shape) * falloff)
    exact = product_dealiased(f, g)
    aliased = product_collocation(f, g, points=dom.modes_per_axis)
    capacity = product_collocation(f, g)
    scale = l2_norm(exact)
    aliased_err = l2_norm(aliased - exact) / scale
    capacity_err = l2_norm(capacity - exact) / scale
    degraded = aliased_err > max(5.0 * capacity_err, 1e-10)
    return aliased_err, capacity_err, degraded


def cmd_convergence(config):
    # load_config checks every [convergence] value; whether each dt_values
    # entry divides t_final matters to this command alone
    try:
        for dt in config.conv_dts:
            time_grid(config.t_final, dt)
    except ValueError as err:
        raise ConfigError(f"[convergence] dt_values: {err}") from err
    spatial_errors = _spatial_study(config)
    d1, d2, order = _temporal_study(config)
    aliased_err, capacity_err, degraded = _aliasing_study(config)
    rows = list(zip(config.conv_modes, spatial_errors))
    yield "spatial_errors.csv", (("modes", "l2_error"), rows)

    first, last = spatial_errors[0], spatial_errors[-1]
    yield "convergence_report.txt", [
        ("command", "convergence"),
        ("config_sha256", config.config_sha256),
        ("spatial_modes", tuple(config.conv_modes)),
        ("spatial_errors", tuple(spatial_errors)),
        ("spatial_ratio", first / last if last > 0.0 else math.inf),
        ("temporal_dts", tuple(config.conv_dts)),
        ("temporal_diff_coarse", d1),
        ("temporal_diff_fine", d2),
        ("temporal_order", order),
        ("aliased_product_error", aliased_err),
        ("capacity_product_error", capacity_err),
        ("aliasing_degraded", degraded),
    ]


def _lowest_mode_omega(config, params, amplitude):
    """The fitted decay rate of a march from the lowest mode at
    ``amplitude``, at rest."""
    data = _at_rest(SpectralField.single_mode(config.domain, 1, amplitude))
    traj = solve(data, params, config.t_final, config.dt, **_solver_options(config))
    series = energy_series(traj, params)
    return _safe_fit(series["t"], decay_norm_sum(series))[0]


def cmd_decay_study(config):
    dom, params = config.domain, config.params
    bound = spectral_bound(params, dom.lambda0)
    linear_rate = 2.0 * abs(bound.value)

    amp_rows = []
    for amplitude in config.sweep_amplitudes:
        omega = _lowest_mode_omega(config, params, amplitude)
        amp_rows.append((amplitude, omega, omega / linear_rate))
    yield "decay_study.csv", (("amplitude", "fitted_omega", "ratio_to_linear"), amp_rows)

    # at the configured s the base-amplitude run is amp_rows[0]'s march
    other = 1 - params.s
    s_rates = {
        params.s: amp_rows[0][1],
        other: _lowest_mode_omega(
            config, dataclasses.replace(params, s=other), config.sweep_amplitudes[0]
        ),
    }

    # all-mode profile so the sweep sees the slowest rate of each branch
    # (the overdamped bound is approached at high frequencies)
    lam = np.asarray(dom.eigenvalue_grid)
    initial = _at_rest(SpectralField(dom, (lam / dom.lambda0) ** -1.0))
    b_rows = []
    for b_value in config.sweep_b_values:
        params_b = dataclasses.replace(params, b=b_value, k=0.0, s=0)
        bound_b = spectral_bound(params_b, dom.lambda0)
        try:
            fit = linear_decay_report(initial, params_b, config.t_final, config.dt)
            fitted = fit.omega
        except FitError:
            fitted = math.nan
        b_rows.append((b_value, fitted, 2.0 * abs(bound_b.value), bound_b.branch))
    if b_rows:
        yield "b_sweep.csv", (("b", "fitted_omega", "closed_form_rate", "branch"), b_rows)

    yield "decay_report.txt", [
        ("command", "decay-study"),
        ("config_sha256", config.config_sha256),
        ("linear_rate", linear_rate),
        ("branch", _BRANCH_LABELS[bound.branch]),
        ("amplitudes", tuple(config.sweep_amplitudes)),
        ("smallest_amplitude_ratio", amp_rows[0][2]),
        ("s0_omega", s_rates[0]),
        ("s1_omega", s_rates[1]),
    ]


_COMMANDS = {
    "simulate": cmd_simulate,
    "linear-analyze": cmd_linear_analyze,
    "picard": cmd_picard,
    "convergence": cmd_convergence,
    "decay-study": cmd_decay_study,
}


class _ArgumentParser(argparse.ArgumentParser):
    """Usage problems map to the configuration-error exit code."""

    def error(self, message):
        raise ConfigError(message)


def _parse_args(argv):
    parser = _ArgumentParser(
        prog="bck-sim",
        description="Spectral simulator for third-order damped nonlinear acoustics",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the run config")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override one config value (repeatable)",
    )
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--seed", type=int, default=None, help="rng seed override")
    return parser.parse_args(argv)


def _setup_logging():
    level_name = os.environ.get("BCK_SIM_LOG", "warning").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(level=level, stream=sys.stderr, format="%(name)s %(levelname)s %(message)s")


def _diagnostic(code, err):
    message = " ".join(str(err).split())
    print(f"bck-sim: code={code} kind={type(err).__name__} message={message}", file=sys.stderr)


def main(argv=None):
    args = _parse_args(argv)
    _setup_logging()
    started = time.monotonic()
    artifacts = []
    out_dir = None
    sha = ""
    code = 0
    # the flags go last, so they beat a --set of the same key
    flags = (("output.directory", args.out), ("run.seed", args.seed))
    overrides = args.overrides + [f"{key}={value}" for key, value in flags if value is not None]
    try:
        config = load_config(args.config, overrides)
        sha = config.config_sha256
        out_dir = Path(config.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, content in _COMMANDS[args.command](config):
            if name.endswith(".csv"):
                _write_csv(out_dir / name, *content)
            else:
                _write_keyvalues(out_dir / name, content)
            artifacts.append(name)
    except ConfigError as err:
        code = 3
        _diagnostic(code, err)
        if args.out is not None:
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
    except DegeneracyError as err:
        code = 2
        _diagnostic(code, err)
    except (BlowUpError, NonConvergenceError) as err:
        code = 4
        _diagnostic(code, err)

    if out_dir is not None:
        record = {
            "command": args.command,
            "config_sha256": sha,
            "exit_status": code,
            "wall_time_seconds": time.monotonic() - started,
            "artifacts": sorted(artifacts),
        }
        with open(out_dir / "run_record.json", "w", encoding="utf-8", newline="\n") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return code


def main_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
