"""Batch command-line front end.

Five subcommands run the solver library against a config file and emit
deterministic text artifacts plus a run record:

    bck-sim simulate        --config run.conf [--set sect.key=val ...]
    bck-sim linear-analyze  --config run.conf
    bck-sim picard          --config run.conf
    bck-sim convergence     --config run.conf
    bck-sim decay-study     --config run.conf

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

from .config import build_initial_fields, load_config
from .energy import (
    barrier_audit,
    decay_fit,
    decay_norm_sum,
    energy_series,
    estimate_audit_linear,
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
    make_compatibility_data,
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


def _trajectory_rows(traj, params, stride, series):
    """The ``CSV_COLUMNS`` rows of every ``stride``-th sample of ``traj``
    and its ``energy_series``, with the guard and residual series they
    hold."""
    residuals = np.full(traj.n_samples, math.nan)
    residuals[1:-1] = pde_residual_series(
        traj.domain, params, traj.t_grid, traj.u, traj.ut, traj.utt
    )
    columns = dict(series, residual=residuals)
    rows = list(zip(*(columns[name][::stride] for name in CSV_COLUMNS)))
    return series["guard_min"], residuals, rows


def _solver_options(config):
    """The configured march options, for every nonlinear solve."""
    return {
        "substep_iters": config.substeps,
        "eps_deg": config.eps_deg,
        "blowup_bound": config.blowup_bound,
    }


def cmd_simulate(config, out_dir, artifacts):
    u0, u1, u2 = build_initial_fields(config)
    data = make_compatibility_data(u0, u1, u2, config.params, eps_deg=config.eps_deg)
    traj = solve(data, config.params, config.t_final, config.dt, **_solver_options(config))
    # one energy series serves the CSV rows, the fit and both audits
    series = energy_series(traj, config.params)
    guard, residuals, rows = _trajectory_rows(traj, config.params, config.stride, series)
    _write_csv(out_dir / "trajectory.csv", CSV_COLUMNS, rows)
    artifacts.append("trajectory.csv")

    bound = spectral_bound(config.params, config.domain.lambda0)
    omega, prefactor, fit_residual = _safe_fit(series["t"], decay_norm_sum(series))
    try:
        audit = estimate_audit_linear(traj, traj.forcing, config.params, series=series)
        c_min = audit.c_min
    except DivisionGuardError as err:
        log.info("estimate audit skipped: %s", err)
        c_min = math.nan
    c_hat = config.c_hat if config.c_hat > 0.0 else (c_min if math.isfinite(c_min) and c_min > 0.0 else 1.0)
    barrier = barrier_audit(
        traj, eta=config.eta, c_hat=c_hat, params=config.params, series=series
    )

    interior = residuals[1:-1]
    pairs = [
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
        ("guard_min_overall", float(guard.min())),
        ("energy_initial", series["E_total"][0]),
        ("energy_final", series["E_total"][-1]),
        ("vtilde_sq", vtilde_norm(traj).value),
        ("v_norm", v_norm(traj)),
        ("estimate_c_min", c_min),
        ("barrier_c_hat", c_hat),
        ("barrier_eta", config.eta),
        ("barrier_passed", barrier.passed),
        ("barrier_pointwise_ratio", barrier.pointwise_ratio),
        ("barrier_integrated_ratio", barrier.integrated_ratio),
        ("max_interior_residual", float(np.nanmax(interior)) if interior.size else math.nan),
    ]
    _write_keyvalues(out_dir / "summary.txt", pairs)
    artifacts.append("summary.txt")
    return 0


def cmd_linear_analyze(config, out_dir, artifacts):
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
    _write_csv(
        out_dir / "modes.csv",
        ("index", "lambda", "re_mu1", "im_mu1", "re_mu2", "im_mu2", "re_mu3", "im_mu3"),
        rows,
    )
    artifacts.append("modes.csv")

    bound = spectral_bound(params, domain.lambda0)
    numeric = float(np.linalg.eigvals(generator_blocks(lam_sorted, params)).real.max())
    pairs = [
        ("command", "linear-analyze"),
        ("config_sha256", config.config_sha256),
        ("modes", domain.modes_per_axis),
        ("lambda0", domain.lambda0),
        ("s_A", bound.value),
        ("branch", _BRANCH_LABELS[bound.branch]),
        ("numeric_sup", numeric),
        ("discrepancy", abs(numeric - bound.value)),
    ]
    _write_keyvalues(out_dir / "linear_analysis.txt", pairs)
    artifacts.append("linear_analysis.txt")
    return 0


def cmd_picard(config, out_dir, artifacts):
    u0, u1, u2 = build_initial_fields(config)
    data = make_compatibility_data(u0, u1, u2, config.params, eps_deg=config.eps_deg)

    def emit(converged, iterations, ratios, increments, final_residual):
        pairs = [
            ("command", "picard"),
            ("config_sha256", config.config_sha256),
            ("converged", converged),
            ("iterations", iterations),
            ("final_residual", final_residual),
            ("max_ratio", max(ratios) if ratios else math.nan),
            ("ratios", tuple(ratios)),
            ("increments", tuple(increments)),
        ]
        _write_keyvalues(out_dir / "picard_report.txt", pairs)
        artifacts.append("picard_report.txt")

    try:
        _, report = picard_solve(
            data,
            config.params,
            config.t_final,
            config.dt,
            tol=config.picard_tol,
            max_iter=config.picard_max_iter,
            eps_deg=config.eps_deg,
        )
    except NonConvergenceError as err:
        emit(False, len(err.increments or ()), err.ratios or (), err.increments or (), math.nan)
        raise
    except DegeneracyError as err:
        ratios = getattr(err, "ratios", ()) or ()
        increments = getattr(err, "increments", ()) or ()
        emit(False, len(increments), ratios, increments, math.nan)
        raise
    emit(True, report.iterations, report.ratios, report.increments, report.final_residual)
    return 0


def _spatial_study(config):
    """Truncation error of a geometric-coefficient profile, linear run.

    The k = s = 0 march is exact per mode, so the measured error against
    the fine-resolution reference is pure spatial truncation.
    """
    params0 = dataclasses.replace(config.params, k=0.0, s=0)
    ratio = config.conv_ratio
    if not 0.0 < ratio < 1.0:
        raise ConfigError("[convergence] profile_ratio must be in (0, 1)")
    n_ref = config.conv_reference
    if any(m >= n_ref for m in config.conv_modes):
        raise ConfigError("[convergence] reference_modes must exceed modes_list")
    length = config.domain.lengths[0]

    def run(n_modes):
        dom = DomainSpec(1, (length,), n_modes)
        coeffs = config.conv_amplitude * ratio ** np.arange(1, n_modes + 1)
        u0 = SpectralField(dom, coeffs)
        z = SpectralField.zeros(dom)
        data = make_compatibility_data(u0, z, z, params0)
        traj = solve(data, params0, config.t_final, config.dt, **_solver_options(config))
        return traj.u[-1]

    reference = run(n_ref)
    ref_domain = DomainSpec(1, (length,), n_ref)
    errors = []
    for n_modes in config.conv_modes:
        final = run(n_modes)
        padded = np.zeros(n_ref)
        padded[: final.size] = final
        errors.append(float(np.sqrt(sq_norm(ref_domain, padded - reference))))
    return errors


def _temporal_study(config):
    dts = config.conv_dts
    if len(dts) != 3 or not all(
        abs(dts[i + 1] - dts[i] / 2.0) < 1e-12 * dts[0] for i in range(2)
    ):
        raise ConfigError("[convergence] dt_values must be a halving triplet")
    try:
        for dt in dts:
            time_grid(config.t_final, dt)
    except ValueError as err:
        raise ConfigError(f"[convergence] dt_values: {err}") from err
    dom = config.domain
    u0 = SpectralField.single_mode(dom, (1,) * dom.dimension, config.conv_amplitude)
    z = SpectralField.zeros(dom)
    data = make_compatibility_data(u0, z, z, config.params, eps_deg=config.eps_deg)
    finals = [
        solve(data, config.params, config.t_final, dt, **_solver_options(config)).u[-1]
        for dt in dts
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


def cmd_convergence(config, out_dir, artifacts):
    spatial_errors = _spatial_study(config)
    d1, d2, order = _temporal_study(config)
    aliased_err, capacity_err, degraded = _aliasing_study(config)

    rows = [(n, e) for n, e in zip(config.conv_modes, spatial_errors)]
    _write_csv(out_dir / "spatial_errors.csv", ("modes", "l2_error"), rows)
    artifacts.append("spatial_errors.csv")

    first, last = spatial_errors[0], spatial_errors[-1]
    pairs = [
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
    _write_keyvalues(out_dir / "convergence_report.txt", pairs)
    artifacts.append("convergence_report.txt")
    return 0


def cmd_decay_study(config, out_dir, artifacts):
    dom, params = config.domain, config.params
    bound = spectral_bound(params, dom.lambda0)
    linear_rate = 2.0 * abs(bound.value)
    z = SpectralField.zeros(dom)
    lowest = (1,) * dom.dimension

    amp_rows = []
    for amplitude in config.sweep_amplitudes:
        u0 = SpectralField.single_mode(dom, lowest, amplitude)
        data = make_compatibility_data(u0, z, z, params, eps_deg=config.eps_deg)
        traj = solve(data, params, config.t_final, config.dt, **_solver_options(config))
        series = energy_series(traj, params)
        omega, _, _ = _safe_fit(series["t"], decay_norm_sum(series))
        amp_rows.append((amplitude, omega, omega / linear_rate))
    _write_csv(
        out_dir / "decay_study.csv",
        ("amplitude", "fitted_omega", "ratio_to_linear"),
        amp_rows,
    )
    artifacts.append("decay_study.csv")

    # at the configured s the base-amplitude run is amp_rows[0]'s march
    s_rates = {params.s: amp_rows[0][1]}
    base_amp = config.sweep_amplitudes[0]
    for s_flag in (0, 1):
        if s_flag == params.s:
            continue
        params_s = dataclasses.replace(params, s=s_flag)
        u0 = SpectralField.single_mode(dom, lowest, base_amp)
        data = make_compatibility_data(u0, z, z, params_s, eps_deg=config.eps_deg)
        traj = solve(data, params_s, config.t_final, config.dt, **_solver_options(config))
        series = energy_series(traj, params_s)
        s_rates[s_flag], _, _ = _safe_fit(series["t"], decay_norm_sum(series))

    # all-mode profile so the sweep sees the slowest rate of each branch
    # (the overdamped bound is approached at high frequencies)
    lam = np.asarray(dom.eigenvalue_grid)
    profile = SpectralField(dom, (lam / dom.lambda0) ** -1.0)
    b_rows = []
    for b_value in config.sweep_b_values:
        params_b = dataclasses.replace(params, b=b_value, k=0.0, s=0)
        bound_b = spectral_bound(params_b, dom.lambda0)
        initial = EvolutionState(0.0, profile, z, z)
        try:
            fit = linear_decay_report(initial, params_b, config.t_final, config.dt)
            fitted = fit.omega
        except FitError:
            fitted = math.nan
        b_rows.append((b_value, fitted, 2.0 * abs(bound_b.value), bound_b.branch))
    if b_rows:
        _write_csv(
            out_dir / "b_sweep.csv",
            ("b", "fitted_omega", "closed_form_rate", "branch"),
            b_rows,
        )
        artifacts.append("b_sweep.csv")

    pairs = [
        ("command", "decay-study"),
        ("config_sha256", config.config_sha256),
        ("linear_rate", linear_rate),
        ("branch", _BRANCH_LABELS[bound.branch]),
        ("amplitudes", tuple(config.sweep_amplitudes)),
        ("smallest_amplitude_ratio", amp_rows[0][2]),
        ("s0_omega", s_rates[0]),
        ("s1_omega", s_rates[1]),
    ]
    _write_keyvalues(out_dir / "decay_report.txt", pairs)
    artifacts.append("decay_report.txt")
    return 0


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
    try:
        config = load_config(
            args.config,
            overrides=args.overrides,
            out_override=args.out,
            seed_override=args.seed,
        )
        sha = config.config_sha256
        out_dir = Path(config.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        code = _COMMANDS[args.command](config, out_dir, artifacts)
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
