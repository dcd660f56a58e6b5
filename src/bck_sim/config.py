"""Configuration ingestion for the batch front end.

Configs are sectioned key-value text (INI syntax, ``#`` comments).  The
schema is closed: unknown sections or keys are rejected, every numeric
value is validated and the initial data are built before any solver
runs, and the effective configuration has a canonical serialization
whose SHA-256 goes into the run record for reproducibility.
"""

import configparser
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .model import (
    DEFAULT_EPS_DEG, EvolutionState, ModelParams, PhysicalParams, derive_params, time_grid,
)
from .spectral import DomainSpec, SpectralField

_PRESETS = ("zero", "single-mode", "multi-mode", "random-seeded")

_DIRECT_KEYS = ("a", "b", "c", "k")
_PHYSICAL_KEYS = ("nu", "prandtl", "viscosity_number", "c0", "gamma", "b_over_a")

# section -> key -> (kind, default); kind in
# {int, float, floats, ints, str} and default None marks a required key
_SCHEMA = {
    "domain": {
        "dimension": ("int", 1),
        "lengths": ("floats", (math.pi,)),
        "modes": ("int", None),
        "quadrature_points": ("int", 0),
    },
    "params": {
        "a": ("float", math.nan),
        "b": ("float", math.nan),
        "c": ("float", math.nan),
        "k": ("float", math.nan),
        "s": ("int", 1),
        "nu": ("float", math.nan),
        "prandtl": ("float", math.nan),
        "viscosity_number": ("float", math.nan),
        "c0": ("float", math.nan),
        "gamma": ("float", math.nan),
        "b_over_a": ("float", math.nan),
    },
    "initial": {
        "preset": ("str", "zero"),
        "amplitude": ("float", 0.0),
        "mode": ("ints", (1,)),
        "modes": ("ints", ()),
        "amplitudes": ("floats", ()),
        "u1_amplitude": ("float", 0.0),
        "u1_mode": ("ints", ()),
        "u2_amplitude": ("float", 0.0),
        "u2_mode": ("ints", ()),
    },
    "time": {
        "t_final": ("float", None),
        "dt": ("float", None),
        "substeps": ("int", 2),
    },
    "tolerances": {
        "eps_deg": ("float", DEFAULT_EPS_DEG),
        "picard_tol": ("float", 1e-9),
        "picard_max_iter": ("int", 20),
        "blowup_bound": ("float", 1e12),
        "eta": ("float", 1e-4),
        "c_hat": ("float", 0.0),
    },
    "output": {
        "directory": ("str", "out"),
        "stride": ("int", 1),
    },
    "run": {
        "seed": ("int", 0),
        "label": ("str", ""),
    },
    "sweep": {
        "amplitudes": ("floats", (1e-4, 1e-3, 1e-2)),
        "b_values": ("floats", ()),
    },
    "convergence": {
        "modes_list": ("ints", (16, 32)),
        "reference_modes": ("int", 64),
        "profile_ratio": ("float", 0.3),
        "dt_values": ("floats", (0.02, 0.01, 0.005)),
        "amplitude": ("float", 1e-2),
    },
}

_REQUIRED_SECTIONS = ("domain", "params", "time")


def _parse_scalar(kind, raw, where):
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return math.pi if raw == "pi" else float(raw)
        if kind == "floats":
            return tuple(
                math.pi if tok == "pi" else float(tok) for tok in raw.split()
            )
        if kind == "ints":
            return tuple(int(tok) for tok in raw.split())
        return raw
    except ValueError as err:
        raise ConfigError(f"{where}: cannot parse {raw!r} as {kind}") from err


@dataclass
class SolverConfig:
    """Validated run description; one instance per CLI invocation."""

    domain: DomainSpec
    params: ModelParams
    initial: EvolutionState
    t_final: float
    dt: float
    substeps: int
    eps_deg: float
    picard_tol: float
    picard_max_iter: int
    blowup_bound: float
    eta: float
    c_hat: float
    out_dir: str
    stride: int
    seed: int
    label: str
    sweep_amplitudes: tuple
    sweep_b_values: tuple
    conv_modes: tuple
    conv_reference: int
    conv_ratio: float
    conv_dts: tuple
    conv_amplitude: float
    canonical_text: str = field(repr=False, default="")

    @property
    def config_sha256(self):
        return hashlib.sha256(self.canonical_text.encode()).hexdigest()


def _read_values(parser):
    values = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            kind, _ = _SCHEMA[section][key]
            values[(section, key)] = _parse_scalar(
                kind, parser[section][key], f"[{section}] {key}"
            )
    for section in _REQUIRED_SECTIONS:
        if not parser.has_section(section):
            raise ConfigError(f"missing required section [{section}]")
    for section, keys in _SCHEMA.items():
        for key, (kind, default) in keys.items():
            if (section, key) in values:
                continue
            if default is None and section in _REQUIRED_SECTIONS:
                if parser.has_section(section):
                    raise ConfigError(f"missing required key {key!r} in [{section}]")
            values[(section, key)] = default
    return values


def _build_params(values):
    direct = [k for k in _DIRECT_KEYS if not math.isnan(values[("params", k)])]
    physical = [k for k in _PHYSICAL_KEYS if not math.isnan(values[("params", k)])]
    s = values[("params", "s")]
    if direct and physical:
        raise ConfigError(
            "[params] mixes direct coefficients with material data; provide "
            "either a,b,c,k or nu,prandtl,viscosity_number,c0 with gamma/b_over_a"
        )
    if direct:
        missing = [k for k in _DIRECT_KEYS if k not in direct]
        if missing:
            raise ConfigError(f"[params] direct form needs keys {missing}")
        return ModelParams(
            a=values[("params", "a")],
            b=values[("params", "b")],
            c=values[("params", "c")],
            k=values[("params", "k")],
            s=s,
        )
    if physical:
        needed = ("nu", "prandtl", "viscosity_number", "c0")
        missing = [k for k in needed if math.isnan(values[("params", k)])]
        if missing:
            raise ConfigError(f"[params] material form needs keys {missing}")
        gamma = values[("params", "gamma")]
        b_over_a = values[("params", "b_over_a")]
        phys = PhysicalParams(
            nu=values[("params", "nu")],
            prandtl=values[("params", "prandtl")],
            viscosity_number=values[("params", "viscosity_number")],
            c0=values[("params", "c0")],
            gamma=None if math.isnan(gamma) else gamma,
            b_over_a=None if math.isnan(b_over_a) else b_over_a,
        )
        return derive_params(phys, s=s)
    raise ConfigError("[params] provides neither direct coefficients nor material data")


# where a run writes and what it is called change no number it computes
_UNHASHED = frozenset({("output", "directory"), ("run", "label")})


def _canonical(values):
    """Text of every value that determines the results; its SHA-256 is
    ``config_sha256``, the physics identity of a run."""
    lines = []
    for section in sorted(_SCHEMA):
        for key in sorted(_SCHEMA[section]):
            if (section, key) in _UNHASHED:
                continue
            val = values[(section, key)]
            if isinstance(val, tuple):
                rendered = " ".join(_render_number(v) for v in val)
            elif isinstance(val, float):
                rendered = _render_number(val)
            else:
                rendered = str(val)
            lines.append(f"{section}.{key} = {rendered}")
    return "\n".join(lines) + "\n"


def _render_number(v):
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def apply_overrides(parser, overrides):
    """Apply ``section.key=value`` strings on top of the parsed file."""
    for item in overrides or ():
        head, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set needs section.key=value, got {item!r}")
        section, dot, key = head.strip().partition(".")
        if not dot:
            raise ConfigError(f"--set key must be section.key, got {head!r}")
        section, key = section.strip(), key.strip()
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ConfigError(f"--set targets unknown key [{section}] {key}")
        if not parser.has_section(section):
            parser.add_section(section)
        parser[section][key] = value.strip()


def load_config(path, overrides=(), out_override=None, seed_override=None):
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except configparser.Error as err:
        raise ConfigError(f"malformed config {path}: {err}") from err

    apply_overrides(parser, overrides)
    if out_override is not None:
        if not parser.has_section("output"):
            parser.add_section("output")
        parser["output"]["directory"] = str(out_override)
    if seed_override is not None:
        if not parser.has_section("run"):
            parser.add_section("run")
        parser["run"]["seed"] = str(seed_override)

    values = _read_values(parser)

    quad = values[("domain", "quadrature_points")]
    if quad < 0:
        raise ConfigError("[domain] quadrature_points must be >= 0 (0 means the default)")
    try:
        domain = DomainSpec(
            dimension=values[("domain", "dimension")],
            lengths=values[("domain", "lengths")],
            modes_per_axis=values[("domain", "modes")],
            quadrature_points_per_axis=quad if quad > 0 else None,
        )
        params = _build_params(values)
    except (ConfigError, ValueError) as err:
        raise ConfigError(str(err)) from err

    preset = values[("initial", "preset")]
    if preset not in _PRESETS:
        raise ConfigError(f"unknown initial preset {preset!r}; choose from {_PRESETS}")

    t_final = values[("time", "t_final")]
    dt = values[("time", "dt")]
    if not (t_final > 0.0 and dt > 0.0 and dt <= t_final):
        raise ConfigError("[time] needs 0 < dt <= t_final")
    try:
        time_grid(t_final, dt)
    except ValueError as err:
        raise ConfigError(f"[time] {err}") from err
    for sec, key in (
        ("time", "substeps"),
        ("tolerances", "picard_max_iter"),
        ("output", "stride"),
    ):
        if values[(sec, key)] < 1:
            raise ConfigError(f"[{sec}] {key} must be >= 1")
    # the guard trips once |2k u_t| >= 1 - eps_deg, so eps_deg >= 1 trips at t = 0
    if not 0.0 < values[("tolerances", "eps_deg")] < 1.0:
        raise ConfigError("[tolerances] eps_deg must lie in (0, 1)")
    for sec, key in (
        ("tolerances", "picard_tol"),
        ("tolerances", "blowup_bound"),
        ("tolerances", "eta"),
    ):
        if not values[(sec, key)] > 0.0:
            raise ConfigError(f"[{sec}] {key} must be positive")
    # 0 means the automatic choice; NaN fails both comparisons
    if not 0.0 <= values[("tolerances", "c_hat")] < math.inf:
        raise ConfigError("[tolerances] c_hat must be finite and >= 0 (0 means automatic)")
    if values[("run", "seed")] < 0:
        raise ConfigError("[run] seed must be nonnegative")
    # decay-study and convergence index these lists and build a domain per count
    for sec, key in (("sweep", "amplitudes"), ("convergence", "modes_list")):
        if not values[(sec, key)]:
            raise ConfigError(f"[{sec}] {key} must not be empty")
    if min(values[("convergence", "modes_list")]) < 1:
        raise ConfigError("[convergence] modes_list entries must be >= 1")
    if values[("convergence", "reference_modes")] < 1:
        raise ConfigError("[convergence] reference_modes must be >= 1")
    if not 0.0 < values[("convergence", "profile_ratio")] < 1.0:
        raise ConfigError("[convergence] profile_ratio must be in (0, 1)")
    if max(values[("convergence", "modes_list")]) >= values[("convergence", "reference_modes")]:
        raise ConfigError("[convergence] reference_modes must exceed modes_list")
    steps = values[("convergence", "dt_values")]
    if len(steps) != 3 or not all(
        abs(steps[i + 1] - steps[i] / 2.0) < 1e-12 * steps[0] for i in range(2)
    ):
        raise ConfigError("[convergence] dt_values must be a halving triplet")
    # the fields and sweeps take these as they are
    for sec, key in (
        ("initial", "amplitude"),
        ("initial", "amplitudes"),
        ("initial", "u1_amplitude"),
        ("initial", "u2_amplitude"),
        ("sweep", "amplitudes"),
        ("convergence", "amplitude"),
    ):
        value = values[(sec, key)]
        if not all(map(math.isfinite, value if isinstance(value, tuple) else (value,))):
            raise ConfigError(f"[{sec}] {key} must be finite")
    if not all(math.isfinite(b) and b > 0.0 for b in values[("sweep", "b_values")]):
        raise ConfigError("[sweep] b_values entries must be positive and finite")

    return SolverConfig(
        domain=domain,
        params=params,
        initial=_initial_state(domain, values),
        t_final=t_final,
        dt=dt,
        substeps=values[("time", "substeps")],
        eps_deg=values[("tolerances", "eps_deg")],
        picard_tol=values[("tolerances", "picard_tol")],
        picard_max_iter=values[("tolerances", "picard_max_iter")],
        blowup_bound=values[("tolerances", "blowup_bound")],
        eta=values[("tolerances", "eta")],
        c_hat=values[("tolerances", "c_hat")],
        out_dir=values[("output", "directory")],
        stride=values[("output", "stride")],
        seed=values[("run", "seed")],
        label=values[("run", "label")],
        sweep_amplitudes=values[("sweep", "amplitudes")],
        sweep_b_values=values[("sweep", "b_values")],
        conv_modes=values[("convergence", "modes_list")],
        conv_reference=values[("convergence", "reference_modes")],
        conv_ratio=values[("convergence", "profile_ratio")],
        conv_dts=values[("convergence", "dt_values")],
        conv_amplitude=values[("convergence", "amplitude")],
        canonical_text=_canonical(values),
    )


def _mode_field(domain, mode, amplitude):
    if amplitude == 0.0:
        return SpectralField.zeros(domain)
    if len(mode) not in (1, domain.dimension):
        raise ConfigError(f"mode {mode} does not fit a {domain.dimension}d domain")
    idx = mode if len(mode) == domain.dimension else mode * domain.dimension
    try:
        return SpectralField.single_mode(domain, idx, amplitude)
    except ValueError as err:
        raise ConfigError(str(err)) from err


def _initial_state(domain, values):
    """The [initial] data (u0, u1, u2) as an ``EvolutionState`` at t = 0;
    u1 and u2 take ``mode`` unless given their own."""
    spec = {key: values[("initial", key)] for key in _SCHEMA["initial"]}
    mode, amplitude = spec["mode"], spec["amplitude"]
    if spec["preset"] == "zero":
        u0 = SpectralField.zeros(domain)
    elif spec["preset"] == "single-mode":
        u0 = _mode_field(domain, mode, amplitude)
    elif spec["preset"] == "multi-mode":
        modes = spec["modes"]
        if domain.dimension != 1:
            raise ConfigError("multi-mode preset supports 1d domains only")
        if not modes:
            raise ConfigError("multi-mode preset needs [initial] modes")
        amps = spec["amplitudes"] or (amplitude,) * len(modes)
        if len(amps) != len(modes):
            raise ConfigError("[initial] amplitudes must match modes in length")
        u0 = SpectralField.zeros(domain)
        for m, amp in zip(modes, amps):
            u0 = u0 + _mode_field(domain, (m,), amp)
    else:  # random-seeded
        rng = np.random.default_rng(values[("run", "seed")])
        lam = np.asarray(domain.eigenvalue_grid)
        coeffs = amplitude * rng.standard_normal(domain.coeff_shape)
        coeffs *= (lam / domain.lambda0) ** -2.0
        u0 = SpectralField(domain, coeffs)
    u1 = _mode_field(domain, spec["u1_mode"] or mode, spec["u1_amplitude"])
    u2 = _mode_field(domain, spec["u2_mode"] or mode, spec["u2_amplitude"])
    return EvolutionState(0.0, u0, u1, u2)
