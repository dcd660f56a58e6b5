"""Configuration ingestion for the batch front end.

Configs are sectioned key-value text (INI syntax, ``#`` comments).  The
schema is closed: unknown sections or keys are rejected.  Each key is
stated once, in its ``_SCHEMA`` row, which holds its kind, its default and
the range checks its value must pass; each ``SolverConfig`` field names
the key it holds.  Every value is validated and the initial data are built
before any solver runs, and the effective configuration has a canonical
serialization whose SHA-256 goes into the run record for reproducibility.
"""

import configparser
import hashlib
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import ConfigError
from .model import (
    DEFAULT_EPS_DEG, EvolutionState, ModelParams, PhysicalParams, derive_params, time_grid,
)
from .spectral import DomainSpec, SpectralField

# preset -> the [initial] keys it reads besides mode and the u1/u2 keys,
# which every preset reads
_PRESETS = {"zero": (), "single-mode": ("amplitude",),
            "multi-mode": ("amplitude", "modes", "amplitudes"), "random-seeded": ("amplitude",)}

_DIRECT_KEYS = ("a", "b", "c", "k")
_MATERIAL_KEYS = ("nu", "prandtl", "viscosity_number", "c0")
_PHYSICAL_KEYS = _MATERIAL_KEYS + ("gamma", "b_over_a")


def _halving_triplet(steps):
    return len(steps) == 3 and all(
        abs(steps[i + 1] - steps[i] / 2.0) < 1e-12 * steps[0] for i in range(2)
    )


# range checks: (predicate, what the value must be) pairs
_NONEMPTY = (bool, "must not be empty")
_FINITE = (math.isfinite, "must be finite")
_ALL_FINITE = (lambda v: all(map(math.isfinite, v)), "must be finite")
_AT_LEAST_ONE = (lambda v: v >= 1, "must be >= 1")
_POSITIVE = (lambda v: v > 0.0, "must be positive")

# section -> key -> (kind, default, *checks); kind in {int, float, floats,
# ints, str}, default None marks a required key, and the checks run in
# order on the value
_SCHEMA = {
    "domain": {
        "dimension": ("int", 1),
        "lengths": ("floats", (math.pi,)),
        "modes": ("int", None),
        "quadrature_points": ("int", 0, (lambda v: v >= 0, "must be >= 0 (0 means the default)")),
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
    # the fields and sweeps take the amplitudes as they are
    "initial": {
        "preset": ("str", "zero"),
        "amplitude": ("float", 0.0, _FINITE),
        "mode": ("ints", (1,)),
        "modes": ("ints", ()),
        "amplitudes": ("floats", (), _ALL_FINITE),
        "u1_amplitude": ("float", 0.0, _FINITE),
        "u1_mode": ("ints", ()),
        "u2_amplitude": ("float", 0.0, _FINITE),
        "u2_mode": ("ints", ()),
    },
    "time": {
        "t_final": ("float", None),
        "dt": ("float", None),
        "substeps": ("int", 2, _AT_LEAST_ONE),
    },
    "tolerances": {
        # the guard trips once |2k u_t| >= 1 - eps_deg, so eps_deg >= 1 trips at t = 0
        "eps_deg": ("float", DEFAULT_EPS_DEG, (lambda v: 0.0 < v < 1.0, "must lie in (0, 1)")),
        "picard_tol": ("float", 1e-9, _POSITIVE),
        "picard_max_iter": ("int", 20, _AT_LEAST_ONE),
        "blowup_bound": ("float", 1e12, _POSITIVE),
        "eta": ("float", 1e-4, _POSITIVE),
        # 0 means the automatic choice; NaN fails both comparisons
        "c_hat": ("float", 0.0, (lambda v: 0.0 <= v < math.inf,
                                 "must be finite and >= 0 (0 means automatic)")),
    },
    "output": {
        "directory": ("str", "out"),
        "stride": ("int", 1, _AT_LEAST_ONE),
    },
    "run": {
        "seed": ("int", 0, (lambda v: v >= 0, "must be nonnegative")),
        "label": ("str", ""),
    },
    # decay-study indexes [sweep] amplitudes and convergence builds a domain per
    # [convergence] modes_list entry, so neither list may be empty
    "sweep": {
        "amplitudes": ("floats", (1e-4, 1e-3, 1e-2), _NONEMPTY, _ALL_FINITE),
        "b_values": ("floats", (), (lambda v: all(math.isfinite(b) and b > 0.0 for b in v),
                                    "entries must be positive and finite")),
    },
    "convergence": {
        "modes_list": ("ints", (16, 32), _NONEMPTY,
                       (lambda v: min(v) >= 1, "entries must be >= 1")),
        "reference_modes": ("int", 64, _AT_LEAST_ONE),
        "profile_ratio": ("float", 0.3, (lambda v: 0.0 < v < 1.0, "must be in (0, 1)")),
        "dt_values": ("floats", (0.02, 0.01, 0.005),
                      (_halving_triplet, "must be a halving triplet")),
        "amplitude": ("float", 1e-2, _FINITE),
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


def _key(section, key):
    """A ``SolverConfig`` field that holds the value of ``[section] key``."""
    return field(metadata={"key": (section, key)})


@dataclass
class SolverConfig:
    """Validated run description; one instance per CLI invocation."""

    domain: DomainSpec
    params: ModelParams
    initial: EvolutionState
    t_final: float = _key("time", "t_final")
    dt: float = _key("time", "dt")
    substeps: int = _key("time", "substeps")
    eps_deg: float = _key("tolerances", "eps_deg")
    picard_tol: float = _key("tolerances", "picard_tol")
    picard_max_iter: int = _key("tolerances", "picard_max_iter")
    blowup_bound: float = _key("tolerances", "blowup_bound")
    eta: float = _key("tolerances", "eta")
    c_hat: float = _key("tolerances", "c_hat")
    out_dir: str = _key("output", "directory")
    stride: int = _key("output", "stride")
    seed: int = _key("run", "seed")
    label: str = _key("run", "label")
    sweep_amplitudes: tuple = _key("sweep", "amplitudes")
    sweep_b_values: tuple = _key("sweep", "b_values")
    conv_modes: tuple = _key("convergence", "modes_list")
    conv_reference: int = _key("convergence", "reference_modes")
    conv_ratio: float = _key("convergence", "profile_ratio")
    conv_dts: tuple = _key("convergence", "dt_values")
    conv_amplitude: float = _key("convergence", "amplitude")
    canonical_text: str = field(repr=False, default="")

    @property
    def config_sha256(self):
        return hashlib.sha256(self.canonical_text.encode()).hexdigest()


def _read_values(parser):
    """Every schema value: parsed from the file, else its default, each
    checked by its row."""
    values = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            kind = _SCHEMA[section][key][0]
            values[(section, key)] = _parse_scalar(
                kind, parser[section][key], f"[{section}] {key}"
            )
    for section in _REQUIRED_SECTIONS:
        if not parser.has_section(section):
            raise ConfigError(f"missing required section [{section}]")
    for section, keys in _SCHEMA.items():
        for key, (_, default, *checks) in keys.items():
            value = values.setdefault((section, key), default)
            if value is None:
                raise ConfigError(f"missing required key {key!r} in [{section}]")
            for holds, words in checks:
                if not holds(value):
                    raise ConfigError(f"[{section}] {key} {words}")
    return values


def _build_params(values):
    """The model coefficients of the [params] keys given: the direct form
    a, b, c, k, or material data for ``derive_params``."""
    given = {}
    for key in _DIRECT_KEYS + _PHYSICAL_KEYS:
        if not math.isnan(values[("params", key)]):
            given[key] = values[("params", key)]
    s = values[("params", "s")]
    direct = any(key in given for key in _DIRECT_KEYS)
    if direct and any(key in given for key in _PHYSICAL_KEYS):
        raise ConfigError(
            "[params] mixes direct coefficients with material data; provide "
            "either a,b,c,k or nu,prandtl,viscosity_number,c0 with gamma/b_over_a"
        )
    if not given:
        raise ConfigError("[params] provides neither direct coefficients nor material data")
    form, needed = ("direct", _DIRECT_KEYS) if direct else ("material", _MATERIAL_KEYS)
    missing = [key for key in needed if key not in given]
    if missing:
        raise ConfigError(f"[params] {form} form needs keys {missing}")
    if direct:
        return ModelParams(**given, s=s)
    return derive_params(PhysicalParams(**given), s=s)


# where a run writes and what it is called change no number it computes
_UNHASHED = frozenset({("output", "directory"), ("run", "label")})


def _canonical(values):
    """Text of every value that determines the results; its SHA-256 is
    ``config_sha256``, the physics identity of a run.  The [initial] keys
    that the preset does not read hash as their defaults."""
    unread = {key for keys in _PRESETS.values() for key in keys}
    unread -= set(_PRESETS[values[("initial", "preset")]])
    lines = []
    for section in sorted(_SCHEMA):
        for key in sorted(_SCHEMA[section]):
            if (section, key) in _UNHASHED:
                continue
            val = values[(section, key)]
            if section == "initial" and key in unread:
                val = _SCHEMA[section][key][1]
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


def load_config(path, overrides=()):
    """The ``SolverConfig`` of the file at ``path`` with ``section.key=value``
    ``overrides`` applied in order.

    Each value passes the checks of its schema row before the domain, the
    params and the initial data are built; then the checks that relate
    keys run.  Each ``SolverConfig`` field takes the value of the key it
    names.  Any fault raises ``ConfigError``.
    """
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
    values = _read_values(parser)

    quad = values[("domain", "quadrature_points")]
    try:
        domain = DomainSpec(
            dimension=values[("domain", "dimension")],
            lengths=values[("domain", "lengths")],
            modes_per_axis=values[("domain", "modes")],
        )
        if quad == domain.quadrature_points_per_axis:
            # the default spelled out is the default, and hashes as 0
            values[("domain", "quadrature_points")] = 0
        elif quad > 0:
            domain = replace(domain, quadrature_points_per_axis=quad)
        params = _build_params(values)
    except (ConfigError, ValueError) as err:
        raise ConfigError(str(err)) from err

    preset = values[("initial", "preset")]
    if preset not in _PRESETS:
        raise ConfigError(f"unknown initial preset {preset!r}; choose from {tuple(_PRESETS)}")

    t_final = values[("time", "t_final")]
    dt = values[("time", "dt")]
    if not (t_final > 0.0 and dt > 0.0 and dt <= t_final):
        raise ConfigError("[time] needs 0 < dt <= t_final")
    try:
        time_grid(t_final, dt)
    except ValueError as err:
        raise ConfigError(f"[time] {err}") from err
    if max(values[("convergence", "modes_list")]) >= values[("convergence", "reference_modes")]:
        raise ConfigError("[convergence] reference_modes must exceed modes_list")

    return SolverConfig(
        domain=domain,
        params=params,
        initial=_initial_state(domain, values),
        canonical_text=_canonical(values),
        **{f.name: values[f.metadata["key"]] for f in fields(SolverConfig) if f.metadata},
    )


def _mode_field(domain, mode, amplitude):
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
