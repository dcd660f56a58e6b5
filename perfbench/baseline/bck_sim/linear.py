"""Per-mode semigroup propagation for the linearized evolution.

Over the sine eigenbasis the linear part of the third-order-in-time
equation decouples into one 3x3 block per Laplacian eigenvalue,

    A_lam = [[0, 1, 0], [-c^2 lam, -b lam, 1], [0, 0, -a lam]],

acting on the per-mode unknown U = (u, u_t, u_tt + b lam u_t
+ c^2 lam u).  This module builds the blocks and their closed-form
spectra, the spectral bound, batched matrix exponentials with the
phi-function weights used by forced (Duhamel) solves, and decay
diagnostics on top of the exact propagation.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.linalg import expm

from .energy import DecayFit, decay_fit
from .errors import FitError
from .model import EvolutionState
from .spectral import SpectralField


def mode_eigenvalues_from_coefficients(lam, a, b, c):
    """Closed-form spectrum {-a*lam} | roots(mu^2 + b*lam*mu + c^2*lam).

    Accepts b = 0, which the analyticity diagnostics need.  The real
    quadratic branch is evaluated in the cancellation-free form.
    """
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    p = b * lam
    q = c * c * lam
    disc = p * p - 4.0 * q
    if disc >= 0.0:
        big = -(p + math.sqrt(disc)) / 2.0
        pair = (complex(big), complex(q / big))
    else:
        half = math.sqrt(-disc) / 2.0
        pair = (complex(-p / 2.0, half), complex(-p / 2.0, -half))
    return np.array([complex(-a * lam), pair[0], pair[1]])


@dataclass(frozen=True, eq=False)
class ModeBlock:
    """One 3x3 generator block with its eigenvalue triple."""

    lam: float
    matrix: np.ndarray
    eigenvalues: np.ndarray


def mode_matrix(lam, params):
    lam = float(lam)
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    matrix = np.array(
        [
            [0.0, 1.0, 0.0],
            [-params.c**2 * lam, -params.b * lam, 1.0],
            [0.0, 0.0, -params.a * lam],
        ]
    )
    eig = mode_eigenvalues_from_coefficients(lam, params.a, params.b, params.c)
    return ModeBlock(lam=lam, matrix=matrix, eigenvalues=eig)


class SpectralBound(NamedTuple):
    value: float
    branch: str


def spectral_bound(params, lambda0):
    """Closed-form bound -min{a*lam0, b*lam0/2, c^2/b} with its branch label."""
    if lambda0 <= 0.0:
        raise ValueError("lambda0 must be positive")
    candidates = (
        (params.a * lambda0, "heat"),
        (0.5 * params.b * lambda0, "oscillatory"),
        (params.c**2 / params.b, "overdamped"),
    )
    best = min(candidates, key=lambda item: item[0])
    return SpectralBound(value=-best[0], branch=best[1])


def max_mode_real_part(domain, params):
    """Largest eigenvalue real part over the domain's actual modes."""
    lam = np.asarray(domain.eigenvalue_grid, dtype=float).ravel()
    heat = -params.a * lam
    p = params.b * lam
    q = params.c**2 * lam
    disc = p * p - 4.0 * q
    sq = np.sqrt(np.maximum(disc, 0.0))
    wave = np.where(disc < 0.0, -p / 2.0, -2.0 * q / (p + sq))
    return float(np.max(np.maximum(heat, wave)))


def oscillation_ratio(domain, a, b, c):
    """max over modes of |Im mu| / (1 + |Re mu|) for the wave pair.

    Grows like c*sqrt(lam_max) when b = 0 and stays bounded for b > 0,
    which witnesses the loss of sectoriality without damping.
    """
    lam = np.asarray(domain.eigenvalue_grid, dtype=float).ravel()
    p = b * lam
    q = c * c * lam
    disc = p * p - 4.0 * q
    osc = disc < 0.0
    imag = np.where(osc, np.sqrt(np.maximum(-disc, 0.0)) / 2.0, 0.0)
    real = np.where(osc, p / 2.0, 0.0)
    return float(np.max(imag / (1.0 + real), initial=0.0))


@dataclass
class SemigroupState:
    """Stacked per-mode 3-vectors; data has shape (3,) + coeff shape."""

    domain: object
    t: float
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        expected = (3,) + self.domain.coeff_shape
        if self.data.shape != expected:
            raise ValueError(f"semigroup data must have shape {expected}")

    def component(self, i):
        return SpectralField(self.domain, self.data[i].copy())


def to_semigroup(state, params):
    lam = np.asarray(state.domain.eigenvalue_grid, dtype=float)
    third = (
        state.utt.coeffs
        + params.b * lam * state.ut.coeffs
        + params.c**2 * lam * state.u.coeffs
    )
    data = np.stack([state.u.coeffs, state.ut.coeffs, third])
    return SemigroupState(domain=state.domain, t=state.t, data=data)


def from_semigroup(semi, params):
    lam = np.asarray(semi.domain.eigenvalue_grid, dtype=float)
    u, ut = semi.data[0], semi.data[1]
    utt = semi.data[2] - params.b * lam * ut - params.c**2 * lam * u
    return EvolutionState(
        t=semi.t,
        u=SpectralField(semi.domain, u.copy()),
        ut=SpectralField(semi.domain, ut.copy()),
        utt=SpectralField(semi.domain, utt),
    )


def _linear_third_component(domain, params, u, ut, utt):
    """u_ttt from the linear bracket, broadcasting over leading axes."""
    lam = np.asarray(domain.eigenvalue_grid, dtype=float)
    a, b, c = params.a, params.b, params.c
    return (
        -(a + b) * lam * utt
        - (c * c * lam + a * b * lam * lam) * ut
        - a * c * c * lam * lam * u
    )


@dataclass(frozen=True, eq=False)
class PropagatorTable:
    """Batched exp(dt*A) blocks with first and second phi weights.

    propagator[m] = exp(dt*A_m); phi1_weight[m] = dt*phi1(dt*A_m);
    phi2_weight[m] = dt^2*phi2(dt*A_m).  Modes are the C-order raveling
    of the coefficient grid.  All three come from one batched matrix
    exponential of the 9x9 block companion [[A, I, 0], [0, 0, I],
    [0, 0, 0]] scaled by dt.
    """

    domain: object
    params: object
    dt: float
    propagator: np.ndarray
    phi1_weight: np.ndarray
    phi2_weight: np.ndarray

    @classmethod
    def build(cls, domain, params, dt):
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        lam = np.asarray(domain.eigenvalue_grid, dtype=float).ravel()
        n = lam.size
        blocks = np.zeros((n, 3, 3))
        blocks[:, 0, 1] = 1.0
        blocks[:, 1, 0] = -params.c**2 * lam
        blocks[:, 1, 1] = -params.b * lam
        blocks[:, 1, 2] = 1.0
        blocks[:, 2, 2] = -params.a * lam
        aug = np.zeros((n, 9, 9))
        aug[:, :3, :3] = dt * blocks
        idx = np.arange(3)
        aug[:, idx, idx + 3] = dt
        aug[:, idx + 3, idx + 6] = dt
        full = expm(aug)
        return cls(
            domain=domain,
            params=params,
            dt=float(dt),
            propagator=np.ascontiguousarray(full[:, :3, :3]),
            phi1_weight=np.ascontiguousarray(full[:, :3, 3:6]),
            phi2_weight=np.ascontiguousarray(full[:, :3, 6:9]),
        )


@lru_cache(maxsize=16)
def propagator_table(domain, params, dt):
    return PropagatorTable.build(domain, params, float(dt))


def _resolve_table(domain, params, dt, table):
    if table is None:
        return propagator_table(domain, params, float(dt))
    if table.domain != domain or abs(table.dt - dt) > 1e-12 * max(1.0, abs(dt)):
        raise ValueError("propagator table does not match this domain and dt")
    return table


def step_homogeneous(state, dt, params, table=None):
    """One exact propagation step U -> exp(dt*A)U, unconditionally stable."""
    table = _resolve_table(state.domain, params, dt, table)
    flat = state.data.reshape(3, -1)
    out = np.einsum("nij,jn->in", table.propagator, flat)
    return SemigroupState(
        domain=state.domain, t=state.t + dt, data=out.reshape(state.data.shape)
    )


@dataclass(frozen=True, eq=False)
class DuhamelSolution:
    """Forced linear solve sampled on a uniform grid.

    data[i] stacks the semigroup 3-vectors at t_grid[i]; u/ut/utt views
    are in the original (u, u_t, u_tt) variables.
    """

    domain: object
    params: object
    t_grid: np.ndarray
    data: np.ndarray

    @property
    def u(self):
        return self.data[:, 0]

    @property
    def ut(self):
        return self.data[:, 1]

    @property
    def utt(self):
        lam = np.asarray(self.domain.eigenvalue_grid, dtype=float)
        b, c = self.params.b, self.params.c
        return self.data[:, 2] - b * lam * self.data[:, 1] - c * c * lam * self.data[:, 0]

    def state(self, i):
        semi = SemigroupState(self.domain, float(self.t_grid[i]), self.data[i])
        return from_semigroup(semi, self.params)

    def uttt_series(self, forcing_third=None):
        """Third time derivative from the linear bracket plus the forcing."""
        out = _linear_third_component(self.domain, self.params, self.u, self.ut, self.utt)
        if forcing_third is not None:
            out = out + np.asarray(forcing_third, dtype=float)
        return out


def _validate_uniform_grid(t_grid):
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("t_grid must be a vector with at least two samples")
    steps = np.diff(t)
    dt = steps[0]
    if dt <= 0.0 or np.max(np.abs(steps - dt)) > 1e-9 * max(1.0, abs(dt)):
        raise ValueError("t_grid must be uniformly spaced and increasing")
    return t, float(dt)


def solve_duhamel(initial, params, t_grid, forcing_third=None, table=None):
    """Exponential-integrator solve of U' = AU + (0, 0, f3(t)).

    forcing_third gives the third forcing component as an array sampled
    on t_grid (shape (nt,) + coeff shape), a callable t -> coefficients,
    or None for the homogeneous problem.  Each step applies

        U_{n+1} = E U_n + P1 F_n + P2 (F_{n+1} - F_n) / dt,

    with P1 = dt*phi1, P2 = dt^2*phi2, which is exact for forcing linear
    in t on each step and second-order accurate overall.
    """
    t, dt = _validate_uniform_grid(t_grid)
    nt = t.size
    domain = initial.domain
    shape = domain.coeff_shape
    if forcing_third is None:
        f3 = np.zeros((nt,) + shape)
    elif callable(forcing_third):
        f3 = np.stack([np.asarray(forcing_third(float(ti)), dtype=float) for ti in t])
    else:
        f3 = np.asarray(forcing_third, dtype=float)
    if f3.shape != (nt,) + shape:
        raise ValueError("forcing samples must have shape (nt,) + coeff shape")

    table = _resolve_table(domain, params, dt, table)
    p1_col = table.phi1_weight[:, :, 2]
    p2_col = table.phi2_weight[:, :, 2]

    n_modes = domain.n_modes
    f3_flat = f3.reshape(nt, n_modes)
    data = np.empty((nt, 3, n_modes))
    data[0] = initial.data.reshape(3, -1)
    for n in range(nt - 1):
        hom = np.einsum("nij,jn->in", table.propagator, data[n])
        slope = (f3_flat[n + 1] - f3_flat[n]) / dt
        data[n + 1] = hom + p1_col.T * f3_flat[n] + p2_col.T * slope
    return DuhamelSolution(
        domain=domain,
        params=params,
        t_grid=t,
        data=data.reshape((nt, 3) + shape),
    )


def _linear_energy_series(sol):
    lam = np.asarray(sol.domain.eigenvalue_grid, dtype=float)
    weight = sol.domain.mode_l2_squared
    axes = tuple(range(-lam.ndim, 0))
    u, ut, third = sol.data[:, 0], sol.data[:, 1], sol.data[:, 2]
    quartic = (u * u + ut * ut) * lam**4
    quadratic = third * third * lam**2
    return weight * (quartic + quadratic).sum(axis=axes)


def linear_decay_report(initial, params, T, dt):
    """Homogeneous run with a log-linear decay fit on the trailing half.

    Fits linear_energy(t) ~ C*exp(-omega*t); the returned M is the
    smallest constant with E(t) <= M*exp(-omega*t)*E(0) over the whole
    run.  Raises FitError for zero data or if the energy trend grows on
    the trailing window.
    """
    if T <= 0.0 or dt <= 0.0:
        raise ValueError("T and dt must be positive")
    nt = int(round(T / dt)) + 1
    t = initial.t + dt * np.arange(nt)
    semi = to_semigroup(initial, params)
    sol = solve_duhamel(semi, params, t)
    energy = _linear_energy_series(sol)
    if energy[0] <= 0.0:
        raise FitError("zero initial data gives a degenerate decay fit")
    half = nt // 2
    if energy[-1] > energy[half]:
        raise FitError("energy trend grows on the trailing window")
    fit = decay_fit(t, energy, window_fraction=0.5)
    rel = t - t[0]
    prefactor = float(np.max(energy * np.exp(fit.omega * rel) / energy[0]))
    return DecayFit(
        omega=fit.omega, M=prefactor, window=fit.window, residual=fit.residual
    )


def weighted_norm(semi, params, alpha=0.1):
    """Diagnostic weighted state norm with weight (alpha*b/2)^2 on the first slot.

    sqrt((alpha*b/2)^2 ||A^2 U1||^2 + ||A U2||^2 + ||U3||^2).
    """
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    lam = np.asarray(semi.domain.eigenvalue_grid, dtype=float)
    weight = semi.domain.mode_l2_squared
    u1, u2, u3 = semi.data
    scale = (alpha * params.b / 2.0) ** 2
    total = (
        scale * (lam**4 * u1 * u1).sum()
        + (lam**2 * u2 * u2).sum()
        + (u3 * u3).sum()
    )
    return math.sqrt(weight * total)


@dataclass(frozen=True)
class RelativeBoundReport:
    """Measured vs. stated constants for the diagonal/off-diagonal split.

    The generator splits as A = A1 + A2 with A1 the diagonal damping part
    and A2 the coupling part; the report compares the measured offset in
    ||A2 v|| <= (alpha/2)||A1 v|| + offset*||v|| against the stated value
    sqrt(2)*max(2c^2/(alpha*b), 1).  Reported, not asserted.
    """

    alpha: float
    slope: float
    claimed_offset: float
    measured_offset: float
    satisfied: bool


def relative_bound_report(domain, params, alpha=0.1, n_samples=64, seed=0):
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    rng = np.random.default_rng(seed)
    lam = np.asarray(domain.eigenvalue_grid, dtype=float).ravel()
    a, b, c = params.a, params.b, params.c
    scale = (alpha * b / 2.0) ** 2
    v = rng.standard_normal((lam.size, n_samples, 3))
    lam_col = lam[:, None]
    v1, v2, v3 = v[..., 0], v[..., 1], v[..., 2]
    norm_v = np.sqrt(scale * lam_col**4 * v1**2 + lam_col**2 * v2**2 + v3**2)
    norm_a1 = np.sqrt(lam_col**2 * (b * lam_col * v2) ** 2 + (a * lam_col * v3) ** 2)
    norm_a2 = np.sqrt(
        scale * lam_col**4 * v2**2 + lam_col**2 * (c * c * lam_col * v1 - v3) ** 2
    )
    measured = float(np.max((norm_a2 - 0.5 * alpha * norm_a1) / norm_v))
    claimed = math.sqrt(2.0) * max(2.0 * c * c / (alpha * b), 1.0)
    return RelativeBoundReport(
        alpha=float(alpha),
        slope=0.5 * alpha,
        claimed_offset=claimed,
        measured_offset=measured,
        satisfied=measured <= claimed + 1e-12,
    )
