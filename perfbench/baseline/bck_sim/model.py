"""Model coefficients, state containers and the third-order evolution law.

The equations treated here are

    (a*laplace - d/dt)(u_tt - b*laplace(u_t) - c^2*laplace(u))
        = (k*(u_t)^2 + s*|grad u|^2)_tt

with a, b, c > 0, k >= 0 and the switch s in {0, 1} selecting the
Kuznetsov-type (s = 1) or Westervelt-type (s = 0) nonlinearity.  Expanding
the time derivatives on the right and collecting u_ttt terms yields the
quasilinear third-order form used throughout:

    (1 + 2k u_t) u_ttt = (a+b) laplace(u_tt) + c^2 laplace(u_t)
                         - a b laplace^2(u_t) - a c^2 laplace^2(u)
                         - 2k (u_tt)^2 - 2s |grad u_t|^2
                         - 2s grad(u) . grad(u_tt)

which degenerates when u_t reaches -1/(2k).  The solver therefore guards
the factor 1 + 2k u_t pointwise and aborts once |2k u_t| gets within
``eps_deg`` of one.

The quadratic forcing that the factorized first-order system sees is

    f = 2k (u_tt)^2 + 2k u_t u_ttt + 2s |grad u_t|^2 + 2s grad(u) . grad(u_tt),

obtained by differentiating the right-hand side twice in time; with it the
equation reads (a*laplace - d/dt)(u_tt - b*laplace(u_t) - c^2*laplace(u)) = f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError
from .spectral import (
    SpectralField,
    GridField,
    evaluate_gauss,
    gradient_dot,
    gradient_gauss,
    product_dealiased,
    project_gauss,
    to_grid,
)

__all__ = [
    "DEFAULT_EPS_DEG",
    "ModelParams",
    "PhysicalParams",
    "EvolutionState",
    "CompatibilityData",
    "derive_params",
    "degeneracy_factor",
    "check_degeneracy_guard",
    "forcing_f",
    "acceleration",
    "linear_uttt",
    "compatibility_uttt0",
    "make_compatibility_data",
    "pde_residual",
]

DEFAULT_EPS_DEG = 0.05


@dataclass(frozen=True)
class ModelParams:
    """Coefficients (a, b, c, k) and the gradient-nonlinearity switch s.

    The analysis of the model assumes k > 0; k = 0 is accepted here so the
    linear problem is expressible in the same interface (the degeneracy
    threshold is then infinite and the factor 1 + 2k u_t is identically 1).
    """

    a: float
    b: float
    c: float
    k: float
    s: int = 1

    def __post_init__(self):
        for name in ("a", "b", "c"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {v}")
        if not (math.isfinite(self.k) and self.k >= 0.0):
            raise ValueError(f"k must be >= 0, got {self.k}")
        if self.s not in (0, 1):
            raise ValueError(f"s must be 0 or 1, got {self.s}")

    @property
    def degeneracy_threshold(self):
        """|u_t| level at which 1 + 2k u_t can vanish: 1/(2k)."""
        return math.inf if self.k == 0.0 else 1.0 / (2.0 * self.k)


@dataclass(frozen=True)
class PhysicalParams:
    """Acoustic material data; exactly one of gamma / b_over_a is given.

    ``viscosity_number`` is 4/3 + mu_B/mu.  For liquids the adiabatic
    exponent is unavailable and the parameter of nonlinearity B/A stands in
    for gamma - 1 wherever it appears.
    """

    nu: float
    prandtl: float
    viscosity_number: float
    c0: float
    gamma: float | None = None
    b_over_a: float | None = None

    def __post_init__(self):
        if (self.gamma is None) == (self.b_over_a is None):
            raise ValueError("provide exactly one of gamma / b_over_a")
        for name in ("nu", "prandtl", "viscosity_number", "c0"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {v}")
        if self.gamma is not None and self.gamma <= 1.0:
            raise ValueError("gamma must exceed 1")
        if self.b_over_a is not None and self.b_over_a <= 0.0:
            raise ValueError("b_over_a must be positive")


def derive_params(phys, s=1):
    """Map material data to the model coefficients.

    a = nu / Pr,  b = (viscosity_number + (gamma - 1)/Pr) nu,
    k = (gamma - 1) / (2 c0^2), with B/A replacing gamma - 1 throughout when
    only b_over_a is supplied.
    """
    gm1 = phys.gamma - 1.0 if phys.gamma is not None else phys.b_over_a
    a = phys.nu / phys.prandtl
    b = (phys.viscosity_number + gm1 / phys.prandtl) * phys.nu
    k = gm1 / (2.0 * phys.c0**2)
    return ModelParams(a=a, b=b, c=phys.c0, k=k, s=s)


@dataclass
class EvolutionState:
    """Snapshot (u, u_t, u_tt) at time t, all on one domain."""

    t: float
    u: SpectralField
    ut: SpectralField
    utt: SpectralField

    def __post_init__(self):
        dom = self.u.domain
        if self.ut.domain != dom or self.utt.domain != dom:
            raise ValueError("state fields live on different domains")

    @property
    def domain(self):
        return self.u.domain


@dataclass
class CompatibilityData:
    """Initial triple plus the induced third time derivative at t = 0."""

    u0: SpectralField
    u1: SpectralField
    u2: SpectralField
    uttt0: SpectralField


# ---------------------------------------------------------------------------
# degeneracy guard
# ---------------------------------------------------------------------------


def degeneracy_factor(state, params):
    """Pointwise values of 1 + 2k u_t on the collocation grid and their min.

    Purely diagnostic; it never raises.  The solver-side guard is
    ``check_degeneracy_guard``.
    """
    grid = to_grid(state.ut)
    factor = 1.0 + 2.0 * params.k * grid.samples
    return GridField(state.domain, factor), float(factor.min())


def check_degeneracy_guard(ut, params, time, eps_deg=DEFAULT_EPS_DEG, at_start=False):
    """Raise DegeneracyError unless |2k u_t| < 1 - eps_deg on the grid.

    Enforcing the two-sided bound (rather than only keeping the factor
    positive) keeps the reciprocal uniformly bounded on both sides.
    Returns the grid minimum of 1 + 2k u_t.
    """
    if params.k == 0.0:
        return 1.0
    samples = to_grid(ut).samples
    scaled = 2.0 * params.k * samples
    worst = int(np.argmax(np.abs(scaled)))
    factor_min = float(1.0 + scaled.min())
    if abs(scaled.ravel()[worst]) >= 1.0 - eps_deg:
        idx = np.unravel_index(worst, samples.shape)
        idx = idx[0] if len(idx) == 1 else tuple(int(i) for i in idx)
        raise DegeneracyError(
            f"degeneracy guard tripped at t={time:.6g}: 1 + 2k u_t reaches "
            f"{1.0 + scaled.ravel()[worst]:.6g} at grid index {idx} "
            f"(require |2k u_t| < {1.0 - eps_deg:g})",
            time=time,
            index=idx,
            factor=factor_min,
            at_start=at_start,
        )
    return factor_min


# ---------------------------------------------------------------------------
# forcing and acceleration
# ---------------------------------------------------------------------------


def forcing_f(state, uttt, params):
    """Quadratic forcing f of the factorized system, exactly projected.

    f = 2k u_tt^2 + 2k u_t u_ttt + 2s |grad u_t|^2 + 2s grad(u).grad(u_tt).
    All four terms are quadratic in resolved fields, so the dealiased product
    machinery returns their exact Galerkin projection.
    """
    domain = state.domain
    out = np.zeros(domain.coeff_shape)
    if params.k != 0.0:
        out += 2.0 * params.k * product_dealiased(state.utt, state.utt).coeffs
        out += 2.0 * params.k * product_dealiased(state.ut, uttt).coeffs
    if params.s:
        out += 2.0 * gradient_dot(state.ut, state.ut).coeffs
        out += 2.0 * gradient_dot(state.u, state.utt).coeffs
    return SpectralField(domain, out)


def _linear_bracket_coeffs(state, params):
    """Coefficients of (a+b) laplace(u_tt) + c^2 laplace(u_t)
    - a b laplace^2(u_t) - a c^2 laplace^2(u); diagonal in the basis."""
    lam = state.domain.eigenvalue_grid
    a, b, c = params.a, params.b, params.c
    return (
        -(a + b) * lam * state.utt.coeffs
        - (c * c * lam + a * b * lam * lam) * state.ut.coeffs
        - a * c * c * lam * lam * state.u.coeffs
    )


def linear_uttt(state, params, f=None):
    """u_ttt of the linearized equation with frozen right-hand side f:

        u_ttt = (a+b) laplace(u_tt) + c^2 laplace(u_t)
                - a b laplace^2(u_t) - a c^2 laplace^2(u) - f.

    Exact in the Galerkin space; this is the consistent third derivative of
    a solution of the linear problem, and the k = s = 0 reduction of
    ``acceleration``.
    """
    coeffs = _linear_bracket_coeffs(state, params)
    if f is not None:
        coeffs = coeffs - f.coeffs
    return SpectralField(state.domain, coeffs)


def acceleration(state, params, eps_deg=DEFAULT_EPS_DEG):
    """Galerkin projection of u_ttt from the quasilinear evolution law.

    The numerator and the factor 1 + 2k u_t are evaluated pointwise on the
    Gauss grid, divided, and projected; the quadratic gradient terms are
    skipped entirely when s = 0 (they would contribute exact zeros).  Raises
    DegeneracyError when the guard fails on the collocation grid.
    """
    check_degeneracy_guard(state.ut, params, state.t, eps_deg)
    lin = SpectralField(state.domain, _linear_bracket_coeffs(state, params))
    if params.k == 0.0 and params.s == 0:
        return lin
    if params.k == 0.0:
        grad = 2.0 * gradient_dot(state.ut, state.ut).coeffs
        grad += 2.0 * gradient_dot(state.u, state.utt).coeffs
        return SpectralField(state.domain, lin.coeffs - grad)

    num = evaluate_gauss(lin)
    utt_vals = evaluate_gauss(state.utt)
    num = num - 2.0 * params.k * utt_vals * utt_vals
    if params.s:
        gu_t = gradient_gauss(state.ut)
        gu = gradient_gauss(state.u)
        gu_tt = gradient_gauss(state.utt)
        for comp_t, comp_u, comp_tt in zip(gu_t, gu, gu_tt):
            num = num - 2.0 * comp_t * comp_t - 2.0 * comp_u * comp_tt
    den = 1.0 + 2.0 * params.k * evaluate_gauss(state.ut)
    return project_gauss(state.domain, num / den)


def compatibility_uttt0(u0, u1, u2, params, eps_deg=DEFAULT_EPS_DEG):
    """Third time derivative induced at t = 0 by the evolution law itself."""
    state = EvolutionState(0.0, u0, u1, u2)
    return acceleration(state, params, eps_deg)


def make_compatibility_data(u0, u1, u2, params, eps_deg=DEFAULT_EPS_DEG):
    """Bundle initial data with the induced u_ttt(0), guarding degeneracy.

    A guard failure here carries ``at_start=True`` so callers can distinguish
    inadmissible data from a mid-run breakdown.
    """
    check_degeneracy_guard(u1, params, 0.0, eps_deg, at_start=True)
    return CompatibilityData(u0, u1, u2, compatibility_uttt0(u0, u1, u2, params, eps_deg))


# ---------------------------------------------------------------------------
# residual of the full equation along discrete trajectories
# ---------------------------------------------------------------------------


def _wave_part_coeffs(state, params):
    """G = u_tt - b laplace(u_t) - c^2 laplace(u) in coefficients."""
    lam = state.domain.eigenvalue_grid
    return (
        state.utt.coeffs
        + params.b * lam * state.ut.coeffs
        + params.c**2 * lam * state.u.coeffs
    )


def _quad_source_coeffs(state, params):
    """Q = k u_t^2 + s |grad u|^2, exactly projected."""
    out = np.zeros(state.domain.coeff_shape)
    if params.k != 0.0:
        out += params.k * product_dealiased(state.ut, state.ut).coeffs
    if params.s:
        out += gradient_dot(state.u, state.u).coeffs
    return out


def pde_residual(prev, mid, nxt, params, source=None):
    """Relative residual of the equation at ``mid`` from three equispaced states.

    Time derivatives use centered differences:
    (a laplace - d/dt) G - d^2/dt^2 Q - source, normalized by the largest
    constituent term norm.  ``source`` (a SpectralField at the middle time)
    supports manufactured-solution checks.
    """
    dt1 = mid.t - prev.t
    dt2 = nxt.t - mid.t
    if abs(dt1 - dt2) > 1e-9 * max(abs(dt1), abs(dt2)):
        raise ValueError("states must be equispaced in time")
    dt = 0.5 * (dt1 + dt2)
    domain = mid.domain
    lam = domain.eigenvalue_grid
    w = domain.mode_l2_squared

    g_prev = _wave_part_coeffs(prev, params)
    g_mid = _wave_part_coeffs(mid, params)
    g_next = _wave_part_coeffs(nxt, params)
    q_prev = _quad_source_coeffs(prev, params)
    q_mid = _quad_source_coeffs(mid, params)
    q_next = _quad_source_coeffs(nxt, params)

    t_diff = -params.a * lam * g_mid
    t_dot = (g_next - g_prev) / (2.0 * dt)
    t_ddot = (q_next - 2.0 * q_mid + q_prev) / (dt * dt)
    resid = t_diff - t_dot - t_ddot
    if source is not None:
        resid = resid - source.coeffs

    def norm(c):
        return math.sqrt(float(np.sum(c * c)) * w)

    scale = max(norm(t_diff), norm(t_dot), norm(t_ddot), 1e-300)
    return norm(resid) / scale
