"""Energy functionals, identities and estimate audits.

Everything here is a quadratic functional of spectral coefficients or a
time-quadrature statement about a solved trajectory.  A "trajectory" is
any object with attributes ``t_grid`` (uniform, shape (nt,)), ``u``,
``ut``, ``utt``, ``uttt`` (coefficient arrays of shape (nt,) + coeff
shape) and ``domain``.

Sobolev norms are the homogeneous spectral powers ``||A^{s/2} v||``;
since the lowest Laplacian eigenvalue is positive on every admissible
domain these are equivalent to the full norms.

The heat-factor field is w = u_t + a*A*u.  Writing D_h = d/dt + a*A and
D_w = d^2/dt^2 + b*A*d/dt + c^2*A, the linear part of the model is
exactly D_w(D_h u) and a solution satisfies D_w(D_h u) = -f.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .errors import DivisionGuardError, FitError
from .model import EvolutionState, forcing_f
from .spectral import SpectralField, linf_grid, sobolev_norm


@dataclass(frozen=True)
class EnergyReport:
    """Instantaneous energy functionals of one state.

    k_functional is None when no fourth time derivative was available.
    The sobolev map is keyed by (field name, order).
    """

    t: float
    E1: float
    E2: float
    E_total: float
    k_functional: float | None
    linear_energy: float
    sobolev: dict
    linf_ut: float


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of series ~ M * exp(-omega * t) on a window."""

    omega: float
    M: float
    window: tuple
    residual: float


@dataclass(frozen=True)
class EstimateAudit:
    """Pointwise comparison lhs(t) <= c * rhs(t) with the minimal constant."""

    t_grid: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    c_min: float


@dataclass(frozen=True)
class BarrierAudit:
    passed: bool
    pointwise_ratio: float
    integrated_ratio: float
    initial_energy: float
    eta: float
    c_hat: float


def _lam_weight(domain):
    lam = np.asarray(domain.eigenvalue_grid, dtype=float)
    return lam, domain.mode_l2_squared


def _sq_norm(coeffs, lam, weight, power):
    """Squared norm ||A^{power/2} v||^2 from raw coefficients.

    Broadcasts over any number of leading axes; the trailing axes are the
    mode axes of the coefficient grid.
    """
    axes = tuple(range(-lam.ndim, 0))
    scaled = coeffs * coeffs if power == 0 else coeffs * coeffs * lam**power
    return weight * scaled.sum(axis=axes)


def w_field(state, params, uttt=None):
    """Heat-factor field w = u_t + a*A*u and its first two time derivatives.

    w_tt needs u_ttt; if not supplied it is computed with acceleration
    (which may raise DegeneracyError).
    """
    from .model import acceleration

    if uttt is None:
        uttt = acceleration(state, params)
    lam = np.asarray(state.domain.eigenvalue_grid, dtype=float)
    a = params.a
    dom = state.domain
    w = SpectralField(dom, state.ut.coeffs + a * lam * state.u.coeffs)
    wt = SpectralField(dom, state.utt.coeffs + a * lam * state.ut.coeffs)
    wtt = SpectralField(dom, uttt.coeffs + a * lam * state.utt.coeffs)
    return w, wt, wtt


def linear_energy(state, params):
    """||u||_{H4}^2 + ||u_t||_{H4}^2 + ||u_tt + b*A*u_t + c^2*A*u||_{H2}^2."""
    lam, weight = _lam_weight(state.domain)
    third = (
        state.utt.coeffs
        + params.b * lam * state.ut.coeffs
        + params.c**2 * lam * state.u.coeffs
    )
    return float(
        _sq_norm(state.u.coeffs, lam, weight, 4)
        + _sq_norm(state.ut.coeffs, lam, weight, 4)
        + _sq_norm(third, lam, weight, 2)
    )


def energies(state, uttt, params, utttt=None):
    """All instantaneous functionals of one state as an EnergyReport."""
    lam, weight = _lam_weight(state.domain)
    w, wt, wtt = w_field(state, params, uttt)
    e1 = 0.5 * float(
        _sq_norm(wtt.coeffs, lam, weight, 1)
        + _sq_norm(wt.coeffs, lam, weight, 1)
        + _sq_norm(w.coeffs, lam, weight, 2)
    )
    e2 = 0.5 * float(
        _sq_norm(uttt.coeffs, lam, weight, 1)
        + _sq_norm(state.utt.coeffs, lam, weight, 2)
        + _sq_norm(state.ut.coeffs, lam, weight, 3)
        + _sq_norm(state.u.coeffs, lam, weight, 3)
    )
    k_functional = None
    if utttt is not None:
        k_functional = float(
            _sq_norm(utttt.coeffs, lam, weight, 0)
            + _sq_norm(uttt.coeffs, lam, weight, 2)
            + _sq_norm(state.utt.coeffs, lam, weight, 3)
            + _sq_norm(state.ut.coeffs, lam, weight, 4)
            + _sq_norm(state.u.coeffs, lam, weight, 4)
        )
    sobolev = {
        ("u", 4): sobolev_norm(state.u, 4),
        ("ut", 3): sobolev_norm(state.ut, 3),
        ("utt", 3): sobolev_norm(state.utt, 3),
        ("uttt", 1): sobolev_norm(uttt, 1),
    }
    return EnergyReport(
        t=state.t,
        E1=e1,
        E2=e2,
        E_total=e1 + e2,
        k_functional=k_functional,
        linear_energy=linear_energy(state, params),
        sobolev=sobolev,
        linf_ut=linf_grid(state.ut),
    )


def fourth_derivative_series(t_grid, uttt_coeffs):
    """Centered differences of the stored u_ttt series, one-sided at the ends."""
    t_grid = np.asarray(t_grid, dtype=float)
    arr = np.asarray(uttt_coeffs, dtype=float)
    out = np.zeros_like(arr)
    if arr.shape[0] < 2:
        return out
    dt = t_grid[1] - t_grid[0]
    out[1:-1] = (arr[2:] - arr[:-2]) / (2.0 * dt)
    out[0] = (arr[1] - arr[0]) / dt
    out[-1] = (arr[-1] - arr[-2]) / dt
    return out


def _time_derivative_series(t_grid, coeffs):
    return fourth_derivative_series(t_grid, coeffs)


def energy_series(traj, params):
    """Vectorized energy functionals along a trajectory.

    Returns a dict of equal-length arrays keyed by the CSV column names
    (plus "t").
    """
    lam, weight = _lam_weight(traj.domain)
    t = np.asarray(traj.t_grid, dtype=float)
    u, ut, utt, uttt = traj.u, traj.ut, traj.utt, traj.uttt
    a, b, c = params.a, params.b, params.c

    w = ut + a * lam * u
    wt = utt + a * lam * ut
    wtt = uttt + a * lam * utt
    e1 = 0.5 * (
        _sq_norm(wtt, lam, weight, 1)
        + _sq_norm(wt, lam, weight, 1)
        + _sq_norm(w, lam, weight, 2)
    )
    e2 = 0.5 * (
        _sq_norm(uttt, lam, weight, 1)
        + _sq_norm(utt, lam, weight, 2)
        + _sq_norm(ut, lam, weight, 3)
        + _sq_norm(u, lam, weight, 3)
    )
    utttt = fourth_derivative_series(t, uttt)
    k_functional = (
        _sq_norm(utttt, lam, weight, 0)
        + _sq_norm(uttt, lam, weight, 2)
        + _sq_norm(utt, lam, weight, 3)
        + _sq_norm(ut, lam, weight, 4)
        + _sq_norm(u, lam, weight, 4)
    )
    third = utt + b * lam * ut + c**2 * lam * u
    lin = (
        _sq_norm(u, lam, weight, 4)
        + _sq_norm(ut, lam, weight, 4)
        + _sq_norm(third, lam, weight, 2)
    )
    linf_ut = np.array(
        [linf_grid(SpectralField(traj.domain, ut[i])) for i in range(t.size)]
    )
    return {
        "t": t,
        "E1": e1,
        "E2": e2,
        "E_total": e1 + e2,
        "k_functional": k_functional,
        "linear_energy": lin,
        "H4_u": np.sqrt(_sq_norm(u, lam, weight, 4)),
        "H3_ut": np.sqrt(_sq_norm(ut, lam, weight, 3)),
        "H3_utt": np.sqrt(_sq_norm(utt, lam, weight, 3)),
        "H1_uttt": np.sqrt(_sq_norm(uttt, lam, weight, 1)),
        "Linf_ut": linf_ut,
    }


def decay_norm_sum(series):
    """||u||_{H4}^2 + ||u_t||_{H3}^2 + ||u_tt||_{H3}^2 + ||u_ttt||_{H1}^2."""
    return (
        series["H4_u"] ** 2
        + series["H3_ut"] ** 2
        + series["H3_utt"] ** 2
        + series["H1_uttt"] ** 2
    )


def forcing_series(traj, params):
    """Quadratic forcing coefficients f evaluated at every sample."""
    t = np.asarray(traj.t_grid, dtype=float)
    out = np.zeros_like(traj.u)
    dom = traj.domain
    for i in range(t.size):
        state = EvolutionState(
            float(t[i]),
            SpectralField(dom, traj.u[i]),
            SpectralField(dom, traj.ut[i]),
            SpectralField(dom, traj.utt[i]),
        )
        out[i] = forcing_f(state, SpectralField(dom, traj.uttt[i]), params).coeffs
    return out


def heat_identity_audit(t_grid, v_coeffs, a, domain, vt_coeffs=None):
    """Relative residual of the heat energy identity for one field series.

    The identity: integral of ||v_t + a*A*v||^2 over [0, T] equals
    a*||A^(1/2)v(T)||^2 - a*||A^(1/2)v(0)||^2 plus the integral of
    ||v_t||^2 + a^2*||A*v||^2.  Time integrals use the trapezoid rule;
    v_t is centered-differenced when not supplied.

    The residual is |LHS - RHS| scaled by the largest magnitude among the
    sides and the individual right-hand terms.  The term magnitudes matter
    for fields where the sides themselves cancel to zero (an exact heat
    solution makes both sides vanish identically, and dividing by the
    sides alone would compare quadrature noise against itself).
    """
    t = np.asarray(t_grid, dtype=float)
    v = np.asarray(v_coeffs, dtype=float)
    if vt_coeffs is None:
        vt = _time_derivative_series(t, v)
    else:
        vt = np.asarray(vt_coeffs, dtype=float)
    lam = np.asarray(domain.eigenvalue_grid, dtype=float)
    weight = domain.mode_l2_squared
    combined = _sq_norm(vt + a * lam * v, lam, weight, 0)
    lhs = np.trapezoid(combined, t)
    half_norm = _sq_norm(v, lam, weight, 1)
    boundary = a * (half_norm[-1] - half_norm[0])
    integral = np.trapezoid(
        _sq_norm(vt, lam, weight, 0) + a**2 * _sq_norm(v, lam, weight, 2), t
    )
    rhs = boundary + integral
    scale = max(abs(lhs), abs(rhs), abs(boundary), abs(integral), 1e-300)
    return float(abs(lhs - rhs) / scale)


def heat_identity_instantiations(traj, params):
    """Residuals of the four heat-identity instances used in the estimates.

    v ranges over u_ttt (v_t by centered differences), A^(1/2) u_tt,
    A u_t and A u; the latter three have stored exact time derivatives.
    """
    lam = np.asarray(traj.domain.eigenvalue_grid, dtype=float)
    root = np.sqrt(lam)
    t, a, dom = traj.t_grid, params.a, traj.domain
    return {
        "u_ttt": heat_identity_audit(t, traj.uttt, a, dom),
        "A_half_u_tt": heat_identity_audit(t, root * traj.utt, a, dom, root * traj.uttt),
        "A_u_t": heat_identity_audit(t, lam * traj.ut, a, dom, lam * traj.utt),
        "A_u": heat_identity_audit(t, lam * traj.u, a, dom, lam * traj.ut),
    }


def factorization_residual(traj, params, use_stored=True):
    """Scaled trajectory norm of D_w(D_h u) + f.

    With use_stored the time derivatives of w come from the stored state
    fields and the residual reflects only the Galerkin closure of the
    quadratic terms; otherwise w_t and w_tt are finite-differenced from
    the w series, adding an O(dt^2) component.
    """
    lam, weight = _lam_weight(traj.domain)
    t = np.asarray(traj.t_grid, dtype=float)
    a, b, c = params.a, params.b, params.c
    w = traj.ut + a * lam * traj.u
    if use_stored:
        wt = traj.utt + a * lam * traj.ut
        wtt = traj.uttt + a * lam * traj.utt
    else:
        if t.size < 3:
            raise ValueError("finite-difference path needs at least 3 samples")
        dt = t[1] - t[0]
        wt = _time_derivative_series(t, w)
        wtt = np.empty_like(w)
        wtt[1:-1] = (w[2:] - 2.0 * w[1:-1] + w[:-2]) / dt**2
        wtt[0] = (w[2] - 2.0 * w[1] + w[0]) / dt**2
        wtt[-1] = (w[-1] - 2.0 * w[-2] + w[-3]) / dt**2
    f_series = forcing_series(traj, params)
    residual = wtt + b * lam * wt + c**2 * lam * w + f_series

    def traj_norm(arr):
        return math.sqrt(max(np.trapezoid(_sq_norm(arr, lam, weight, 0), t), 0.0))

    scale = max(
        traj_norm(wtt),
        traj_norm(b * lam * wt),
        traj_norm(c**2 * lam * w),
        traj_norm(f_series),
        1e-300,
    )
    return traj_norm(residual) / scale


def estimate_audit_linear(traj, f_series, params, tol=1e-12):
    """Minimal constant in E(t) + int(E + k) <= c * (E(0) + int(|f|^2 + |f_t|^2)).

    f_series holds the forcing coefficients sampled on traj.t_grid; its
    time derivative is centered-differenced.  Raises DivisionGuardError if
    the right-hand side vanishes identically while the left does not.
    """
    lam, weight = _lam_weight(traj.domain)
    t = np.asarray(traj.t_grid, dtype=float)
    f = np.asarray(f_series, dtype=float)
    series = energy_series(traj, params)
    total = series["E_total"]
    integrand = total + series["k_functional"]
    lhs = total + cumulative_trapezoid(integrand, t, initial=0.0)
    ft = _time_derivative_series(t, f)
    data_term = _sq_norm(f, lam, weight, 0) + _sq_norm(ft, lam, weight, 0)
    rhs = total[0] + cumulative_trapezoid(data_term, t, initial=0.0)
    mask = rhs > tol
    if not mask.any():
        if float(lhs.max(initial=0.0)) > tol:
            raise DivisionGuardError(
                "estimate right-hand side vanishes but the left does not"
            )
        c_min = 0.0
    else:
        c_min = float(np.max(lhs[mask] / rhs[mask]))
    return EstimateAudit(t_grid=t, lhs=lhs, rhs=rhs, c_min=c_min)


def barrier_audit(traj, eta, c_hat, params):
    """Barrier-argument check for a solved trajectory.

    Verifies the pointwise barrier E(t) <= 2*max(1, c_hat)*eta and the
    integrated bound E(T) + (1/2)*int(E + k) <= c_hat*E(0); passes iff
    both ratios are at most 1.
    """
    if eta <= 0.0 or c_hat <= 0.0:
        raise ValueError("eta and c_hat must be positive")
    t = np.asarray(traj.t_grid, dtype=float)
    series = energy_series(traj, params)
    total = series["E_total"]
    pointwise = float(total.max(initial=0.0)) / (2.0 * max(1.0, c_hat) * eta)
    integral = float(np.trapezoid(total + series["k_functional"], t))
    numerator = float(total[-1]) + 0.5 * integral
    denominator = c_hat * float(total[0])
    if denominator > 0.0:
        integrated = numerator / denominator
    else:
        integrated = 0.0 if numerator <= 1e-300 else math.inf
    return BarrierAudit(
        passed=(pointwise <= 1.0 and integrated <= 1.0),
        pointwise_ratio=pointwise,
        integrated_ratio=integrated,
        initial_energy=float(total[0]),
        eta=float(eta),
        c_hat=float(c_hat),
    )


def decay_fit(t_grid, series, window_fraction=0.5):
    """Fit series ~ M * exp(-omega * t) on the trailing window by least squares.

    window_fraction selects the trailing portion of the samples.  Raises
    FitError on nonpositive entries inside the window or if fewer than two
    samples fall in it.
    """
    if not 0.0 < window_fraction <= 1.0:
        raise ValueError("window_fraction must lie in (0, 1]")
    t = np.asarray(t_grid, dtype=float)
    vals = np.asarray(series, dtype=float)
    if t.shape != vals.shape or t.ndim != 1:
        raise ValueError("t_grid and series must be equal-length vectors")
    start = t.size - int(math.ceil(t.size * window_fraction))
    window_t = t[start:]
    window_vals = vals[start:]
    if window_t.size < 2:
        raise FitError("decay fit window holds fewer than two samples")
    if np.any(window_vals <= 0.0) or not np.all(np.isfinite(window_vals)):
        raise FitError("decay fit window contains nonpositive or nonfinite entries")
    design = np.column_stack([window_t, np.ones_like(window_t)])
    logs = np.log(window_vals)
    coef, *_ = np.linalg.lstsq(design, logs, rcond=None)
    slope, intercept = coef
    fitted = design @ coef
    residual = float(np.sqrt(np.mean((logs - fitted) ** 2)))
    return DecayFit(
        omega=float(-slope),
        M=float(np.exp(intercept)),
        window=(float(window_t[0]), float(window_t[-1])),
        residual=residual,
    )
