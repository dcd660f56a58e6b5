"""Energy functionals, identities and estimate audits.

Everything here is a quadratic functional of spectral coefficients or a
time-quadrature statement about a solved trajectory, a
``nonlinear.Trajectory``: coefficient series ``u``, ``ut``, ``utt``,
``uttt`` of shape (nt,) + coeff shape on the uniform ``t_grid`` of its
``domain``.  Each functional is evaluated for all samples at once.

Sobolev norms are the homogeneous spectral powers ``||A^{s/2} v||``, all
squared by ``spectral.sq_norm`` over the sample axis at once; since the
lowest Laplacian eigenvalue is positive on every admissible domain these
are equivalent to the full norms.

The heat-factor field is w = u_t + a*A*u.  Writing D_h = d/dt + a*A and
D_w = d^2/dt^2 + b*A*d/dt + c^2*A, the linear part of the model is
exactly D_w(D_h u) and a solution satisfies D_w(D_h u) = -f.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivisionGuardError, FitError
from .model import wave_part
from .spectral import grid_extremes, sq_norm


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of series ~ M * exp(-omega * t) on a window."""

    omega: float
    M: float
    window: tuple
    residual: float


@dataclass(frozen=True)
class BarrierAudit:
    passed: bool
    pointwise_ratio: float
    integrated_ratio: float


def fourth_derivative_series(t_grid, uttt_coeffs):
    """Centered differences of the stored u_ttt series, one-sided at the ends.

    Any uniformly sampled coefficient series differentiates the same way;
    the audits use it for the time derivatives of w and f as well.
    """
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


def energy_series(traj, params):
    """Vectorized energy functionals along a trajectory.

    Returns a dict of equal-length arrays keyed by the CSV column names
    (plus "t"); ``Linf_ut`` and ``guard_min`` come from one collocation
    pass over u_t.  Each squared norm is computed once and shared by the
    functionals that sum it.
    """
    domain = traj.domain
    lam = domain.eigenvalue_grid
    t = np.asarray(traj.t_grid, dtype=float)
    u, ut, utt, uttt = traj.u, traj.ut, traj.utt, traj.uttt
    a = params.a

    def sq(arr, power):
        return sq_norm(domain, arr, power)

    u3, u4, ut3, ut4 = sq(u, 3), sq(u, 4), sq(ut, 3), sq(ut, 4)
    utt3, uttt1 = sq(utt, 3), sq(uttt, 1)
    w = ut + a * lam * u
    wt = utt + a * lam * ut
    wtt = uttt + a * lam * utt
    e1 = 0.5 * (sq(wtt, 1) + sq(wt, 1) + sq(w, 2))
    e2 = 0.5 * (uttt1 + sq(utt, 2) + ut3 + u3)
    utttt = fourth_derivative_series(t, uttt)
    k_functional = sq(utttt, 0) + sq(uttt, 2) + utt3 + ut4 + u4
    lin = u4 + ut4 + sq(wave_part(domain, params, u, ut, utt), 2)
    low, linf_ut = grid_extremes(domain, ut)
    return {
        "t": t,
        "E1": e1,
        "E2": e2,
        "E_total": e1 + e2,
        "k_functional": k_functional,
        "linear_energy": lin,
        "H4_u": np.sqrt(u4),
        "H3_ut": np.sqrt(ut3),
        "H3_utt": np.sqrt(utt3),
        "H1_uttt": np.sqrt(uttt1),
        "Linf_ut": linf_ut,
        # x -> 1 + 2k x is monotone, also as rounded, so the minimum factor
        # is the factor at min x
        "guard_min": 1.0 + 2.0 * params.k * low,
    }


def decay_norm_sum(series):
    """||u||_{H4}^2 + ||u_t||_{H3}^2 + ||u_tt||_{H3}^2 + ||u_ttt||_{H1}^2."""
    return (
        series["H4_u"] ** 2
        + series["H3_ut"] ** 2
        + series["H3_utt"] ** 2
        + series["H1_uttt"] ** 2
    )


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
        vt = fourth_derivative_series(t, v)
    else:
        vt = np.asarray(vt_coeffs, dtype=float)
    lam = domain.eigenvalue_grid
    lhs = np.trapezoid(sq_norm(domain, vt + a * lam * v), t)
    half_norm = sq_norm(domain, v, 1)
    boundary = a * (half_norm[-1] - half_norm[0])
    integral = np.trapezoid(sq_norm(domain, vt) + a**2 * sq_norm(domain, v, 2), t)
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

    f is the forcing the trajectory carries (ValueError when it carries
    none).  With use_stored the time derivatives of w come from the stored
    state fields and the residual reflects only the Galerkin closure of
    the quadratic terms; otherwise w_t and w_tt are finite-differenced
    from the w series, adding an O(dt^2) component.
    """
    if traj.forcing is None:
        raise ValueError("the factorization residual needs a trajectory that carries its forcing")
    lam = traj.domain.eigenvalue_grid
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
        wt = fourth_derivative_series(t, w)
        wtt = np.empty_like(w)
        wtt[1:-1] = (w[2:] - 2.0 * w[1:-1] + w[:-2]) / dt**2
        wtt[0] = (w[2] - 2.0 * w[1] + w[0]) / dt**2
        wtt[-1] = (w[-1] - 2.0 * w[-2] + w[-3]) / dt**2
    residual = wave_part(traj.domain, params, w, wt, wtt) + traj.forcing

    def traj_norm(arr):
        return math.sqrt(max(np.trapezoid(sq_norm(traj.domain, arr), t), 0.0))

    scale = max(
        traj_norm(wtt),
        traj_norm(b * lam * wt),
        traj_norm(c**2 * lam * w),
        traj_norm(traj.forcing),
        1e-300,
    )
    return traj_norm(residual) / scale


def _cumulative_trapezoid(y, t):
    """Running trapezoid integral of y over t, starting at 0."""
    return np.concatenate(([0.0], np.cumsum(np.diff(t) * (y[1:] + y[:-1]) / 2.0)))


def estimate_audit_linear(traj, series):
    """The minimal constant c in E(t) + int(E + k) <= c * (E(0) +
    int(|f|^2 + |f_t|^2)), over the samples where the right side exceeds
    1e-12, and 0.0 where neither side does anywhere.

    f is the forcing the trajectory carries (ValueError when it carries
    none); its time derivative is centered-differenced.  ``series`` is the
    trajectory's ``energy_series``.  Raises DivisionGuardError if the
    right-hand side exceeds 1e-12 nowhere while the left does somewhere.
    """
    if traj.forcing is None:
        raise ValueError("the estimate audit needs a trajectory that carries its forcing")
    t, f = traj.t_grid, traj.forcing
    total = series["E_total"]
    integrand = total + series["k_functional"]
    lhs = total + _cumulative_trapezoid(integrand, t)
    ft = fourth_derivative_series(t, f)
    data_term = sq_norm(traj.domain, f) + sq_norm(traj.domain, ft)
    rhs = total[0] + _cumulative_trapezoid(data_term, t)
    mask = rhs > 1e-12
    if not mask.any():
        if float(lhs.max(initial=0.0)) > 1e-12:
            raise DivisionGuardError(
                "estimate right-hand side vanishes but the left does not"
            )
        return 0.0
    return float(np.max(lhs[mask] / rhs[mask]))


def barrier_audit(series, eta, c_hat):
    """Barrier-argument check on the ``energy_series`` of a solved
    trajectory.

    Verifies the pointwise barrier E(t) <= 2*max(1, c_hat)*eta and the
    integrated bound E(T) + (1/2)*int(E + k) <= c_hat*E(0); passes iff
    both ratios are at most 1.
    """
    if eta <= 0.0 or c_hat <= 0.0:
        raise ValueError("eta and c_hat must be positive")
    total = series["E_total"]
    pointwise = float(total.max(initial=0.0)) / (2.0 * max(1.0, c_hat) * eta)
    integral = float(np.trapezoid(total + series["k_functional"], series["t"]))
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
    )


def decay_fit(t_grid, series):
    """Fit series ~ M * exp(-omega * t) on the trailing half of the
    samples by least squares.

    Raises FitError on nonpositive entries inside the window or if fewer
    than two samples fall in it.
    """
    t = np.asarray(t_grid, dtype=float)
    vals = np.asarray(series, dtype=float)
    if t.shape != vals.shape or t.ndim != 1:
        raise ValueError("t_grid and series must be equal-length vectors")
    start = t.size // 2
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
