"""Solvers for the full nonlinear problem and the trajectory norms.

Two routes to a solution:

* a direct time stepper whose linear part is propagated exactly per mode
  while the quadratic forcing enters through exponential-integrator
  weights, with the implicit third-derivative dependence closed by a
  fixed number of substep sweeps, and
* the global fixed-point iteration that repeatedly solves the linear
  problem with the forcing frozen along the previous iterate, measuring
  its own contraction ratios.

Both produce a Trajectory, the one trajectory type of the package: raw
coefficient series of every stored time derivative up to u_ttt (the
fourth derivative, where needed, is centered-differenced by
``energy.fourth_derivative_series``).  The linear solves of the
fixed-point route return raw semigroup series, which
``linear_trajectory`` turns into a Trajectory.  Both routes step with the
one exponential-integrator step of ``linear.PropagatorTable``, sample on
``model.time_grid``, and measure with ``spectral.sq_norm``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .energy import fourth_derivative_series
from .errors import BlowUpError, DegeneracyError, NonConvergenceError
from .linear import propagator_table, semigroup_data, solve_duhamel
from .model import (  # acceleration is re-exported for callers of this module
    DEFAULT_EPS_DEG,
    KernelPlan,
    acceleration,
    check_uniform_grid,
    degeneracy_guard,
    linear_bracket,
    nonlinear_terms,
    semigroup_utt,
    time_grid,
)
from .spectral import sq_norm

DEFAULT_BLOWUP_BOUND = 1e12
DEFAULT_SUBSTEP_SWEEPS = 2


@dataclass
class Trajectory:
    """Uniformly sampled solution fields u, u_t, u_tt, u_ttt.

    Arrays have shape (nt,) + coeff shape.  The stored u_ttt comes from
    the model's acceleration at each accepted sample (or, for linear
    solves, from the linear bracket plus forcing; see
    ``linear_trajectory``).  ``forcing``, when present, holds the
    quadratic forcing f at every sample as the march computed it, the same
    bits as ``energy.forcing_series``; a trajectory derived by arithmetic
    (``difference``) carries none.  A trajectory carries no model
    parameters: every consumer takes them as an argument of its own.
    """

    domain: object
    t_grid: np.ndarray
    u: np.ndarray
    ut: np.ndarray
    utt: np.ndarray
    uttt: np.ndarray
    forcing: np.ndarray | None = None

    def __post_init__(self):
        self.t_grid = np.asarray(self.t_grid, dtype=float)
        nt = self.t_grid.size
        expected = (nt,) + self.domain.coeff_shape
        names = ("u", "ut", "utt", "uttt") + (("forcing",) if self.forcing is not None else ())
        for name in names:
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != expected:
                raise ValueError(f"{name} must have shape {expected}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains nonfinite entries")
            setattr(self, name, arr)
        check_uniform_grid(self.t_grid)

    @property
    def n_samples(self):
        return self.t_grid.size

    def difference(self, other):
        """Componentwise difference trajectory (same grid, same domain)."""
        if self.domain != other.domain:
            raise ValueError("trajectories live on different domains")
        if self.t_grid.shape != other.t_grid.shape or np.max(
            np.abs(self.t_grid - other.t_grid), initial=0.0
        ) > 1e-9:
            raise ValueError("trajectories use different time grids")
        return Trajectory(
            domain=self.domain,
            t_grid=self.t_grid.copy(),
            u=self.u - other.u,
            ut=self.ut - other.ut,
            utt=self.utt - other.utt,
            uttt=self.uttt - other.uttt,
        )


@dataclass(frozen=True)
class VNormReport:
    """Squared components of the weak trajectory norm and their maximum."""

    components: dict
    value: float


@dataclass(frozen=True)
class PicardReport:
    iterations: int
    ratios: tuple
    increments: tuple
    final_residual: float
    converged: bool


def _check_blowup(data, time, bound):
    # max |x| is max(max x, -min x); NaN propagates through both reductions
    peak = max(np.maximum.reduce(data, axis=None), -np.minimum.reduce(data, axis=None))
    if not (math.isfinite(peak) and peak <= bound):
        peak = float(np.max(np.abs(data)))
        raise BlowUpError(
            f"coefficient magnitude {peak:.3e} exceeded the blow-up bound "
            f"{bound:.3e} at t = {time:.6g}",
            time=time,
            norm=peak,
            bound=bound,
        )


def _advance(table, plan, data, t, f3, substep_iters, eps_deg, bound):
    """One exponential-integrator step with substep fixed-point closure.

    Takes the semigroup data (shape (3,) + coeff shape) at time t plus the
    already-computed third forcing component F3 = -f there; returns
    (data, u_tt, u_ttt, F3) at t + dt, so a march never evaluates the
    forcing twice at one sample.  ``plan`` is the march's ``KernelPlan``.
    """
    f3_flat = f3.reshape(-1)
    base = table.propagate(data.reshape(3, -1), f3_flat)
    t_next = t + table.dt

    candidate = base
    for sweep in range(max(substep_iters, 0) + 1):
        _check_blowup(candidate, t_next, bound)
        data_next = candidate.reshape(data.shape)
        utt = plan.semigroup_utt(data_next)
        uttt, f, _ = plan(data_next[0], data_next[1], utt, None, t_next, eps_deg)
        f3_next = -f
        if sweep < substep_iters:
            candidate = table.add_slope(base, f3_flat, f3_next.reshape(-1))
    return data_next, utt, uttt, f3_next


def solve(
    initial,
    params,
    T,
    dt,
    substep_iters=DEFAULT_SUBSTEP_SWEEPS,
    eps_deg=DEFAULT_EPS_DEG,
    blowup_bound=DEFAULT_BLOWUP_BOUND,
):
    """March the nonlinear problem from CompatibilityData to time T.

    On degeneracy or blow-up the raised error carries the accepted part
    of the run in its partial_trajectory attribute.  One ``KernelPlan``,
    built here, serves every kernel call of the march (the forcing at the
    start and the law at every substep) and is dropped with it.
    """
    t_grid = time_grid(T, dt)
    nt = t_grid.size
    domain = initial.u0.domain
    table = propagator_table(domain, params, float(dt))

    degeneracy_guard(domain, params, initial.u1.coeffs, 0.0, eps_deg, at_start=True)

    shape = domain.coeff_shape
    u = np.zeros((nt,) + shape)
    ut = np.zeros((nt,) + shape)
    utt = np.zeros((nt,) + shape)
    uttt = np.zeros((nt,) + shape)
    forcing = np.zeros((nt,) + shape)
    u[0], ut[0], utt[0] = initial.u0.coeffs, initial.u1.coeffs, initial.u2.coeffs
    uttt[0] = initial.uttt0.coeffs

    plan = KernelPlan(domain, params)
    _, forcing[0], _ = plan(u[0], ut[0], utt[0], uttt[0], eps_deg=None)
    f3 = -forcing[0]
    data = semigroup_data(domain, params, u[0], ut[0], utt[0])

    def partial(upto):
        return Trajectory(
            domain=domain,
            t_grid=t_grid[: upto + 1],
            u=u[: upto + 1].copy(),
            ut=ut[: upto + 1].copy(),
            utt=utt[: upto + 1].copy(),
            uttt=uttt[: upto + 1].copy(),
            forcing=forcing[: upto + 1].copy(),
        )

    t = 0.0
    for n in range(nt - 1):
        try:
            data, utt[n + 1], uttt[n + 1], f3 = _advance(
                table, plan, data, t, f3, substep_iters, eps_deg, blowup_bound
            )
        except (DegeneracyError, BlowUpError) as err:
            err.partial_trajectory = partial(n)
            raise
        t += table.dt
        u[n + 1] = data[0]
        ut[n + 1] = data[1]
        forcing[n + 1] = -f3

    return Trajectory(
        domain=domain,
        t_grid=t_grid,
        u=u,
        ut=ut,
        utt=utt,
        uttt=uttt,
        forcing=forcing,
    )


def linear_trajectory(initial, params, t_grid, forcing_third=None):
    """The linear solve from CompatibilityData on t_grid as a Trajectory.

    ``solve_duhamel`` gives the semigroup series; u_tt comes back through
    ``semigroup_utt`` and u_ttt is the linear bracket plus the third
    forcing component ``forcing_third`` (an (nt,) + coeff shape array).
    """
    domain = initial.u0.domain
    u0, u1, u2 = initial.u0.coeffs, initial.u1.coeffs, initial.u2.coeffs
    data0 = semigroup_data(domain, params, u0, u1, u2)
    data = solve_duhamel(domain, params, t_grid, data0, forcing_third=forcing_third)
    u, ut = data[:, 0].copy(), data[:, 1].copy()
    utt = semigroup_utt(domain, params, np.moveaxis(data, 1, 0))
    uttt = linear_bracket(domain, params, u, ut, utt)
    if forcing_third is not None:
        uttt = uttt + forcing_third
    return Trajectory(domain=domain, t_grid=t_grid, u=u, ut=ut, utt=utt, uttt=uttt)


def picard_apply(phi, initial, params, eps_deg=DEFAULT_EPS_DEG):
    """One fixed-point sweep: solve the linear problem with forcing frozen
    along phi, from the given initial data.

    phi must satisfy the degeneracy guard so that the stored acceleration
    (and hence f[phi]) is meaningful; phi is not guarded again here.  The
    returned trajectory is checked against the guard at every sample
    before it is handed back, so in ``picard_solve`` only the homogeneous
    start needs a guard of its own.
    """
    domain = phi.domain
    _, f, _ = nonlinear_terms(
        domain, params, phi.u, phi.ut, phi.utt, uttt=phi.uttt, eps_deg=None
    )
    result = linear_trajectory(initial, params, phi.t_grid, forcing_third=-f)
    degeneracy_guard(domain, params, result.ut, result.t_grid, eps_deg)
    return result


def picard_solve(
    initial,
    params,
    T,
    dt,
    tol=1e-9,
    max_iter=20,
    eps_deg=DEFAULT_EPS_DEG,
):
    """Iterate the fixed-point map from the homogeneous linear solution.

    Stops once the trajectory-norm increment drops below tol; raises
    NonConvergenceError with the measured ratio history when the budget
    runs out.
    """
    t_grid = time_grid(T, dt)
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    domain = initial.u0.domain

    degeneracy_guard(domain, params, initial.u1.coeffs, 0.0, eps_deg, at_start=True)

    phi = linear_trajectory(initial, params, t_grid)
    increments = []
    ratios = []
    try:
        # the homogeneous start (its sample 0 is u1, guarded above); every
        # later phi is a result picard_apply has guarded
        degeneracy_guard(domain, params, phi.ut[1:], t_grid[1:], eps_deg)
        for iteration in range(1, max_iter + 1):
            nxt = picard_apply(phi, initial, params, eps_deg=eps_deg)
            increment = v_norm(nxt.difference(phi))
            increments.append(increment)
            if len(increments) >= 2 and increments[-2] > 0.0:
                ratios.append(increments[-1] / increments[-2])
            phi = nxt
            if increment < tol:
                report = PicardReport(
                    iterations=iteration,
                    ratios=tuple(ratios),
                    increments=tuple(increments),
                    final_residual=increment,
                    converged=True,
                )
                return phi, report
    except DegeneracyError as err:
        err.ratios = list(ratios)
        err.increments = list(increments)
        raise
    raise NonConvergenceError(
        f"fixed-point iteration did not contract below {tol:.3e} "
        f"within {max_iter} sweeps",
        ratios=ratios,
        increments=increments,
    )


def vtilde_norm(traj):
    """Squared weak-norm components (max-of-seven) of a trajectory."""
    domain, t = traj.domain, traj.t_grid
    utttt = fourth_derivative_series(t, traj.uttt)

    def integral(series):
        return float(np.trapezoid(series, t))

    def supremum(series):
        return float(series.max(initial=0.0))

    components = {
        "utttt_L2L2": integral(sq_norm(domain, utttt)),
        "uttt_L2H1": integral(sq_norm(domain, traj.uttt, 1)),
        "utt_L2H1": integral(sq_norm(domain, traj.utt, 1)),
        "utt_LinfH2": supremum(sq_norm(domain, traj.utt, 2)),
        "ut_L2H1": integral(sq_norm(domain, traj.ut, 1)),
        "ut_LinfH3": supremum(sq_norm(domain, traj.ut, 3)),
        "u_LinfH3": supremum(sq_norm(domain, traj.u, 3)),
    }
    return VNormReport(components=components, value=max(components.values()))


def v_norm(traj):
    """Strong trajectory norm: the square root of the sum of the seven
    mixed space-time norms of the solution class.

    Time-Sobolev norms sum the squared integrals of all derivatives up to
    the indicated order; the W-infinity norms take the supremum in time of
    the sum of the spatial norms of those derivatives, then square it.
    """
    domain, t = traj.domain, traj.t_grid
    derivs = [traj.u, traj.ut, traj.utt, traj.uttt, fourth_derivative_series(t, traj.uttt)]

    def integral(series):
        return float(np.trapezoid(series, t))

    def h_time(depth, space_power):
        return sum(
            integral(sq_norm(domain, derivs[i], space_power))
            for i in range(depth + 1)
        )

    def w_inf(depth, space_power):
        summed = sum(
            np.sqrt(sq_norm(domain, derivs[i], space_power))
            for i in range(depth + 1)
        )
        return float(summed.max(initial=0.0)) ** 2

    total = (
        float(sq_norm(domain, traj.u, 4).max(initial=0.0))  # Linf H4
        + h_time(1, 4)  # H1 H4
        + w_inf(2, 3)  # Winf2 H3
        + h_time(2, 3)  # H2 H3
        + w_inf(3, 1)  # Winf3 H1
        + h_time(3, 2)  # H3 H2
        + h_time(4, 0)  # H4 L2
    )
    return math.sqrt(total)
