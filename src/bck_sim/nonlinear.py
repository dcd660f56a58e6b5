"""Solvers for the full nonlinear problem and the trajectory norms.

Two routes to a solution:

* a direct time stepper whose linear part is propagated exactly per mode
  while the quadratic forcing enters through exponential-integrator
  weights, with the implicit third-derivative dependence closed by a
  fixed number of substep sweeps, and
* the global fixed-point iteration that repeatedly solves the linear
  problem with the forcing frozen along the previous iterate, measuring
  its own contraction ratios.

Both produce Trajectory objects carrying every stored time derivative up
to u_ttt; the fourth derivative, where needed, is centered-differenced.
"""

import math
from dataclasses import dataclass

import numpy as np

from .energy import _sq_norm, fourth_derivative_series
from .errors import BlowUpError, DegeneracyError, NonConvergenceError
from .linear import (
    propagator_table,
    semigroup_data,
    semigroup_utt,
    solve_duhamel,
    to_semigroup,
)
from .model import (  # acceleration is re-exported for callers of this module
    DEFAULT_EPS_DEG,
    EvolutionState,
    acceleration,
    degeneracy_guard,
    nonlinear_terms,
)
from .spectral import GridWorkspace, SpectralField

DEFAULT_BLOWUP_BOUND = 1e12
DEFAULT_SUBSTEP_SWEEPS = 2


@dataclass
class Trajectory:
    """Uniformly sampled solution fields u, u_t, u_tt, u_ttt.

    Arrays have shape (nt,) + coeff shape.  The stored u_ttt comes from
    the model's acceleration at each accepted sample (or, for linear
    solves, from the linear bracket plus forcing).  ``forcing``, when
    present, holds the quadratic forcing f at every sample as the march
    computed it, the same bits as ``energy.forcing_series``; a trajectory
    derived by arithmetic (``difference``, ``scaled``) carries none.
    """

    domain: object
    params: object
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
        if nt > 1:
            steps = np.diff(self.t_grid)
            if steps[0] <= 0.0 or np.max(np.abs(steps - steps[0])) > 1e-9 * max(
                1.0, abs(steps[0])
            ):
                raise ValueError("t_grid must be uniformly spaced and increasing")

    @property
    def n_samples(self):
        return self.t_grid.size

    @property
    def dt(self):
        if self.t_grid.size < 2:
            raise ValueError("trajectory has no step size")
        return float(self.t_grid[1] - self.t_grid[0])

    def state(self, i):
        return EvolutionState(
            float(self.t_grid[i]),
            SpectralField(self.domain, self.u[i].copy()),
            SpectralField(self.domain, self.ut[i].copy()),
            SpectralField(self.domain, self.utt[i].copy()),
        )

    def utttt_array(self):
        return fourth_derivative_series(self.t_grid, self.uttt)

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
            params=self.params,
            t_grid=self.t_grid.copy(),
            u=self.u - other.u,
            ut=self.ut - other.ut,
            utt=self.utt - other.utt,
            uttt=self.uttt - other.uttt,
        )

    def scaled(self, factor):
        return Trajectory(
            domain=self.domain,
            params=self.params,
            t_grid=self.t_grid.copy(),
            u=factor * self.u,
            ut=factor * self.ut,
            utt=factor * self.utt,
            uttt=factor * self.uttt,
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


def _advance(table, params, data, t, f3, substep_iters, eps_deg, bound, workspace):
    """One exponential-integrator step with substep fixed-point closure.

    Takes the semigroup data (shape (3,) + coeff shape) at time t plus the
    already-computed third forcing component F3 = -f there; returns
    (data, u_tt, u_ttt, F3) at t + dt, so a march never evaluates the
    forcing twice at one sample.  ``workspace`` is the march's
    GridWorkspace, passed to every kernel call.
    """
    domain = table.domain
    dt = table.dt
    f3_flat = f3.reshape(-1)
    hom = np.einsum("nij,jn->in", table.propagator, data.reshape(3, -1))
    p1_col = table.phi1_weight[:, :, 2]
    p2_col = table.phi2_weight[:, :, 2]
    base = hom + p1_col.T * f3_flat
    t_next = t + dt

    candidate = base
    for sweep in range(max(substep_iters, 0) + 1):
        _check_blowup(candidate, t_next, bound)
        data_next = candidate.reshape(data.shape)
        utt = semigroup_utt(domain, params, data_next)
        uttt, f, _ = nonlinear_terms(
            domain,
            params,
            data_next[0],
            data_next[1],
            utt,
            time=t_next,
            eps_deg=eps_deg,
            workspace=workspace,
        )
        f3_next = -f
        if sweep < substep_iters:
            candidate = base + p2_col.T * ((f3_next.reshape(-1) - f3_flat) / dt)
    return data_next, utt, uttt, f3_next


def step(
    state,
    dt,
    params,
    substep_iters=DEFAULT_SUBSTEP_SWEEPS,
    eps_deg=DEFAULT_EPS_DEG,
    blowup_bound=DEFAULT_BLOWUP_BOUND,
    table=None,
):
    """Advance one state by dt; linear part exact, forcing at order 2."""
    domain = state.domain
    if table is None:
        table = propagator_table(domain, params, float(dt))
    u, ut, utt = state.u.coeffs, state.ut.coeffs, state.utt.coeffs
    workspace = GridWorkspace()
    _, f, _ = nonlinear_terms(
        domain, params, u, ut, utt, time=state.t, eps_deg=eps_deg, workspace=workspace
    )
    data = semigroup_data(domain, params, u, ut, utt)
    data, utt, _, _ = _advance(
        table, params, data, state.t, -f, substep_iters, eps_deg, blowup_bound, workspace
    )
    return EvolutionState(
        state.t + table.dt,
        SpectralField(domain, data[0].copy()),
        SpectralField(domain, data[1].copy()),
        SpectralField(domain, utt),
    )


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
    of the run in its partial_trajectory attribute.  One GridWorkspace
    serves every kernel call of the march and is dropped with it.
    """
    if T <= 0.0 or dt <= 0.0:
        raise ValueError("T and dt must be positive")
    domain = initial.u0.domain
    nt = int(round(T / dt)) + 1
    t_grid = dt * np.arange(nt)
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

    workspace = GridWorkspace()
    _, forcing[0], _ = nonlinear_terms(
        domain, params, u[0], ut[0], utt[0], uttt=uttt[0], eps_deg=None, workspace=workspace
    )
    f3 = -forcing[0]
    data = semigroup_data(domain, params, u[0], ut[0], utt[0])

    def partial(upto):
        return Trajectory(
            domain=domain,
            params=params,
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
                table, params, data, t, f3, substep_iters, eps_deg, blowup_bound, workspace
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
        params=params,
        t_grid=t_grid,
        u=u,
        ut=ut,
        utt=utt,
        uttt=uttt,
        forcing=forcing,
    )


def assert_guard(traj, params, eps_deg=DEFAULT_EPS_DEG):
    """Debug audit: re-check the degeneracy guard at every stored sample."""
    degeneracy_guard(traj.domain, params, traj.ut, traj.t_grid, eps_deg)


def picard_apply(phi, initial, params, eps_deg=DEFAULT_EPS_DEG, table=None):
    """One fixed-point sweep: solve the linear problem with forcing frozen
    along phi, from the given initial data.

    phi must satisfy the degeneracy guard so that the stored acceleration
    (and hence f[phi]) is meaningful; the returned trajectory is checked
    against the same guard before it is handed back.
    """
    domain = phi.domain
    _, f, _ = nonlinear_terms(
        domain, params, phi.u, phi.ut, phi.utt, uttt=phi.uttt, time=phi.t_grid, eps_deg=eps_deg
    )
    f3 = -f

    start = EvolutionState(float(phi.t_grid[0]), initial.u0, initial.u1, initial.u2)
    semi0 = to_semigroup(start, params)
    sol = solve_duhamel(semi0, params, phi.t_grid, forcing_third=f3, table=table)
    result = Trajectory(
        domain=domain,
        params=params,
        t_grid=phi.t_grid.copy(),
        u=sol.u.copy(),
        ut=sol.ut.copy(),
        utt=np.ascontiguousarray(sol.utt),
        uttt=sol.uttt_series(f3),
    )
    assert_guard(result, params, eps_deg)
    return result


def _homogeneous_linear_trajectory(initial, params, t_grid, table=None):
    start = EvolutionState(float(t_grid[0]), initial.u0, initial.u1, initial.u2)
    semi0 = to_semigroup(start, params)
    sol = solve_duhamel(semi0, params, t_grid, table=table)
    return Trajectory(
        domain=initial.u0.domain,
        params=params,
        t_grid=np.asarray(t_grid, dtype=float),
        u=sol.u.copy(),
        ut=sol.ut.copy(),
        utt=np.ascontiguousarray(sol.utt),
        uttt=sol.uttt_series(),
    )


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
    if T <= 0.0 or dt <= 0.0:
        raise ValueError("T and dt must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    domain = initial.u0.domain
    nt = int(round(T / dt)) + 1
    t_grid = dt * np.arange(nt)
    table = propagator_table(domain, params, float(dt))

    degeneracy_guard(domain, params, initial.u1.coeffs, 0.0, eps_deg, at_start=True)

    phi = _homogeneous_linear_trajectory(initial, params, t_grid, table=table)
    increments = []
    ratios = []
    for iteration in range(1, max_iter + 1):
        try:
            nxt = picard_apply(phi, initial, params, eps_deg=eps_deg, table=table)
        except DegeneracyError as err:
            err.ratios = list(ratios)
            err.increments = list(increments)
            raise
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
    raise NonConvergenceError(
        f"fixed-point iteration did not contract below {tol:.3e} "
        f"within {max_iter} sweeps",
        ratios=ratios,
        increments=increments,
    )


def _norm_series(arr, lam, weight, power):
    return np.sqrt(_sq_norm(arr, lam, weight, power))


def vtilde_norm(traj):
    """Squared weak-norm components (max-of-seven) of a trajectory."""
    lam = np.asarray(traj.domain.eigenvalue_grid, dtype=float)
    weight = traj.domain.mode_l2_squared
    t = traj.t_grid
    utttt = traj.utttt_array()

    def integral(series):
        return float(np.trapezoid(series, t))

    def supremum(series):
        return float(series.max(initial=0.0))

    components = {
        "utttt_L2L2": integral(_sq_norm(utttt, lam, weight, 0)),
        "uttt_L2H1": integral(_sq_norm(traj.uttt, lam, weight, 1)),
        "utt_L2H1": integral(_sq_norm(traj.utt, lam, weight, 1)),
        "utt_LinfH2": supremum(_sq_norm(traj.utt, lam, weight, 2)),
        "ut_L2H1": integral(_sq_norm(traj.ut, lam, weight, 1)),
        "ut_LinfH3": supremum(_sq_norm(traj.ut, lam, weight, 3)),
        "u_LinfH3": supremum(_sq_norm(traj.u, lam, weight, 3)),
    }
    return VNormReport(components=components, value=max(components.values()))


def v_norm(traj):
    """Strong trajectory norm: the square root of the sum of the seven
    mixed space-time norms of the solution class.

    Time-Sobolev norms sum the squared integrals of all derivatives up to
    the indicated order; the W-infinity norms take the supremum in time of
    the sum of the spatial norms of those derivatives, then square it.
    """
    lam = np.asarray(traj.domain.eigenvalue_grid, dtype=float)
    weight = traj.domain.mode_l2_squared
    t = traj.t_grid
    derivs = [traj.u, traj.ut, traj.utt, traj.uttt, traj.utttt_array()]

    def integral(series):
        return float(np.trapezoid(series, t))

    def h_time(depth, space_power):
        return sum(
            integral(_sq_norm(derivs[i], lam, weight, space_power))
            for i in range(depth + 1)
        )

    def w_inf(depth, space_power):
        summed = sum(
            _norm_series(derivs[i], lam, weight, space_power)
            for i in range(depth + 1)
        )
        return float(summed.max(initial=0.0)) ** 2

    total = (
        float(_sq_norm(traj.u, lam, weight, 4).max(initial=0.0))  # Linf H4
        + h_time(1, 4)  # H1 H4
        + w_inf(2, 3)  # Winf2 H3
        + h_time(2, 3)  # H2 H3
        + w_inf(3, 1)  # Winf3 H1
        + h_time(3, 2)  # H3 H2
        + h_time(4, 0)  # H4 L2
    )
    return math.sqrt(total)
