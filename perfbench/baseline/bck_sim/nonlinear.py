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

from .energy import fourth_derivative_series
from .errors import BlowUpError, DegeneracyError, NonConvergenceError
from .linear import (
    SemigroupState,
    from_semigroup,
    propagator_table,
    solve_duhamel,
    to_semigroup,
)
from .model import (
    DEFAULT_EPS_DEG,
    EvolutionState,
    acceleration,
    check_degeneracy_guard,
    forcing_f,
    make_compatibility_data,
)
from .spectral import SpectralField

DEFAULT_BLOWUP_BOUND = 1e12
DEFAULT_SUBSTEP_SWEEPS = 2


@dataclass
class Trajectory:
    """Uniformly sampled solution fields u, u_t, u_tt, u_ttt.

    Arrays have shape (nt,) + coeff shape.  The stored u_ttt comes from
    the model's acceleration at each accepted sample (or, for linear
    solves, from the linear bracket plus forcing).
    """

    domain: object
    params: object
    t_grid: np.ndarray
    u: np.ndarray
    ut: np.ndarray
    utt: np.ndarray
    uttt: np.ndarray

    def __post_init__(self):
        self.t_grid = np.asarray(self.t_grid, dtype=float)
        nt = self.t_grid.size
        expected = (nt,) + self.domain.coeff_shape
        for name in ("u", "ut", "utt", "uttt"):
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

    def uttt_field(self, i):
        return SpectralField(self.domain, self.uttt[i].copy())

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


def _guard_min(ut_field, params, time, eps_deg, at_start=False):
    return check_degeneracy_guard(
        ut_field, params, time=time, eps_deg=eps_deg, at_start=at_start
    )


def _check_blowup(data, time, bound):
    peak = float(np.max(np.abs(data)))
    if not np.isfinite(peak) or peak > bound:
        raise BlowUpError(
            f"coefficient magnitude {peak:.3e} exceeded the blow-up bound "
            f"{bound:.3e} at t = {time:.6g}",
            time=time,
            norm=peak,
            bound=bound,
        )


def _forcing_third(state, uttt, params):
    """Third semigroup forcing component F3 = -f for the current state."""
    return -forcing_f(state, uttt, params).coeffs


def _advance(table, params, semi, f3, substep_iters, eps_deg, bound):
    """One exponential-integrator step with substep fixed-point closure.

    Takes the current semigroup data plus the already-computed forcing
    at time t; returns (semi, state, uttt, f3) at t + dt, so a march
    never evaluates the forcing twice at one sample.
    """
    dt = table.dt
    flat = semi.data.reshape(3, -1)
    f3_flat = f3.reshape(-1)
    hom = np.einsum("nij,jn->in", table.propagator, flat)
    p1_col = table.phi1_weight[:, :, 2]
    p2_col = table.phi2_weight[:, :, 2]
    base = hom + p1_col.T * f3_flat
    shape = semi.data.shape
    t_next = semi.t + dt

    candidate = base
    for _ in range(max(substep_iters, 0)):
        _check_blowup(candidate, t_next, bound)
        semi_next = SemigroupState(semi.domain, t_next, candidate.reshape(shape))
        state_next = from_semigroup(semi_next, params)
        _guard_min(state_next.ut, params, t_next, eps_deg)
        uttt_next = acceleration(state_next, params, eps_deg=eps_deg)
        f3_next = _forcing_third(state_next, uttt_next, params)
        candidate = base + p2_col.T * ((f3_next.reshape(-1) - f3_flat) / dt)

    _check_blowup(candidate, t_next, bound)
    semi_next = SemigroupState(semi.domain, t_next, candidate.reshape(shape))
    state_next = from_semigroup(semi_next, params)
    _guard_min(state_next.ut, params, t_next, eps_deg)
    uttt_next = acceleration(state_next, params, eps_deg=eps_deg)
    f3_next = _forcing_third(state_next, uttt_next, params)
    return semi_next, state_next, uttt_next, f3_next


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
    if table is None:
        table = propagator_table(state.domain, params, float(dt))
    _guard_min(state.ut, params, state.t, eps_deg)
    uttt = acceleration(state, params, eps_deg=eps_deg)
    f3 = _forcing_third(state, uttt, params)
    semi = to_semigroup(state, params)
    _, state_next, _, _ = _advance(
        table, params, semi, f3, substep_iters, eps_deg, blowup_bound
    )
    return state_next


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
    of the run in its partial_trajectory attribute.
    """
    if T <= 0.0 or dt <= 0.0:
        raise ValueError("T and dt must be positive")
    domain = initial.u0.domain
    nt = int(round(T / dt)) + 1
    t_grid = dt * np.arange(nt)
    table = propagator_table(domain, params, float(dt))

    _guard_min(initial.u1, params, 0.0, eps_deg, at_start=True)

    shape = domain.coeff_shape
    u = np.zeros((nt,) + shape)
    ut = np.zeros((nt,) + shape)
    utt = np.zeros((nt,) + shape)
    uttt = np.zeros((nt,) + shape)
    u[0], ut[0], utt[0] = initial.u0.coeffs, initial.u1.coeffs, initial.u2.coeffs
    uttt[0] = initial.uttt0.coeffs

    state = EvolutionState(0.0, initial.u0, initial.u1, initial.u2)
    uttt_field = initial.uttt0
    f3 = _forcing_third(state, uttt_field, params)
    semi = to_semigroup(state, params)

    def partial(upto):
        return Trajectory(
            domain=domain,
            params=params,
            t_grid=t_grid[: upto + 1],
            u=u[: upto + 1].copy(),
            ut=ut[: upto + 1].copy(),
            utt=utt[: upto + 1].copy(),
            uttt=uttt[: upto + 1].copy(),
        )

    for n in range(nt - 1):
        try:
            semi, state, uttt_field, f3 = _advance(
                table, params, semi, f3, substep_iters, eps_deg, blowup_bound
            )
        except (DegeneracyError, BlowUpError) as err:
            err.partial_trajectory = partial(n)
            raise
        u[n + 1] = state.u.coeffs
        ut[n + 1] = state.ut.coeffs
        utt[n + 1] = state.utt.coeffs
        uttt[n + 1] = uttt_field.coeffs

    return Trajectory(
        domain=domain, params=params, t_grid=t_grid, u=u, ut=ut, utt=utt, uttt=uttt
    )


def solve_from_fields(u0, u1, u2, params, T, dt, **kwargs):
    """Convenience wrapper building the compatibility data first."""
    eps_deg = kwargs.get("eps_deg", DEFAULT_EPS_DEG)
    data = make_compatibility_data(u0, u1, u2, params, eps_deg=eps_deg)
    return solve(data, params, T, dt, **kwargs)


def assert_guard(traj, params, eps_deg=DEFAULT_EPS_DEG):
    """Debug audit: re-check the degeneracy guard at every stored sample."""
    for i in range(traj.n_samples):
        _guard_min(
            SpectralField(traj.domain, traj.ut[i]),
            params,
            float(traj.t_grid[i]),
            eps_deg,
        )


def picard_apply(phi, initial, params, eps_deg=DEFAULT_EPS_DEG, table=None):
    """One fixed-point sweep: solve the linear problem with forcing frozen
    along phi, from the given initial data.

    phi must satisfy the degeneracy guard so that the stored acceleration
    (and hence f[phi]) is meaningful; the returned trajectory is checked
    against the same guard before it is handed back.
    """
    domain = phi.domain
    nt = phi.n_samples
    f3 = np.zeros_like(phi.u)
    for i in range(nt):
        state_i = phi.state(i)
        _guard_min(state_i.ut, params, float(phi.t_grid[i]), eps_deg)
        f3[i] = _forcing_third(state_i, phi.uttt_field(i), params)

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

    _guard_min(initial.u1, params, 0.0, eps_deg, at_start=True)

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


def _sq_norm_series(arr, lam, weight, power):
    axes = tuple(range(-lam.ndim, 0))
    scaled = arr * arr if power == 0 else arr * arr * lam**power
    return weight * scaled.sum(axis=axes)


def _norm_series(arr, lam, weight, power):
    return np.sqrt(_sq_norm_series(arr, lam, weight, power))


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
        "utttt_L2L2": integral(_sq_norm_series(utttt, lam, weight, 0)),
        "uttt_L2H1": integral(_sq_norm_series(traj.uttt, lam, weight, 1)),
        "utt_L2H1": integral(_sq_norm_series(traj.utt, lam, weight, 1)),
        "utt_LinfH2": supremum(_sq_norm_series(traj.utt, lam, weight, 2)),
        "ut_L2H1": integral(_sq_norm_series(traj.ut, lam, weight, 1)),
        "ut_LinfH3": supremum(_sq_norm_series(traj.ut, lam, weight, 3)),
        "u_LinfH3": supremum(_sq_norm_series(traj.u, lam, weight, 3)),
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
            integral(_sq_norm_series(derivs[i], lam, weight, space_power))
            for i in range(depth + 1)
        )

    def w_inf(depth, space_power):
        summed = sum(
            _norm_series(derivs[i], lam, weight, space_power)
            for i in range(depth + 1)
        )
        return float(summed.max(initial=0.0)) ** 2

    total = (
        float(_sq_norm_series(traj.u, lam, weight, 4).max(initial=0.0))  # Linf H4
        + h_time(1, 4)  # H1 H4
        + w_inf(2, 3)  # Winf2 H3
        + h_time(2, 3)  # H2 H3
        + w_inf(3, 1)  # Winf3 H1
        + h_time(3, 2)  # H3 H2
        + h_time(4, 0)  # H4 L2
    )
    return math.sqrt(total)
