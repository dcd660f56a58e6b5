"""Solvers for the full nonlinear problem and the trajectory norms.

Two routes to a solution:

* a direct time stepper whose linear part is propagated exactly per mode
  while the quadratic forcing enters through exponential-integrator
  weights, with the implicit third-derivative dependence closed by a
  fixed number of substep sweeps, and
* the global fixed-point iteration that repeatedly solves the linear
  problem with the forcing frozen along the previous iterate, measuring
  its own contraction ratios.

Both start from (u, u_t, u_tt)(0), an ``model.EvolutionState``, and check
it against the blow-up bound, then the guard, before anything else; the
stepper evaluates the law at its first sample for u_ttt(0).  Both produce
a Trajectory, the one trajectory type of the package: raw coefficient
series of every stored time derivative up to u_ttt (the fourth
derivative, where needed, is centered-differenced by
``energy.fourth_derivative_series``).  The linear solves of the
fixed-point route return raw semigroup series, which
``linear_trajectory`` turns into a Trajectory.  Both routes step with the
one exponential-integrator step of ``linear.PropagatorTable``, sample on
``model.time_grid``, and measure with ``spectral.sq_norm``.

The direct stepper binds that step once per march (``_bind_step``), on
buffers it owns, for both dimensions; it keeps every operation and
association order of the term-by-term step, so a march is that step in
a loop bit for bit (``tests/test_nonlinear.py``).
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
    the model's law at each accepted sample (or, for linear solves, from
    the linear bracket minus f; see ``linear_trajectory``).
    ``forcing``, when present, holds the quadratic forcing f at every
    sample as the march computed it, the bits of ``nonlinear_terms`` with
    the stored u_ttt; a trajectory derived by arithmetic (``difference``)
    or by a linear solve carries none.  A trajectory carries no model
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
class PicardReport:
    """Each sweep's increment, the last below tol, and each ratio."""

    iterations: int
    ratios: tuple
    increments: tuple


def _check_blowup(data, time, bound, scratch=None):
    """Raise BlowUpError unless max |x| over ``data`` is finite and within
    ``bound``; |x| goes into ``scratch`` (data's shape) when given.  NaN
    propagates through the reduction, so it trips too."""
    peak = float(np.maximum.reduce(np.abs(data, out=scratch), axis=None))
    if not (math.isfinite(peak) and peak <= bound):
        raise BlowUpError(
            f"coefficient magnitude {peak:.3e} exceeded the blow-up bound "
            f"{bound:.3e} at t = {time:.6g}",
            time=time,
            norm=peak,
            bound=bound,
        )


def _bind_step(table, plan, substep_iters, bound):
    """The exponential-integrator step with substep fixed-point closure,
    bound once per march to its ``PropagatorTable`` and ``KernelPlan``.

    Returns ``step(data, f, t_next)``: from the flat semigroup data (3, n)
    and the forcing f (n,) at the start of the step, (data, u_tt, u_ttt, f)
    at ``t_next``, so a march never evaluates the forcing twice at one
    sample.  The step is the one of ``PropagatorTable``,

        base      = E U - P1 f                  (``evolve`` - ``held``)
        candidate = base + P2 (f - f') / dt     (+ ``slope``);

    every sweep checks the blow-up bound on its candidate (the base first)
    and evaluates the plan's ``step_terms`` there, and every sweep but the
    last forms the next candidate.

    The step owns two (3, n) buffers; a step's base is the one that does
    not hold its input.  The results are views of the step's and the
    plan's buffers, valid until the next call.
    """
    n = table.phi1.shape[1]
    buffers = [np.empty((3, n)), np.empty((3, n))]
    term, scratch = np.empty((3, n)), np.empty((3, n))
    last = max(substep_iters, 0)
    step_terms = plan.step_terms

    def step(data, f, t_next):
        base, candidate = buffers[::-1] if data is buffers[0] else buffers
        table.evolve(data, out=base)
        np.subtract(base, table.held(f, out=term), out=base)
        x = base
        for sweep in range(last + 1):
            _check_blowup(x, t_next, bound, scratch)
            utt, uttt, f_next = step_terms(x, t_next)
            if sweep < last:
                np.add(base, table.slope(f, f_next, out=term), out=candidate)
                x = candidate
        return x, utt, uttt, f_next

    return step


def solve(
    initial,
    params,
    T,
    dt,
    substep_iters=DEFAULT_SUBSTEP_SWEEPS,
    eps_deg=DEFAULT_EPS_DEG,
    blowup_bound=DEFAULT_BLOWUP_BOUND,
):
    """March the nonlinear problem from an ``EvolutionState`` at t = 0 to T.

    The march checks the semigroup data at t = 0 against ``blowup_bound``,
    then evaluates its own start: one law call guards u_t and gives
    u_ttt(0) and f(0).  A trip timed 0 is one of the initial data; a later
    one, timed at its sample of ``time_grid``, carries the accepted part
    of the run in its partial_trajectory attribute.  One ``KernelPlan``, built here with the
    margin ``eps_deg``, serves every kernel call of the march, and one
    bound step (``_bind_step``) every step; both are dropped with the
    march.  The step returns views of its buffers, which the march copies
    into the trajectory rows, so no trajectory array shares memory with
    them.
    """
    if initial.t != 0.0:
        raise ValueError(f"the initial state must be at t = 0, got t = {initial.t:g}")
    t_grid = time_grid(T, dt)
    nt = t_grid.size
    domain = initial.domain
    table = propagator_table(domain, params, float(dt))

    shape = domain.coeff_shape
    u = np.zeros((nt,) + shape)
    ut = np.zeros((nt,) + shape)
    utt = np.zeros((nt,) + shape)
    uttt = np.zeros((nt,) + shape)
    forcing = np.zeros((nt,) + shape)
    u[0], ut[0], utt[0] = initial.u.coeffs, initial.ut.coeffs, initial.utt.coeffs

    data = semigroup_data(domain, params, u[0], ut[0], utt[0]).reshape(3, -1)
    _check_blowup(data, 0.0, blowup_bound)
    plan = KernelPlan(domain, params, eps_deg=eps_deg)
    uttt[0], forcing[0], _ = plan(u[0], ut[0], utt[0], time=0.0)
    step = _bind_step(table, plan, substep_iters, blowup_bound)
    u_rows, ut_rows, utt_rows, uttt_rows, f_rows = (
        a.reshape(nt, -1) for a in (u, ut, utt, uttt, forcing)
    )

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

    for n, t in enumerate(t_grid[1:].tolist()):
        try:
            data, utt_rows[n + 1], uttt_rows[n + 1], f_rows[n + 1] = step(data, f_rows[n], t)
        except (DegeneracyError, BlowUpError) as err:
            err.partial_trajectory = partial(n)
            raise
        u_rows[n + 1] = data[0]
        ut_rows[n + 1] = data[1]

    return Trajectory(
        domain=domain,
        t_grid=t_grid,
        u=u,
        ut=ut,
        utt=utt,
        uttt=uttt,
        forcing=forcing,
    )


def linear_trajectory(initial, params, t_grid, forcing=None):
    """The linear solve from an ``EvolutionState`` on t_grid as a Trajectory.

    ``solve_duhamel`` gives the semigroup series under the forcing f
    (an (nt,) + coeff shape array, or None); u_tt keeps its given start
    and comes back through ``semigroup_utt`` at later samples, and u_ttt
    is the linear bracket minus f.
    """
    domain = initial.domain
    fields = (initial.u.coeffs, initial.ut.coeffs, initial.utt.coeffs)
    data0 = semigroup_data(domain, params, *fields)
    data = solve_duhamel(domain, params, t_grid, data0, forcing=forcing)
    u, ut = data[:, 0].copy(), data[:, 1].copy()
    utt = semigroup_utt(domain, params, np.moveaxis(data, 1, 0))
    utt[0] = fields[2]
    uttt = linear_bracket(domain, params, u, ut, utt)
    if forcing is not None:
        uttt = uttt - forcing
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
    _, f, _ = nonlinear_terms(domain, params, phi.u, phi.ut, phi.utt, uttt=phi.uttt)
    result = linear_trajectory(initial, params, phi.t_grid, forcing=f)
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
    blowup_bound=DEFAULT_BLOWUP_BOUND,
):
    """Iterate the fixed-point map from the homogeneous linear solution.

    Stops once the trajectory-norm increment drops below tol; raises
    NonConvergenceError when the budget runs out.  The initial data are
    checked against ``blowup_bound``, then the guard, before the
    homogeneous start is solved from them.  Before each sweep the
    semigroup data of phi, the quantities ``solve`` checks, is checked
    against ``blowup_bound`` at every sample, so a diverging iteration
    raises BlowUpError before f[phi] is formed from an unchecked iterate.
    Every error raised carries the ``ratios`` and ``increments`` measured
    before it.
    """
    if initial.t != 0.0:
        raise ValueError(f"the initial state must be at t = 0, got t = {initial.t:g}")
    t_grid = time_grid(T, dt)
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    domain = initial.domain
    fields = (initial.u.coeffs, initial.ut.coeffs, initial.utt.coeffs)

    increments = []
    ratios = []
    try:
        _check_blowup(semigroup_data(domain, params, *fields), 0.0, blowup_bound)
        degeneracy_guard(domain, params, fields[1], 0.0, eps_deg)
        phi = linear_trajectory(initial, params, t_grid)
        # the homogeneous start (its sample 0 is u1, guarded above); every
        # later phi is a result picard_apply has guarded
        degeneracy_guard(domain, params, phi.ut[1:], t_grid[1:], eps_deg)
        for iteration in range(1, max_iter + 1):
            # the sample to check: the first past the bound, NaN included
            data = semigroup_data(domain, params, phi.u, phi.ut, phi.utt)
            peaks = np.abs(data).reshape(3, t_grid.size, -1).max(axis=(0, 2))
            first = int(np.argmax(~(peaks <= blowup_bound)))
            _check_blowup(data[:, first], float(t_grid[first]), blowup_bound)
            nxt = picard_apply(phi, initial, params, eps_deg=eps_deg)
            increment = v_norm(nxt.difference(phi))
            increments.append(increment)
            if len(increments) >= 2 and increments[-2] > 0.0:
                ratios.append(increments[-1] / increments[-2])
            phi = nxt
            if increment < tol:
                return phi, PicardReport(iteration, tuple(ratios), tuple(increments))
        raise NonConvergenceError(
            f"fixed-point iteration did not contract below {tol:.3e} "
            f"within {max_iter} sweeps"
        )
    except (DegeneracyError, BlowUpError, NonConvergenceError) as err:
        err.ratios = list(ratios)
        err.increments = list(increments)
        raise


def vtilde_norm(traj):
    """The seven squared components of the weak trajectory norm, by name;
    the norm squared is their maximum."""
    domain, t = traj.domain, traj.t_grid
    utttt = fourth_derivative_series(t, traj.uttt)

    def integral(series):
        return float(np.trapezoid(series, t))

    def supremum(series):
        return float(series.max(initial=0.0))

    return {
        "utttt_L2L2": integral(sq_norm(domain, utttt)),
        "uttt_L2H1": integral(sq_norm(domain, traj.uttt, 1)),
        "utt_L2H1": integral(sq_norm(domain, traj.utt, 1)),
        "utt_LinfH2": supremum(sq_norm(domain, traj.utt, 2)),
        "ut_L2H1": integral(sq_norm(domain, traj.ut, 1)),
        "ut_LinfH3": supremum(sq_norm(domain, traj.ut, 3)),
        "u_LinfH3": supremum(sq_norm(domain, traj.u, 3)),
    }


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
