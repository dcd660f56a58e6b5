"""Tests for the nonlinear solvers and the trajectory norms.

The reference for stepping accuracy is a dense adaptive ODE oracle built
from scratch here: the modal right-hand side is assembled by explicit
sine sums on a 2000-node Gauss-Legendre grid (pointwise division by the
degeneracy factor included) and integrated with scipy's DOP853 at tight
tolerances.  It shares no quadrature or propagator code with the
package.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from bck_sim.errors import BlowUpError, DegeneracyError
from bck_sim.linear import propagator_table, semigroup_data, solve_duhamel
from bck_sim.model import (
    DEFAULT_EPS_DEG,
    EvolutionState,
    ModelParams,
    degeneracy_guard,
    linear_bracket,
    make_compatibility_data,
    nonlinear_terms,
    semigroup_utt,
    time_grid,
)
from bck_sim.nonlinear import (
    DEFAULT_BLOWUP_BOUND,
    Trajectory,
    _check_blowup,
    linear_trajectory,
    picard_apply,
    picard_solve,
    solve,
    v_norm,
    vtilde_norm,
)
from bck_sim.spectral import DomainSpec, SpectralField, evaluate, grid_values

WEIGHT = math.pi / 2.0


def _domain(n=8):
    return DomainSpec(1, (math.pi,), n)


def _params(**kw):
    base = dict(a=1.0, b=1.0, c=1.0, k=0.2, s=1)
    base.update(kw)
    return ModelParams(**base)


def _small_data(dom, params, amplitude=1e-3):
    u0 = SpectralField.single_mode(dom, (1,), amplitude)
    z = SpectralField.zeros(dom)
    return make_compatibility_data(u0, z, z, params)


def _dense_modal_rhs(n, a, b, c, k, s, nq=2000):
    """Independent modal right-hand side via explicit quadrature.

    Evaluates the third-derivative equation pointwise on a fine
    Gauss-Legendre grid over (0, pi) and projects the quotient back
    onto the first n sine modes.
    """
    x, w = np.polynomial.legendre.leggauss(nq)
    x = 0.5 * math.pi * (x + 1.0)
    w = 0.5 * math.pi * w
    m = np.arange(1, n + 1)
    lam = m.astype(float) ** 2
    sines = np.sin(np.outer(m, x))
    dsines = m[:, None] * np.cos(np.outer(m, x))
    project = (sines * w) / WEIGHT

    def rhs(t, y):
        u, v, acc = y[:n], y[n : 2 * n], y[2 * n :]
        bracket = (
            -(a + b) * lam * acc
            - (c * c * lam + a * b * lam**2) * v
            - a * c * c * lam**2 * u
        )
        bracket_x = bracket @ sines
        v_x = v @ sines
        acc_x = acc @ sines
        du_x = u @ dsines
        dv_x = v @ dsines
        dacc_x = acc @ dsines
        numer = bracket_x - 2.0 * k * acc_x * acc_x - 2.0 * s * (
            dv_x * dv_x + du_x * dacc_x
        )
        quotient = numer / (1.0 + 2.0 * k * v_x)
        return np.concatenate([v, acc, project @ quotient])

    return rhs


def _oracle_final_u(data, params, T):
    n = data.domain.modes_per_axis
    rhs = _dense_modal_rhs(n, params.a, params.b, params.c, params.k, params.s)
    y0 = np.concatenate([data.u.coeffs.ravel(), data.ut.coeffs.ravel(), data.utt.coeffs.ravel()])
    sol = solve_ivp(rhs, (0.0, T), y0, method="DOP853", rtol=1e-12, atol=1e-16)
    return sol.y[:n, -1]


@pytest.fixture(scope="module")
def small_run():
    dom = _domain()
    params = _params()
    data = _small_data(dom, params)
    traj = solve(data, params, 1.0, 1e-3)
    return dom, params, data, traj


def test_step_linear_case_matches_homogeneous_propagator():
    rng = np.random.default_rng(7)
    dom = _domain(6)
    params = _params(b=2.0, c=0.7, k=0.0, s=0)
    fields = [SpectralField(dom, rng.standard_normal(6)) for _ in range(3)]
    # one step: solve with T = dt
    out = solve(make_compatibility_data(*fields, params), params, 0.037, 0.037)
    data0 = semigroup_data(dom, params, *(f.coeffs for f in fields))
    ref = solve_duhamel(dom, params, np.array([0.0, 0.037]), data0)[-1]
    expected = {"u": ref[0], "ut": ref[1], "utt": semigroup_utt(dom, params, ref)}
    for name, want in expected.items():
        assert getattr(out, name)[-1].tobytes() == want.tobytes(), name


def test_solve_matches_dense_modal_oracle(small_run):
    # expected value from the DOP853 quadrature oracle above
    _, params, data, traj = small_run
    reference = _oracle_final_u(data, params, 1.0)
    numeric = traj.u[-1].ravel()
    rel = np.linalg.norm(numeric - reference) / np.linalg.norm(reference)
    assert rel < 1e-6


def test_step_refinement_is_second_order():
    dom = _domain()
    params = _params()
    data = _small_data(dom, params)
    reference = _oracle_final_u(data, params, 1.0)
    errors = []
    for dt in (0.01, 0.005, 0.0025):
        traj = solve(data, params, 1.0, dt)
        errors.append(np.linalg.norm(traj.u[-1].ravel() - reference))
    assert errors[0] / errors[1] >= 3.5
    assert errors[1] / errors[2] >= 3.5


def test_solve_zero_data_returns_zero_trajectory():
    dom = _domain()
    params = _params()
    z = SpectralField.zeros(dom)
    data = make_compatibility_data(z, z, z, params)
    traj = solve(data, params, 0.5, 0.01)
    assert traj.n_samples == 51
    for arr in (traj.u, traj.ut, traj.utt, traj.uttt):
        assert np.all(arr == 0.0)


def test_solve_small_data_keeps_velocity_below_guard(small_run):
    _, params, _, traj = small_run
    bound = 1.0 / (2.0 * params.k)
    for i in range(0, traj.n_samples, 50):
        assert np.abs(grid_values(traj.domain, traj.ut[i])).max() < bound
    degeneracy_guard(traj.domain, params, traj.ut, traj.t_grid)


def test_solve_rejects_degenerate_initial_velocity():
    dom = _domain()
    params = _params(k=0.5)
    z = SpectralField.zeros(dom)
    u1 = SpectralField.single_mode(dom, (1,), 1.2)
    data = EvolutionState(0.0, z, u1, z)
    with pytest.raises(DegeneracyError) as info:
        solve(data, params, 1.0, 0.01)
    assert info.value.time == 0.0
    assert info.value.partial_trajectory is None
    # the fixed-point route guards the same start at the same time
    with pytest.raises(DegeneracyError) as info:
        picard_solve(data, params, 1.0, 0.01)
    assert info.value.time == 0.0


def test_solve_midrun_degeneracy_carries_partial_trajectory():
    dom = _domain()
    params = _params(k=2.0)
    z = SpectralField.zeros(dom)
    u1 = SpectralField.single_mode(dom, (1,), -0.23)
    u2 = SpectralField.single_mode(dom, (1,), -0.5)
    data = make_compatibility_data(z, u1, u2, params)
    with pytest.raises(DegeneracyError) as info:
        solve(data, params, 1.0, 0.01)
    err = info.value
    assert err.time > 0.0
    part = err.partial_trajectory
    assert part is not None and part.n_samples >= 1
    assert part.t_grid[-1] == pytest.approx(err.time - 0.01)
    degeneracy_guard(part.domain, params, part.ut, part.t_grid)


def test_solve_blowup_bound_raises_overflow():
    dom = _domain()
    params = _params(k=0.0, s=0)
    z = SpectralField.zeros(dom)
    u0 = SpectralField.single_mode(dom, (1,), 1.0)
    data = make_compatibility_data(u0, z, z, params)
    with pytest.raises(BlowUpError) as info:
        solve(data, params, 1.0, 0.01, blowup_bound=1e-6)
    err = info.value
    assert isinstance(err, OverflowError)
    assert err.norm > err.bound == 1e-6
    # the data are past the bound at t = 0: a trip of the initial data
    assert err.time == 0.0
    assert err.partial_trajectory is None


@pytest.mark.parametrize("kind,step", [(DegeneracyError, 10), (BlowUpError, 40)])
def test_a_march_failure_reports_the_time_of_a_sample(kind, step):
    """At dt = 0.01 the sum of n steps drifts from the sample time n dt
    (ten steps sum to 0.09999999999999999): the guard and the blow-up
    check of a march report the time of the sample they trip at, on
    ``time_grid``.  The blow-up case is a weakly damped mode-2 oscillation
    whose semigroup data set a new peak at every sample from 28 on, with
    the bound set between the peaks at samples 39 and 40 of a clean run."""
    dom = _domain()
    z = SpectralField.zeros(dom)
    T, dt = 1.0, 0.01
    options = {}
    if kind is DegeneracyError:
        params = _params(k=2.0)
        u1 = SpectralField.single_mode(dom, (1,), -0.2)
        data = make_compatibility_data(z, u1, SpectralField.single_mode(dom, (1,), -0.5), params)
    else:
        params = _params(b=0.1, k=0.0, s=0)
        u0 = SpectralField.single_mode(dom, (2,), 1.0)
        # u_tt = -c^2 lam u0, so the wave part starts at zero
        data = make_compatibility_data(u0, z, -4.0 * u0, params)
        clean = solve(data, params, T, dt)
        start = semigroup_data(dom, params, clean.u, clean.ut, clean.utt)
        peaks = np.abs(start).max(axis=(0, 2))
        assert np.all(np.diff(peaks[step - 12 : step + 1]) > 0.0)
        assert peaks[step - 1] == peaks[:step].max()
        options["blowup_bound"] = 0.5 * (peaks[step - 1] + peaks[step])
    with pytest.raises(kind) as info:
        solve(data, params, T, dt, **options)
    err = info.value
    assert err.partial_trajectory.n_samples == step
    assert err.time == time_grid(T, dt)[step]
    assert sum([dt] * step) != err.time


def test_solvers_start_at_time_zero():
    """Every time grid starts at 0, so a state at another time is refused."""
    dom = _domain()
    params = _params()
    z = SpectralField.zeros(dom)
    late = EvolutionState(0.5, z, z, z)
    with pytest.raises(ValueError, match="t = 0"):
        solve(late, params, 1.0, 0.01)
    with pytest.raises(ValueError, match="t = 0"):
        picard_solve(late, params, 1.0, 0.01)


@pytest.mark.parametrize(
    "bad,bound,shown",
    [
        (math.nan, 1e12, "nan"),
        (math.inf, 1e12, "inf"),
        (-math.inf, 1e12, "inf"),
        (-math.inf, math.inf, "inf"),
        (-2.5e12, 1e12, "2.500e+12"),
        (2.5e12, 1e12, "2.500e+12"),
    ],
)
def test_check_blowup_trips_on_nan_inf_and_bound(bad, bound, shown):
    """One max reduction of |x| decides; the message reports max |x|, NaN
    and inf included (also with an infinite bound)."""
    data = np.zeros((3, 8))
    data[1, 3] = bad
    data[2, 5] = 0.5
    with pytest.raises(BlowUpError) as info:
        _check_blowup(data, 0.25, bound)
    err = info.value
    assert str(err) == (
        f"coefficient magnitude {shown} exceeded the blow-up bound {bound:.3e} at t = 0.25"
    )
    assert err.time == 0.25 and err.bound == bound
    peak = float(np.max(np.abs(data)))
    assert err.norm == peak or (math.isnan(err.norm) and math.isnan(peak))


def test_check_blowup_passes_within_the_bound():
    data = np.zeros((3, 8))
    data[0, 0], data[1, 1] = 1e12, -1e12
    _check_blowup(data, 0.0, 1e12)
    _check_blowup(np.zeros((3, 8)), 0.0, 0.0)


MARCH_FIELDS = ("u", "ut", "utt", "uttt", "forcing")


def _reference_march(data, params, T, dt, substep_iters, eps_deg=DEFAULT_EPS_DEG,
                     blowup_bound=DEFAULT_BLOWUP_BOUND, trace=None):
    """The march as a loop of the step spelled term by term, allocating,
    from the law at t = 0 (u_ttt and f of the first sample):
    base = table.evolve(x) - table.held(f), and per sweep the blow-up
    check, u_tt by ``semigroup_utt``, the law by a one-shot
    ``nonlinear_terms`` call and, on every sweep but the last,
    base + table.slope(f, f').  Each step after the first reads the
    candidate the step before accepted, and its checks report its sample
    time on ``time_grid``.

    Returns (fields, error): the accepted samples of each of MARCH_FIELDS,
    stacked, and the error that stopped the loop or None.  ``trace``, when
    given, receives per sweep (step, sweep, max |x| of the candidate,
    max |2k u_t| on the Gauss and collocation grids) before the sweep's
    checks."""
    domain = data.domain
    shape = (3,) + domain.coeff_shape
    table = propagator_table(domain, params, dt)
    t_grid = time_grid(T, dt)
    start = (data.u.coeffs, data.ut.coeffs, data.utt.coeffs)
    uttt, f, _ = nonlinear_terms(domain, params, *start, eps_deg=eps_deg)
    rows = [[value] for value in start + (uttt, f)]
    x = semigroup_data(domain, params, *start)
    f = f.reshape(-1)
    error = None
    try:
        for step in range(1, t_grid.size):
            base = table.evolve(x.reshape(3, -1)) - table.held(f)
            t = float(t_grid[step])
            candidate = base
            for sweep in range(substep_iters + 1):
                if trace is not None:
                    ut = candidate[1].reshape(domain.coeff_shape)
                    peaks = [
                        np.abs(evaluate(domain, g, ut)).max() for g in ("gauss", "collocation")
                    ]
                    guard = 2.0 * params.k * max(peaks)
                    trace.append((step, sweep, np.abs(candidate).max(), guard))
                _check_blowup(candidate, t, blowup_bound)
                x = candidate.reshape(shape)
                utt = semigroup_utt(domain, params, x)
                uttt, f_next, _ = nonlinear_terms(
                    domain, params, x[0], x[1], utt, time=t, eps_deg=eps_deg
                )
                f_next = f_next.reshape(-1)
                if sweep < substep_iters:
                    candidate = base + table.slope(f, f_next)
            f = f_next
            for row, value in zip(rows, (x[0], x[1], utt, uttt, f.reshape(x[0].shape))):
                row.append(value)
    except (BlowUpError, DegeneracyError) as err:
        error = err
    return dict(zip(MARCH_FIELDS, map(np.array, rows))), error


def _same_bits(a, b):
    """Equal shapes and bytes: np.array_equal that also tells -0.0 from 0.0."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _random_data(dim, n, k, s, seed=0):
    dom = DomainSpec(dim, (math.pi, 2.0)[:dim], n)
    params = ModelParams(1.0, 0.7, 1.3, k, s)
    rng = np.random.default_rng(seed)
    lam = np.asarray(dom.eigenvalue_grid) / dom.lambda0
    fields = [SpectralField(dom, 1e-2 * rng.standard_normal(dom.coeff_shape) * lam**-1.5)
              for _ in range(3)]
    return params, make_compatibility_data(*fields, params)


@pytest.mark.parametrize("substep_iters", [0, 2])
@pytest.mark.parametrize("s", [0, 1])
@pytest.mark.parametrize("k", [0.0, 0.2])
@pytest.mark.parametrize("dim,n", [(1, 8), (1, 64), (2, 16)])
def test_march_is_the_three_term_step_in_a_loop(dim, n, k, s, substep_iters):
    """The bound step is the term-by-term step bit for bit, signed zeros
    included, at every sample of every stored field."""
    params, data = _random_data(dim, n, k, s)
    want, err = _reference_march(data, params, 6e-3, 1e-3, substep_iters)
    assert err is None
    traj = solve(data, params, 6e-3, 1e-3, substep_iters=substep_iters)
    for name in MARCH_FIELDS:
        assert _same_bits(getattr(traj, name), want[name]), name


@pytest.mark.parametrize("substep_iters", [0, 2])
@pytest.mark.parametrize("dim,n", [(1, 8), (2, 4)])
def test_linear_march_is_the_duhamel_solve(dim, n, substep_iters):
    """With k = s = 0 the law is the linear bracket and f is zero, so the
    march and the linear solve take the same step: ``solve`` equals
    ``linear_trajectory`` byte for byte, signed zeros included, in every
    stored field at every sample, with and without substep sweeps."""
    params, data = _random_data(dim, n, 0.0, 0)
    traj = solve(data, params, 0.1, 1e-3, substep_iters=substep_iters)
    want = linear_trajectory(data, params, time_grid(0.1, 1e-3))
    for name in ("u", "ut", "utt", "uttt"):
        assert _same_bits(getattr(traj, name), getattr(want, name)), name


def _growing_case(dim):
    """u_t driven up from rest by u_tt on a weakly damped domain.  With
    dt = 0.25 the largest coefficient and the largest |2k u_t| grow from
    step to step, and a substep sweep sets a new record of each at some
    step >= 2."""
    dom = DomainSpec(dim, (math.pi, 2.0)[:dim], 8)
    params = ModelParams(0.05, 0.1, 0.3, 0.2, 1)
    lam = np.asarray(dom.eigenvalue_grid) / dom.lambda0
    rng = np.random.default_rng(3)
    z = SpectralField.zeros(dom)
    u2 = SpectralField(dom, 1e-1 * rng.standard_normal(dom.coeff_shape) * lam**-1.5)
    return params, make_compatibility_data(z, z, u2, params)


def _error_fields(err):
    return {key: value for key, value in vars(err).items() if key != "partial_trajectory"}


@pytest.mark.parametrize("kind", ["blowup", "degeneracy"])
@pytest.mark.parametrize("dim", [1, 2])
def test_a_trip_inside_a_substep_sweep_matches_the_reference_loop(dim, kind):
    """The bound is set between the largest value before the first record
    set by a sweep >= 1 (at a step >= 2) and that record, so the march
    trips inside a substep sweep.  It raises the reference loop's error,
    with its time, fields and message, and a partial trajectory of the
    reference loop's accepted samples; a march after the trip is
    unchanged."""
    params, data = _growing_case(dim)
    T, dt = 3.0, 0.25
    clean = solve(data, params, T, dt)
    trace = []
    _, err = _reference_march(data, params, T, dt, 2, trace=trace)
    assert err is None
    best = 0.0
    for step, sweep, peak, guard in trace:
        value = peak if kind == "blowup" else guard
        if step >= 2 and sweep >= 1 and value > best:
            break
        best = max(best, value)
    else:
        pytest.fail("no sweep >= 1 sets a record")
    limit = 0.5 * (best + value)
    options = {"blowup_bound": limit} if kind == "blowup" else {"eps_deg": 1.0 - limit}
    trace = []
    want, want_err = _reference_march(data, params, T, dt, 2, trace=trace, **options)
    assert trace[-1][:2] == (step, sweep)
    with pytest.raises(type(want_err)) as info:
        solve(data, params, T, dt, **options)
    got = info.value
    assert str(got) == str(want_err)
    assert _error_fields(got) == _error_fields(want_err)
    assert got.partial_trajectory.n_samples == step
    for name in MARCH_FIELDS:
        assert _same_bits(getattr(got.partial_trajectory, name), want[name]), name
    again = solve(data, params, T, dt)
    for name in MARCH_FIELDS:
        assert _same_bits(getattr(again, name), getattr(clean, name)), name


def test_trajectory_validation():
    dom = _domain(4)
    t = np.linspace(0.0, 1.0, 5)
    good = np.zeros((5, 4))
    with pytest.raises(ValueError):
        Trajectory(dom, t, np.zeros((5, 3)), good, good, good)
    with pytest.raises(ValueError):
        Trajectory(dom, np.array([0.0, 0.1, 0.3, 0.4, 0.5]), good, good, good, good)
    traj = Trajectory(dom, t, good, good, good, good)
    other = Trajectory(dom, t + 0.5, good, good, good, good)
    with pytest.raises(ValueError):
        traj.difference(other)


def test_picard_apply_zero_map_is_zero():
    dom = _domain(4)
    params = _params()
    t = np.linspace(0.0, 1.0, 11)
    zero4 = np.zeros((11, 4))
    phi = Trajectory(dom, t, zero4, zero4, zero4, zero4)
    z = SpectralField.zeros(dom)
    data = make_compatibility_data(z, z, z, params)
    out = picard_apply(phi, data, params)
    for arr in (out.u, out.ut, out.utt, out.uttt):
        assert np.all(arr == 0.0)


def test_picard_apply_zero_phi_gives_homogeneous_solution():
    dom = _domain(4)
    params = _params()
    t = np.linspace(0.0, 1.0, 101)
    zero4 = np.zeros((101, 4))
    phi = Trajectory(dom, t, zero4, zero4, zero4, zero4)
    data = _small_data(dom, params, amplitude=0.01)
    out = picard_apply(phi, data, params)

    data0 = semigroup_data(dom, params, data.u.coeffs, data.ut.coeffs, data.utt.coeffs)
    ref = solve_duhamel(dom, params, t, data0)
    u, ut = ref[:, 0], ref[:, 1]
    utt = ref[:, 2] - params.b * dom.eigenvalue_grid * ut - params.c**2 * dom.eigenvalue_grid * u
    assert np.max(np.abs(out.u - u)) < 1e-13
    assert np.max(np.abs(out.ut - ut)) < 1e-13
    assert np.max(np.abs(out.utt - utt)) < 1e-13
    assert np.max(np.abs(out.uttt - linear_bracket(dom, params, u, ut, utt))) < 1e-13


def test_picard_fixed_point_residual_of_stepper_solution(small_run):
    _, params, data, traj = small_run
    image = picard_apply(traj, data, params)
    assert v_norm(image.difference(traj)) < 1e-5


def test_picard_converges_with_contraction_ratios(small_run):
    _, params, data, _ = small_run
    traj, report = picard_solve(data, params, 1.0, 1e-3, tol=1e-13, max_iter=12)
    assert report.iterations <= 10
    assert len(report.increments) == report.iterations
    assert all(q < 1.0 for q in report.ratios)
    diffs = report.increments
    assert all(diffs[i + 1] < diffs[i] for i in range(len(diffs) - 1))
    assert report.increments[-1] < 1e-13
    assert traj.n_samples == 1001


def test_picard_linear_case_converges_in_one_iteration():
    dom = _domain()
    params = _params(k=0.0, s=0)
    data = _small_data(dom, params, amplitude=0.3)
    traj, report = picard_solve(data, params, 1.0, 0.01, tol=1e-12)
    assert report.iterations == 1
    assert report.increments[-1] == 0.0
    assert traj.n_samples == 101


def test_picard_matches_stepper_solution(small_run):
    _, params, data, traj = small_run
    fixed, _ = picard_solve(data, params, 1.0, 1e-3, tol=1e-13, max_iter=12)
    assert v_norm(fixed.difference(traj)) < 1e-5


@pytest.mark.parametrize(
    "dim, amplitude, floor", [(1, 1e-3, 1e-15), (1, 0.1, 3 * 5.0e-11), (2, 0.05, 3 * 2.4e-13)]
)
def test_the_march_closes_on_the_picard_fixed_point(dim, amplitude, floor):
    """The march closes each step's implicit forcing with substep sweeps;
    the Picard route iterates the same step over the whole run.  So the
    march's closed loop is the Picard fixed point, up to the gap between
    the quotient law of the march and the Galerkin law of the fixed point.

    From rest on (0, pi)^d at N = 8: in 1D mode 1, in 2D the coefficients
    amplitude * g / (1 + lambda)^2, g standard normal.  The largest
    relative difference in u and u_t falls at least 100x per sweep until
    it reaches that floor.  Measured for m = 0, 1, 2, 8 sweeps: 2.5e-6,
    2.6e-11, 9.2e-16, 5.1e-17 (1D, 1e-3; the floor is rounding), 2.5e-4,
    2.6e-7, 2.9e-10, 5.0e-11 (1D, 0.1) and 2.6e-5, 2.5e-10, 2.5e-13,
    2.4e-13 (2D); each floor bound is 3x the last."""
    dom = DomainSpec(dim, (math.pi,) * dim, 8)
    if dim == 1:
        u0 = SpectralField.single_mode(dom, 1, amplitude)
    else:
        g = np.random.default_rng(0).standard_normal(dom.coeff_shape)
        u0 = SpectralField(dom, amplitude * g / (1.0 + np.asarray(dom.eigenvalue_grid)) ** 2)
    z = SpectralField.zeros(dom)
    data, params = EvolutionState(0.0, u0, z, z), _params()
    fixed, _ = picard_solve(data, params, 0.5, 1e-2, tol=1e-15, max_iter=50)

    def gap(traj):
        return max(
            np.max(np.abs(getattr(traj, x) - getattr(fixed, x))) / np.max(np.abs(getattr(fixed, x)))
            for x in ("u", "ut")
        )

    errors = [gap(solve(data, params, 0.5, 1e-2, substep_iters=m)) for m in (0, 1, 2, 8)]
    for before, after in zip(errors, errors[1:]):
        assert after <= max(0.01 * before, floor), errors
    assert errors[-1] <= floor, errors


def test_picard_large_data_probe_reports_outcome(capsys):
    # negative direction is observed, not asserted: data scaled x100 may
    # diverge, trip the guard, or still contract on this domain
    dom = _domain()
    params = _params()
    data = _small_data(dom, params, amplitude=0.1)
    try:
        _, report = picard_solve(data, params, 1.0, 1e-3, tol=1e-13, max_iter=12)
        worst = max(report.ratios) if report.ratios else 0.0
        outcome = f"contracted, max ratio {worst:.3e}"
        assert worst >= 0.0
    except DegeneracyError as err:
        outcome = f"degenerate at t={err.time}"
    except Exception as err:  # NonConvergenceError carries the ratio history
        outcome = f"{type(err).__name__}: ratios={getattr(err, 'ratios', None)}"
        assert getattr(err, "ratios", None) is not None
    print(f"x100 data probe outcome: {outcome}")


def test_picard_checks_the_homogeneous_start_against_the_blowup_bound():
    """picard_solve checks phi's semigroup data, the quantities solve
    checks, before a sweep forms f[phi].  The data start at rest in the
    wave part (u_tt = -c^2 lam u), so their peak at t = 0 is |u|, and then
    swing to |u_t| near c sqrt(lam) |u| = 3 |u|: a bound of 1.5 |u| passes
    the initial-data check and trips at the first later sample of the
    homogeneous start past it, before any sweep is measured."""
    dom, params, amplitude = _domain(), _params(c=3.0), 1e-3
    u0 = SpectralField.single_mode(dom, (1,), amplitude)
    data = make_compatibility_data(
        u0, SpectralField.zeros(dom), -params.c**2 * dom.lambda0 * u0, params
    )
    bound, t_grid = 1.5 * amplitude, time_grid(1.0, 1e-3)
    phi = linear_trajectory(data, params, t_grid)
    peaks = np.abs(semigroup_data(dom, params, phi.u, phi.ut, phi.utt)).max(axis=(0, 2))
    assert peaks[0] == pytest.approx(amplitude, rel=1e-12)
    first = int(np.argmax(peaks > bound))
    assert first > 0
    with pytest.raises(BlowUpError) as info:
        picard_solve(data, params, 1.0, 1e-3, blowup_bound=bound)
    err = info.value
    assert (err.time, err.bound, err.norm) == (t_grid[first], bound, peaks[first])
    assert err.ratios == [] and err.increments == []


@pytest.mark.parametrize(
    "dim,time,index,factor,label",
    [(1, 0.11, 2, 1.42667070956591, "grid index 2"),
     (2, 0.13, (23, 23), 1.0000037131892838, "Gauss node (23, 23)")],
)
def test_picard_midrun_degeneracy_of_the_homogeneous_start(dim, time, index, factor, label):
    """u1 = 0 passes the start guard, but the homogeneous solution driven by
    u2 trips mid-run.  picard_solve guards that start once, and the error
    is the one a guard of phi inside the first sweep raised (values taken
    from that implementation)."""
    dom = DomainSpec(dim, (math.pi,) * dim, 4)
    params = ModelParams(1.0, 1.0, 1.0, 1.0, 1)
    z = SpectralField.zeros(dom)
    data = make_compatibility_data(z, z, SpectralField.single_mode(dom, 1, 5.0), params)
    with pytest.raises(DegeneracyError) as info:
        picard_solve(data, params, 0.5, 0.01)
    err = info.value
    assert (err.time, err.index) == (time, index)
    assert err.factor == pytest.approx(factor, rel=1e-12)
    assert f"at {label} " in str(err)
    assert err.ratios == [] and err.increments == []


def test_continuous_dependence_constant_is_stable():
    dom = _domain()
    params = _params()
    base = _small_data(dom, params)
    sol_base = solve(base, params, 1.0, 0.01)
    z = SpectralField.zeros(dom)
    lam2 = 4.0
    constants = []
    for i in range(5):
        eps = 1e-4 / 2**i
        u0p = base.u + SpectralField.single_mode(dom, (2,), eps)
        datap = make_compatibility_data(u0p, z, z, params)
        solp = solve(datap, params, 1.0, 0.01)
        delta = math.sqrt(lam2**4 * eps**2 * WEIGHT)  # H4 norm of the data gap
        constants.append(v_norm(solp.difference(sol_base)) / delta)
    assert max(constants) / min(constants) < 2.0


def test_small_data_vtilde_stays_small(small_run):
    _, params, data, traj = small_run
    assert max(vtilde_norm(traj).values()) < 1e-4
    traj10 = solve(data, params, 10.0, 0.01)
    assert max(vtilde_norm(traj10).values()) < 1e-4


def test_vtilde_zero_trajectory():
    dom = _domain(4)
    t = np.linspace(0.0, 1.0, 9)
    zero4 = np.zeros((9, 4))
    traj = Trajectory(dom, t, zero4, zero4, zero4, zero4)
    components = vtilde_norm(traj)
    assert set(components) == {
        "utttt_L2L2",
        "uttt_L2H1",
        "utt_L2H1",
        "utt_LinfH2",
        "ut_L2H1",
        "ut_LinfH3",
        "u_LinfH3",
    }
    assert all(v == 0.0 for v in components.values())
    assert v_norm(traj) == 0.0


def test_vtilde_scaling_is_quadratic():
    rng = np.random.default_rng(11)
    dom = _domain(6)
    t = np.linspace(0.0, 2.0, 21)
    lam = np.asarray(dom.eigenvalue_grid)
    fields = [rng.standard_normal((21, 6)) * lam**-1.5 for _ in range(4)]
    traj = Trajectory(dom, t, *fields)
    scaled = Trajectory(dom, t, *(3.0 * f for f in fields))
    rep, rep3 = vtilde_norm(traj), vtilde_norm(scaled)
    for key in rep:
        np.testing.assert_allclose(rep3[key], 9.0 * rep[key], rtol=1e-12)
    np.testing.assert_allclose(max(rep3.values()), 9.0 * max(rep.values()), rtol=1e-12)
    np.testing.assert_allclose(v_norm(scaled), 3.0 * v_norm(traj), rtol=1e-12)


def test_vtilde_constant_single_mode_closed_form():
    dom = _domain(4)
    t = np.linspace(0.0, 1.0, 11)
    u = np.zeros((11, 4))
    u[:, 0] = 1.0  # u(t) = sin x for all t
    zero4 = np.zeros((11, 4))
    traj = Trajectory(dom, t, u, zero4, zero4, zero4)
    components = vtilde_norm(traj)
    assert components["u_LinfH3"] == pytest.approx(WEIGHT, rel=1e-12)
    assert max(components.values()) == pytest.approx(WEIGHT, rel=1e-12)
    for key, val in components.items():
        if key != "u_LinfH3":
            assert val == 0.0
    # strong norm: all seven summands reduce to pi/2 for this field
    assert v_norm(traj) == pytest.approx(math.sqrt(7.0 * WEIGHT), rel=1e-12)


def test_vtilde_bounded_by_strong_norm_squared():
    rng = np.random.default_rng(23)
    dom = _domain(8)
    t = np.linspace(0.0, 1.5, 31)
    lam = np.asarray(dom.eigenvalue_grid)
    fields = [rng.standard_normal((31, 8)) * lam**-2.0 for _ in range(4)]
    traj = Trajectory(dom, t, *fields)
    assert max(vtilde_norm(traj).values()) <= v_norm(traj) ** 2
