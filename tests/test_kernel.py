"""Tests of the array-native nonlinear kernel and the batched diagnostics.

Batched calls must reproduce the unbatched ones bit for bit: a batch is a
stack of the same gemv/gemm, DCT and elementwise operations, so any
difference would mean the arithmetic of a sample depends on its batch.
"""

import inspect

import numpy as np
import pytest

from bck_sim import model, nonlinear, spectral
from bck_sim.energy import energy_series, forcing_series
from bck_sim.errors import DegeneracyError
from bck_sim.linear import semigroup_data
from bck_sim.model import (
    DEFAULT_EPS_DEG,
    EvolutionState,
    KernelPlan,
    ModelParams,
    acceleration,
    check_degeneracy_guard,
    degeneracy_guard,
    forcing_f,
    linear_bracket,
    make_compatibility_data,
    nonlinear_terms,
    pde_residual_series,
)
from bck_sim.nonlinear import Trajectory, solve
from bck_sim.spectral import (
    DomainSpec,
    SpectralField,
    evaluate,
    grid_extremes,
    grid_values,
    project,
)

DOMAINS = [(1, 8), (1, 64), (2, 8), (2, 16)]
BATCHES = [(), (5,), (2, 3)]


def _coeffs(domain, rng, batch, scale):
    lam = np.asarray(domain.eigenvalue_grid)
    shape = batch + domain.coeff_shape
    return scale * rng.standard_normal(shape) * (lam / domain.lambda0) ** -1.5


def _fields(domain, batch, seed=0):
    rng = np.random.default_rng(seed)
    return tuple(_coeffs(domain, rng, batch, scale) for scale in (1e-2, 1e-2, 1e-2, 1e-1))


def _loop(domain, params, batch, u, ut, utt, uttt, times, **kwargs):
    """Unbatched kernel calls over every batch index, restacked."""
    outs = [[], [], []]
    for idx in np.ndindex(*batch):
        res = nonlinear_terms(
            domain,
            params,
            u[idx],
            ut[idx],
            utt[idx],
            uttt=None if uttt is None else uttt[idx],
            time=float(times[idx]),
            **kwargs,
        )
        for out, value in zip(outs, res):
            out.append(value)
    return [
        None if out[0] is None else np.asarray(out).reshape(batch + np.shape(out[0]))
        for out in outs
    ]


@pytest.mark.parametrize("batch", BATCHES, ids=str)
@pytest.mark.parametrize("s", [0, 1])
@pytest.mark.parametrize("k", [0.0, 0.2])
@pytest.mark.parametrize("dim,n", DOMAINS)
def test_batched_kernel_equals_unbatched_loop(dim, n, k, s, batch):
    domain = DomainSpec(dim, (np.pi,) * dim, n)
    params = ModelParams(1.0, 0.7, 1.3, k, s)
    u, ut, utt, uttt = _fields(domain, batch, seed=n + dim)
    times = np.arange(int(np.prod(batch))).reshape(batch) * 0.25
    for given in (None, uttt):
        got = nonlinear_terms(domain, params, u, ut, utt, uttt=given, time=times)
        want = _loop(domain, params, batch, u, ut, utt, given, times)
        for g, w in zip(got, want):
            assert np.shape(g) == np.shape(w)
            assert np.array_equal(g, w)


def test_kernel_matches_field_wrappers():
    domain = DomainSpec(2, (np.pi, 2.0), 8)
    params = ModelParams(1.0, 0.7, 1.3, 0.2, 1)
    u, ut, utt, _ = _fields(domain, ())
    state = EvolutionState(0.0, *(SpectralField(domain, c) for c in (u, ut, utt)))
    uttt, f, guard_min = nonlinear_terms(domain, params, u, ut, utt)
    assert np.array_equal(acceleration(state, params).coeffs, uttt)
    assert np.array_equal(forcing_f(state, SpectralField(domain, uttt), params).coeffs, f)
    assert check_degeneracy_guard(state.ut, params, 0.0) == guard_min


def test_blocks_do_not_change_results(monkeypatch):
    domain = DomainSpec(1, (np.pi,), 8)
    params = ModelParams(1.0, 1.0, 1.0, 0.2, 1)
    u, ut, utt, uttt = _fields(domain, (40,))
    t = 0.01 * np.arange(40)
    whole = nonlinear_terms(domain, params, u, ut, utt, time=t)
    residual = pde_residual_series(domain, params, t, u, ut, utt)
    extremes = grid_extremes(domain, ut)
    monkeypatch.setattr(spectral, "BLOCK_BYTES", 1)
    for a, b in zip(whole, nonlinear_terms(domain, params, u, ut, utt, time=t)):
        assert np.array_equal(a, b)
    assert np.array_equal(residual, pde_residual_series(domain, params, t, u, ut, utt))
    for a, b in zip(extremes, grid_extremes(domain, ut)):
        assert np.array_equal(a, b)


def test_series_match_pointwise_diagnostics():
    domain = DomainSpec(1, (np.pi,), 8)
    params = ModelParams(1.0, 1.0, 1.0, 0.2, 1)
    u, ut, utt, uttt = _fields(domain, (6,))
    t = 0.1 * np.arange(6)
    states = [
        EvolutionState(t[i], *(SpectralField(domain, c[i]) for c in (u, ut, utt)))
        for i in range(6)
    ]
    residual = pde_residual_series(domain, params, t, u, ut, utt)
    # both columns come from one collocation pass over u_t
    series = energy_series(Trajectory(domain, t, u, ut, utt, uttt), params)
    factor, linf = series["guard_min"], series["Linf_ut"]
    for i in range(1, 5):
        window = slice(i - 1, i + 2)
        alone = pde_residual_series(domain, params, t[window], u[window], ut[window], utt[window])
        assert residual[i - 1] == alone[0]
    for i in range(6):
        low, _ = grid_extremes(domain, ut[i : i + 1])
        assert factor[i] == 1.0 + 2.0 * params.k * low[0]
        # the minimum of the factor on the grid is the factor at min u_t
        assert factor[i] == np.min(1.0 + 2.0 * params.k * grid_values(domain, ut[i]))
        assert linf[i] == np.abs(grid_values(domain, states[i].ut.coeffs)).max()


# ---------------------------------------------------------------------------
# the guard on the grid where the division happens
# ---------------------------------------------------------------------------


def _between_nodes_case():
    """1D, N = 8, k = 0.5: a u_t whose factor 1 + 2k u_t is 0.06 at its
    lowest collocation node but about -0.33 between nodes, where the Gauss
    rule of ``acceleration`` samples it."""
    domain = DomainSpec(1, (np.pi,), 8)
    params = ModelParams(1.0, 1.0, 1.0, 0.5, 1)
    c = np.random.default_rng(12869).standard_normal(8)
    c *= -0.94 / (2.0 * params.k * evaluate(domain, "collocation", c).min())
    return domain, params, SpectralField(domain, c)


def test_guard_trips_between_collocation_nodes():
    domain, params, ut = _between_nodes_case()
    scaled = 2.0 * params.k
    collocation = 1.0 + scaled * evaluate(domain, "collocation", ut.coeffs)
    gauss = 1.0 + scaled * evaluate(domain, "gauss", ut.coeffs)
    # a collocation-only guard passes this field ...
    assert collocation.min() == pytest.approx(0.06)
    assert np.max(np.abs(collocation - 1.0)) < 0.95
    # ... while the factor the solver divides by changes sign
    assert gauss.min() < -0.3
    with pytest.raises(DegeneracyError) as err:
        check_degeneracy_guard(ut, params, time=0.5)
    assert err.value.time == 0.5
    assert err.value.factor == pytest.approx(gauss.min())
    assert 0 <= err.value.index < domain.gauss_points_per_axis
    zero = SpectralField.zeros(domain)
    with pytest.raises(DegeneracyError):
        acceleration(EvolutionState(0.0, zero, ut, zero), params)
    with pytest.raises(DegeneracyError) as err:
        make_compatibility_data(zero, ut, zero, params)
    assert err.value.time == 0.0


def test_batched_guard_reports_first_offending_sample():
    domain, params, bad = _between_nodes_case()
    ut = np.zeros((4,) + domain.coeff_shape)
    ut[2] = bad.coeffs
    ut[3] = 10.0 * bad.coeffs
    with pytest.raises(DegeneracyError) as err:
        degeneracy_guard(domain, params, ut, time=[0.0, 0.1, 0.2, 0.3])
    assert err.value.time == 0.2
    minima = degeneracy_guard(domain, params, ut[:2], time=0.0)
    assert np.array_equal(minima, [1.0, 1.0])


def _per_grid_guard_error(domain, params, ut, times, eps_deg):
    """The DegeneracyError of the per-grid guard the fused one replaced:
    min and max of 2k u_t on each grid apart, the first offending sample,
    reported on the collocation grid when that grid trips."""
    scale = 2.0 * params.k
    grids = (
        ("grid index", scale * evaluate(domain, "collocation", ut)),
        ("Gauss node", scale * evaluate(domain, "gauss", ut)),
    )
    limit = 1.0 - eps_deg
    for i in range(ut.shape[0]):
        for label, scaled in grids:
            sample = scaled[i]
            if sample.max() >= limit or sample.min() <= -limit:
                worst = int(np.argmax(np.abs(sample)))
                idx = np.unravel_index(worst, sample.shape)
                idx = idx[0] if len(idx) == 1 else tuple(int(v) for v in idx)
                t = float(times[i])
                return DegeneracyError(
                    f"degeneracy guard tripped at t={t:.6g}: 1 + 2k u_t reaches "
                    f"{1.0 + sample.ravel()[worst]:.6g} at {label} {idx} "
                    f"(require |2k u_t| < {limit:g})",
                    time=t,
                    index=idx,
                    factor=float(1.0 + sample.min()),
                )
    return None


def _collocation_only_case():
    """1D, N = 8, k = 0.5: a u_t whose collocation-grid peak of |2k u_t|
    (0.955) exceeds its Gauss-grid peak by about 1%, so only the
    collocation grid trips."""
    domain = DomainSpec(1, (np.pi,), 8)
    params = ModelParams(1.0, 1.0, 1.0, 0.5, 1)
    c = np.random.default_rng(7).standard_normal(8)
    c *= 0.955 / (2.0 * params.k * np.abs(evaluate(domain, "collocation", c)).max())
    return domain, params, c


def _guard_cases():
    domain, params, coll = _collocation_only_case()
    _, _, between = _between_nodes_case()
    scale = 2.0 * params.k
    assert np.abs(scale * evaluate(domain, "gauss", coll)).max() < 0.95
    assert np.abs(scale * evaluate(domain, "collocation", between.coeffs)).max() < 0.95
    middle = np.zeros((5,) + domain.coeff_shape)
    middle[1] = 0.5 * between.coeffs
    middle[2] = between.coeffs
    middle[3] = coll
    return {
        "collocation-only": (domain, params, coll[None]),
        "gauss-only": (domain, params, between.coeffs[None]),
        "batched-middle": (domain, params, middle),
    }


@pytest.mark.parametrize("case", ["collocation-only", "gauss-only", "batched-middle"])
@pytest.mark.parametrize("from_start", [False, True])
def test_fused_guard_raises_the_per_grid_error(case, from_start):
    """One min and one max per sample over both grids trip exactly when
    the per-grid guard does, and the error (message, time, index, factor)
    is the per-grid one, from every route into the guard.  The samples are
    timed from t = 0, the time of a trip of initial data, or from t =
    0.125."""
    domain, params, ut = _guard_cases()[case]
    times = 0.125 * np.arange(ut.shape[0]) + (0.0 if from_start else 0.125)
    want = _per_grid_guard_error(domain, params, ut, times, DEFAULT_EPS_DEG)
    assert want is not None
    assert ("Gauss node" in str(want)) == (case != "collocation-only")
    assert (want.time == 0.0) == (from_start and ut.shape[0] == 1)
    plan = KernelPlan(domain, params, ut.shape[:1])
    calls = [
        lambda: degeneracy_guard(domain, params, ut, times),
        lambda: plan(0.0 * ut, ut, ut, time=times),
        lambda: nonlinear_terms(domain, params, 0.0 * ut, ut, ut, time=times),
    ]
    if ut.shape[0] == 1:
        calls += [
            lambda: degeneracy_guard(domain, params, ut[0], times[0]),
            lambda: KernelPlan(domain, params)(0.0 * ut[0], ut[0], ut[0], time=times[0]),
        ]
    if ut.shape[0] == 1 and from_start:
        zero = SpectralField.zeros(domain)
        calls.append(
            lambda: make_compatibility_data(zero, SpectralField(domain, ut[0]), zero, params)
        )
    for call in calls:
        with pytest.raises(DegeneracyError) as err:
            call()
        got = err.value
        assert str(got) == str(want)
        assert (got.time, got.factor) == (want.time, want.factor)
        assert got.index == want.index


@pytest.mark.parametrize("case", ["collocation-only", "gauss-only", "batched-middle"])
def test_forcing_only_route_never_guards(case):
    """With u_ttt given nothing is divided, so a u_t past the guard's
    limit gives f and a guard minimum of None, and raises nothing."""
    domain, params, ut = _guard_cases()[case]
    for batch in (ut, ut[0]):
        uttt, f, guard_min = nonlinear_terms(domain, params, 0.0 * batch, batch, batch, uttt=batch)
        assert guard_min is None and np.array_equal(uttt, batch)
        assert np.all(np.isfinite(f))
        plan = KernelPlan(domain, params, batch.shape[:-1])
        assert plan(0.0 * batch, batch, batch, batch)[2] is None


# ---------------------------------------------------------------------------
# bound plans and marches
# ---------------------------------------------------------------------------


def _initial_data(dim, n, seed=0, k=0.2, s=1):
    domain = DomainSpec(dim, (np.pi, 2.0)[:dim], n)
    params = ModelParams(1.0, 0.7, 1.3, k, s)
    u, ut, utt, _ = _fields(domain, (), seed)
    fields = (SpectralField(domain, c) for c in (u, ut, utt))
    return domain, params, make_compatibility_data(*fields, params)


def _term_by_term_forcing(domain, params, u, ut, utt, uttt):
    """f as the seed wrote it: each fine-grid product (gradient products
    summed over the axes in order), projected alone by the folded
    projection matrix M = ``DomainSpec._fine_project`` (M p in 1D, M p M^T
    in 2D), then scaled and added to zeros one term at a time."""
    dim, k, s = domain.dimension, params.k, params.s
    sine, dcos = domain._grid_matrices["fine"]

    def values(c):
        return (sine[0] @ c[:, None])[:, 0] if dim == 1 else sine[0] @ c @ sine[1].T

    def gradient(c):
        if dim == 1:
            return [(dcos[0] @ c[:, None])[:, 0]]
        return [dcos[0] @ c @ sine[1].T, sine[0] @ c @ dcos[1].T]

    def dot(a, b):
        acc = a[0] * b[0]
        for x, y in zip(a[1:], b[1:]):
            acc = acc + x * y
        return acc

    terms = []
    if k != 0.0:
        terms += [(2.0 * k, values(utt) * values(utt)), (2.0 * k, values(ut) * values(uttt))]
    if s:
        terms += [
            (2.0, dot(gradient(ut), gradient(ut))),
            (2.0, dot(gradient(u), gradient(utt))),
        ]
    fine = domain._fine_project
    f = np.zeros(u.shape)
    for weight, product in terms:
        proj = (fine @ product[:, None])[:, 0] if dim == 1 else fine @ product @ fine.T
        f += weight * proj
    return f


def _strong_fields(domain, n):
    """A weak linear part and strong fields, so every quadratic term
    reaches the last bits of the numerator and of f."""
    u, ut, utt, _ = (30.0 * c for c in _fields(domain, (), seed=n))
    return u, ut, utt


def _term_by_term_law(domain, params, u, ut, utt):
    """The Galerkin projection of the law's quotient, formed term by term
    on the Gauss grid."""
    dim, k = domain.dimension, params.k
    sine, dcos = domain._grid_matrices["gauss"]

    def values(c):
        return (sine[0] @ c[:, None])[:, 0] if dim == 1 else sine[0] @ c @ sine[1].T

    def gradient(c):
        if dim == 1:
            return [(dcos[0] @ c[:, None])[:, 0]]
        return [dcos[0] @ c @ sine[1].T, sine[0] @ c @ dcos[1].T]

    lin = linear_bracket(domain, params, u, ut, utt)
    num = values(lin) - 2.0 * k * values(utt) * values(utt)
    if params.s:
        for d_utt, d_ut, d_u in zip(gradient(utt), gradient(ut), gradient(u)):
            num = num - 2.0 * d_ut * d_ut - 2.0 * d_u * d_utt
    return project(domain, "gauss", num / (1.0 + 2.0 * k * values(ut)))


@pytest.mark.parametrize("s", [0, 1])
@pytest.mark.parametrize("dim,n", [(1, 8), (1, 64), (2, 16)])
def test_buffered_law_matches_the_allocating_expression(dim, n, s):
    """In 2D the stacked, buffered stages keep every operation and its
    association order, so they reproduce the plain term-by-term
    expressions bit for bit: the Gauss-grid law, the fine-grid products
    and the weighted sum of their projections.  The 1D plan applies
    stacked matrices to stacked members, which rounds differently, so
    there the expressions agree to 1e-14 relative in max-norm at any N.
    With k = 0 the same law runs, its factor 1 and its k products weighted
    by 0; the k = s = 0 plan is the linear problem, whose u_ttt is the
    bracket itself."""
    domain = DomainSpec(dim, (np.pi, 2.0)[:dim], n)
    u, ut, utt = _strong_fields(domain, n)

    def same(got, expected):
        if dim == 2:
            return np.array_equal(got, expected)
        return np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))

    for k in (0.2, 0.0):
        params = ModelParams(1e-3, 1e-3, 1e-3, k, s)
        law = linear_bracket if k == 0.0 and not s else _term_by_term_law
        want = law(domain, params, u, ut, utt)
        uttt, f, _ = nonlinear_terms(domain, params, u, ut, utt)
        assert same(uttt, want)
        assert same(f, _term_by_term_forcing(domain, params, u, ut, utt, uttt))
        # the forcing-only route (u_ttt given), too
        given = 0.5 * want
        _, f_given, _ = nonlinear_terms(domain, params, u, ut, utt, uttt=given)
        assert same(f_given, _term_by_term_forcing(domain, params, u, ut, utt, given))


@pytest.mark.parametrize("dim,n", [(1, 8), (1, 64), (2, 16)])
def test_law_at_k_zero_is_the_bracket_minus_f(dim, n):
    """With k = 0 the factor is 1 and f is the gradient part alone, so
    u_ttt is the linear bracket minus f, to 1e-13 relative in max-norm."""
    domain = DomainSpec(dim, (np.pi, 2.0)[:dim], n)
    params = ModelParams(1e-3, 1e-3, 1e-3, 0.0, 1)
    u, ut, utt = _strong_fields(domain, n)
    uttt, f, guard_min = nonlinear_terms(domain, params, u, ut, utt)
    assert guard_min == 1.0
    explicit = linear_bracket(domain, params, u, ut, utt) - f
    assert np.max(np.abs(uttt - explicit)) <= 1e-13 * np.max(np.abs(explicit))


@pytest.mark.parametrize("k,s", [(0.2, 1), (0.2, 0), (0.0, 1), (0.0, 0)])
@pytest.mark.parametrize("dim,n", [(1, 8), (2, 8)])
def test_zero_data_gives_no_negative_zeros(dim, n, k, s):
    """The weighted sum starts from +0, as the term-by-term sum into
    zeros did, so f of zero data is +0 everywhere, and so is the u_ttt of
    the law.  (With k = s = 0, u_ttt is the linear bracket itself, whose
    (-(a+b) lam) * 0 is -0, so only f is checked there.)"""
    domain = DomainSpec(dim, (np.pi,) * dim, n)
    params = ModelParams(1.0, 0.7, 1.3, k, s)
    zero = np.zeros((3,) + domain.coeff_shape)
    for batch in (zero[0], zero):
        uttt, f, _ = nonlinear_terms(domain, params, batch, batch, batch)
        assert not np.signbit(f).any()
        if k != 0.0 or s:
            assert not np.signbit(uttt).any()
        _, f, _ = nonlinear_terms(domain, params, batch, batch, batch, uttt=batch)
        assert not np.signbit(f).any()


@pytest.mark.parametrize("n", [8, 10, 64])
def test_1d_plan_guards_the_values_of_evaluate(n, monkeypatch):
    """Every 1D plan with k != 0 (a ``_Plan1D``, batched or not; a 2D
    plan runs the 2D body) guards the values of u_t that ``evaluate``
    gives on both grids, bit for bit, so ``Linf_ut`` and ``guard_min`` of
    ``energy_series`` hold the bits the guard saw, and its Gauss part is
    the denominator's 2k u_t.  With k = 0.5 the scaling by 2k is exact,
    so the guard buffer holds the values themselves."""
    domain = DomainSpec(1, (np.pi,), n)
    params = ModelParams(1.0, 0.7, 1.3, 0.5, 1)
    assert KernelPlan(DomainSpec(2, (np.pi,) * 2, 8), params)._plan_1d is None
    seen = []
    guard = model._guard

    def spy(domain, both, *args):
        seen.append(both.copy())
        return guard(domain, both, *args)

    monkeypatch.setattr(model, "_guard", spy)
    for batch in ((), (5,)):
        u, ut, utt, _ = _fields(domain, batch, seed=n)
        plan = KernelPlan(domain, params, batch)
        assert plan._plan_1d is not None
        seen.clear()
        _, _, guard_min = plan(u, ut, utt)
        (both,) = seen
        g = domain.gauss_points_per_axis
        assert np.array_equal(both[..., :g], evaluate(domain, "gauss", ut))
        assert np.array_equal(both[..., g:], evaluate(domain, "collocation", ut))
        assert np.array_equal(guard_min, 1.0 + both.min(axis=-1))


TRAJECTORY_FIELDS = ("u", "ut", "utt", "uttt")


def _same_trajectory(a, b):
    return all(np.array_equal(getattr(a, name), getattr(b, name)) for name in TRAJECTORY_FIELDS)


# each march of these tests runs for k in {0, 0.2} and 0 or 2 substep sweeps
MARCH_KS = (0.0, 0.2)
MARCH_SWEEPS = (0, 2)


@pytest.mark.parametrize("dim,n", [(1, 8), (1, 64), (2, 16)])
def test_march_stores_the_kernel_value_of_each_sample(dim, n):
    """The march's one plan gives, at every accepted sample, the u_ttt of
    a lone kernel call on the stored fields, bit for bit."""
    for k in MARCH_KS:
        for s in (0, 1):
            domain, params, data = _initial_data(dim, n, k=k, s=s)
            for substep_iters in MARCH_SWEEPS:
                traj = solve(data, params, 6e-3, 1e-3, substep_iters=substep_iters)
                for i in range(traj.n_samples):
                    uttt, _, _ = nonlinear_terms(
                        domain, params, traj.u[i], traj.ut[i], traj.utt[i], time=traj.t_grid[i]
                    )
                    assert np.array_equal(traj.uttt[i], uttt), (k, s, substep_iters, i)


@pytest.mark.parametrize(
    "dim,n,s", [(1, 8, 1), (2, 16, 1), (2, 8, 0), (1, 8, 0), (1, 64, 0), (1, 64, 1), (2, 16, 0)]
)
def test_march_stores_the_forcing_series(dim, n, s):
    """The forcing the march computed at each accepted sample is the
    forcing of the stored trajectory, bit for bit."""
    for k in MARCH_KS:
        _, params, data = _initial_data(dim, n, k=k, s=s)
        for substep_iters in MARCH_SWEEPS:
            traj = solve(data, params, 6e-3, 1e-3, substep_iters=substep_iters)
            assert np.array_equal(traj.forcing, forcing_series(traj, params)), (k, substep_iters)
            assert traj.difference(traj).forcing is None


def test_a_march_builds_one_kernel_plan(monkeypatch):
    """Every kernel call of a march, the law at the start included,
    goes through the one plan it binds."""
    built = []

    class CountingPlan(model.KernelPlan):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    _, params, data = _initial_data(1, 8)
    want = solve(data, params, 5e-3, 1e-3)
    monkeypatch.setattr(nonlinear, "KernelPlan", CountingPlan)
    got = solve(data, params, 5e-3, 1e-3)
    assert len(built) == 1
    assert _same_trajectory(got, want)
    assert np.array_equal(got.forcing, want.forcing)


def test_partial_trajectory_keeps_the_forcing():
    _, params, bad = _between_nodes_case()
    zero = SpectralField.zeros(bad.domain)
    tripping = make_compatibility_data(zero, 0.7 * bad, 22.0 * bad, params)
    with pytest.raises(DegeneracyError) as err:
        solve(tripping, params, 2e-2, 2e-4)
    partial = err.value.partial_trajectory
    assert partial.forcing.shape == partial.u.shape
    assert np.array_equal(partial.forcing, forcing_series(partial, params))


def _held_arrays(obj):
    """Every array a bound step or a plan holds: in closure variables,
    plan attributes (a bound method's plan too), tuples and lists,
    recursively."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _held_arrays(item)
    elif inspect.ismethod(obj):
        yield from _held_arrays(obj.__self__)
    elif isinstance(obj, (model.KernelPlan, model._Plan1D)):
        yield from _held_arrays(list(vars(obj).values()))
    elif inspect.isfunction(obj) and obj.__closure__:
        yield from _held_arrays(list(inspect.getclosurevars(obj).nonlocals.values()))


def test_alternating_marches_match_solo_runs_and_share_no_memory(monkeypatch):
    """No trajectory array shares memory with another march's, nor with a
    buffer of any march's bound step or plan."""
    cases = [_initial_data(1, 8), _initial_data(2, 16, seed=1)]
    solo = [solve(data, params, 5e-3, 1e-3) for _, params, data in cases]
    steps = []
    bind_step = nonlinear._bind_step

    def recording(*args):
        steps.append(bind_step(*args))
        return steps[-1]

    monkeypatch.setattr(nonlinear, "_bind_step", recording)
    mixed = [solve(data, params, 5e-3, 1e-3) for _ in range(2) for _, params, data in cases]
    for i, traj in enumerate(mixed):
        assert _same_trajectory(traj, solo[i % 2])
    fields = TRAJECTORY_FIELDS + ("forcing",)
    for i, a in enumerate(mixed):
        for b in mixed[i + 1 :]:
            for x in fields:
                for y in fields:
                    assert not np.shares_memory(getattr(a, x), getattr(b, y))
    held = list(_held_arrays(steps))
    # the walk reaches each step's data buffers and its plan's member rows
    assert len(steps) == 4
    for step in steps:
        names = inspect.getclosurevars(step).nonlocals
        plan = names["step_terms"].__self__
        rows = plan._stack if plan._plan_1d is None else plan._plan_1d._x
        for buf in [view for pair in names["buffers"] for view in pair] + [rows]:
            assert any(h is buf for h in held)
    for traj in mixed:
        for x in fields:
            for buf in held:
                assert not np.shares_memory(getattr(traj, x), buf)


def _bindings(plan):
    """Each attribute of a plan and of its 1D body, with the object it holds."""
    bodies = [plan] + ([plan._plan_1d] if plan._plan_1d is not None else [])
    return {
        (type(body).__name__, name): value for body in bodies for name, value in vars(body).items()
    }


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("k", [0.0, 0.2])
@pytest.mark.parametrize("s", [0, 1])
def test_no_call_rebinds_a_plan(dim, k, s):
    """A plan binds all of its state when it is built: a law call, a
    forcing-only call and a ``step_terms`` call leave every attribute of
    the plan and of its 1D body holding the object it held before."""
    domain = DomainSpec(dim, (np.pi,) * dim, 8)
    params = ModelParams(1.0, 0.7, 1.3, k, s)
    u, ut, utt, uttt = _fields(domain, ())
    plan = KernelPlan(domain, params, eps_deg=DEFAULT_EPS_DEG)
    # the values are kept alive, so no id is reused
    before = _bindings(plan)
    ids = {name: id(value) for name, value in before.items()}
    data = semigroup_data(domain, params, u, ut, utt).reshape(3, -1)
    plan(u, ut, utt)
    plan(u, ut, utt, uttt)
    plan.step_terms(data, 0.0)
    assert {name: id(value) for name, value in _bindings(plan).items()} == ids


@pytest.mark.parametrize("dim", [1, 2])
def test_a_plan_guards_with_the_margin_it_was_built_with(dim):
    """|2k u_t| peaks at 0.7, where the factor falls to 0.3: under the
    default limit 0.95, past the limit 0.5 of a plan built with eps_deg =
    0.5, through ``__call__`` and ``step_terms`` alike."""
    domain = DomainSpec(dim, (np.pi,) * dim, 8)
    params = ModelParams(1.0, 0.7, 1.3, 0.5, 1)
    ut = SpectralField.single_mode(domain, (1,) * dim, -0.7).coeffs
    zero = np.zeros_like(ut)
    data = semigroup_data(domain, params, zero, ut, zero).reshape(3, -1)
    loose, tight = KernelPlan(domain, params), KernelPlan(domain, params, eps_deg=0.5)
    assert 0.3 <= loose(zero, ut, zero, time=0.25)[2] < 0.31
    loose.step_terms(data, 0.25)
    for call in (lambda: tight(zero, ut, zero, time=0.25), lambda: tight.step_terms(data, 0.25)):
        with pytest.raises(DegeneracyError, match=r"require \|2k u_t\| < 0\.5\)") as err:
            call()
        assert err.value.time == 0.25


def test_plans_bound_first_and_called_interleaved_own_their_buffers():
    """Plans for 1D and 2D, batched and unbatched, all bound before any is
    called and then called interleaved, twice, each give the one-shot
    kernel's results, and no two results share memory."""
    params = ModelParams(1.0, 0.7, 1.3, 0.2, 1)
    cases = []
    for dim, n, batch in ((2, 16, ()), (1, 8, (3,)), (2, 8, (2,)), (1, 64, ())):
        domain = DomainSpec(dim, (np.pi,) * dim, n)
        u, ut, utt, _ = _fields(domain, batch, seed=n)
        want = nonlinear_terms(domain, params, u, ut, utt)
        cases.append((KernelPlan(domain, params, batch), (u, ut, utt), want))
    results = []
    for _ in range(2):
        for plan, fields, want in cases:
            got = plan(*fields)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
            results += [r for r in got if isinstance(r, np.ndarray)]
    for i, a in enumerate(results):
        for b in results[i + 1 :]:
            assert not np.shares_memory(a, b)


def test_march_after_a_degeneracy_trip_is_unchanged():
    domain, params, data = _initial_data(1, 8)
    before = solve(data, params, 5e-3, 1e-3)
    # the between-nodes field: u_t close to the Gauss-node limit and pushed
    # further by u_tt, so the guard trips on a Gauss node a few steps in
    _, bad_params, bad = _between_nodes_case()
    zero = SpectralField.zeros(domain)
    tripping = make_compatibility_data(zero, 0.7 * bad, 22.0 * bad, bad_params)
    with pytest.raises(DegeneracyError) as err:
        solve(tripping, bad_params, 2e-2, 2e-4)
    assert err.value.time > 0.0
    assert err.value.partial_trajectory.n_samples > 1
    assert "Gauss node" in str(err.value)
    assert _same_trajectory(solve(data, params, 5e-3, 1e-3), before)
