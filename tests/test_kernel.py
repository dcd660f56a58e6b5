"""Tests of the array-native nonlinear kernel and the batched diagnostics.

Batched calls must reproduce the unbatched ones bit for bit: a batch is a
stack of the same gemv/gemm, DCT and elementwise operations, so any
difference would mean the arithmetic of a sample depends on its batch.
"""

import numpy as np
import pytest

from bck_sim import model, nonlinear, spectral
from bck_sim.energy import energy_series, forcing_series
from bck_sim.errors import DegeneracyError
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
    assert not err.value.at_start
    zero = SpectralField.zeros(domain)
    with pytest.raises(DegeneracyError):
        acceleration(EvolutionState(0.0, zero, ut, zero), params)
    with pytest.raises(DegeneracyError) as err:
        make_compatibility_data(zero, ut, zero, params)
    assert err.value.at_start


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


def _per_grid_guard_error(domain, params, ut, times, eps_deg, at_start):
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
                    at_start=at_start,
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
@pytest.mark.parametrize("at_start", [False, True])
def test_fused_guard_raises_the_per_grid_error(case, at_start):
    """One min and one max per sample over both grids trip exactly when
    the per-grid guard does, and the error (message, time, index, factor,
    at_start) is the per-grid one, from every route into the guard."""
    domain, params, ut = _guard_cases()[case]
    times = 0.125 * np.arange(1, ut.shape[0] + 1)
    want = _per_grid_guard_error(domain, params, ut, times, DEFAULT_EPS_DEG, at_start)
    assert want is not None
    assert ("Gauss node" in str(want)) == (case != "collocation-only")
    calls = [
        lambda: degeneracy_guard(domain, params, ut, times, at_start=at_start),
        lambda: nonlinear_terms(domain, params, 0.0 * ut, ut, ut, time=times, at_start=at_start),
        lambda: nonlinear_terms(
            domain, params, 0.0 * ut, ut, ut, uttt=ut, time=times, at_start=at_start
        ),
    ]
    if ut.shape[0] == 1:
        calls += [
            lambda: degeneracy_guard(domain, params, ut[0], times[0], at_start=at_start),
            lambda: nonlinear_terms(
                domain, params, 0.0 * ut[0], ut[0], ut[0], time=times[0], at_start=at_start
            ),
        ]
    for call in calls:
        with pytest.raises(DegeneracyError) as err:
            call()
        got = err.value
        assert str(got) == str(want)
        assert (got.time, got.factor, got.at_start) == (want.time, want.factor, want.at_start)
        assert got.index == want.index


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
    summed over the axes in order), projected alone (in 1D by the folded
    projection matrix, in 2D by the type-1 DCT, trapezoid weights in place
    and cosine-to-sine matrices), then scaled and added to zeros one term
    at a time."""
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
    w = domain._dct_weights
    cos_to_sine = domain._cos_to_sine
    f = np.zeros(u.shape)
    for weight, product in terms:
        if dim == 1:
            proj = (domain._fine_project @ product[:, None])[:, 0]
        else:
            y = spectral._type1(product, dim)
            y *= w[:, None]
            y *= w
            proj = cos_to_sine @ y @ cos_to_sine.T
        f += weight * proj
    return f


@pytest.mark.parametrize("s", [0, 1])
@pytest.mark.parametrize("dim,n", [(1, 8), (2, 16)])
def test_buffered_law_matches_the_allocating_expression(dim, n, s):
    """The stacked, buffered stages keep every operation and its
    association order, so they reproduce the plain term-by-term
    expressions bit for bit: the Gauss-grid law, the fine-grid products
    and the weighted sum of their projections."""
    domain = DomainSpec(dim, (np.pi, 2.0)[:dim], n)
    # a weak linear part and strong fields, so every quadratic term reaches
    # the last bits of the numerator and of f
    params = ModelParams(1e-3, 1e-3, 1e-3, 0.2, s)
    u, ut, utt, _ = (30.0 * c for c in _fields(domain, (), seed=n))
    sine, dcos = domain._grid_matrices["gauss"]

    def values(c):
        return (sine[0] @ c[:, None])[:, 0] if dim == 1 else sine[0] @ c @ sine[1].T

    def gradient(c):
        if dim == 1:
            return [(dcos[0] @ c[:, None])[:, 0]]
        return [dcos[0] @ c @ sine[1].T, sine[0] @ c @ dcos[1].T]

    k = params.k
    lin = linear_bracket(domain, params, u, ut, utt)
    num = values(lin) - 2.0 * k * values(utt) * values(utt)
    if s:
        for d_utt, d_ut, d_u in zip(gradient(utt), gradient(ut), gradient(u)):
            num = num - 2.0 * d_ut * d_ut - 2.0 * d_u * d_utt
    want = project(domain, "gauss", num / (1.0 + 2.0 * k * values(ut)))
    uttt, f, _ = nonlinear_terms(domain, params, u, ut, utt)
    assert np.array_equal(uttt, want)
    assert np.array_equal(f, _term_by_term_forcing(domain, params, u, ut, utt, want))
    # the forcing-only route (u_ttt given) and k = 0 take the same sums
    given = 0.5 * want
    _, f_given, _ = nonlinear_terms(domain, params, u, ut, utt, uttt=given)
    assert np.array_equal(f_given, _term_by_term_forcing(domain, params, u, ut, utt, given))
    explicit = ModelParams(1e-3, 1e-3, 1e-3, 0.0, s)
    _, f_explicit, _ = nonlinear_terms(domain, explicit, u, ut, utt, uttt=given)
    assert np.array_equal(
        f_explicit, _term_by_term_forcing(domain, explicit, u, ut, utt, given)
    )


@pytest.mark.parametrize("k,s", [(0.2, 1), (0.2, 0), (0.0, 1), (0.0, 0)])
@pytest.mark.parametrize("dim,n", [(1, 8), (2, 8)])
def test_zero_data_gives_no_negative_zeros(dim, n, k, s):
    """The weighted sum starts from +0, as the term-by-term sum into
    zeros did, so f of zero data is +0 everywhere, and so is the u_ttt of
    the law.  (With k = 0, u_ttt is the linear bracket itself, whose
    (-(a+b) lam) * 0 is -0 in either form, so only f is checked there.)"""
    domain = DomainSpec(dim, (np.pi,) * dim, n)
    params = ModelParams(1.0, 0.7, 1.3, k, s)
    zero = np.zeros((3,) + domain.coeff_shape)
    for batch in (zero[0], zero):
        uttt, f, _ = nonlinear_terms(domain, params, batch, batch, batch)
        assert not np.signbit(f).any()
        if k != 0.0:
            assert not np.signbit(uttt).any()
        _, f, _ = nonlinear_terms(domain, params, batch, batch, batch, uttt=batch)
        assert not np.signbit(f).any()


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
    """Every kernel call of a march, the forcing at the start included,
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


def test_alternating_marches_match_solo_runs_and_share_no_memory():
    cases = [_initial_data(1, 8), _initial_data(2, 16, seed=1)]
    solo = [solve(data, params, 5e-3, 1e-3) for _, params, data in cases]
    mixed = [solve(data, params, 5e-3, 1e-3) for _ in range(2) for _, params, data in cases]
    for i, traj in enumerate(mixed):
        assert _same_trajectory(traj, solo[i % 2])
    for i, a in enumerate(mixed):
        for b in mixed[i + 1 :]:
            for x in TRAJECTORY_FIELDS:
                for y in TRAJECTORY_FIELDS:
                    assert not np.shares_memory(getattr(a, x), getattr(b, y))


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
    assert not err.value.at_start
    assert err.value.partial_trajectory.n_samples > 1
    assert "Gauss node" in str(err.value)
    assert _same_trajectory(solve(data, params, 5e-3, 1e-3), before)
