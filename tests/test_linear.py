"""Tests for the per-mode semigroup machinery and linear solves."""

import itertools
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from bck_sim import spectral
from bck_sim.errors import FitError
from bck_sim.linear import (
    PropagatorTable,
    _expm,
    augmented_blocks,
    generator_blocks,
    linear_decay_report,
    max_mode_real_part,
    mode_eigenvalues_from_coefficients,
    oscillation_ratio,
    propagator_table,
    relative_bound_report,
    semigroup_data,
    solve_duhamel,
    spectral_bound,
    weighted_norm,
)
from bck_sim.model import EvolutionState, ModelParams, linear_bracket, semigroup_utt
from bck_sim.spectral import DomainSpec, SpectralField


def _domain(n=8):
    return DomainSpec(1, (math.pi,), n)


def _random_fields(dom, rng, scale=1.0):
    """Random (u, u_t, u_tt) coefficient arrays."""
    return [scale * rng.standard_normal(dom.coeff_shape) for _ in range(3)]


def _random_data(dom, params, rng):
    return semigroup_data(dom, params, *_random_fields(dom, rng))


def _propagate(dom, params, data, dt, steps=1):
    """The semigroup data after ``steps`` exact steps of size dt."""
    t_grid = dt * np.arange(steps + 1)
    return solve_duhamel(dom, params, t_grid, data)[-1]


def _block(lam, params):
    """The generator block A_lam and its closed-form spectrum."""
    spectrum = mode_eigenvalues_from_coefficients(lam, params.a, params.b, params.c)
    return generator_blocks(np.asarray(lam, dtype=float), params), spectrum


# ---------------------------------------------------------------------------
# mode blocks and spectra
# ---------------------------------------------------------------------------


def test_mode_matrix_unit_example():
    matrix, spectrum = _block(1.0, ModelParams(1, 1, 1, 0.0, 0))
    expected = np.array([[0.0, 1.0, 0.0], [-1.0, -1.0, 1.0], [0.0, 0.0, -1.0]])
    np.testing.assert_array_equal(matrix, expected)
    eig = sorted(spectrum, key=lambda z: (z.real, z.imag))
    target = sorted(
        [-1.0 + 0.0j, (-1 - 1j * math.sqrt(3)) / 2, (-1 + 1j * math.sqrt(3)) / 2],
        key=lambda z: (z.real, z.imag),
    )
    np.testing.assert_allclose(eig, target, rtol=0, atol=1e-14)


def test_mode_matrix_overdamped_roots():
    # b=4, c=1, lambda=1: mu^2 + 4 mu + 1 has roots -2 +/- sqrt(3)
    _, spectrum = _block(1.0, ModelParams(1, 4, 1, 0.0, 0))
    roots = sorted(z.real for z in spectrum if abs(z + 1.0) > 1e-12)
    np.testing.assert_allclose(
        roots, [-2.0 - math.sqrt(3.0), -2.0 + math.sqrt(3.0)], rtol=0, atol=1e-14
    )
    assert all(abs(z.imag) == 0.0 for z in spectrum)


def test_mode_matrix_rejects_nonpositive_lambda():
    with pytest.raises(ValueError):
        _block(0.0, ModelParams(1, 1, 1, 0.0, 0))


def test_closed_form_spectrum_against_dense_eigensolver():
    rng = np.random.default_rng(51)
    n = 10_000
    lam = 10.0 ** rng.uniform(-1.0, 2.0, size=n)
    a = 10.0 ** rng.uniform(-1.0, 1.0, size=n)
    b = 10.0 ** rng.uniform(-1.0, 1.0, size=n)
    c = 10.0 ** rng.uniform(-1.0, 1.0, size=n)
    mats = np.zeros((n, 3, 3))
    mats[:, 0, 1] = 1.0
    mats[:, 1, 0] = -(c**2) * lam
    mats[:, 1, 1] = -b * lam
    mats[:, 1, 2] = 1.0
    mats[:, 2, 2] = -a * lam
    numeric = np.linalg.eigvals(mats)
    closed = mode_eigenvalues_from_coefficients(lam, a, b, c)
    single = [mode_eigenvalues_from_coefficients(lam[i], a[i], b[i], c[i]) for i in range(n)]
    assert np.array_equal(closed, np.stack(single))
    perms = np.array(list(itertools.permutations(range(3))))
    diffs = np.abs(closed[:, perms] - numeric[:, None, :]).max(axis=2)
    best = diffs.min(axis=1)
    scale = np.maximum(1.0, np.abs(numeric).max(axis=1))
    assert np.all(best <= 1e-10 * scale)
    assert np.all(closed.real < 0.0)


def test_closed_form_spectrum_undamped_and_critically_damped():
    # b = 0 puts the wave pair on the imaginary axis, +/- i c sqrt(lam);
    # b^2 lam = 4 c^2 (exact in binary here) gives the double root -b lam/2
    lam = np.array([0.5, 3.0, 40.0, 1.0, 4.0, 0.25])
    a = np.array([1.0, 0.3, 2.0, 1.0, 0.5, 3.0])
    b = np.array([0.0, 0.0, 0.0, 2.0, 1.0, 4.0])
    c = np.array([1.0, 2.5, 0.7, 1.0, 1.0, 1.0])
    closed = mode_eigenvalues_from_coefficients(lam, a, b, c)
    single = [mode_eigenvalues_from_coefficients(lam[i], a[i], b[i], c[i]) for i in range(6)]
    assert np.array_equal(closed, np.stack(single))
    np.testing.assert_array_equal(closed[:, 0], -a * lam)
    undamped, critical = closed[:3, 1:], closed[3:, 1:]
    assert np.all(undamped.real == 0.0)
    np.testing.assert_allclose(undamped.imag[:, 0], c[:3] * np.sqrt(lam[:3]), rtol=1e-15)
    np.testing.assert_array_equal(undamped.imag[:, 1], -undamped.imag[:, 0])
    want = -b[3:] * lam[3:] / 2.0
    np.testing.assert_array_equal(critical, np.stack([want, want], axis=1))


def test_spectral_bound_examples():
    assert spectral_bound(ModelParams(1, 1, 1, 0.0, 0), 1.0) == (-0.5, "oscillatory")
    assert spectral_bound(ModelParams(0.1, 1, 1, 0.0, 0), 1.0) == (-0.1, "heat")
    value, branch = spectral_bound(ModelParams(1, 50, 0.5, 0.0, 0), 1.0)
    assert abs(value - (-0.005)) < 1e-15 and branch == "overdamped"


def test_spectral_bound_sweep_matches_dense_eigensolver():
    # max real part over the N=256 mode set, computed by a dense
    # eigensolver, equals the closed-form bound -1/2
    dom = _domain(256)
    params = ModelParams(1, 1, 1, 0.0, 0)
    lam = dom.eigenvalue_grid
    mats = np.zeros((256, 3, 3))
    mats[:, 0, 1] = 1.0
    mats[:, 1, 0] = -lam
    mats[:, 1, 1] = -lam
    mats[:, 1, 2] = 1.0
    mats[:, 2, 2] = -lam
    dense_max = float(np.linalg.eigvals(mats).real.max())
    assert abs(dense_max - (-0.5)) < 1e-10
    assert abs(max_mode_real_part(dom, params) - (-0.5)) < 1e-12


def test_spectral_bound_saturation_branches():
    dom = _domain(256)
    oscillatory = ModelParams(1, 1, 1, 0.0, 0)
    assert abs(max_mode_real_part(dom, oscillatory) - (-0.5)) < 1e-12
    heat = ModelParams(0.05, 1, 1, 0.0, 0)
    assert abs(max_mode_real_part(dom, heat) - (-0.05)) < 1e-12
    # overdamped branch: the sup is the lambda -> infinity limit -c^2/b,
    # approached from below with gap ~ c^4 / (b^3 lambda_max)
    overdamped = ModelParams(1, 50, 0.5, 0.0, 0)
    bound = spectral_bound(overdamped, dom.lambda0).value
    sweep = max_mode_real_part(dom, overdamped)
    assert sweep <= bound + 1e-15
    assert bound - sweep < 1e-9


def test_undamped_oscillation_ratio_unbounded():
    # with b = 0 the wave pair sits at +/- i c sqrt(lambda): the ratio
    # |Im|/(1+|Re|) grows with the mode count, while b > 0 keeps it fixed
    small = _domain(64)
    large = _domain(1024)
    r_small = oscillation_ratio(small, 1.0, 0.0, 1.0)
    r_large = oscillation_ratio(large, 1.0, 0.0, 1.0)
    assert r_large > 10.0 * r_small
    d_small = oscillation_ratio(small, 1.0, 1.0, 1.0)
    d_large = oscillation_ratio(large, 1.0, 1.0, 1.0)
    assert d_large <= d_small * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# semigroup state maps
# ---------------------------------------------------------------------------


def test_semigroup_round_trip():
    rng = np.random.default_rng(52)
    dom = _domain()
    params = ModelParams(0.7, 1.3, 0.9, 0.0, 0)
    u, ut, utt = _random_fields(dom, rng)
    data = semigroup_data(dom, params, u, ut, utt)
    np.testing.assert_allclose(data[0], u, rtol=0, atol=1e-14)
    np.testing.assert_allclose(data[1], ut, rtol=0, atol=1e-14)
    np.testing.assert_allclose(semigroup_utt(dom, params, data), utt, rtol=0, atol=1e-13)


def test_semigroup_zero_and_unit_examples():
    dom = _domain()
    params = ModelParams(1, 1, 1, 0.0, 0)
    zero = np.zeros(dom.coeff_shape)
    data = semigroup_data(dom, params, zero, zero, zero)
    np.testing.assert_array_equal(data, 0.0)
    unit = SpectralField.single_mode(dom, 1, 1.0).coeffs
    data = semigroup_data(dom, params, unit, zero, zero)
    assert data[0, 0] == 1.0
    assert data[1, 0] == 0.0
    assert data[2, 0] == 1.0  # u_tt + b lam u_t + c^2 lam u = 1


def test_semigroup_state_shape_validation():
    dom = _domain()
    params = ModelParams(1, 1, 1, 0.0, 0)
    with pytest.raises(ValueError):
        solve_duhamel(dom, params, np.array([0.0, 0.1]), np.zeros((2, 8)))


# ---------------------------------------------------------------------------
# homogeneous propagation
# ---------------------------------------------------------------------------


def test_step_composition_is_semigroup_law():
    rng = np.random.default_rng(53)
    dom = _domain()
    params = ModelParams(1, 1, 1, 0.0, 0)
    data = _random_data(dom, params, rng)
    once = _propagate(dom, params, _propagate(dom, params, data, 0.3), 0.3)
    twice = _propagate(dom, params, data, 0.6)
    np.testing.assert_allclose(once, twice, rtol=0, atol=1e-12)


def test_step_against_adaptive_ode_oracle():
    # one mode propagated for t in [0, 1] against solve_ivp at tight
    # tolerances on the raw 3x3 system
    dom = _domain(4)
    params = ModelParams(0.7, 1.1, 1.3, 0.0, 0)
    lam = dom.eigenvalue_grid[1]
    mat = np.array(
        [
            [0.0, 1.0, 0.0],
            [-params.c**2 * lam, -params.b * lam, 1.0],
            [0.0, 0.0, -params.a * lam],
        ]
    )
    u0 = np.array([0.3, -0.2, 0.5])
    oracle = solve_ivp(
        lambda _, y: mat @ y, (0.0, 1.0), u0, rtol=1e-12, atol=1e-14
    ).y[:, -1]
    data = np.zeros((3, 4))
    data[:, 1] = u0
    data = _propagate(dom, params, data, 0.1, steps=10)
    np.testing.assert_allclose(data[:, 1], oracle, rtol=0, atol=1e-9)


def test_step_asymptotic_rate_matches_slowest_eigenvalue():
    # distinct real spectrum: -2 and -2 +/- sqrt(3); the trailing slope of
    # log |U| approaches the largest real part within 1%
    dom = _domain(4)
    params = ModelParams(2.0, 4.0, 1.0, 0.0, 0)
    target = float(max(np.linalg.eigvals(_block(1.0, params)[0]).real))
    data = np.zeros((3, 4))
    data[:, 0] = [1.0, 0.3, -0.2]
    dt = 0.05
    times = dt * np.arange(601)
    series = solve_duhamel(dom, params, times, data)
    norms = np.linalg.norm(series[:, :, 0], axis=1)
    tail = times >= 15.0
    slope = np.polyfit(times[tail], np.log(norms[tail]), 1)[0]
    assert abs(slope - target) < 0.01 * abs(target)


def test_large_step_unconditionally_stable():
    rng = np.random.default_rng(54)
    dom = _domain(64)
    params = ModelParams(1, 1, 1, 0.0, 0)
    data = _random_data(dom, params, rng)
    norm = np.linalg.norm(data)
    for _ in range(5):
        data = _propagate(dom, params, data, 10.0)
        new_norm = np.linalg.norm(data)
        assert np.isfinite(new_norm) and new_norm < norm
        norm = new_norm


def test_propagator_table_exponentiates_the_mode_matrices():
    dom = DomainSpec(2, (math.pi, 2.0), 3)
    params = ModelParams(0.3, 0.7, 1.3, 0.0, 0)
    dt = 0.05
    table = PropagatorTable.build(dom, params, dt)
    for m, lam in enumerate(dom.eigenvalue_grid.ravel()):
        want = expm(dt * _block(lam, params)[0])
        np.testing.assert_allclose(table.propagator[m], want, rtol=1e-12, atol=1e-14)


def test_table_blocks_do_not_depend_on_the_batch():
    """A mode's block is the same whichever modes share its batch, so the
    table can be built once per distinct eigenvalue: that build scattered
    back to the modes (``PropagatorTable.build``), a build over a shuffled
    half of the modes and builds of single blocks equal the full build's
    rows bit for bit.  At 2D N = 48 and dt = 1e-3 the modes take every
    Pade order, and the largest eigenvalues one squaring; the single
    blocks run from the smallest eigenvalue to the largest."""
    dom = DomainSpec(2, (math.pi, math.pi), 48)
    params = ModelParams(1.0, 1.0, 1.0, 0.2, 1)
    dt = 1e-3
    lam = dom.eigenvalue_grid.ravel()
    aug = augmented_blocks(lam, params, dt)
    full = _expm(aug)
    table = PropagatorTable.build(dom, params, dt)
    assert np.array_equal(table.propagator, full[:, :3, :3])
    assert np.array_equal(table.phi1, full[:, :3, 5].T)
    assert np.array_equal(table.phi2, full[:, :3, 8].T)
    half = np.random.default_rng(19).permutation(lam.size)[: lam.size // 2]
    assert np.array_equal(_expm(aug[half]), full[half])
    for m in np.argsort(lam)[np.linspace(0, lam.size - 1, 8).astype(int)]:
        assert np.array_equal(_expm(aug[m : m + 1]), full[m : m + 1]), lam[m]


# ---------------------------------------------------------------------------
# forced solves
# ---------------------------------------------------------------------------


def test_duhamel_homogeneous_reduction():
    rng = np.random.default_rng(55)
    dom = _domain()
    params = ModelParams(1, 1, 1, 0.0, 0)
    data = _random_data(dom, params, rng)
    t_grid = np.arange(0.0, 1.0 + 1e-12, 0.02)
    sol = solve_duhamel(dom, params, t_grid, data)
    # the same exact steps as products of the propagator blocks
    table = PropagatorTable.build(dom, params, 0.02)
    stepped = data
    for _ in range(t_grid.size - 1):
        stepped = np.einsum("nij,jn->in", table.propagator, stepped)
    scale = np.max(np.abs(stepped)) + 1.0
    np.testing.assert_allclose(sol[-1], stepped, rtol=0, atol=1e-13 * scale)


def test_duhamel_constant_forcing_closed_form():
    # U(T) = e^{TA} U0 + A^{-1}(e^{TA} - I) F with F = (0, 0, -f), computed
    # densely per mode
    dom = _domain(4)
    params = ModelParams(0.9, 1.2, 1.1, 0.0, 0)
    t_grid = np.arange(0.0, 1.0 + 1e-12, 0.01)
    f_value = 0.7
    mode = 1
    f = np.zeros((t_grid.size, 4))
    f[:, mode] = f_value
    data0 = np.zeros((3, 4))
    data0[:, mode] = [0.2, -0.1, 0.4]
    sol = solve_duhamel(dom, params, t_grid, data0, forcing=f)

    lam = dom.eigenvalue_grid[mode]
    mat = np.array(
        [
            [0.0, 1.0, 0.0],
            [-params.c**2 * lam, -params.b * lam, 1.0],
            [0.0, 0.0, -params.a * lam],
        ]
    )
    forcing = np.array([0.0, 0.0, -f_value])
    propagated = expm(mat) @ data0[:, mode]
    particular = np.linalg.solve(mat, (expm(mat) - np.eye(3)) @ forcing)
    expected = propagated + particular
    np.testing.assert_allclose(sol[-1][:, mode], expected, rtol=0, atol=1e-9)


def _manufactured_forcing(lam, params):
    """Exact semigroup trajectory for u(t) = e^{-t} sin t and its forcing
    f = -(d/dt + a lam) w of the wave part w."""
    a, b, c = params.a, params.b, params.c

    def g(t):
        return (
            -2.0 * math.cos(t)
            + b * lam * (math.cos(t) - math.sin(t))
            + c * c * lam * math.sin(t)
        )

    def gprime(t):
        return (
            2.0 * math.sin(t)
            - b * lam * (math.sin(t) + math.cos(t))
            + c * c * lam * math.cos(t)
        )

    def exact(t):
        decay = math.exp(-t)
        return np.array(
            [decay * math.sin(t), decay * (math.cos(t) - math.sin(t)), decay * g(t)]
        )

    def f(t):
        return math.exp(-t) * (g(t) - gprime(t) - a * lam * g(t))

    return exact, f


def test_duhamel_manufactured_solution_order_two():
    dom = _domain(4)
    params = ModelParams(0.8, 1.4, 1.2, 0.0, 0)
    lam = dom.eigenvalue_grid[0]
    exact, f_scalar = _manufactured_forcing(lam, params)
    errors = []
    for dt in (0.02, 0.01, 0.005):
        t_grid = np.arange(0.0, 1.0 + 1e-12, dt)
        data0 = np.zeros((3, 4))
        data0[:, 0] = exact(0.0)
        # the forcing sampled on the grid, in the first mode only
        f = np.zeros((t_grid.size, 4))
        f[:, 0] = [f_scalar(t) for t in t_grid]
        sol = solve_duhamel(dom, params, t_grid, data0, forcing=f)
        errors.append(np.max(np.abs(sol[-1][:, 0] - exact(1.0))))
    assert errors[0] / errors[1] > 3.5
    assert errors[1] / errors[2] > 3.5


def test_duhamel_validates_grid_and_forcing_shape():
    dom = _domain(4)
    params = ModelParams(1, 1, 1, 0.0, 0)
    data = np.zeros((3, 4))
    with pytest.raises(ValueError):
        solve_duhamel(dom, params, np.array([0.0, 0.1, 0.3]), data)
    with pytest.raises(ValueError):
        solve_duhamel(
            dom, params, np.array([0.0, 0.1, 0.2]), data, forcing=np.zeros((2, 4))
        )


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 16)])
def test_evolve_does_not_depend_on_memory_layout(dim, n):
    """``evolve`` gives the same bytes on a C-ordered copy, an F-ordered
    copy and a strided slice of the same data, also into an F-ordered
    ``out``."""
    dom = DomainSpec(dim, (math.pi, 2.0)[:dim], n)
    table = propagator_table(dom, ModelParams(1.1, 0.9, 1.2, 0.2, 1), 1e-2)
    sliced = np.random.default_rng(n).standard_normal((3, 2 * dom.n_modes))[:, ::2]
    want = table.evolve(np.ascontiguousarray(sliced)).tobytes()
    for data in (np.asfortranarray(sliced), sliced):
        assert table.evolve(data).tobytes() == want
    out = np.empty((dom.n_modes, 3)).T
    table.evolve(sliced, out=out)
    assert out.tobytes() == want


def _stepped(dom, params, t_grid, data0, f):
    """The Duhamel series as a loop of the table's step."""
    table = propagator_table(dom, params, float(t_grid[1] - t_grid[0]))
    f = f.reshape(t_grid.size, -1)
    data = [data0.reshape(3, -1)]
    for n in range(t_grid.size - 1):
        base = table.evolve(data[-1]) - table.held(f[n])
        data.append(base + table.slope(f[n], f[n + 1]))
    return np.stack(data).reshape((t_grid.size, 3) + dom.coeff_shape)


@pytest.mark.parametrize("block_bytes", [None, 1000])
@pytest.mark.parametrize("dim,n", [(1, 8), (2, 4)])
def test_duhamel_is_the_table_step_in_a_loop(monkeypatch, dim, n, block_bytes):
    """The forcing terms of every step are taken before the loop, a block
    of steps at a time; the recurrence rounds as the step does, for no
    forcing and two sampled forcings, also across blocks."""
    if block_bytes is not None:
        monkeypatch.setattr(spectral, "BLOCK_BYTES", block_bytes)
    dom = DomainSpec(dim, (math.pi, 2.0)[:dim], n)
    params = ModelParams(1.1, 0.9, 1.2, 0.2, 1)
    rng = np.random.default_rng(n)
    t_grid = 0.01 * np.arange(41)
    data0 = _random_data(dom, params, rng)
    sampled = rng.standard_normal((t_grid.size,) + dom.coeff_shape)
    smooth = np.multiply.outer(np.cos(3.0 * t_grid), sampled[0])
    cases = ((None, np.zeros(sampled.shape)), (sampled, sampled), (smooth, smooth))
    for forcing, f in cases:
        got = solve_duhamel(dom, params, t_grid, data0, forcing=forcing)
        assert np.array_equal(got, _stepped(dom, params, t_grid, data0, f))


def test_duhamel_solution_views():
    rng = np.random.default_rng(56)
    dom = _domain(4)
    params = ModelParams(1.1, 0.9, 1.2, 0.0, 0)
    u, ut, utt = _random_fields(dom, rng)
    t_grid = np.arange(0.0, 0.2 + 1e-12, 0.02)
    sol = solve_duhamel(dom, params, t_grid, semigroup_data(dom, params, u, ut, utt))
    assert sol.shape == (t_grid.size, 3, 4)
    first = sol[0]
    np.testing.assert_allclose(first[0], u, rtol=0, atol=1e-14)
    np.testing.assert_allclose(semigroup_utt(dom, params, first), utt, rtol=0, atol=1e-12)
    # u_ttt from the linear bracket at the initial sample matches the
    # direct modal formula
    lam = dom.eigenvalue_grid
    bracket = (
        -(params.a + params.b) * lam * utt
        - (params.c**2 * lam + params.a * params.b * lam**2) * ut
        - params.a * params.c**2 * lam**2 * u
    )
    uttt = linear_bracket(dom, params, first[0], first[1], semigroup_utt(dom, params, first))
    np.testing.assert_allclose(uttt, bracket, rtol=0, atol=1e-11)


# ---------------------------------------------------------------------------
# decay reporting and diagnostics
# ---------------------------------------------------------------------------


def test_linear_decay_report_lowest_mode():
    dom = _domain(4)
    params = ModelParams(1, 1, 1, 0.0, 0)
    state = EvolutionState(
        0.0,
        SpectralField.single_mode(dom, 1, 1.0),
        SpectralField.zeros(dom),
        SpectralField.zeros(dom),
    )
    fit = linear_decay_report(state, params, T=20.0, dt=0.01)
    assert abs(fit.omega - 1.0) < 0.05
    assert fit.M >= 1.0


def test_linear_decay_report_higher_mode_rate():
    # data on mode 3 only: the energy decays at twice the slowest real
    # part of the lambda = 9 block, computed by a dense eigensolver
    dom = _domain(4)
    params = ModelParams(1, 1, 1, 0.0, 0)
    block = _block(dom.eigenvalue_grid[2], params)[0]
    rate = 2.0 * abs(float(np.linalg.eigvals(block).real.max()))
    state = EvolutionState(
        0.0,
        SpectralField.single_mode(dom, 3, 1.0),
        SpectralField.zeros(dom),
        SpectralField.zeros(dom),
    )
    fit = linear_decay_report(state, params, T=10.0, dt=0.005)
    assert abs(fit.omega - rate) < 0.05 * rate


def test_linear_decay_report_zero_data():
    dom = _domain(4)
    params = ModelParams(1, 1, 1, 0.0, 0)
    zero = EvolutionState(
        0.0,
        SpectralField.zeros(dom),
        SpectralField.zeros(dom),
        SpectralField.zeros(dom),
    )
    with pytest.raises(FitError):
        linear_decay_report(zero, params, T=1.0, dt=0.01)


def test_weighted_norm_single_mode():
    dom = _domain(4)
    params = ModelParams(1, 2, 1, 0.0, 0)
    data = np.zeros((3, 4))
    data[0, 0] = 1.0
    expected = 0.1 * math.sqrt(math.pi / 2.0)  # (alpha b / 2) lam^2 |sin|
    assert abs(weighted_norm(dom, params, data, alpha=0.1) - expected) < 1e-14
    assert abs(weighted_norm(dom, params, 2.0 * data, alpha=0.1) - 2.0 * expected) < 1e-13


def test_relative_bound_report_within_claimed():
    dom = _domain(32)
    for params in (ModelParams(1, 1, 1, 0.0, 0), ModelParams(0.3, 2.0, 1.7, 0.0, 0)):
        report = relative_bound_report(dom, params, alpha=0.1, n_samples=128, seed=3)
        assert report.slope == 0.05
        assert report.measured_offset <= report.claimed_offset
        assert report.satisfied
