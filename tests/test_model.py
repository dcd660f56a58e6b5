"""Tests for model coefficients, the degeneracy guard and the evolution law."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from bck_sim import model
from bck_sim.errors import DegeneracyError
from bck_sim.model import (
    EvolutionState,
    ModelParams,
    PhysicalParams,
    acceleration,
    check_degeneracy_guard,
    check_uniform_grid,
    derive_params,
    forcing_f,
    linear_bracket,
    make_compatibility_data,
    pde_residual_series,
    time_grid,
)
from bck_sim.nonlinear import solve
from bck_sim.spectral import DomainSpec, SpectralField, gradient_dot, grid_extremes, to_grid


def _domain(n=8):
    return DomainSpec(1, (math.pi,), n)


def _state(domain, u=None, ut=None, utt=None, t=0.0):
    zero = SpectralField.zeros(domain)
    return EvolutionState(t, u or zero, ut or zero, utt or zero)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


def test_model_params_validation():
    ModelParams(1.0, 1.0, 1.0, 0.0, 0)
    with pytest.raises(ValueError):
        ModelParams(0.0, 1.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        ModelParams(1.0, -1.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        ModelParams(1.0, 1.0, 1.0, -0.1)
    with pytest.raises(ValueError):
        ModelParams(1.0, 1.0, 1.0, 0.1, 2)


def test_derive_params_gas():
    phys = PhysicalParams(nu=1.5, prandtl=0.75, viscosity_number=4.0 / 3.0, c0=2.0, gamma=1.4)
    p = derive_params(phys, s=1)
    assert abs(p.a - 2.0) < 1e-12
    assert abs(p.b - 2.8) < 1e-12
    assert abs(p.k - 0.05) < 1e-12
    assert p.c == 2.0 and p.s == 1


def test_derive_params_liquid_substitutes_b_over_a():
    phys = PhysicalParams(nu=1.5, prandtl=0.75, viscosity_number=4.0 / 3.0, c0=2.0, b_over_a=0.4)
    p = derive_params(phys, s=0)
    assert abs(p.b - 2.8) < 1e-12
    assert abs(p.k - 0.05) < 1e-12


def test_physical_params_exclusive_nonlinearity_source():
    with pytest.raises(ValueError):
        PhysicalParams(nu=1.0, prandtl=1.0, viscosity_number=1.5, c0=1.0)
    with pytest.raises(ValueError):
        PhysicalParams(nu=1.0, prandtl=1.0, viscosity_number=1.5, c0=1.0, gamma=1.4, b_over_a=5.0)


# ---------------------------------------------------------------------------
# degeneracy factor and guard
# ---------------------------------------------------------------------------


def _collocation_factor(ut, params):
    """1 + 2k min u_t and 1 + 2k max |u_t| over the collocation grid, from
    ``grid_extremes`` as the energy series' guard_min column takes them;
    the factor lies between the two."""
    low, peak = grid_extremes(ut.domain, ut.coeffs[None])
    return 1.0 + 2.0 * params.k * low[0], 1.0 + 2.0 * params.k * peak[0]


def test_degeneracy_factor_of_rest_state():
    dom = _domain()
    ut = SpectralField.zeros(dom)
    assert _collocation_factor(ut, ModelParams(1, 1, 1, 0.3)) == (1.0, 1.0)


def test_degeneracy_factor_k_zero_limit():
    dom = _domain()
    ut = SpectralField.single_mode(dom, 1, 5.0)
    assert _collocation_factor(ut, ModelParams(1, 1, 1, 0.0)) == (1.0, 1.0)


def test_degeneracy_factor_near_threshold():
    # grid-max oracle: u_t = -0.9 sin(x) with k = 0.5 gives a pointwise
    # factor 1 - 0.9 sin(x), minimized at the grid point nearest the peak
    dom = _domain()
    params = ModelParams(1, 1, 1, 0.5)
    ut = SpectralField.single_mode(dom, 1, -0.9)
    fmin, _ = _collocation_factor(ut, params)
    grid_peak = np.max(np.sin(dom.grid_axes[0]))
    assert abs(fmin - (1.0 - 0.9 * grid_peak)) < 1e-12


def test_guard_raises_with_location():
    dom = _domain()
    params = ModelParams(1, 1, 1, 0.5)
    ut = SpectralField.single_mode(dom, 1, 1.2)
    with pytest.raises(DegeneracyError) as err:
        check_degeneracy_guard(ut, params, time=0.0)
    assert err.value.time == 0.0
    assert err.value.index is not None
    assert err.value.factor is not None


def test_guard_two_sided():
    # large positive u_t keeps the factor away from zero but still breaks
    # the uniform bound on the reciprocal's domain
    dom = _domain()
    params = ModelParams(1, 1, 1, 0.5)
    ut = SpectralField.single_mode(dom, 1, -1.2)
    with pytest.raises(DegeneracyError):
        check_degeneracy_guard(ut, params, time=0.0)
    ut_ok = SpectralField.single_mode(dom, 1, 0.5)
    assert check_degeneracy_guard(ut_ok, params, time=0.0) > 0.0


# ---------------------------------------------------------------------------
# forcing
# ---------------------------------------------------------------------------


def test_forcing_zero_state():
    dom = _domain()
    zero = SpectralField.zeros(dom)
    f = forcing_f(_state(dom), zero, ModelParams(1, 1, 1, 0.7, 1))
    np.testing.assert_array_equal(f.coeffs, 0.0)


def test_forcing_westervelt_single_mode():
    # with s = 0, k = 1 and only u_tt = sin(x): f = 2 sin(x)^2; expected
    # coefficients are twice the quad-oracle values of sin^2 against sin(kx)
    expected = 2.0 * np.array([
        0.8488263631567752,
        0.0,
        -0.16976527263135505,
        0.0,
        -0.02425218180447929,
        0.0,
        -0.008084060601493095,
        0.0,
    ])
    dom = _domain()
    utt = SpectralField.single_mode(dom, 1, 1.0)
    f = forcing_f(_state(dom, utt=utt), SpectralField.zeros(dom), ModelParams(1, 1, 1, 1.0, 0))
    np.testing.assert_allclose(f.coeffs, expected, rtol=0, atol=1e-12)


def test_forcing_linear_in_k_for_westervelt():
    rng = np.random.default_rng(31)
    dom = _domain()
    state = _state(
        dom,
        u=SpectralField(dom, rng.standard_normal(8)),
        ut=SpectralField(dom, rng.standard_normal(8)),
        utt=SpectralField(dom, rng.standard_normal(8)),
    )
    uttt = SpectralField(dom, rng.standard_normal(8))
    f1 = forcing_f(state, uttt, ModelParams(1, 1, 1, 1.0, 0))
    f2 = forcing_f(state, uttt, ModelParams(1, 1, 1, 2.0, 0))
    np.testing.assert_allclose(f2.coeffs, 2.0 * f1.coeffs, rtol=1e-12, atol=0)


def test_forcing_gradient_terms_vanish_bitwise_when_s_zero():
    # adding the gradient terms scaled by s = 0 must not change a single bit
    rng = np.random.default_rng(32)
    dom = _domain()
    state = _state(
        dom,
        u=SpectralField(dom, rng.standard_normal(8)),
        ut=SpectralField(dom, rng.standard_normal(8)),
        utt=SpectralField(dom, rng.standard_normal(8)),
    )
    uttt = SpectralField(dom, rng.standard_normal(8))
    params = ModelParams(1, 1, 1, 0.4, 0)
    skipped = forcing_f(state, uttt, params)
    grad_terms = (
        2.0 * gradient_dot(state.ut, state.ut).coeffs
        + 2.0 * gradient_dot(state.u, state.utt).coeffs
    )
    with_zeros = skipped.coeffs + 0.0 * grad_terms
    np.testing.assert_array_equal(with_zeros, skipped.coeffs)


# ---------------------------------------------------------------------------
# acceleration
# ---------------------------------------------------------------------------


def test_acceleration_linear_single_mode():
    # lambda = 1, a = b = c = 1, (u, u_t, u_tt) = (sin x, 0, 0):
    # u_ttt = -a c^2 lambda^2 u = -sin x
    dom = _domain()
    params = ModelParams(1, 1, 1, 0.0, 0)
    state = _state(dom, u=SpectralField.single_mode(dom, 1, 1.0))
    out = acceleration(state, params)
    expected = np.zeros(8)
    expected[0] = -1.0
    np.testing.assert_allclose(out.coeffs, expected, rtol=0, atol=1e-12)


def test_acceleration_matches_linear_uttt_when_linear():
    rng = np.random.default_rng(33)
    dom = _domain()
    params = ModelParams(0.7, 1.3, 0.9, 0.0, 0)
    state = _state(
        dom,
        u=SpectralField(dom, rng.standard_normal(8)),
        ut=SpectralField(dom, rng.standard_normal(8)),
        utt=SpectralField(dom, rng.standard_normal(8)),
    )
    np.testing.assert_allclose(
        acceleration(state, params).coeffs,
        linear_bracket(dom, params, state.u.coeffs, state.ut.coeffs, state.utt.coeffs),
        rtol=0,
        atol=1e-12,
    )


def _dense_acceleration_oracle(state, params, n_nodes=2000):
    """Dense quadrature evaluation of the quasilinear u_ttt formula (1D).

    Everything is evaluated from raw coefficients with explicit sine/cosine
    sums, independent of the package's grid machinery.
    """
    dom = state.domain
    length = dom.lengths[0]
    n = dom.modes_per_axis
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    x = (nodes + 1.0) * length / 2.0
    w = weights * length / 2.0
    k_arr = np.arange(1, n + 1)
    sin_m = np.sin(np.outer(x, k_arr * np.pi / length))
    cos_m = np.cos(np.outer(x, k_arr * np.pi / length)) * (k_arr * np.pi / length)
    lam = (k_arr * np.pi / length) ** 2

    a, b, c, k, s = params.a, params.b, params.c, params.k, params.s
    lin = (
        -(a + b) * lam * state.utt.coeffs
        - (c * c * lam + a * b * lam * lam) * state.ut.coeffs
        - a * c * c * lam * lam * state.u.coeffs
    )
    num = sin_m @ lin
    num -= 2.0 * k * (sin_m @ state.utt.coeffs) ** 2
    if s:
        num -= 2.0 * (cos_m @ state.ut.coeffs) ** 2
        num -= 2.0 * (cos_m @ state.u.coeffs) * (cos_m @ state.utt.coeffs)
    den = 1.0 + 2.0 * k * (sin_m @ state.ut.coeffs)
    vals = num / den
    return (2.0 / length) * (sin_m.T @ (w * vals))


def test_acceleration_against_dense_oracle():
    rng = np.random.default_rng(34)
    dom = _domain()
    params = ModelParams(1, 1, 1, 0.2, 1)
    decay = np.exp(-0.7 * np.arange(8))

    def small_field(scale):
        return SpectralField(dom, scale * decay * rng.standard_normal(8))

    ut = small_field(1.0)
    peak = np.max(np.abs(to_grid(ut)))
    ut = (0.01 / peak) * ut
    state = _state(dom, u=small_field(0.01), ut=ut, utt=small_field(0.01))

    ours = acceleration(state, params).coeffs
    oracle = _dense_acceleration_oracle(state, params)
    rel = np.linalg.norm(ours - oracle) / np.linalg.norm(oracle)
    assert rel < 1e-10


def test_acceleration_westervelt_against_dense_oracle():
    rng = np.random.default_rng(35)
    dom = _domain()
    params = ModelParams(0.8, 1.1, 1.2, 0.3, 0)
    decay = np.exp(-0.6 * np.arange(8))
    state = _state(
        dom,
        u=SpectralField(dom, 0.02 * decay * rng.standard_normal(8)),
        ut=SpectralField(dom, 0.02 * decay * rng.standard_normal(8)),
        utt=SpectralField(dom, 0.02 * decay * rng.standard_normal(8)),
    )
    ours = acceleration(state, params).coeffs
    oracle = _dense_acceleration_oracle(state, params)
    assert np.linalg.norm(ours - oracle) / np.linalg.norm(oracle) < 1e-10


# ---------------------------------------------------------------------------
# compatibility
# ---------------------------------------------------------------------------


def test_compatibility_linear_formula():
    rng = np.random.default_rng(36)
    dom = _domain()
    params = ModelParams(1.2, 0.9, 1.1, 0.0, 0)
    u0 = SpectralField(dom, rng.standard_normal(8))
    u1 = SpectralField(dom, rng.standard_normal(8))
    u2 = SpectralField(dom, rng.standard_normal(8))
    got = solve(make_compatibility_data(u0, u1, u2, params), params, 1e-3, 1e-3).uttt[0]
    lam = dom.eigenvalue_grid
    a, b, c = params.a, params.b, params.c
    expected = (
        -(a + b) * lam * u2.coeffs
        - (c * c * lam + a * b * lam * lam) * u1.coeffs
        - a * c * c * lam * lam * u0.coeffs
    )
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_compatibility_single_mode_against_dense_oracle():
    dom = _domain()
    params = ModelParams(1, 1, 1, 0.2, 1)
    amp = 0.01
    u = SpectralField.single_mode(dom, 1, amp)
    got = solve(make_compatibility_data(u, u, u, params), params, 1e-3, 1e-3).uttt[0]
    oracle = _dense_acceleration_oracle(EvolutionState(0.0, u, u, u), params)
    assert np.linalg.norm(got - oracle) / np.linalg.norm(oracle) < 1e-10


def test_make_compatibility_data_guards_initial_velocity():
    dom = _domain()
    params = ModelParams(1, 1, 1, 0.5, 1)
    big = SpectralField.single_mode(dom, 1, 1.5)
    ok = SpectralField.single_mode(dom, 1, 0.001)
    with pytest.raises(DegeneracyError) as err:
        make_compatibility_data(ok, big, ok, params)
    assert err.value.time == 0.0
    data = make_compatibility_data(ok, ok, ok, params)
    assert isinstance(data, EvolutionState) and data.t == 0.0
    assert data.u is ok and data.ut is ok and data.utt is ok


def test_make_compatibility_data_builds_no_kernel_plan(monkeypatch):
    """The data carry no u_ttt(0), so bundling them evaluates no law:
    only the guard of u1 runs, and it binds no plan."""

    def refuse(*args, **kwargs):
        raise AssertionError("make_compatibility_data built a KernelPlan")

    dom = _domain()
    params = ModelParams(1, 1, 1, 0.5, 1)
    ok = SpectralField.single_mode(dom, 1, 0.001)
    monkeypatch.setattr(model, "KernelPlan", refuse)
    data = make_compatibility_data(ok, ok, ok, params)
    assert data.t == 0.0
    with pytest.raises(DegeneracyError) as err:
        make_compatibility_data(ok, SpectralField.single_mode(dom, 1, 1.5), ok, params)
    assert err.value.time == 0.0


# ---------------------------------------------------------------------------
# residual
# ---------------------------------------------------------------------------


def _residual(states, params):
    """pde_residual_series at the middle of three equispaced states."""

    def series(name):
        return np.stack([getattr(st, name).coeffs for st in states])

    t = [st.t for st in states]
    dom = states[0].domain
    return pde_residual_series(dom, params, t, series("u"), series("ut"), series("utt"))[0]


def test_residual_zero_trajectory():
    dom = _domain()
    params = ModelParams(1, 1, 1, 0.2, 1)
    states = [_state(dom, t=t) for t in (0.0, 0.001, 0.002)]
    assert _residual(states, params) == 0.0


def test_residual_linear_exact_solution():
    # sample u(t) = exp(t A) applied to single-mode data with the 3x3 block
    # built directly here; centered differences leave an O(dt^2) residual
    dom = _domain()
    params = ModelParams(1, 1, 1, 0.0, 0)
    lam = 1.0
    block = np.array([[0.0, 1.0, 0.0], [-lam, -lam, 1.0], [0.0, 0.0, -lam]])
    u0 = np.array([1.0, 0.0, 1.0])  # (u, u_t, G) with G = u_tt + u_t + u at t=0

    def state_at(t):
        vec = expm(t * block) @ u0
        u = SpectralField.single_mode(dom, 1, vec[0])
        ut = SpectralField.single_mode(dom, 1, vec[1])
        utt = SpectralField.single_mode(dom, 1, vec[2] - lam * vec[1] - lam * vec[0])
        return EvolutionState(t, u, ut, utt)

    dt = 1e-3
    res = _residual([state_at(0.5 - dt), state_at(0.5), state_at(0.5 + dt)], params)
    assert res < 1e-4
    res_half = _residual(
        [state_at(0.5 - dt / 2), state_at(0.5), state_at(0.5 + dt / 2)], params
    )
    assert res_half < 0.3 * res  # second-order refinement


def test_residual_rejects_nonuniform_spacing():
    dom = _domain()
    params = ModelParams(1, 1, 1, 0.2, 1)
    with pytest.raises(ValueError):
        _residual([_state(dom, t=0.0), _state(dom, t=0.001), _state(dom, t=0.003)], params)


def test_residual_accepts_every_grid_a_trajectory_accepts():
    # the residual shares the package's one uniform-grid check, so a grid
    # within its tolerance (1e-9 of max(1, step)) is a residual grid too
    dom = _domain()
    params = ModelParams(1, 1, 1, 0.2, 1)
    t = 1e-3 * np.arange(5)
    t[2] += 1e-11
    check_uniform_grid(t)
    rng = np.random.default_rng(8)
    u, ut, utt = (1e-3 * rng.standard_normal((5,) + dom.coeff_shape) for _ in range(3))
    res = pde_residual_series(dom, params, t, u, ut, utt)
    assert res.shape == (3,)
    assert np.all(np.isfinite(res))


def test_time_grid_samples_and_validation():
    np.testing.assert_array_equal(time_grid(1.0, 0.1), 0.1 * np.arange(11))
    np.testing.assert_array_equal(time_grid(0.5, 0.25), [0.0, 0.25, 0.5])
    # T/dt within 1e-9 relative of a whole number: the last sample is T
    assert time_grid(0.1, 1e-3)[-1] == pytest.approx(0.1, rel=1e-12)
    np.testing.assert_array_equal(time_grid(1.0, 1.0 / 3.0 * (1.0 + 1e-12)), np.arange(4) / 3.0 * (1.0 + 1e-12))
    bad = ((0.0, 0.1), (1.0, 0.0), (-1.0, 0.1), (1.0, -0.1), (1.0, 0.3), (1.0, 2.5), (1.0, 1.0 / 3.0 * (1.0 + 1e-8)))
    # not finite: T, dt, or T/dt by overflow; each raises before a grid is allocated
    bad += ((np.inf, 0.1), (np.nan, 0.1), (1.0, np.inf), (np.inf, np.inf), (1e300, 1e-300))
    for T, dt in bad:
        with pytest.raises(ValueError):
            time_grid(T, dt)
