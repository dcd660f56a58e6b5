"""Tests for energy functionals, identity audits and decay fitting."""

import math

import numpy as np
import pytest

from bck_sim.energy import (
    barrier_audit,
    decay_fit,
    energy_series,
    estimate_audit_linear,
    factorization_residual,
    fourth_derivative_series,
    heat_identity_audit,
    heat_identity_instantiations,
)
from bck_sim.errors import DivisionGuardError, FitError
from bck_sim.model import EvolutionState, ModelParams, acceleration, nonlinear_terms
from bck_sim.nonlinear import Trajectory
from bck_sim.spectral import DomainSpec, SpectralField, grid_values, sobolev_norm

WEIGHT = math.pi / 2.0  # squared L2 norm of sin(kx) on (0, pi)


def _domain(n=8):
    return DomainSpec(1, (math.pi,), n)


def _traj(domain, t_grid, u, ut, utt, uttt, forcing=None):
    """A Trajectory of the given series."""
    return Trajectory(domain, t_grid, u, ut, utt, uttt, forcing=forcing)


def _constant_traj(domain, coeffs, t_grid, ut=None, utt=None, uttt=None):
    """The state (coeffs, ut, utt) with u_ttt = uttt (zeros by default) at
    every sample of t_grid."""
    nt = len(t_grid)
    zero = np.zeros_like(coeffs)
    fields = [coeffs] + [zero if f is None else f for f in (ut, utt, uttt)]
    return _traj(domain, t_grid, *(np.tile(f, (nt, 1)) for f in fields))


def _random_traj(domain, rng, scale=1.0, nt=3):
    t = np.linspace(0.0, 0.1, nt)
    fields = [scale * rng.standard_normal((nt,) + domain.coeff_shape) for _ in range(4)]
    return _traj(domain, t, *fields)


def _scaled(traj, alpha):
    return _traj(
        traj.domain,
        traj.t_grid,
        *(alpha * f for f in (traj.u, traj.ut, traj.utt, traj.uttt)),
    )


# ---------------------------------------------------------------------------
# pointwise functionals
# ---------------------------------------------------------------------------


def test_energies_zero_state():
    dom = _domain()
    zeros = np.zeros((3, 8))
    series = energy_series(
        _traj(dom, [0.0, 0.1, 0.2], zeros, zeros, zeros, zeros), ModelParams(1, 1, 1, 0.2, 1)
    )
    for key in ("E1", "E2", "E_total", "k_functional", "linear_energy", "Linf_ut"):
        assert np.all(series[key] == 0.0)


def test_heat_factor_energy_single_mode():
    # a=1, u = sin x, lambda=1: w = A u = sin x, w_t = 0 and, in the linear
    # model, u_ttt = -sin x so w_tt = -sin x; E1 = (|w_tt|_1^2 + |w|_2^2)/2
    dom = _domain()
    params = ModelParams(1, 1, 1, 0.0, 0)
    u = SpectralField.single_mode(dom, 1, 1.0)
    zero = SpectralField.zeros(dom)
    uttt = acceleration(EvolutionState(0.0, u, zero, zero), params).coeffs
    t = [0.0, 0.1, 0.2]
    series = energy_series(_constant_traj(dom, u.coeffs, t, uttt=uttt), params)
    np.testing.assert_allclose(series["E1"], WEIGHT, rtol=0, atol=1e-12)
    # u = e^{-t} sin x solves the heat flow, so w = w_t = w_tt = 0
    traj = _constant_traj(dom, u.coeffs, t, ut=-u.coeffs, utt=u.coeffs, uttt=-u.coeffs)
    np.testing.assert_allclose(energy_series(traj, params)["E1"], 0.0, rtol=0, atol=1e-12)


def test_energies_single_mode_closed_form():
    # u = sin x alone with u_t = u_tt = u_ttt = 0 and a = 1:
    # E1 = E2 = pi/4, E_total = pi/2
    dom = _domain()
    params = ModelParams(1, 1, 1, 0.0, 0)
    u = SpectralField.single_mode(dom, 1, 1.0).coeffs
    series = energy_series(_constant_traj(dom, u, [0.0, 0.1, 0.2]), params)
    assert np.all(np.abs(series["E1"] - math.pi / 4.0) < 1e-12)
    assert np.all(np.abs(series["E2"] - math.pi / 4.0) < 1e-12)
    assert np.all(series["E_total"] == series["E1"] + series["E2"])
    # linear energy: |u|_{H4}^2 + |u_tt + b A u_t + c^2 A u|_{H2}^2 = pi
    assert np.all(np.abs(series["linear_energy"] - math.pi) < 1e-12)


def test_energies_quadratic_scaling():
    rng = np.random.default_rng(41)
    dom = _domain()
    params = ModelParams(0.8, 1.2, 0.9, 0.0, 0)
    traj = _random_traj(dom, rng)
    alpha = 3.0
    base = energy_series(traj, params)
    scaled = energy_series(_scaled(traj, alpha), params)
    for key in ("E1", "E2", "E_total", "k_functional", "linear_energy"):
        np.testing.assert_allclose(scaled[key], alpha**2 * base[key], rtol=1e-12)
    for key in ("H4_u", "H3_ut", "H3_utt", "H1_uttt", "Linf_ut"):
        np.testing.assert_allclose(scaled[key], alpha * base[key], rtol=1e-12)


def test_e2_dominated_by_k_functional():
    # modal Poincare: E2 <= k/lambda0, with ratio exactly 1/(2 lambda0) for
    # a pure lowest-mode displacement
    dom = _domain()
    params = ModelParams(1, 1, 1, 0.0, 0)
    u = SpectralField.single_mode(dom, 1, 0.7).coeffs
    series = energy_series(_constant_traj(dom, u, [0.0, 0.1, 0.2]), params)
    lam0 = dom.lambda0
    assert np.all(np.abs(series["E2"] - 0.5 / lam0 * series["k_functional"]) < 1e-12)

    rng = np.random.default_rng(42)
    series = energy_series(_random_traj(dom, rng), params)
    assert np.all(series["E2"] <= series["k_functional"] / lam0 * (1.0 + 1e-12))


def test_fourth_derivative_series_quadratic_exact():
    dom = _domain(4)
    t = np.linspace(0.0, 1.0, 11)
    coeffs = np.zeros((11, 4))
    coeffs[:, 0] = 3.0 * t**2
    deriv = fourth_derivative_series(t, coeffs)
    np.testing.assert_allclose(deriv[1:-1, 0], 6.0 * t[1:-1], rtol=0, atol=1e-12)
    assert abs(deriv[0, 0] - (coeffs[1, 0] - coeffs[0, 0]) / 0.1) < 1e-12


# ---------------------------------------------------------------------------
# heat identity
# ---------------------------------------------------------------------------


def test_heat_identity_zero_field():
    dom = _domain(4)
    t = np.linspace(0.0, 1.0, 101)
    v = np.zeros((101, 4))
    assert heat_identity_audit(t, v, 0.5, dom) == 0.0


def test_heat_identity_exact_heat_solution():
    # v(t) = exp(-a*lambda*t) sin(x) solves the heat flow, making both
    # sides vanish identically; only quadrature error remains
    dom = _domain(4)
    a = 0.5
    lam = 1.0
    t = np.arange(0.0, 1.0 + 1e-12, 1e-3)
    amp = 0.1 * np.exp(-a * lam * t)
    v = np.zeros((t.size, 4))
    v[:, 0] = amp
    vt = np.zeros_like(v)
    vt[:, 0] = -a * lam * amp
    assert heat_identity_audit(t, v, a, dom, vt) < 1e-6
    assert heat_identity_audit(t, v, a, dom) < 1e-6


def test_heat_identity_generic_field_refines():
    # the identity is algebraic: any smooth series satisfies it up to
    # quadrature error.  With an exact v_t the trapezoid error drops at
    # second order under dt-halving.
    dom = _domain(4)
    rng = np.random.default_rng(43)
    base = rng.standard_normal(4)
    osc = rng.standard_normal(4)

    def sample(dt):
        t = np.arange(0.0, 1.0 + 1e-12, dt)
        envelope = np.exp(-0.6 * t)[:, None]
        wave = np.cos(2.3 * t)[:, None]
        dwave = -2.3 * np.sin(2.3 * t)[:, None]
        v = envelope * (base[None, :] + 0.5 * wave * osc[None, :])
        vt = -0.6 * v + envelope * 0.5 * dwave * osc[None, :]
        return t, v, vt

    t1, v1, vt1 = sample(2e-3)
    t2, v2, vt2 = sample(1e-3)
    r1 = heat_identity_audit(t1, v1, 0.8, dom, vt1)
    r2 = heat_identity_audit(t2, v2, 0.8, dom, vt2)
    assert r1 < 1e-4
    assert r2 < 0.6 * r1


def test_heat_identity_centered_differences_telescope():
    # with v_t from the audit's own centered differences, trapezoid
    # weights telescope the cross term into the exact boundary term (a
    # discrete product rule), so the residual sits at machine precision
    # at any step size
    dom = _domain(4)
    rng = np.random.default_rng(46)
    base = rng.standard_normal(4)
    t = np.arange(0.0, 1.0 + 1e-12, 0.05)
    v = np.exp(-0.6 * t)[:, None] * base[None, :] * np.cos(1.7 * t)[:, None]
    assert heat_identity_audit(t, v, 0.8, dom) < 1e-12


def test_heat_identity_instantiations_exact_constant():
    # constant-in-time fields: every instantiation reduces to
    # int |a A v|^2 = a^2 int |A v|^2, exact under the trapezoid rule
    dom = _domain()
    rng = np.random.default_rng(44)
    t = np.linspace(0.0, 1.0, 21)
    traj = _constant_traj(dom, rng.standard_normal(8), t)
    residuals = heat_identity_instantiations(traj, ModelParams(1, 1, 1, 0.0, 0))
    assert set(residuals) == {"u_ttt", "A_half_u_tt", "A_u_t", "A_u"}
    for value in residuals.values():
        assert value < 1e-12


# ---------------------------------------------------------------------------
# factorization residual
# ---------------------------------------------------------------------------


def _exact_linear_modal_traj(dom, params, lam_index, t_grid):
    """Sample the exact single-mode linear solution via the 3x3 exponential."""
    from scipy.linalg import expm

    lam = dom.eigenvalue_grid[lam_index]
    block = np.array(
        [
            [0.0, 1.0, 0.0],
            [-params.c**2 * lam, -params.b * lam, 1.0],
            [0.0, 0.0, -params.a * lam],
        ]
    )
    u0 = np.array([0.4, -0.3, 0.8])
    nt = t_grid.size
    u = np.zeros((nt, dom.modes_per_axis))
    ut = np.zeros_like(u)
    utt = np.zeros_like(u)
    uttt = np.zeros_like(u)
    for i, t in enumerate(t_grid):
        vec = expm(t * block) @ u0
        u[i, lam_index] = vec[0]
        ut[i, lam_index] = vec[1]
        utt_val = vec[2] - params.b * lam * vec[1] - params.c**2 * lam * vec[0]
        utt[i, lam_index] = utt_val
        uttt[i, lam_index] = (
            -(params.a + params.b) * lam * utt_val
            - (params.c**2 * lam + params.a * params.b * lam**2) * vec[1]
            - params.a * params.c**2 * lam**2 * vec[0]
        )
    # the linear problem's forcing is zero
    return _traj(dom, t_grid, u, ut, utt, uttt, forcing=np.zeros_like(u))


def test_factorization_residual_exact_linear():
    """The residual reads the forcing the trajectory carries, and a
    trajectory without one is refused."""
    dom = _domain(4)
    params = ModelParams(1.0, 1.0, 1.0, 0.0, 0)
    t = np.arange(0.0, 1.0 + 1e-12, 1e-2)
    traj = _exact_linear_modal_traj(dom, params, 0, t)
    assert factorization_residual(traj, params, use_stored=True) < 1e-12
    with pytest.raises(ValueError, match="forcing"):
        factorization_residual(traj.difference(traj), params)


def test_factorization_residual_finite_difference_refines():
    dom = _domain(4)
    params = ModelParams(1.0, 1.0, 1.0, 0.0, 0)
    t1 = np.arange(0.0, 1.0 + 1e-12, 2e-3)
    t2 = np.arange(0.0, 1.0 + 1e-12, 1e-3)
    r1 = factorization_residual(
        _exact_linear_modal_traj(dom, params, 0, t1), params, use_stored=False
    )
    r2 = factorization_residual(
        _exact_linear_modal_traj(dom, params, 0, t2), params, use_stored=False
    )
    assert r1 < 1e-4
    assert r2 < 0.6 * r1


def test_forcing_series_matches_pointwise_forcing():
    from bck_sim.model import forcing_f

    dom = _domain(4)
    params = ModelParams(1, 1, 1, 0.3, 1)
    rng = np.random.default_rng(45)
    t = np.linspace(0.0, 0.1, 3)
    traj = _traj(
        dom,
        t,
        0.01 * rng.standard_normal((3, 4)),
        0.01 * rng.standard_normal((3, 4)),
        0.01 * rng.standard_normal((3, 4)),
        0.01 * rng.standard_normal((3, 4)),
    )
    _, series, _ = nonlinear_terms(dom, params, traj.u, traj.ut, traj.utt, uttt=traj.uttt)
    state = EvolutionState(
        float(t[1]),
        SpectralField(dom, traj.u[1]),
        SpectralField(dom, traj.ut[1]),
        SpectralField(dom, traj.utt[1]),
    )
    single = forcing_f(state, SpectralField(dom, traj.uttt[1]), params)
    np.testing.assert_array_equal(series[1], single.coeffs)


# ---------------------------------------------------------------------------
# estimate and barrier audits
# ---------------------------------------------------------------------------


def test_estimate_audit_zero_everything():
    dom = _domain(4)
    t = np.linspace(0.0, 1.0, 11)
    zeros = np.zeros((11, 4))
    traj = _traj(dom, t, zeros, zeros, zeros, zeros, forcing=zeros)
    c_min = estimate_audit_linear(traj, energy_series(traj, ModelParams(1, 1, 1, 0.2, 1)))
    assert c_min == 0.0
    # the audit reads f from the trajectory, so one without it is refused
    bare = _traj(dom, t, zeros, zeros, zeros, zeros)
    with pytest.raises(ValueError, match="forcing"):
        estimate_audit_linear(bare, energy_series(bare, ModelParams(1, 1, 1, 0.2, 1)))


def test_estimate_audit_constant_state_closed_form():
    # u identically sin x, everything else zero, f = 0: E and k are
    # constants, lhs(t) = E + (E + k) t, rhs = E, so c_min = 1 + (1 + k/E) T
    dom = _domain(4)
    params = ModelParams(1, 1, 1, 0.0, 0)
    t = np.linspace(0.0, 1.0, 101)
    coeffs = np.zeros(4)
    coeffs[0] = 0.5
    traj = _constant_traj(dom, coeffs, t)
    traj = _traj(dom, t, traj.u, traj.ut, traj.utt, traj.uttt, forcing=np.zeros((101, 4)))
    c_min = estimate_audit_linear(traj, energy_series(traj, params))
    e_val = 0.5**2 * WEIGHT  # E1 = E2 = c^2 w / 2 at lambda = 1, a = 1
    k_val = 0.5**2 * WEIGHT
    expected = (e_val + (e_val + k_val) * 1.0) / e_val
    assert abs(c_min - expected) < 1e-10


def test_estimate_audit_division_guard():
    # trajectory that starts at zero with zero forcing but grows: the
    # right-hand side vanishes identically while the left does not
    dom = _domain(4)
    t = np.linspace(0.0, 1.0, 5)
    u = np.zeros((5, 4))
    u[:, 0] = t**2
    zeros = np.zeros_like(u)
    traj = _traj(dom, t, u, zeros, zeros, zeros, forcing=zeros)
    with pytest.raises(DivisionGuardError):
        estimate_audit_linear(traj, energy_series(traj, ModelParams(1, 1, 1, 0.0, 0)))


def test_barrier_audit_zero_data_passes():
    dom = _domain(4)
    t = np.linspace(0.0, 1.0, 5)
    zeros = np.zeros((5, 4))
    traj = _traj(dom, t, zeros, zeros, zeros, zeros)
    audit = barrier_audit(energy_series(traj, ModelParams(1, 1, 1, 0.0, 0)), eta=1e-6, c_hat=2.0)
    assert audit.passed
    assert audit.pointwise_ratio == 0.0 and audit.integrated_ratio == 0.0


def test_barrier_audit_decaying_series():
    # u(t) = e^{-t} sin x: E(t) = E0 e^{-2t}, k(t) = k0 e^{-2t}; closed
    # forms for both ratios decide pass/fail at the chosen c_hat
    dom = _domain(4)
    params = ModelParams(1, 1, 1, 0.0, 0)
    t = np.linspace(0.0, 2.0, 401)
    u = np.zeros((401, 4))
    u[:, 0] = 0.3 * np.exp(-t)
    zeros = np.zeros_like(u)
    series = energy_series(_traj(dom, t, u, zeros, zeros, zeros), params)
    generous = barrier_audit(series, eta=0.3**2 * WEIGHT, c_hat=4.0)
    assert generous.passed
    assert generous.pointwise_ratio <= 1.0
    stingy = barrier_audit(series, eta=0.3**2 * WEIGHT, c_hat=1e-3)
    assert not stingy.passed


def test_barrier_audit_validates_inputs():
    dom = _domain(4)
    t = np.linspace(0.0, 1.0, 5)
    zeros = np.zeros((5, 4))
    series = energy_series(_traj(dom, t, zeros, zeros, zeros, zeros), ModelParams(1, 1, 1, 0.0, 0))
    with pytest.raises(ValueError):
        barrier_audit(series, eta=0.0, c_hat=1.0)


# ---------------------------------------------------------------------------
# decay fitting
# ---------------------------------------------------------------------------


def test_decay_fit_exact_exponential():
    t = np.linspace(0.0, 10.0, 201)
    series = 3.0 * np.exp(-0.7 * t)
    fit = decay_fit(t, series)
    assert abs(fit.omega - 0.7) < 1e-10
    assert abs(fit.M - 3.0) < 1e-10
    assert fit.residual < 1e-10
    assert fit.window[0] >= 5.0 - 1e-9 and fit.window[1] == 10.0


def test_decay_fit_full_window():
    """The window is the trailing ceil(n/2) samples: of 41 the last 21,
    of 3 the last 2, the fewest a fit takes."""
    t = np.linspace(0.0, 4.0, 41)
    fit = decay_fit(t, 2.0 * np.exp(-1.3 * t))
    assert abs(fit.omega - 1.3) < 1e-10
    assert fit.window == (2.0, 4.0)
    fit = decay_fit(t[:3], 2.0 * np.exp(-1.3 * t[:3]))
    assert abs(fit.omega - 1.3) < 1e-10
    assert fit.window == (t[1], t[2])


def test_decay_fit_rejects_nonpositive_entries():
    t = np.linspace(0.0, 1.0, 11)
    series = np.exp(-t)
    series[-2] = 0.0
    with pytest.raises(FitError):
        decay_fit(t, series)


def test_decay_fit_window_validation():
    t = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError):
        decay_fit(t, np.exp(-t[:-1]))
    # a trailing half of one sample
    for n in (1, 2):
        with pytest.raises(FitError, match="fewer than two"):
            decay_fit(t[:n], np.exp(-t[:n]))


# ---------------------------------------------------------------------------
# series evaluation
# ---------------------------------------------------------------------------


def test_energy_series_matches_pointwise_reports():
    # each column at one sample against the functional written out on the
    # SpectralFields of that sample
    dom = _domain()
    params = ModelParams(0.9, 1.1, 1.3, 0.0, 0)
    a, b, c = params.a, params.b, params.c
    t = np.arange(0.0, 0.5 + 1e-12, 1e-2)
    traj = _exact_linear_modal_traj(dom, params, 1, t)
    series = energy_series(traj, params)
    i = 17
    lam = dom.eigenvalue_grid
    u, ut, utt, uttt = (SpectralField(dom, f[i]) for f in (traj.u, traj.ut, traj.utt, traj.uttt))
    w = SpectralField(dom, ut.coeffs + a * lam * u.coeffs)
    wt = SpectralField(dom, utt.coeffs + a * lam * ut.coeffs)
    wtt = SpectralField(dom, uttt.coeffs + a * lam * utt.coeffs)
    third = SpectralField(dom, utt.coeffs + b * lam * ut.coeffs + c**2 * lam * u.coeffs)

    def sq(field, order):
        return sobolev_norm(field, order) ** 2

    e1 = 0.5 * (sq(wtt, 1) + sq(wt, 1) + sq(w, 2))
    e2 = 0.5 * (sq(uttt, 1) + sq(utt, 2) + sq(ut, 3) + sq(u, 3))
    linear = sq(u, 4) + sq(ut, 4) + sq(third, 2)
    assert abs(series["E1"][i] - e1) < 1e-12
    assert abs(series["E2"][i] - e2) < 1e-12
    assert abs(series["linear_energy"][i] - linear) < 1e-12
    assert abs(series["H4_u"][i] - sobolev_norm(u, 4)) < 1e-12
    assert abs(series["H3_ut"][i] - sobolev_norm(ut, 3)) < 1e-12
    assert abs(series["Linf_ut"][i] - np.abs(grid_values(ut.domain, ut.coeffs)).max()) < 1e-12
    assert np.all(series["k_functional"] >= 0.0)
