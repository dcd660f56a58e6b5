"""Exact symmetries of the equation, checked without a reference.

With s = 0 the equation has two scalings that hold bit for bit in floating
point when every factor is a power of two, since multiplying by 2^j is
exact and commutes with every sum, product and quotient of the solver:

* amplitude: (u0, u1, u2, k) -> (2^j u0, 2^j u1, 2^j u2, 2^-j k) scales
  u_ttt, f and every trajectory row by 2^j and leaves 2k u_t, so the
  guard, unchanged; Picard increments scale by 2^j too, so its ratios do
  not move;
* domain: (L, a, b, c) -> (2^j L, 4^j a, 4^j b, 2^j c) scales each
  eigenvalue by 4^-j and each node by 2^j, which leaves a lam, b lam,
  c^2 lam, the sine tables and so every coefficient row unchanged.

With s = 1 neither holds (s |grad u|^2 is not rescaled).  For both s, data
in the odd modes only (symmetric about the middle of each axis) keep their
even modes at rounding level: every product and quotient of symmetric
fields is symmetric, and so is the product of two antisymmetric
gradients.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bck_sim.errors import NonConvergenceError
from bck_sim.model import ModelParams, make_compatibility_data, nonlinear_terms
from bck_sim.nonlinear import picard_solve, solve
from bck_sim.spectral import DomainSpec, SpectralField

SETTINGS = settings(max_examples=10, deadline=None, derandomize=True, database=None)
ROWS = ("u", "ut", "utt", "uttt")
# 1D and 2D sizes small enough for a march to cost a few milliseconds
SIZES = st.sampled_from([(1, 4), (1, 8), (1, 11), (2, 3), (2, 6)])
POWERS = st.integers(-4, 4)
STEPS, DT = 4, 1e-2


def _data(dim, n, seed, odd=False):
    """(u0, u1, u2) with coefficients decaying like lam^-1.5, small enough
    that |2k u_t| stays far below the guard's limit."""
    domain = DomainSpec(dim, (np.pi, 2.0)[:dim], n)
    lam = np.asarray(domain.eigenvalue_grid)
    rng = np.random.default_rng(seed)
    data = 0.05 * rng.standard_normal((3,) + domain.coeff_shape) * (lam / domain.lambda0) ** -1.5
    if odd:
        # keep the modes odd in every axis: 1-based k odd is index k - 1 even
        mask = np.ones(domain.coeff_shape, dtype=bool)
        for axis in range(dim):
            index = np.arange(n).reshape((-1,) + (1,) * (dim - 1 - axis))
            mask &= index % 2 == 0
        data *= mask
    return domain, data


def _state(domain, data, params):
    return make_compatibility_data(*(SpectralField(domain, c) for c in data), params)


def _march(domain, data, params):
    return solve(_state(domain, data, params), params, STEPS * DT, DT)


def _picard(domain, data, params, tol):
    """The iterate and the ratios of at most three Picard sweeps, which
    stop once an increment falls below ``tol``; the iterate is None when
    the sweeps run out."""
    try:
        phi, report = picard_solve(_state(domain, data, params), params, STEPS * DT, DT, tol=tol,
                                   max_iter=3)
        return phi, report.ratios
    except NonConvergenceError as err:
        return None, tuple(err.ratios)


def _scaled_domain(domain, j):
    return DomainSpec(domain.dimension, tuple(2.0**j * x for x in domain.lengths),
                      domain.modes_per_axis)


@SETTINGS
@given(size=SIZES, seed=st.integers(0, 2**16), j=POWERS)
def test_amplitude_scaling_is_exact(size, seed, j):
    domain, data = _data(*size, seed)
    params = ModelParams(1.0, 0.7, 1.3, 0.4, 0)
    scaled = ModelParams(1.0, 0.7, 1.3, 0.4 * 2.0**-j, 0)
    factor = 2.0**j
    uttt, f, guard_min = nonlinear_terms(domain, params, *data)
    uttt_s, f_s, guard_s = nonlinear_terms(domain, scaled, *(factor * data))
    assert np.array_equal(uttt_s, factor * uttt)
    assert np.array_equal(f_s, factor * f)
    assert guard_s == guard_min
    a, b = _march(domain, data, params), _march(domain, factor * data, scaled)
    for name in ROWS + ("forcing",):
        assert np.array_equal(getattr(b, name), factor * getattr(a, name)), name
    # the increments scale by 2^j as well, so the tolerance does
    phi, ratios = _picard(domain, data, params, 1e-12)
    phi_s, ratios_s = _picard(domain, factor * data, scaled, factor * 1e-12)
    assert ratios_s == ratios
    assert (phi is None) == (phi_s is None)
    if phi is not None:
        for name in ROWS:
            assert np.array_equal(getattr(phi_s, name), factor * getattr(phi, name)), name


@SETTINGS
@given(size=SIZES, seed=st.integers(0, 2**16), j=POWERS)
def test_domain_scaling_is_exact(size, seed, j):
    domain, data = _data(*size, seed)
    a, b, c = 1.0, 0.7, 1.3
    params = ModelParams(a, b, c, 0.4, 0)
    scaled = ModelParams(4.0**j * a, 4.0**j * b, 2.0**j * c, 0.4, 0)
    wide = _scaled_domain(domain, j)
    for got, want in zip(nonlinear_terms(wide, scaled, *data), nonlinear_terms(domain, params, *data)):
        assert np.array_equal(got, want)
    x, y = _march(domain, data, params), _march(wide, data, scaled)
    for name in ROWS + ("forcing",):
        assert np.array_equal(getattr(y, name), getattr(x, name)), name
    # the trajectory norm weighs the powers of lam differently, so the
    # ratios move; one sweep (any increment passes an infinite tolerance)
    # shows that the Picard map keeps every row
    phi, _ = _picard(domain, data, params, np.inf)
    phi_w, _ = _picard(wide, data, scaled, np.inf)
    for name in ROWS:
        assert np.array_equal(getattr(phi_w, name), getattr(phi, name)), name


def _even_part(domain, coeffs):
    """The largest coefficient of a mode with an even index in some axis."""
    mask = np.zeros(domain.coeff_shape, dtype=bool)
    n = domain.modes_per_axis
    for axis in range(domain.dimension):
        index = np.arange(n).reshape((-1,) + (1,) * (domain.dimension - 1 - axis))
        mask |= np.broadcast_to(index % 2 == 1, domain.coeff_shape)
    return np.abs(coeffs[..., mask]).max(initial=0.0)


@SETTINGS
@given(size=SIZES, seed=st.integers(0, 2**16), s=st.sampled_from([0, 1]))
def test_odd_modes_keep_their_parity(size, seed, s):
    domain, data = _data(*size, seed, odd=True)
    params = ModelParams(1.0, 0.7, 1.3, 0.4, s)

    def check(rows):
        for row in rows:
            assert _even_part(domain, row) <= 1e-14 * np.abs(row).max()

    uttt, f, _ = nonlinear_terms(domain, params, *data)
    check([uttt, f])
    traj = _march(domain, data, params)
    check([getattr(traj, name) for name in ROWS + ("forcing",)])
    phi, _ = _picard(domain, data, params, np.inf)
    check([getattr(phi, name) for name in ROWS])
