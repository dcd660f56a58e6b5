"""Property tests of the spectral array layer against independent formulas.

The grid evaluations (``evaluate`` and ``gradient``) are checked against
explicit sine/cosine sums at the grid nodes, and the exact products against dense Gauss-Legendre
quadrature of the Galerkin integrals.  Examples are drawn deterministically
so the suite stays reproducible.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bck_sim.spectral import (
    DomainSpec,
    SpectralField,
    evaluate,
    gradient,
    gradient_dot,
    product_dealiased,
)

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@st.composite
def domains(draw, max_modes=10):
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, max_modes if dim == 1 else max_modes // 2 + 1))
    lengths = tuple(draw(st.floats(0.5, 3.0)) for _ in range(dim))
    return DomainSpec(dim, lengths, n)


def _stack(domain, members, seed, batch=()):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((members,) + batch + domain.coeff_shape)


def _nodes(domain, grid):
    if grid == "fine":
        return domain._fine_axes
    if grid == "gauss":
        return tuple(x for x, _ in domain._gauss_rule)
    return domain.grid_axes


def _tables(x, length, n):
    """sin(k pi x / L) and d/dx of it at the nodes x, k = 1..n."""
    wave = np.arange(1, n + 1) * np.pi / length
    phase = x[:, None] * wave[None, :]
    return np.sin(phase), np.cos(phase) * wave


def _explicit(domain, grid, coeffs):
    """Values and gradient components as explicit sums over the modes."""
    tables = [
        _tables(x, length, domain.modes_per_axis)
        for x, length in zip(_nodes(domain, grid), domain.lengths)
    ]
    if domain.dimension == 1:
        (s, ds), = tables
        return np.einsum("jk,...k->...j", s, coeffs), (np.einsum("jk,...k->...j", ds, coeffs),)
    (sx, dsx), (sy, dsy) = tables
    sums = [np.einsum("ik,jl,...kl->...ij", a, b, coeffs) for a, b in ((sx, sy), (dsx, sy), (sx, dsy))]
    return sums[0], tuple(sums[1:])


@SETTINGS
@given(
    domain=domains(),
    grid=st.sampled_from(["fine", "gauss", "collocation"]),
    members=st.integers(1, 4),
    batch=st.sampled_from([(), (2,)]),
    seed=st.integers(0, 2**16),
)
def test_evaluate_and_gradient_match_explicit_sums(domain, grid, members, batch, seed):
    stack = _stack(domain, members, seed, batch)
    vals = evaluate(domain, grid, stack)
    # only the fine grid has derivative matrices
    grads = gradient(domain, grid, stack) if grid == "fine" else None
    want_vals, want_grads = _explicit(domain, grid, stack)
    scale = np.abs(stack).sum() * max(domain.modes_per_axis * np.pi / min(domain.lengths), 1.0)
    assert vals.shape == want_vals.shape
    assert np.max(np.abs(vals - want_vals)) <= 1e-13 * scale
    if grads is not None:
        assert len(grads) == domain.dimension
        for got, want in zip(grads, want_grads):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * scale


@SETTINGS
@given(domain=domains(), seed=st.integers(0, 2**16))
def test_products_are_symmetric(domain, seed):
    f, g = (SpectralField(domain, c) for c in _stack(domain, 2, seed))
    assert np.array_equal(gradient_dot(f, g).coeffs, gradient_dot(g, f).coeffs)
    assert np.array_equal(product_dealiased(f, g).coeffs, product_dealiased(g, f).coeffs)


def _dense_projection(domain, f, g, gradient):
    """(2/L)^d times the integral of the product against each sine mode,
    by Gauss-Legendre quadrature far beyond the degree of the integrand."""
    m = 6 * domain.modes_per_axis + 40
    nodes, weights = np.polynomial.legendre.leggauss(m)
    rules = [((nodes + 1.0) * (length / 2.0), weights * (length / 2.0)) for length in domain.lengths]
    tables = [_tables(x, length, domain.modes_per_axis) for (x, _), length in zip(rules, domain.lengths)]
    if domain.dimension == 1:
        (s, ds), = tables
        (_, w), = rules
        a, b = (ds @ f, ds @ g) if gradient else (s @ f, s @ g)
        return (2.0 / domain.lengths[0]) * (s.T @ (w * a * b))
    (sx, dsx), (sy, dsy) = tables
    (_, wx), (_, wy) = rules
    if gradient:
        pointwise = sum(
            (p @ f @ q.T) * (p @ g @ q.T) for p, q in ((dsx, sy), (sx, dsy))
        )
    else:
        pointwise = (sx @ f @ sy.T) * (sx @ g @ sy.T)
    weighted = pointwise * wx[:, None] * wy[None, :]
    return (4.0 / (domain.lengths[0] * domain.lengths[1])) * (sx.T @ weighted @ sy)


@SETTINGS
@given(domain=domains(max_modes=8), seed=st.integers(0, 2**16))
def test_exact_products_match_dense_quadrature(domain, seed):
    cf, cg = _stack(domain, 2, seed)
    f, g = SpectralField(domain, cf), SpectralField(domain, cg)
    wave = domain.modes_per_axis * np.pi / min(domain.lengths)
    scale = np.abs(cf).sum() * np.abs(cg).sum()
    got = product_dealiased(f, g).coeffs
    assert np.max(np.abs(got - _dense_projection(domain, cf, cg, False))) <= 1e-12 * scale
    got = gradient_dot(f, g).coeffs
    want = _dense_projection(domain, cf, cg, True)
    assert np.max(np.abs(got - want)) <= 1e-12 * scale * max(wave, 1.0) ** 2
