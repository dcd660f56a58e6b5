"""Tests for the sine-basis spectral calculus."""

import math

import numpy as np
import pytest
from scipy import fft as scipy_fft

from bck_sim.spectral import (
    DomainSpec,
    SpectralField,
    _collocation_coefficients,
    _type1,
    evaluate,
    gradient_dot,
    grid_extremes,
    grid_values,
    l2_norm,
    product_collocation,
    product_dealiased,
    project,
    sobolev_norm,
    sq_norm,
    to_grid,
)


def _domain_1d(n=8, length=math.pi, quad=None):
    return DomainSpec(1, (length,), n, quad)


def _random_field(domain, rng, scale=1.0):
    return SpectralField(domain, scale * rng.standard_normal(domain.coeff_shape))


# ---------------------------------------------------------------------------
# domain and eigenvalues
# ---------------------------------------------------------------------------


def test_eigenvalues_unit_interval_pi():
    dom = _domain_1d(n=3)
    np.testing.assert_allclose(dom.eigenvalue_grid, [1.0, 4.0, 9.0], rtol=0, atol=1e-12)


def test_eigenvalue_lowest_2d_square():
    dom = DomainSpec(2, (math.pi, math.pi), 4)
    assert abs(dom.lambda0 - 2.0) < 1e-12
    assert abs(dom.eigenvalue_grid.min() - 2.0) < 1e-12


def test_eigenvalue_length_two():
    dom = DomainSpec(1, (2.0,), 1)
    assert abs(dom.lambda0 - (math.pi / 2.0) ** 2) < 1e-12


def test_quadrature_default_is_three_halves():
    for n in (1, 2, 7, 8, 33):
        dom = _domain_1d(n=n)
        assert dom.quadrature_points_per_axis == math.ceil(3 * n / 2)


def test_domain_validation():
    with pytest.raises(ValueError):
        DomainSpec(3, (1.0, 1.0, 1.0), 4)
    with pytest.raises(ValueError):
        DomainSpec(1, (-1.0,), 4)
    with pytest.raises(ValueError):
        DomainSpec(1, (1.0, 2.0), 4)
    with pytest.raises(ValueError):
        DomainSpec(1, (1.0,), 0)
    with pytest.raises(ValueError):
        DomainSpec(1, (1.0,), 8, 8)  # below ceil(3N/2) = 12


def test_field_shape_validation():
    dom = _domain_1d(n=4)
    with pytest.raises(ValueError):
        SpectralField(dom, np.zeros(5))
    with pytest.raises(ValueError):
        SpectralField(dom, np.array([np.nan, 0.0, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# diagonal operators and norms
# ---------------------------------------------------------------------------


def test_sobolev_norm_zero_field():
    dom = _domain_1d()
    assert sobolev_norm(SpectralField.zeros(dom), 2.0) == 0.0


def test_sobolev_norm_lowest_mode():
    dom = _domain_1d()
    u = SpectralField.single_mode(dom, 1, 1.0)
    expected = math.sqrt(math.pi / 2.0)
    assert abs(l2_norm(u) - expected) < 1e-12
    # lambda_1 = 1 on (0, pi), so every Sobolev order gives the same value
    assert abs(sobolev_norm(u, 2.0) - expected) < 1e-12


def test_sobolev_norm_via_fractional_power():
    """||A^(s/2) u|| is the L2 norm of the coefficients scaled by
    lambda^(s/2), A^(s/2) acting diagonally."""
    rng = np.random.default_rng(13)
    dom = _domain_1d()
    u = _random_field(dom, rng)
    for s in (0.5, 1.0, 3.0, 4.0):
        direct = sobolev_norm(u, s)
        via_power = l2_norm(SpectralField(dom, u.coeffs * dom.eigenvalue_grid ** (s / 2.0)))
        assert abs(direct - via_power) < 1e-12 * max(1.0, direct)


def test_sq_norm_of_a_stack_is_the_norm_of_each_member():
    rng = np.random.default_rng(19)
    for dom in (_domain_1d(), DomainSpec(2, (math.pi, 1.3), 5)):
        stack = rng.standard_normal((2, 3) + dom.coeff_shape)
        for power in (0, 1, 3):
            got = sq_norm(dom, stack, power)
            assert got.shape == (2, 3)
            for i, j in np.ndindex(2, 3):
                assert got[i, j] == sq_norm(dom, stack[i, j], power)
                field = SpectralField(dom, stack[i, j])
                assert math.sqrt(got[i, j]) == sobolev_norm(field, power)


def test_poincare_chain():
    rng = np.random.default_rng(14)
    dom = DomainSpec(1, (2.0,), 8)  # lambda0 = (pi/2)^2 != 1
    lam0 = dom.lambda0
    for _ in range(20):
        u = _random_field(dom, rng)
        for s in (1.0, 2.0, 4.0):
            assert l2_norm(u) <= lam0 ** (-s / 2.0) * sobolev_norm(u, s) * (1 + 1e-12)
    # equality exactly on the lowest mode
    u = SpectralField.single_mode(dom, 1, 0.7)
    for s in (1.0, 2.0, 4.0):
        lhs = l2_norm(u)
        rhs = lam0 ** (-s / 2.0) * sobolev_norm(u, s)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, lhs)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dim", [1, 2])
def test_collocation_callers_build_no_gauss_rule(dim):
    """The matrices are built per grid, so sampling the collocation grid
    never computes the Gauss-Legendre rule, and the matrices of a grid do
    not depend on which grids were built before."""
    dom = DomainSpec(dim, (math.pi,) * dim, 64 if dim == 1 else 16)
    u = SpectralField(dom, np.random.default_rng(dim).standard_normal(dom.coeff_shape))
    to_grid(u)
    assert "_gauss_rule" not in dom.__dict__
    assert set(dom._grid_matrices) == {"collocation"}
    other = DomainSpec(dim, (math.pi,) * dim, dom.modes_per_axis)
    for grid in ("gauss", "fine", "collocation"):
        for mine, theirs in zip(dom._grid_matrices[grid], other._grid_matrices[grid]):
            for a, b in zip(mine or (), theirs or ()):
                assert a.tobytes() == b.tobytes()
    with pytest.raises(KeyError):
        dom._grid_matrices["chebyshev"]


def test_to_grid_matches_direct_evaluation():
    dom = _domain_1d(n=6)
    u = SpectralField.single_mode(dom, 3, 0.5)
    grid = to_grid(u)
    x = dom.grid_axes[0]
    assert grid.shape == dom.grid_shape
    np.testing.assert_allclose(grid, 0.5 * np.sin(3 * x), rtol=0, atol=1e-12)
    # 2D, on the default grid and on 20 nodes per axis
    dom = DomainSpec(2, (math.pi, 2.0), 6)
    u = SpectralField.single_mode(dom, (3, 2), 0.5)
    for points in (None, 20):
        m = dom.quadrature_points_per_axis if points is None else points
        x = np.arange(1, m + 1) * (math.pi / (m + 1))
        y = np.arange(1, m + 1) * (2.0 / (m + 1))
        want = 0.5 * np.sin(3 * x)[:, None] * np.sin(2 * np.pi * y / 2.0)[None, :]
        np.testing.assert_allclose(grid_values(dom, u.coeffs, points), want, rtol=0, atol=1e-12)
    with pytest.raises(ValueError):
        grid_values(dom, u.coeffs, points=5)


def test_transform_round_trip():
    rng = np.random.default_rng(15)
    for dom in (
        _domain_1d(),
        _domain_1d(quad=20),
        DomainSpec(2, (math.pi, 1.3), 5),
        DomainSpec(2, (math.pi, 1.3), 5, 11),
    ):
        u = _random_field(dom, rng)
        back = _collocation_coefficients(dom, to_grid(u))
        np.testing.assert_allclose(back, u.coeffs, rtol=0, atol=1e-12)
        # ``points`` builds the matrices of the grid that domain would cache
        default = DomainSpec(dom.dimension, dom.lengths, dom.modes_per_axis)
        assert np.array_equal(
            grid_values(default, u.coeffs, dom.quadrature_points_per_axis), to_grid(u)
        )


def test_collocation_inverse_truncates_high_content():
    dom = _domain_1d(n=8)  # grid has 12 interior points
    x = dom.grid_axes[0]
    samples = np.sin(9 * x)  # mode N + 1, resolved by the grid but not retained
    out = _collocation_coefficients(dom, samples)
    np.testing.assert_allclose(out, 0.0, atol=1e-12)
    # 2D on 14 nodes per axis: modes (9, 2) and (3, 13) drop, (3, 2) stays
    dom = DomainSpec(2, (math.pi, math.pi), 8, 14)
    x = dom.grid_axes[0]
    samples = np.outer(np.sin(9 * x) + 0.25 * np.sin(3 * x), np.sin(2 * x))
    samples += np.outer(np.sin(3 * x), np.sin(13 * x))
    want = np.zeros(dom.coeff_shape)
    want[2, 1] = 0.25
    np.testing.assert_allclose(_collocation_coefficients(dom, samples), want, atol=1e-12)


@pytest.mark.parametrize("dim,n", [(1, 8), (1, 64), (2, 16), (2, 48)])
def test_grid_extremes_are_the_values_the_guard_sees(dim, n):
    """Linf_ut and guard_min are reduced from the sine-matrix values that
    the degeneracy guard evaluates u_t with, bit for bit."""
    rng = np.random.default_rng(dim * 100 + n)
    dom = DomainSpec(dim, (math.pi, 2.0)[:dim], n)
    coeffs = rng.standard_normal((6,) + dom.coeff_shape) / (1.0 + dom.eigenvalue_grid)
    vals = np.stack([evaluate(dom, "collocation", c) for c in coeffs]).reshape(6, -1)
    low, peak = grid_extremes(dom, coeffs)
    assert np.array_equal(low, vals.min(axis=1))
    assert np.array_equal(peak, np.abs(vals).max(axis=1))


def test_parseval_grid_quadrature():
    # quadrature oracle: rectangle rule on the interior grid (exact for
    # products of resolved sine polynomials since u^2 vanishes on the boundary)
    rng = np.random.default_rng(16)
    for dom in (_domain_1d(), DomainSpec(2, (math.pi, 2.0), 6)):
        u = _random_field(dom, rng)
        grid = to_grid(u)
        cell = math.prod(L / (dom.quadrature_points_per_axis + 1) for L in dom.lengths)
        quad = np.sum(grid**2) * cell
        exact = l2_norm(u) ** 2
        assert abs(quad - exact) < 1e-10 * exact


def test_grid_max_abs_single_mode():
    dom = _domain_1d(n=8)
    u = SpectralField.single_mode(dom, 1, 2.0)
    x = dom.grid_axes[0]
    assert abs(np.abs(grid_values(dom, u.coeffs)).max() - 2.0 * np.max(np.sin(x))) < 1e-13


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------


def test_product_with_zero_is_zero():
    rng = np.random.default_rng(17)
    dom = _domain_1d()
    u = _random_field(dom, rng)
    z = SpectralField.zeros(dom)
    np.testing.assert_array_equal(product_dealiased(u, z).coeffs, 0.0)
    np.testing.assert_array_equal(gradient_dot(u, z).coeffs, 0.0)


def test_product_commutes_exactly():
    rng = np.random.default_rng(18)
    dom = _domain_1d()
    u = _random_field(dom, rng)
    v = _random_field(dom, rng)
    np.testing.assert_array_equal(
        product_dealiased(u, v).coeffs, product_dealiased(v, u).coeffs
    )


def test_product_sin_squared_frozen_oracle():
    # expected values from scipy.integrate.quad of sin(x)^2 sin(kx) on (0, pi),
    # equal to 8/(pi k (4 - k^2)) for odd k and 0 for even k
    expected = np.array([
        0.8488263631567752,
        0.0,
        -0.16976527263135505,
        0.0,
        -0.02425218180447929,
        0.0,
        -0.008084060601493095,
        0.0,
    ])
    dom = _domain_1d(n=8)
    u = SpectralField.single_mode(dom, 1, 1.0)
    out = product_dealiased(u, u)
    np.testing.assert_allclose(out.coeffs, expected, rtol=0, atol=1e-12)


def test_gradient_dot_sin_frozen_oracle():
    # expected values from scipy.integrate.quad of cos(x)^2 sin(kx) on (0, pi)
    expected = np.array([
        0.4244131815783876,
        0.0,
        0.5941784542097425,
        0.0,
        0.27890009075151184,
        0.0,
        0.1899754241350877,
        0.0,
    ])
    dom = _domain_1d(n=8)
    u = SpectralField.single_mode(dom, 1, 1.0)
    out = gradient_dot(u, u)
    np.testing.assert_allclose(out.coeffs, expected, rtol=0, atol=1e-12)


def _sine_pair_projection(m, n, j):
    """Exact projection of sin(m t) sin(n t) on (0, pi) onto sin(j t).

    Independent closed form: the product is (cos((m-n)t) - cos((m+n)t)) / 2 and
    (2/pi) <cos(p t), sin(j t)> = 4 j / (pi (j^2 - p^2)) for odd j + p.
    """

    def cos_coeff(p):
        if (j + p) % 2 == 0:
            return 0.0
        return 4.0 * j / (math.pi * (j * j - p * p))

    return 0.5 * cos_coeff(abs(m - n)) - 0.5 * cos_coeff(m + n)


def test_dealiasing_exact_for_mode_pairs():
    dom = _domain_1d(n=8)
    for m in range(1, 9):
        for n in range(1, 9 - m + 1):
            if m + n > 8:
                continue
            f = SpectralField.single_mode(dom, m, 1.0)
            g = SpectralField.single_mode(dom, n, 1.0)
            out = product_dealiased(f, g)
            expected = np.array([_sine_pair_projection(m, n, j) for j in range(1, 9)])
            np.testing.assert_allclose(out.coeffs, expected, rtol=0, atol=1e-12)


def test_product_bilinearity():
    rng = np.random.default_rng(19)
    dom = _domain_1d()
    u = _random_field(dom, rng)
    v = _random_field(dom, rng)
    scaled = product_dealiased(2.5 * u, v)
    np.testing.assert_allclose(
        scaled.coeffs, 2.5 * product_dealiased(u, v).coeffs, rtol=1e-12, atol=1e-14
    )


def test_product_2d_against_quadrature_oracle():
    dom = DomainSpec(2, (math.pi, 1.7), 4)
    rng = np.random.default_rng(20)
    f = _random_field(dom, rng)
    g = _random_field(dom, rng)
    out = product_dealiased(f, g)

    # independent tensor Gauss-Legendre oracle with explicit sine sums
    nodes, weights = np.polynomial.legendre.leggauss(120)

    def axis_rule(length):
        return (nodes + 1.0) * length / 2.0, weights * length / 2.0

    xs, wx = axis_rule(dom.lengths[0])
    ys, wy = axis_rule(dom.lengths[1])
    kx = np.arange(1, 5) * np.pi / dom.lengths[0]
    ky = np.arange(1, 5) * np.pi / dom.lengths[1]
    sx = np.sin(np.outer(xs, kx))
    sy = np.sin(np.outer(ys, ky))
    fv = sx @ f.coeffs @ sy.T
    gv = sx @ g.coeffs @ sy.T
    h = fv * gv
    for i in range(4):
        for j in range(4):
            integrand = h * np.outer(sx[:, i], sy[:, j])
            val = wx @ integrand @ wy
            c = val * 4.0 / (dom.lengths[0] * dom.lengths[1])
            assert abs(out.coeffs[i, j] - c) < 1e-11


def test_gradient_dot_2d_against_quadrature_oracle():
    dom = DomainSpec(2, (math.pi, math.pi), 3)
    f = SpectralField.single_mode(dom, (1, 2), 1.0)
    g = SpectralField.single_mode(dom, (2, 1), 1.0)
    out = gradient_dot(f, g)

    nodes, weights = np.polynomial.legendre.leggauss(100)
    xs = (nodes + 1.0) * math.pi / 2.0
    ws = weights * math.pi / 2.0

    def grad_f(x, y, m1, m2):
        return (
            m1 * np.cos(m1 * x)[:, None] * np.sin(m2 * y)[None, :],
            m2 * np.sin(m1 * x)[:, None] * np.cos(m2 * y)[None, :],
        )

    fx, fy = grad_f(xs, xs, 1, 2)
    gx, gy = grad_f(xs, xs, 2, 1)
    h = fx * gx + fy * gy
    for i in range(3):
        for j in range(3):
            phi = np.sin((i + 1) * xs)[:, None] * np.sin((j + 1) * xs)[None, :]
            val = ws @ (h * phi) @ ws
            c = val * 4.0 / math.pi**2
            assert abs(out.coeffs[i, j] - c) < 1e-11


def test_collocation_product_exhibits_aliasing():
    dom = _domain_1d(n=8)
    u = SpectralField.single_mode(dom, 1, 1.0)
    exact = product_dealiased(u, u)
    aliased = product_collocation(u, u, points=8)
    coarse_err = np.max(np.abs(aliased.coeffs - exact.coeffs))
    assert coarse_err > 1e-4  # visibly degraded
    finer = product_collocation(u, u, points=256)
    fine_err = np.max(np.abs(finer.coeffs - exact.coeffs))
    assert fine_err < coarse_err / 100.0  # converges with the grid, not exact


# ---------------------------------------------------------------------------
# Gauss projection path
# ---------------------------------------------------------------------------


def test_gauss_projection_round_trip():
    rng = np.random.default_rng(21)
    for dom in (_domain_1d(), DomainSpec(2, (math.pi, 1.1), 4)):
        u = _random_field(dom, rng)
        back = project(dom, "gauss", evaluate(dom, "gauss", u.coeffs))
        np.testing.assert_allclose(back, u.coeffs, rtol=0, atol=1e-12)


def test_gauss_projection_of_smooth_ratio():
    # project 1/(1 + 0.02 sin x) times a resolved field; oracle is
    # scipy.integrate.quad with explicit integrand evaluation
    from scipy.integrate import quad

    dom = _domain_1d(n=8)
    u = SpectralField.single_mode(dom, 2, 1.0)
    vals = evaluate(dom, "gauss", u.coeffs) / (1.0 + 0.02 * np.sin(dom._gauss_rule[0][0]))
    out = project(dom, "gauss", vals)
    for j in range(1, 9):
        val, _ = quad(
            lambda x: np.sin(2 * x) / (1.0 + 0.02 * np.sin(x)) * np.sin(j * x),
            0.0,
            math.pi,
            epsabs=1e-13,
            epsrel=1e-13,
            limit=200,
        )
        assert abs(out[j - 1] - 2.0 / math.pi * val) < 1e-12


# ---------------------------------------------------------------------------
# type-1 transforms on numpy.fft: the bits of scipy.fft
# ---------------------------------------------------------------------------

# DCT lengths 2N+1 (N = 8, 48, 256), FFT lengths 32, 192, 1024, and
# collocation grids of ceil(3N/2) nodes (N = 8, 48, 256) for the DST-I
# oracle of the sine-matrix values.
# The DCT-I runs along one axis only, the one the fine projection folds;
# each case keeps the id of its place in the full (kind, d, n, batch) list.
TYPE1_LENGTHS = {"dct": (17, 97, 513), "dst": (12, 72, 384)}
TYPE1_CASES = [
    pytest.param(kind, d, n, batch, id=f"{kind}-{d}-{n}-batch{i}")
    for i, (kind, d, n, batch) in enumerate(
        (kind, d, n, batch)
        for kind, lengths in TYPE1_LENGTHS.items()
        for n in lengths
        for d, batch in ((1, ()), (1, (3,)), (1, (2, 3)), (2, ()), (2, (2,)))
        if not (d == 2 and n > 400 and batch)
    )
    if kind == "dst" or d == 1
]


@pytest.mark.parametrize("kind,d,n,batch", TYPE1_CASES)
def test_type1_transforms_equal_scipy_fft(kind, d, n, batch):
    """The DCT-I is ``_type1``, bit for bit scipy's.  The DST-I has no
    transform of its own: the values of N = 2n/3 modes on the n interior
    nodes are the DST-I of the zero-padded coefficients over 2^d, which
    the sine matrices give to rounding."""
    rng = np.random.default_rng(n + 7 * d + len(batch))
    axes = tuple(range(-d, 0))
    if kind == "dct":
        x = rng.standard_normal(batch + (n,) * d) * 10.0 ** rng.integers(-6, 6, size=(n,))
        ref = scipy_fft.dctn(x, type=1, axes=axes)
        got = _type1(x)
        assert np.array_equal(got, ref)
        assert got.tobytes() == ref.tobytes()  # signed zeros too
        assert got.flags.c_contiguous
        return
    modes = 2 * n // 3
    dom = DomainSpec(d, (math.pi,) * d, modes)
    assert dom.quadrature_points_per_axis == n
    x = rng.standard_normal(batch + (modes,) * d) * 10.0 ** rng.integers(-6, 6, size=(modes,))
    padded = np.zeros(batch + (n,) * d)
    padded[(...,) + (slice(0, modes),) * d] = x
    ref = scipy_fft.dstn(padded, type=1, axes=axes) / 2.0**d
    got = grid_values(dom, x)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_type1_signed_zeros_follow_scipy_fft():
    """Zero and nearly zero data (a zero-amplitude run) give exact zeros,
    whose signs reach the artifacts as "0.0" or "-0.0"."""
    x = np.zeros((2, 9))
    x[0] = -0.0
    x[1, 3] = -2.5
    ref = scipy_fft.dctn(x, type=1, axes=(-1,))
    assert _type1(x).tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# the fine projection: one folded matrix per axis
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dim,n", [(1, 8), (1, 64), (2, 12)], ids=["8", "64", "2d-12"])
def test_fine_projection_of_a_1d_stack_equals_per_row_calls(dim, n):
    """The folded matrix meets each member in its own gemv (its own gemm
    pair in 2D), so a batched projection is a loop of unbatched ones, bit
    for bit."""
    domain = DomainSpec(dim, (math.pi, 2.0)[:dim], n)
    rng = np.random.default_rng(n)
    stack = rng.standard_normal((5, 3) + (2 * n + 1,) * dim)
    got = project(domain, "fine", stack)
    for idx in np.ndindex(5, 3):
        assert got[idx].tobytes() == project(domain, "fine", stack[idx]).tobytes()
    fine = domain._fine_project
    want = (fine @ stack[..., None])[..., 0] if dim == 1 else fine @ stack @ fine.T
    assert np.array_equal(got, want)


def test_fine_projection_in_2d_is_the_folded_matrix_per_axis():
    """2D projects by the 1D folded matrix on each side, M X M^T; the
    matrix does not depend on the length, so one serves both axes."""
    domain = DomainSpec(2, (math.pi, 2.0), 12)
    rng = np.random.default_rng(3)
    stack = rng.standard_normal((4, 25, 25))
    fine = domain._fine_project
    assert fine.tobytes() == _domain_1d(12, length=0.5)._fine_project.tobytes()
    want = fine @ stack @ fine.T
    assert project(domain, "fine", stack).tobytes() == want.tobytes()
