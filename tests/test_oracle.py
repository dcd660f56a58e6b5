"""Extended-precision oracle for the exact product projection.

A product of two sine (or two cosine) series is a cosine polynomial whose
coefficients are the convolution of theirs; its sine coefficients follow
from the analytic integrals

    (2/L) int_0^L cos(p pi x/L) sin(j pi x/L) dx = 4j / (pi (j^2 - p^2)),  j + p odd.

Both steps are done here in mpmath at 50 digits from the float inputs taken
exactly, so the results are the exact Galerkin projections the fine-grid
routes approximate.  The route is the folded matrix
``DomainSpec._fine_project`` along each axis; in 1D the DCT route it
replaced (``_type1``, the trapezoid weights, ``_cos_to_sine``) is computed
alongside, and the folded route must be as accurate: its max-norm relative
error below 1e-14 and at most twice the DCT route's on the same case.  In
2D the factors are separable, so the exact projection is the outer product
of two 1D ones, and the folded route must be within 1e-14 of it.

The propagator table is checked the same way: mpmath's ``expm`` of each
mode's 9x9 augmented block at 50 digits, from the float dt taken exactly,
and it must be no farther from that than ``scipy.linalg.expm``.  The law,
the residual's quadratic source and the residual itself, a march and a
Picard sweep are each recomputed at 50 digits from their float inputs.
"""

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from bck_sim import model, spectral
from bck_sim.errors import NonConvergenceError
from bck_sim.linear import PropagatorTable, augmented_blocks
from bck_sim.model import ModelParams, make_compatibility_data, nonlinear_terms
from bck_sim.nonlinear import picard_apply, picard_solve, solve
from bck_sim.spectral import DomainSpec, SpectralField, evaluate, gradient, project



@pytest.fixture(autouse=True)
def _fifty_digits():
    with mp.workdps(50):
        yield


def _exact(values):
    return [mp.mpf(float(v)) for v in values]


def _convolution(a, b, sign):
    """Cosine coefficients c_0..c_2N of the product of two series with
    coefficients a_k, b_m (k, m = 1..N): sin * sin (``sign`` -1) or
    cos * cos (``sign`` +1), from 2 sin sin = cos(k-m) - cos(k+m) and
    2 cos cos = cos(k-m) + cos(k+m)."""
    n = len(a)
    half = mp.mpf(1) / 2
    c = [mp.mpf(0)] * (2 * n + 1)
    c[0] = half * mp.fdot(a, b)
    for p in range(1, n):
        c[p] = half * (mp.fdot(a[p:], b[: n - p]) + mp.fdot(a[: n - p], b[p:]))
    for p in range(2, 2 * n + 1):
        pairs = [(a[k - 1], b[p - k - 1]) for k in range(max(1, p - n), min(n, p - 1) + 1)]
        c[p] += sign * half * mp.fdot(pairs)
    return c


def _sine_coefficients(c, n):
    """Sine coefficients j = 1..n of the cosine polynomial sum_p c_p cos(p .),
    with j/(j^2 - p^2) = (1/(j - p) + 1/(j + p))/2."""
    inv = {m: mp.mpf(1) / m for m in range(-len(c), len(c) + n) if m}
    out = []
    for j in range(1, n + 1):
        ps = range(1 - j % 2, len(c), 2)
        cs = [c[p] for p in ps]
        total = mp.fdot(cs, [inv[j - p] for p in ps]) + mp.fdot(cs, [inv[j + p] for p in ps])
        out.append(2 / mp.pi * total)
    return out


def _relative_error(got, exact):
    err = max(abs(mp.mpf(float(g)) - e) for g, e in zip(got, exact))
    return float(err / max(abs(e) for e in exact))


def _dct_route(domain, samples):
    """The 1D fine projection as the DCT route computes it."""
    y = spectral._type1(samples) * domain._dct_weights
    return (domain._cos_to_sine @ y[..., None])[..., 0]


@pytest.mark.parametrize("n", [8, 64, 256])
def test_fine_projection_of_products_against_the_oracle(n):
    """Random factors with coefficients decaying like k^-1.5, smooth as the
    solver's fields.  (With unit-variance coefficients at N = 256 both
    routes err by 2-4e-14 alike: the grid values of the factors carry that
    rounding before either projection starts.)"""
    domain = DomainSpec(1, (np.pi,), n)
    rng = np.random.default_rng(n)
    a, b = rng.standard_normal((2, n)) * np.arange(1.0, n + 1) ** -1.5
    exact = _sine_coefficients(_convolution(_exact(a), _exact(b), -1), n)
    vals = evaluate(domain, "fine", np.stack([a, b]))
    samples = vals[0] * vals[1]
    folded = _relative_error(project(domain, "fine", samples), exact)
    dct = _relative_error(_dct_route(domain, samples), exact)
    assert folded < 1e-14
    assert folded <= 2.0 * dct


@pytest.mark.parametrize("n", [8, 48])
def test_fine_projection_in_2d_against_the_oracle(n):
    """Factors a1(x) a2(y) and b1(x) b2(y): the exact projection of their
    product is the outer product of the projections of a1 b1 and a2 b2.
    The coefficient tensors are the rounded outer products, which moves
    that reference by about one ulp."""
    domain = DomainSpec(2, (np.pi, 2.0), n)
    rng = np.random.default_rng(n)
    a1, a2, b1, b2 = rng.standard_normal((4, n)) * np.arange(1.0, n + 1) ** -1.5
    px, py = (
        _sine_coefficients(_convolution(_exact(a), _exact(b), -1), n)
        for a, b in ((a1, b1), (a2, b2))
    )
    exact = [x * y for x in px for y in py]
    vals = evaluate(domain, "fine", np.stack([np.outer(a1, a2), np.outer(b1, b2)]))
    assert _relative_error(project(domain, "fine", vals[0] * vals[1]).ravel(), exact) < 1e-14


def _grad(e, length):
    """Cosine coefficients of the x-derivative of a sine series on (0, L)."""
    return [x * j * mp.pi / length for j, x in enumerate(e, 1)]


def _forcing(length, params, u, ut, utt, uttt):
    """f = 2k u_tt^2 + 2k u_t u_ttt + 2s (|u_t'|^2 + u' u_tt') on (0, L),
    each product projected exactly, from coefficient lists."""
    two_k = 2 * mp.mpf(params.k)
    terms = [(two_k, _convolution(utt, utt, -1)), (two_k, _convolution(ut, uttt, -1))]
    if params.s:
        d_u, d_t, d_tt = (_grad(e, length) for e in (u, ut, utt))
        terms += [(2, _convolution(d_t, d_t, 1)), (2, _convolution(d_u, d_tt, 1))]
    c = [sum(w * t[p] for w, t in terms) for p in range(2 * len(u) + 1)]
    return _sine_coefficients(c, len(u))


@pytest.mark.parametrize("n", [8, 64])
def test_forcing_against_the_oracle(n):
    """f = 2k u_tt^2 + 2k u_t u_ttt + 2 |u_t'|^2 + 2 u' u_tt' with u_ttt
    given, each product projected exactly."""
    length = 2.0
    domain = DomainSpec(1, (length,), n)
    params = ModelParams(1.0, 0.7, 1.3, 0.2, 1)
    rng = np.random.default_rng(100 + n)
    decay = np.arange(1.0, n + 1) ** -1.5
    u, ut, utt, uttt = 1e-2 * rng.standard_normal((4, n)) * decay
    _, f, _ = nonlinear_terms(domain, params, u, ut, utt, uttt=uttt)
    exact = _forcing(length, params, *(_exact(x) for x in (u, ut, utt, uttt)))

    # the DCT route on the same grid values, summed as the kernel sums
    vals = evaluate(domain, "fine", np.stack([utt, ut, uttt]))
    (d,) = gradient(domain, "fine", np.stack([u, utt, ut]))
    products = [vals[0] * vals[0], vals[1] * vals[2], d[2] * d[2], d[0] * d[1]]
    weights = [2.0 * params.k] * 2 + [2.0] * 2
    f_dct = np.zeros(n)
    for w, p in zip(weights, products):
        f_dct += w * _dct_route(domain, p)

    folded, dct = _relative_error(f, exact), _relative_error(f_dct, exact)
    assert folded < 1e-14
    assert folded <= 2.0 * dct


@pytest.mark.parametrize("n", [8, 32])
def test_folded_matrix_entries_against_the_oracle(n):
    """M[j, i] = sum_q 4j / (pi (j^2 - q^2)) w_q c_i cos(pi q i / P) over
    j + q odd, with P = 2N, trapezoid weights w_q and the DCT-I column
    factors c_i (1 at the ends, 2 inside)."""
    domain = DomainSpec(1, (np.pi,), n)
    got = domain._fine_project
    p = 2 * n
    w = [mp.mpf(1) / (2 * p) if q in (0, p) else mp.mpf(1) / p for q in range(p + 1)]
    cos = [mp.cos(mp.pi * m / p) for m in range(2 * p)]
    worst = mp.mpf(0)
    for j in range(1, n + 1):
        qs = range(1 - j % 2, p + 1, 2)
        coef = [4 * j * w[q] / (mp.pi * (j * j - q * q)) for q in qs]
        for i in range(p + 1):
            c_i = 1 if i in (0, p) else 2
            entry = c_i * mp.fdot(coef, [cos[q * i % (2 * p)] for q in qs])
            worst = max(worst, abs(mp.mpf(float(got[j - 1, i])) - entry))
    assert float(worst) <= 4 * np.spacing(np.abs(got).max())


def _gauss_tables(domain, axis=0):
    """The sines and their derivatives along ``axis`` at the kernel's own
    Gauss nodes, taken exactly, and its weights taken exactly: rows per
    node."""
    nodes, weights = domain._gauss_rule[axis]
    length = domain.lengths[axis]
    scale = [j * mp.pi / length for j in range(1, domain.modes_per_axis + 1)]
    sines = [[mp.sin(w * mp.mpf(float(x))) for w in scale] for x in nodes]
    cosines = [[w * mp.cos(w * mp.mpf(float(x))) for w in scale] for x in nodes]
    return sines, cosines, _exact(weights)


def _eigenvalues(domain):
    length = domain.lengths[0]
    return [(j * mp.pi / length) ** 2 for j in range(1, domain.modes_per_axis + 1)]


def _law(domain, params, tables, u, ut, utt):
    """u_ttt of the law from coefficient lists: the bracket, the Gauss-node
    values and gradients, the quotient (lin - 2k u_tt^2 - 2s (u_t'^2 +
    u' u_tt')) / (1 + 2k u_t) and its Gauss projection, on the nodes and
    weights of ``_gauss_tables``."""
    sines, cosines, weights = tables
    a, b, c, k = (mp.mpf(v) for v in (params.a, params.b, params.c, params.k))
    lin = [
        -(a + b) * lj * x_tt - (c * c * lj + a * b * lj * lj) * x_t - a * c * c * lj * lj * x
        for lj, x, x_t, x_tt in zip(_eigenvalues(domain), u, ut, utt)
    ]
    quotient = []
    for sin_i, cos_i in zip(sines, cosines):
        v_tt, v_t, v_lin = (mp.fdot(sin_i, e) for e in (utt, ut, lin))
        num = v_lin - 2 * k * v_tt * v_tt
        if params.s:
            d_u, d_t, d_tt = (mp.fdot(cos_i, e) for e in (u, ut, utt))
            num -= 2 * d_t * d_t + 2 * d_u * d_tt
        quotient.append(num / (1 + 2 * k * v_t))
    weighted = [w * q for w, q in zip(weights, quotient)]
    return [
        2 / mp.mpf(domain.lengths[0]) * mp.fdot(weighted, [row[j] for row in sines])
        for j in range(domain.modes_per_axis)
    ]


@pytest.mark.parametrize("s", [0, 1])
def test_law_against_the_oracle(s):
    """u_ttt of the law (u_ttt not given) at 1D N = 8, k = 0.2 and k = 0,
    with the kernel's own Gauss nodes and weights taken exactly and
    everything else exact at 50 digits.  k = 0 runs the same law with
    factor 1 (with s = 0 too, the linear plan, whose u_ttt is the
    bracket)."""
    n, length = 8, 2.0
    domain = DomainSpec(1, (length,), n)
    rng = np.random.default_rng(200 + s)
    decay = np.arange(1.0, n + 1) ** -1.5
    # with k = 0.2, |2k u_t| reaches 0.3-0.45 on the nodes, so the quotient
    # is far from the linear law
    u, ut, utt = rng.standard_normal((3, n)) * decay
    tables = _gauss_tables(domain)
    for k in (0.2, 0.0):
        params = ModelParams(1.0, 0.7, 1.3, k, s)
        uttt, _, _ = nonlinear_terms(domain, params, u, ut, utt)
        exact = _law(domain, params, tables, *(_exact(x) for x in (u, ut, utt)))
        assert _relative_error(uttt, exact) < 1e-14


def _tensor_values(c, left, right):
    """left C right^T at 50 digits: the values of the coefficient tensor
    ``c`` (rows of mpf) on a tensor grid, from the per-axis tables."""
    inner = [[mp.fdot(row, r) for r in right] for row in c]
    columns = list(zip(*inner))
    return [[mp.fdot(a, col) for col in columns] for a in left]


def _law_2d(domain, params, u, ut, utt):
    """u_ttt of the law on a 2D domain, as ``_law`` in 1D: the quotient on
    the kernel's own Gauss tensor grid, projected with its weights."""
    (s0, d0, w0), (s1, d1, w1) = (_gauss_tables(domain, axis) for axis in (0, 1))
    a, b, c, k = (mp.mpf(v) for v in (params.a, params.b, params.c, params.k))
    lx, ly = (
        [(j * mp.pi / length) ** 2 for j in range(1, domain.modes_per_axis + 1)]
        for length in domain.lengths
    )
    lin = [
        [
            -(a + b) * (p + q) * x_tt - (c * c * (p + q) + a * b * (p + q) ** 2) * x_t
            - a * c * c * (p + q) ** 2 * x
            for q, x, x_t, x_tt in zip(ly, ru, rt, rtt)
        ]
        for p, ru, rt, rtt in zip(lx, u, ut, utt)
    ]
    v_tt, v_t, v_lin = (_tensor_values(e, s0, s1) for e in (utt, ut, lin))
    num = [[vl - 2 * k * vtt * vtt for vl, vtt in zip(*rows)] for rows in zip(v_lin, v_tt)]
    if params.s:
        for left, right in ((d0, s1), (s0, d1)):
            g_u, g_t, g_tt = (_tensor_values(e, left, right) for e in (u, ut, utt))
            num = [
                [n - 2 * x_t * x_t - 2 * x_u * x_tt for n, x_u, x_t, x_tt in zip(*rows)]
                for rows in zip(num, g_u, g_t, g_tt)
            ]
    quotient = [[n / (1 + 2 * k * x) for n, x in zip(*rows)] for rows in zip(num, v_t)]
    scale = 4 / (mp.mpf(domain.lengths[0]) * mp.mpf(domain.lengths[1]))
    # sum_y w1 q S1, then sum_x w0 S0 of that
    inner = [
        [mp.fdot([w * q for w, q in zip(w1, row)], col) for col in zip(*s1)] for row in quotient
    ]
    return [
        [scale * mp.fdot([w * s for w, s in zip(w0, col0)], col) for col in zip(*inner)]
        for col0 in zip(*s0)
    ]


def _product_2d(x, y, signs):
    """Cosine coefficients of the product of two tensor series: the 1D ones
    of ``_convolution`` along each axis, with ``signs`` per axis (-1 for
    sine factors, +1 for cosine factors)."""
    n = len(x)
    half = mp.mpf(1) / 2
    c = [[mp.mpf(0)] * (2 * n + 1) for _ in range(2 * n + 1)]
    for i in range(n):
        for m in range(n):
            row = _convolution(x[i], y[m], signs[1])
            for p, weight in ((abs(i - m), half), (i + m + 2, signs[0] * half)):
                c[p] = [a + weight * r for a, r in zip(c[p], row)]
    return c


def _grad_2d(domain, e, axis):
    """Cosine-sine coefficients of the derivative of a tensor series along
    ``axis``, with the sign pair ``_product_2d`` takes for two of them."""
    n = domain.modes_per_axis
    wave = [j * mp.pi / domain.lengths[axis] for j in range(1, n + 1)]
    coeffs = [[x * wave[i if axis == 0 else j] for j, x in enumerate(row)]
              for i, row in enumerate(e)]
    return coeffs, ((1, -1), (-1, 1))[axis]


def _sine_coefficients_2d(terms, n):
    """Sine coefficients of sum w c over the weighted cosine tensors
    (w, c) of ``terms``, taken one axis at a time."""
    c = [[sum(w * t[p][q] for w, t in terms) for q in range(2 * n + 1)] for p in range(2 * n + 1)]
    rows = [_sine_coefficients(row, n) for row in c]
    columns = [_sine_coefficients(list(col), n) for col in zip(*rows)]
    return [list(row) for row in zip(*columns)]


def _forcing_2d(domain, params, u, ut, utt, uttt):
    """f on a 2D domain, each product projected exactly (``_product_2d``)."""
    two_k = 2 * mp.mpf(params.k)
    terms = [(two_k, _product_2d(utt, utt, (-1, -1))), (two_k, _product_2d(ut, uttt, (-1, -1)))]
    if params.s:
        for axis in (0, 1):
            (d_u, signs), (d_t, _), (d_tt, _) = (_grad_2d(domain, e, axis) for e in (u, ut, utt))
            terms += [(2, _product_2d(d_t, d_t, signs)), (2, _product_2d(d_u, d_tt, signs))]
    return _sine_coefficients_2d(terms, domain.modes_per_axis)


@pytest.mark.parametrize("s", [0, 1])
def test_law_and_forcing_in_2d_against_the_oracle(s):
    """u_ttt and f of a law call (u_ttt not given) at 2D N = 8, k = 0.2,
    on (0, pi) x (0, 2): u_ttt against ``_law_2d`` on the kernel's own
    Gauss nodes and weights, f against ``_forcing_2d`` of the kernel's
    own u_ttt, each taken exactly and everything else exact at 50 digits.
    |2k u_t| peaks at 0.26 on the nodes."""
    n = 8
    domain = DomainSpec(2, (np.pi, 2.0), n)
    params = ModelParams(1.0, 0.7, 1.3, 0.2, s)
    rng = np.random.default_rng(400)
    decay = (np.asarray(domain.eigenvalue_grid) / domain.lambda0) ** -1.5
    u, ut, utt = 0.5 * rng.standard_normal((3, n, n)) * decay
    assert 0.2 < 2 * params.k * np.abs(evaluate(domain, "gauss", ut)).max() < 0.4
    uttt, f, _ = nonlinear_terms(domain, params, u, ut, utt)
    exact = [[_exact(row) for row in x] for x in (u, ut, utt, uttt)]
    law = _law_2d(domain, params, *exact[:3])
    forcing = _forcing_2d(domain, params, *exact)
    assert _relative_error(uttt.ravel(), [x for row in law for x in row]) < 1e-14
    assert _relative_error(f.ravel(), [x for row in forcing for x in row]) < 1e-14


def _quad_source_exact(domain, params, u, ut):
    """Q = k u_t^2 + s |grad u|^2, each product projected exactly, from
    coefficient lists (1D) or rows of them (2D)."""
    k = mp.mpf(params.k)
    if domain.dimension == 1:
        length = domain.lengths[0]
        c = [k * x for x in _convolution(ut, ut, -1)]
        if params.s:
            d_u = _grad(u, length)
            c = [x + y for x, y in zip(c, _convolution(d_u, d_u, 1))]
        return _sine_coefficients(c, len(u))
    terms = [(k, _product_2d(ut, ut, (-1, -1)))]
    if params.s:
        for axis in (0, 1):
            d_u, signs = _grad_2d(domain, u, axis)
            terms.append((1, _product_2d(d_u, d_u, signs)))
    return [x for row in _sine_coefficients_2d(terms, domain.modes_per_axis) for x in row]


@pytest.mark.parametrize("s", [0, 1])
@pytest.mark.parametrize("dim", [1, 2])
def test_quadratic_source_against_the_oracle(dim, s):
    """Q = k u_t^2 + s |grad u|^2 of the equation residual, as
    ``model._quad_source`` projects it, at N = 8 with k = 0.2."""
    n = 8
    domain = DomainSpec(dim, (2.0, np.pi)[:dim], n)
    params = ModelParams(1.0, 0.7, 1.3, 0.2, s)
    rng = np.random.default_rng(500 + 10 * dim + s)
    decay = (np.asarray(domain.eigenvalue_grid) / domain.lambda0) ** -1.5
    u, ut = rng.standard_normal((2,) + domain.coeff_shape) * decay
    got = model._quad_source(domain, params, u, ut)
    exact = _quad_source_exact(
        domain, params, *((_exact(x) if dim == 1 else [_exact(row) for row in x]) for x in (u, ut))
    )
    assert _relative_error(got.ravel(), exact) < 1e-14


def test_equation_residual_against_the_oracle():
    """``pde_residual_series`` on ten steps of ``nonlinear-small``'s march
    (1D N = 8 on (0, pi), a = b = c = 1, k = 0.2, s = 1, mode 1 at 1e-3
    from rest, dt = 1e-3), against the same centered differences at 50
    digits, the float series and sample times taken exactly.  The column
    divides second differences of Q by dt^2, so it keeps only about six
    digits: the measured worst entry errs by 1.2e-6 relative (mean
    5.9e-7), and the bound is 2.5 times that."""
    n, dt, steps = 8, 1e-3, 10
    domain = DomainSpec(1, (np.pi,), n)
    params = ModelParams(1.0, 1.0, 1.0, 0.2, 1)
    zero = SpectralField.zeros(domain)
    start = SpectralField.single_mode(domain, (1,), 1e-3)
    traj = solve(make_compatibility_data(start, zero, zero, params), params, steps * dt, dt)
    got = model.pde_residual_series(domain, params, traj.t_grid, traj.u, traj.ut, traj.utt)

    lam = _eigenvalues(domain)
    a, b, c = (mp.mpf(v) for v in (params.a, params.b, params.c))
    rows = [[_exact(getattr(traj, name)[i]) for name in ("u", "ut", "utt")]
            for i in range(steps + 1)]
    g = [[z + b * lj * v + c * c * lj * y for lj, y, v, z in zip(lam, *row)] for row in rows]
    q = [_quad_source_exact(domain, params, row[0], row[1]) for row in rows]
    t = _exact(traj.t_grid)

    def norm(x):
        return mp.sqrt(mp.fdot(x, x))

    worst = 0.0
    for i in range(1, steps):
        h = (t[i + 1] - t[i - 1]) / 2
        diff = [-a * lj * x for lj, x in zip(lam, g[i])]
        dot = [(x - y) / (2 * h) for x, y in zip(g[i + 1], g[i - 1])]
        ddot = [(x - 2 * y + z) / (h * h) for x, y, z in zip(q[i + 1], q[i], q[i - 1])]
        resid = [x - y - z for x, y, z in zip(diff, dot, ddot)]
        exact = norm(resid) / max(norm(diff), norm(dot), norm(ddot))
        worst = max(worst, float(abs(mp.mpf(float(got[i - 1])) - exact) / exact))
    assert worst < 3e-6


def _propagator(params, lam, h):
    """exp(h A), h phi1(h A) e3 and h^2 phi2(h A) e3 of the mode with
    eigenvalue ``lam``, A = [[0, 1, 0], [-c^2 lam, -b lam, 1], [0, 0, -a lam]],
    from the augmented block [[A, I, 0], [0, 0, I], [0, 0, 0]] h."""
    a, b, c = (mp.mpf(v) for v in (params.a, params.b, params.c))
    aug = mp.zeros(9, 9)
    for i, j, a_ij in ((0, 1, 1), (1, 0, -c * c * lam), (1, 1, -b * lam), (1, 2, 1),
                       (2, 2, -a * lam)):
        aug[i, j] = h * a_ij
    for i in range(3):
        aug[i, i + 3] = aug[i + 3, i + 6] = h
    full = mp.expm(aug)
    return (
        [[full[i, j] for j in range(3)] for i in range(3)],
        [full[i, 5] for i in range(3)],
        [full[i, 8] for i in range(3)],
    )


_TABLE_CASES = {
    # a = b = c = 1 on (0, pi), so lam_j = j^2 and mode 2 is critically
    # damped (b^2 lam = 4 c^2); dt = 1e-7 puts dt lam below 1e-4 for every
    # mode, where phi2's entries are about dt^3 / 6
    "1d-n8-dt1e-3": (DomainSpec(1, (np.pi,), 8), ModelParams(1.0, 1.0, 1.0, 0.0, 0), 1e-3),
    "1d-n8-dt1e-7": (DomainSpec(1, (np.pi,), 8), ModelParams(1.0, 1.0, 1.0, 0.0, 0), 1e-7),
    # the march oracle's table: dt lam from 0.025 to 1.58, Pade orders 5 to 9
    "1d-n8-march": (DomainSpec(1, (2.0,), 8), ModelParams(1.0, 0.7, 1.3, 0.2, 1), 1e-2),
    # sim-2d's grid, six distinct eigenvalues evenly spaced in rank from 2 to
    # 4608: dt lam from 0.002 to 4.6, where order 13 runs with one squaring
    "2d-n48": (DomainSpec(2, (np.pi, np.pi), 48), ModelParams(1.0, 1.0, 1.0, 0.2, 1), 1e-3),
}


@pytest.mark.parametrize("case", sorted(_TABLE_CASES))
def test_propagator_table_against_the_oracle(case):
    """exp(dt A), dt phi1(dt A) e3 and dt^2 phi2(dt A) e3 of each checked
    mode (every mode in 1D, six in 2D).  Each block's error is taken
    relative to its largest entry and must be below 1e-14; summed over the
    checked modes, the table is no farther from the oracle than
    ``scipy.linalg.expm`` of the same augmented blocks."""
    domain, params, dt = _TABLE_CASES[case]
    table = PropagatorTable.build(domain, params, dt)
    lam = np.asarray(domain.eigenvalue_grid).ravel()
    distinct = np.unique(lam)
    if domain.dimension == 2:
        distinct = distinct[np.linspace(0, distinct.size - 1, 6).astype(int)]
    reference = scipy_expm(augmented_blocks(distinct, params, dt))
    error = {"table": 0.0, "scipy": 0.0}
    for value, ref in zip(distinct, reference):
        m = int(np.flatnonzero(lam == value)[0])
        full, phi1, phi2 = _propagator(params, mp.mpf(float(value)), mp.mpf(dt))
        exact = ([x for row in full for x in row], phi1, phi2)
        got = (table.propagator[m].ravel(), table.phi1[:, m], table.phi2[:, m])
        theirs = (ref[:3, :3].ravel(), ref[:3, 5], ref[:3, 8])
        for mine, other, want in zip(got, theirs, exact):
            err = _relative_error(mine, want)
            assert err < 1e-14, (case, m)
            error["table"] += err
            error["scipy"] += _relative_error(other, want)
    assert error["table"] <= error["scipy"], error


TRAJECTORY_FIELDS = ("u", "ut", "utt", "uttt")


def _march(domain, params, dt, steps, u, ut, utt, sweeps):
    """The march of ``nonlinear._bind_step`` at 50 digits: the law and f at
    t = 0, then per step base = E X - P1 f on the semigroup data X = (u,
    u_t, wave part), and per sweep u_tt from inverting the wave part, the
    law and f there, and on every sweep but the last the candidate
    base + P2 (f - f') / dt.  Returns the rows (u, u_t, u_tt, u_ttt, f) of
    every sample."""
    lam = _eigenvalues(domain)
    b, c = mp.mpf(params.b), mp.mpf(params.c)
    h = mp.mpf(dt)
    blocks = [_propagator(params, lj, h) for lj in lam]
    tables = _gauss_tables(domain)
    length = domain.lengths[0]

    def evaluate_at(x):
        u, ut, wave = x
        utt = [w - b * lj * v - c * c * lj * y for lj, y, v, w in zip(lam, u, ut, wave)]
        uttt = _law(domain, params, tables, u, ut, utt)
        return utt, uttt, _forcing(length, params, u, ut, utt, uttt)

    wave = [z + b * lj * v + c * c * lj * y for lj, y, v, z in zip(lam, u, ut, utt)]
    x = [u, ut, wave]
    _, uttt, f = evaluate_at(x)
    rows = [(u, ut, utt, uttt, f)]
    for _ in range(steps):
        base = [
            [mp.fdot(full[i], [x[0][m], x[1][m], x[2][m]]) - phi1[i] * f[m]
             for m, (full, phi1, _) in enumerate(blocks)]
            for i in range(3)
        ]
        x = base
        for sweep in range(sweeps + 1):
            utt, uttt, f_next = evaluate_at(x)
            if sweep < sweeps:
                x = [
                    [base[i][m] + phi2[i] * (f[m] - f_next[m]) / h
                     for m, (_, _, phi2) in enumerate(blocks)]
                    for i in range(3)
                ]
        f = f_next
        rows.append((x[0], x[1], utt, uttt, f))
    return rows


def test_march_against_the_oracle():
    """Ten steps of ``solve`` at 1D N = 8, k = 0.2, s = 1, dt = 1e-2 with
    two substep sweeps, every row of u, u_t, u_tt, u_ttt and f, the first
    sample's u_ttt and f included, against the same scheme at 50 digits
    (``_march``), from the float data taken exactly.  |2k u_t| stays
    between 0.1 and 0.4 on the Gauss nodes (0.30-0.39), so the law is far
    from linear.  Each row's error is taken relative to its largest entry;
    the measured worst rows are 4.3e-16 (u), 1.5e-15 (u_t), 1.5e-15
    (u_tt), 1.9e-14 (u_ttt, whose bracket cancels terms up to lam^2 times
    larger) and 2.2e-15 (f), with one BLAS thread or the default; the
    bounds sit 2.3, 3.3, 3.3, 5.1 and 4.6 times above them.  They were
    set when the worst rows were larger, and the rows have moved between
    measurements, so the bounds are kept."""
    n, length, dt, steps = 8, 2.0, 1e-2, 10
    domain = DomainSpec(1, (length,), n)
    params = ModelParams(1.0, 0.7, 1.3, 0.2, 1)
    rng = np.random.default_rng(300)
    u, ut, utt = 2.0 * rng.standard_normal((3, n)) * np.arange(1.0, n + 1) ** -1.5
    fields = [SpectralField(domain, x) for x in (u, ut, utt)]
    traj = solve(make_compatibility_data(*fields, params), params, steps * dt, dt)
    peaks = 2 * params.k * np.abs(evaluate(domain, "gauss", traj.ut)).max(axis=1)
    assert 0.1 < peaks.min() and peaks.max() < 0.4
    exact = _march(domain, params, dt, steps, *(_exact(x) for x in (u, ut, utt)), sweeps=2)
    bounds = {"u": 1e-15, "ut": 5e-15, "utt": 5e-15, "uttt": 1e-13, "forcing": 1e-14}
    for j, (name, bound) in enumerate(bounds.items()):
        worst = max(_relative_error(getattr(traj, name)[i], row[j]) for i, row in enumerate(exact))
        assert worst < bound, name


def _error_of_sum(got, terms):
    """max |got - sum of the terms| over the entries, relative to the
    largest term: the rounding a float sum of these terms cannot avoid."""
    err = max(abs(mp.mpf(float(g)) - mp.fsum(t)) for g, t in zip(got, terms))
    return float(err / max(abs(x) for t in terms for x in t))


def test_picard_sweep_against_the_oracle():
    """One ``picard_apply`` sweep at 1D N = 8, k = 0.2, s = 1, dt = 1e-2
    over 20 steps, with f frozen along a march trajectory phi, against the
    same sweep at 50 digits: f of phi's stored rows taken exactly, the
    Duhamel recurrence E U - P1 f_n + P2 (f_n - f_{n+1}) / dt, u_tt from
    inverting the wave part and u_ttt as the bracket minus f.  Every
    row's error must be below 1e-14 relative: for u and u_t relative to
    the row's largest entry, for u_tt and u_ttt to the largest term of
    their sums, which cancel (relative to the row's largest entry, u_ttt
    errs by up to 9e-14)."""
    n, length, dt, steps = 8, 2.0, 1e-2, 20
    domain = DomainSpec(1, (length,), n)
    params = ModelParams(1.0, 0.7, 1.3, 0.2, 1)
    rng = np.random.default_rng(600)
    fields = [
        SpectralField(domain, x)
        for x in 0.5 * rng.standard_normal((3, n)) * np.arange(1.0, n + 1) ** -1.5
    ]
    initial = make_compatibility_data(*fields, params)
    phi = solve(initial, params, steps * dt, dt)
    got = picard_apply(phi, initial, params)

    lam = _eigenvalues(domain)
    a, b, c = (mp.mpf(v) for v in (params.a, params.b, params.c))
    h = mp.mpf(dt)
    blocks = [_propagator(params, lj, h) for lj in lam]
    f = [
        _forcing(length, params, *(_exact(getattr(phi, name)[i]) for name in TRAJECTORY_FIELDS))
        for i in range(steps + 1)
    ]
    u, ut, utt = (_exact(x.coeffs) for x in fields)
    x = [u, ut, [z + b * lj * v + c * c * lj * y for lj, y, v, z in zip(lam, u, ut, utt)]]
    for i in range(steps + 1):
        if i:
            x = [
                [mp.fdot(full[r], [x[0][m], x[1][m], x[2][m]]) - phi1[r] * f[i - 1][m]
                 + phi2[r] * (f[i - 1][m] - f[i][m]) / h
                 for m, (full, phi1, phi2) in enumerate(blocks)]
                for r in range(3)
            ]
        utt = [(w, -b * lj * v, -c * c * lj * y) for lj, y, v, w in zip(lam, *x)]
        uttt = [
            (-(a + b) * lj * mp.fsum(z), -(c * c * lj + a * b * lj * lj) * v,
             -a * c * c * lj * lj * y, -g)
            for lj, y, v, z, g in zip(lam, x[0], x[1], utt, f[i])
        ]
        errors = {
            "u": _relative_error(got.u[i], x[0]),
            "ut": _relative_error(got.ut[i], x[1]),
            "utt": _error_of_sum(got.utt[i], utt),
            "uttt": _error_of_sum(got.uttt[i], uttt),
        }
        assert max(errors.values()) < 1e-14, (i, errors)


def _linear_rows(lam, params, blocks, h, fields, f):
    """The rows (u, u_t, u_tt, u_ttt) of ``linear_trajectory`` at 50 digits
    from the initial fields, under the forcing rows f: the Duhamel
    recurrence on the semigroup data, u_tt from inverting the wave part
    (its given start at sample 0) and u_ttt as the bracket minus f."""
    a, b, c = (mp.mpf(v) for v in (params.a, params.b, params.c))
    u, ut, utt = fields
    x = [u, ut, [z + b * lj * v + c * c * lj * y for lj, y, v, z in zip(lam, u, ut, utt)]]
    rows = []
    for i, g in enumerate(f):
        if i:
            x = [
                [mp.fdot(full[r], [x[0][m], x[1][m], x[2][m]]) - phi1[r] * f[i - 1][m]
                 + phi2[r] * (f[i - 1][m] - g[m]) / h
                 for m, (full, phi1, phi2) in enumerate(blocks)]
                for r in range(3)
            ]
            utt = [w - b * lj * v - c * c * lj * y for lj, y, v, w in zip(lam, *x)]
        uttt = [
            -(a + b) * lj * z - (c * c * lj + a * b * lj * lj) * v - a * c * c * lj * lj * y - gm
            for lj, y, v, z, gm in zip(lam, x[0], x[1], utt, g)
        ]
        rows.append((x[0], x[1], utt, uttt))
    return rows


def _v_norm(lam, length, h, rows):
    """``nonlinear.v_norm`` at 50 digits: its seven sums over the
    derivatives u .. u_ttt and the end-one-sided differences of u_ttt, with
    the trapezoid rule in time."""
    series = [[row[i] for row in rows] for i in range(4)]
    uttt = series[3]

    def slope(i, j):
        return [(q - p) / ((j - i) * h) for p, q in zip(uttt[i], uttt[j])]

    last = len(uttt) - 1
    series.append([slope(max(i - 1, 0), min(i + 1, last)) for i in range(last + 1)])
    weight = mp.mpf(length) / 2

    def sq(i, power):
        return [weight * mp.fsum(lj**power * x * x for lj, x in zip(lam, r)) for r in series[i]]

    def integral(values):
        return h * (mp.fsum(values) - (values[0] + values[-1]) / 2)

    def h_time(depth, power):
        return mp.fsum(integral(sq(i, power)) for i in range(depth + 1))

    def w_inf(depth, power):
        roots = [[mp.sqrt(v) for v in sq(i, power)] for i in range(depth + 1)]
        return max(mp.fsum(col) for col in zip(*roots)) ** 2

    total = (max(sq(0, 4)) + h_time(1, 4) + w_inf(2, 3) + h_time(2, 3)
             + w_inf(3, 1) + h_time(3, 2) + h_time(4, 0))
    return mp.sqrt(total)


def test_picard_ratios_against_the_oracle():
    """Four ``picard_solve`` sweeps on the data of the sweep oracle above
    (T = 0.2), which do not reach tol = 1e-300, so the NonConvergenceError
    carries their increments and ratios.  The same map is iterated at 50
    digits from the exact homogeneous start (``_linear_rows`` with f = 0),
    f of each iterate by ``_forcing``, as is each ``v_norm`` increment
    (``_v_norm``).  Increments 4.9e3, 7.2e2, 1.1e2 and 1.7e1 and ratios
    0.147, 0.153 and 0.158 lie far above rounding, and the ratios stay
    below 1: the map contracts.  Each sweep's difference is smaller
    against the iterate, so the relative errors grow per sweep: measured
    5.2e-17, 4.5e-16, 3.0e-14 and 2.8e-13 for the increments, 4.7e-16,
    3.0e-14 and 2.5e-13 for the ratios; each bound is 3 times its
    error."""
    n, length, dt, steps, sweeps = 8, 2.0, 1e-2, 20, 4
    domain = DomainSpec(1, (length,), n)
    params = ModelParams(1.0, 0.7, 1.3, 0.2, 1)
    rng = np.random.default_rng(600)
    fields = [
        SpectralField(domain, x)
        for x in 0.5 * rng.standard_normal((3, n)) * np.arange(1.0, n + 1) ** -1.5
    ]
    initial = make_compatibility_data(*fields, params)
    with pytest.raises(NonConvergenceError) as info:
        picard_solve(initial, params, steps * dt, dt, tol=1e-300, max_iter=sweeps)
    got = info.value

    lam = _eigenvalues(domain)
    h = mp.mpf(dt)
    blocks = [_propagator(params, lj, h) for lj in lam]
    start = [_exact(x.coeffs) for x in fields]
    phi = _linear_rows(lam, params, blocks, h, start, [[0] * n] * (steps + 1))
    increments = []
    for _ in range(sweeps):
        f = [_forcing(length, params, *row) for row in phi]
        nxt = _linear_rows(lam, params, blocks, h, start, f)
        diff = [[[p - q for p, q in zip(x, y)] for x, y in zip(*rows)] for rows in zip(nxt, phi)]
        increments.append(_v_norm(lam, length, h, diff))
        phi = nxt
    ratios = [q / p for p, q in zip(increments, increments[1:])]
    assert max(ratios) < 1
    assert len(got.increments) == sweeps and len(got.ratios) == sweeps - 1
    for measured, exact, bounds in (
        (got.increments, increments, (1.6e-16, 1.4e-15, 9e-14, 8.4e-13)),
        (got.ratios, ratios, (1.4e-15, 9e-14, 7.5e-13)),
    ):
        errors = [float(abs(mp.mpf(g) - e) / e) for g, e in zip(measured, exact)]
        assert all(e < bound for e, bound in zip(errors, bounds)), errors
