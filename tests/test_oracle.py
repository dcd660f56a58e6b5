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
and it must be no farther from that than ``scipy.linalg.expm``.
"""

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from bck_sim import spectral
from bck_sim.linear import PropagatorTable, augmented_blocks
from bck_sim.model import ModelParams, make_compatibility_data, nonlinear_terms
from bck_sim.nonlinear import solve
from bck_sim.spectral import DomainSpec, SpectralField, evaluate, evaluate_stack, project



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
    vals, grads = evaluate_stack(
        domain, "fine", np.stack([u, utt, ut, uttt]), slice(1, 4), slice(0, 3)
    )
    vals, (d,) = vals.copy(), (grads[0].copy(),)
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


def _gauss_tables(domain):
    """The sines and their x-derivatives at the kernel's own Gauss nodes,
    taken exactly, and its weights taken exactly: rows per node."""
    nodes, weights = domain._gauss_rule[0]
    length = domain.lengths[0]
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
    the measured worst rows are 4.3e-16 (u), 1.5e-15 (u_t), 1.7e-15
    (u_tt), 4.5e-14 (u_ttt, whose bracket cancels terms up to lam^2 times
    larger) and 3.9e-15 (f); each bound is 2.2 to 3.3 times its worst
    row."""
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
