"""Model coefficients, state containers and the third-order evolution law.

The equations treated here are

    (a*laplace - d/dt)(u_tt - b*laplace(u_t) - c^2*laplace(u))
        = (k*(u_t)^2 + s*|grad u|^2)_tt

with a, b, c > 0, k >= 0 and the switch s in {0, 1} selecting the
Kuznetsov-type (s = 1) or Westervelt-type (s = 0) nonlinearity.  Expanding
the time derivatives on the right and collecting u_ttt terms yields the
quasilinear third-order form used throughout:

    (1 + 2k u_t) u_ttt = (a+b) laplace(u_tt) + c^2 laplace(u_t)
                         - a b laplace^2(u_t) - a c^2 laplace^2(u)
                         - 2k (u_tt)^2 - 2s |grad u_t|^2
                         - 2s grad(u) . grad(u_tt)

which degenerates when u_t reaches -1/(2k).  The solver therefore guards
the factor 1 + 2k u_t pointwise and aborts once |2k u_t| gets within
``eps_deg`` of one.

The quadratic forcing that the factorized first-order system sees is

    f = 2k (u_tt)^2 + 2k u_t u_ttt + 2s |grad u_t|^2 + 2s grad(u) . grad(u_tt),

obtained by differentiating the right-hand side twice in time; with it the
equation reads (a*laplace - d/dt)(u_tt - b*laplace(u_t) - c^2*laplace(u)) = f.

``nonlinear_terms`` is the one kernel behind both: it maps raw coefficient
arrays (u, u_t, u_tt), of shape batch + coeff shape for any leading batch
shape, to (u_ttt, f, guard minimum).  The Picard sweeps
(``nonlinear.picard_apply``) call it directly, and ``forcing_f`` and
``acceleration`` are thin SpectralField front ends over it; the march
calls a ``KernelPlan`` of its own, and no post-processing series calls
either.  Long batches run in blocks of ``spectral.BLOCK_BYTES``.

The wave part u_tt - b laplace(u_t) - c^2 laplace(u) is written once, in
``wave_part``, and inverted once, in ``semigroup_utt`` (the march step
runs its buffered form, same operations in the same order); the semigroup
data of ``linear``, the march, the linear energy and the equation
residual all take it from there.  The time grid of a run of length T is
written once, in ``time_grid``, and every sampled series is checked by
the one ``check_uniform_grid``.

The body is a ``KernelPlan``, bound once to a domain, params, batch shape
and degeneracy margin.  Every call returns f: the march needs the law
with f, the Picard sweeps and ``forcing_f`` f alone, and ``acceleration``
discards it.  ``nonlinear.solve`` builds one plan per march, whose bound
step calls ``step_terms`` from semigroup data at every substep sweep.  The
guard runs on one buffer of 2k u_t on the Gauss nodes and on the
collocation nodes (the Gauss half is what the law divides by), so one min
and one max per sample cover both grids; only a trip looks at the grids
apart, to report where it happened.  f is a polynomial and divides by
nothing, so the forcing-only route (u_ttt given) does not guard.

The members (u_tt, u_t, u, u_ttt) of a plan are the rows of one array,
and each grid stage contracts rows one mode axis at a time with the
products of ``spectral``'s array layer; the dimension selects only how
the products are grouped.  A 1D call at the march's sizes works on arrays
of a few dozen values, so its cost is its count of numpy calls: a fine
stage is one gemm of all rows against the sine and derivative matrices
stacked, and a call is about sixteen numpy calls at any N.  A 2D stage
works on grids of tens of thousands of values, so it costs its
arithmetic: it evaluates only the (member, derivative) pairs it reads,
nine fields on the fine grid and two on the Gauss grid, lin and u_t (for
the guard and the divisor).  The rest of the numerator, R = 2k u_tt^2 +
2s (|grad u_t|^2 + grad u . grad u_tt), is a product of two degree-N
series, so a cosine polynomial of degree <= 2N per axis, which its
samples on the fine grid determine: it is summed there from f's own
products and carried to the Gauss nodes by the exact interpolation
``DomainSpec._fine_to_gauss``.  The numerator and f are each one weighted
sum of their terms, so they round differently from the term-by-term
form, by a few 1e-16 relative (``tests/test_oracle.py``,
``tests/test_kernel.py``).

f projects each of its products on its own and weights the projections.
Summing the products first and projecting once would be cheaper, but it
rounds differently: the residual diagnostic, which divides second time
differences of Q by dt^2, amplifies that to about 1e-6 relative, and the
Picard contraction ratios move by about 1e-8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegeneracyError
from .spectral import (  # product_dealiased is re-exported for callers of this module
    SpectralField,
    evaluate,
    gradient,
    gradient_product,
    product_dealiased,
    project,
    sample_blocks,
    sq_norm,
)

__all__ = [
    "DEFAULT_EPS_DEG",
    "ModelParams",
    "PhysicalParams",
    "EvolutionState",
    "derive_params",
    "check_degeneracy_guard",
    "degeneracy_guard",
    "linear_bracket",
    "wave_part",
    "semigroup_utt",
    "time_grid",
    "check_uniform_grid",
    "nonlinear_terms",
    "KernelPlan",
    "forcing_f",
    "acceleration",
    "make_compatibility_data",
    "pde_residual_series",
]

DEFAULT_EPS_DEG = 0.05


@dataclass(frozen=True)
class ModelParams:
    """Coefficients (a, b, c, k) and the gradient-nonlinearity switch s.

    The analysis of the model assumes k > 0; k = 0 is accepted here so the
    linear problem is expressible in the same interface (the degeneracy
    threshold is then infinite and the factor 1 + 2k u_t is identically 1).
    """

    a: float
    b: float
    c: float
    k: float
    s: int = 1

    def __post_init__(self):
        for name in ("a", "b", "c"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {v}")
        if not (math.isfinite(self.k) and self.k >= 0.0):
            raise ValueError(f"k must be >= 0, got {self.k}")
        if self.s not in (0, 1):
            raise ValueError(f"s must be 0 or 1, got {self.s}")


@dataclass(frozen=True)
class PhysicalParams:
    """Acoustic material data; exactly one of gamma / b_over_a is given.

    ``viscosity_number`` is 4/3 + mu_B/mu.  For liquids the adiabatic
    exponent is unavailable and the parameter of nonlinearity B/A stands in
    for gamma - 1 wherever it appears.
    """

    nu: float
    prandtl: float
    viscosity_number: float
    c0: float
    gamma: float | None = None
    b_over_a: float | None = None

    def __post_init__(self):
        if (self.gamma is None) == (self.b_over_a is None):
            raise ValueError("provide exactly one of gamma / b_over_a")
        for name in ("nu", "prandtl", "viscosity_number", "c0"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {v}")
        if self.gamma is not None and self.gamma <= 1.0:
            raise ValueError("gamma must exceed 1")
        if self.b_over_a is not None and self.b_over_a <= 0.0:
            raise ValueError("b_over_a must be positive")


def derive_params(phys, s=1):
    """Map material data to the model coefficients.

    a = nu / Pr,  b = (viscosity_number + (gamma - 1)/Pr) nu,
    k = (gamma - 1) / (2 c0^2), with B/A replacing gamma - 1 throughout when
    only b_over_a is supplied.
    """
    gm1 = phys.gamma - 1.0 if phys.gamma is not None else phys.b_over_a
    a = phys.nu / phys.prandtl
    b = (phys.viscosity_number + gm1 / phys.prandtl) * phys.nu
    k = gm1 / (2.0 * phys.c0**2)
    return ModelParams(a=a, b=b, c=phys.c0, k=k, s=s)


@dataclass
class EvolutionState:
    """Snapshot (u, u_t, u_tt) at time t, all on one domain."""

    t: float
    u: SpectralField
    ut: SpectralField
    utt: SpectralField

    def __post_init__(self):
        dom = self.u.domain
        if self.ut.domain != dom or self.utt.domain != dom:
            raise ValueError("state fields live on different domains")

    @property
    def domain(self):
        return self.u.domain


# ---------------------------------------------------------------------------
# the nonlinear kernel
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _bracket_weights(domain, params):
    lam = domain.eigenvalue_grid
    a, b, c = params.a, params.b, params.c
    return -(a + b) * lam, c * c * lam + a * b * lam * lam, a * c * c * lam * lam


def _bracket(weights, u, ut, utt):
    """``linear_bracket`` from its ``_bracket_weights``."""
    w_tt, w_t, w_u = weights
    return w_tt * utt - w_t * ut - w_u * u


def linear_bracket(domain, params, u, ut, utt):
    """Coefficients of (a+b) laplace(u_tt) + c^2 laplace(u_t)
    - a b laplace^2(u_t) - a c^2 laplace^2(u); diagonal in the basis,
    leading axes allowed."""
    return _bracket(_bracket_weights(domain, params), u, ut, utt)


@lru_cache(maxsize=32)
def _wave_weights(domain, params):
    """b lam and c^2 lam on the coefficient tensor, the weights of u_t and u
    in the wave part."""
    lam = np.asarray(domain.eigenvalue_grid, dtype=float)
    return params.b * lam, params.c**2 * lam


def wave_part(domain, params, u, ut, utt):
    """Coefficients of the wave part u_tt - b laplace(u_t) - c^2 laplace(u),
    that is u_tt + b lam u_t + c^2 lam u; leading axes allowed."""
    w_t, w_u = _wave_weights(domain, params)
    return utt + w_t * ut + w_u * u


def _utt_of_data(weights, data):
    """``semigroup_utt`` from its ``_wave_weights``."""
    w_t, w_u = weights
    return data[2] - w_t * data[1] - w_u * data[0]


def semigroup_utt(domain, params, data):
    """u_tt recovered from stacked semigroup data (u, u_t, wave part) on
    axis 0: the inverse of ``wave_part``."""
    return _utt_of_data(_wave_weights(domain, params), data)


def time_grid(T, dt):
    """The sample times n dt, n = 0..T/dt, of a run of length T; T/dt must
    be a whole number to 1e-9 relative, so the last sample is T."""
    if T <= 0.0 or dt <= 0.0:
        raise ValueError("T and dt must be positive")
    if not all(map(math.isfinite, (T, dt, T / dt))):
        raise ValueError(f"T, dt and T/dt must be finite, got T = {T:g}, dt = {dt:g}")
    steps = round(T / dt)
    if abs(T / dt - steps) > 1e-9 * steps:
        raise ValueError(f"T = {T:g} is not a whole number of steps dt = {dt:g}")
    return dt * np.arange(steps + 1)


def check_uniform_grid(t_grid):
    """Raise ValueError unless the samples increase in uniform steps (to
    1e-9 relative); a grid of one sample passes."""
    steps = np.diff(t_grid)
    if steps.size and (
        steps[0] <= 0.0 or np.max(np.abs(steps - steps[0])) > 1e-9 * max(1.0, abs(steps[0]))
    ):
        raise ValueError("t_grid must be uniformly spaced and increasing")


def _blockwise(domain, fn, arrays, time):
    """Apply ``fn(*arrays, time)`` (which returns a tuple) over the leading
    batch axes of ``arrays`` in blocks of BLOCK_BYTES; ``time`` is broadcast
    to the batch shape.  Unbatched input goes straight through."""
    arrays = [None if a is None else np.asarray(a, dtype=float) for a in arrays]
    d = domain.dimension
    batch = arrays[0].shape[: arrays[0].ndim - d]
    if not batch:
        return fn(*arrays, time)
    n = math.prod(batch)
    flat = [None if a is None else a.reshape((n,) + domain.coeff_shape) for a in arrays]
    times = np.broadcast_to(np.asarray(time, dtype=float), batch).reshape(n)
    # a plan call peaks at 6-12 arrays of the larger grid per sample (1D N =
    # 8, 64, 2D N = 16, 48), so blocks sized for 16 stay below BLOCK_BYTES
    grid = max(domain.gauss_points_per_axis, 2 * domain.modes_per_axis + 1) ** d
    parts = [
        fn(*(None if a is None else a[blk] for a in flat), times[blk])
        for blk in sample_blocks(n, 16 * 8 * grid)
    ]
    return tuple(
        None if first is None
        else np.concatenate([p[j] for p in parts]).reshape(batch + np.shape(first)[1:])
        for j, first in enumerate(parts[0])
    )


def _guard_buffer(domain, batch):
    """The degeneracy guard's buffer of 2k u_t, a new array of shape
    batch + (G + C,): per sample the G Gauss-grid values, then the C
    collocation-grid values.  Returns it with its two parts shaped like the
    grids; the Gauss part is the 2k u_t the law divides by."""
    d = domain.dimension
    g = domain.gauss_points_per_axis
    c = domain.quadrature_points_per_axis
    both = np.empty(batch + (g**d + c**d,))
    gauss = both[..., : g**d].reshape(batch + (g,) * d)
    return both, gauss, both[..., g**d :].reshape(batch + (c,) * d)


def _guard(domain, both, time, limit):
    """The degeneracy guard on a ``_guard_buffer``, which trips once |2k
    u_t| reaches ``limit`` = 1 - eps_deg: one min and one max per sample
    over both grids; see check_degeneracy_guard.  Returns the minimum
    factor (a float, or one per sample of an (n,) stack)."""
    low = np.minimum.reduce(both, axis=-1)
    high = np.maximum.reduce(both, axis=-1)
    # |x| >= limit somewhere iff max x >= limit or min x <= -limit; over a
    # stack, fmax and fmin pass over a sample holding a NaN, which never
    # trips.  The extremes are compared as Python floats.
    batched = both.ndim > 1
    top = float(np.fmax.reduce(high) if batched else high)
    bottom = float(np.fmin.reduce(low) if batched else low)
    if top >= limit or bottom <= -limit:
        raise _degeneracy_error(domain, both, low, high, time, limit)
    return 1.0 + low if batched else 1.0 + bottom


def _degeneracy_error(domain, both, low, high, time, limit):
    """The error of a tripped guard: the first offending sample (C order),
    reported on the collocation grid if it trips there, else on the Gauss
    grid, at the node of largest |2k u_t|."""
    d = domain.dimension
    g = domain.gauss_points_per_axis**d
    i = int(np.argmax((high >= limit) | (low <= -limit)))
    row = both.reshape(-1, both.shape[-1])[i]
    coll = row[g:]
    if coll.max() >= limit or coll.min() <= -limit:
        label, sample = "grid index", coll.reshape(domain.grid_shape)
    else:
        label, sample = "Gauss node", row[:g].reshape((domain.gauss_points_per_axis,) * d)
    worst = int(np.argmax(np.abs(sample)))
    t = float(time[i] if np.ndim(time) else time)
    idx = np.unravel_index(worst, sample.shape)
    idx = idx[0] if len(idx) == 1 else tuple(int(v) for v in idx)
    return DegeneracyError(
        f"degeneracy guard tripped at t={t:.6g}: 1 + 2k u_t reaches "
        f"{1.0 + sample.ravel()[worst]:.6g} at {label} {idx} "
        f"(require |2k u_t| < {limit:g})",
        time=t,
        index=idx,
        factor=float(1.0 + sample.min()),
    )


def _guard_ut(domain, params, ut, time, limit):
    """Guard of one tensor or of an (n,) stack from its coefficients, in a
    buffer of its own, filled by the plan's ``_guard_steps``."""
    batched = ut.ndim > domain.dimension
    if params.k == 0.0:
        return np.ones(ut.shape[0]) if batched else 1.0
    both, gauss, coll = _guard_buffer(domain, ut.shape[: ut.ndim - domain.dimension])
    _steps(_guard_steps(domain, ut, both, gauss, coll))
    np.multiply(2.0 * params.k, both, out=both)
    return _guard(domain, both, time, limit)


def degeneracy_guard(domain, params, ut, time=0.0, eps_deg=DEFAULT_EPS_DEG):
    """Array form of ``check_degeneracy_guard``: ``ut`` may carry leading
    axes and ``time`` broadcasts to them; the first offending sample (in C
    order) raises.  Returns the minimum factor per sample."""

    def block(ut_b, t_b):
        return (_guard_ut(domain, params, ut_b, t_b, 1.0 - eps_deg),)

    return _blockwise(domain, block, (ut,), time)[0]


def _steps(steps):
    """Run bound (op, a, b, out) steps in order."""
    for op, a, b, out in steps:
        op(a, b, out=out)


@lru_cache(maxsize=64)
def _stacked(domain, kind, gradient=False):
    """A read-only matrix shared by every plan on the domain.  ``"guard"``:
    the first-axis sine matrices of the Gauss and the collocation grids
    stacked, [S_g; S_c].  ``"project"``: the 1D fine projection
    ``DomainSpec._fine_project`` transposed.  ``"fine"``: the 1D fine sine
    matrix, then its derivative matrix when ``gradient``, stacked and
    transposed, [S | D]^T."""
    if kind == "guard":
        mat = np.vstack([domain._grid_matrices[grid][0][0] for grid in ("gauss", "collocation")])
    elif kind == "project":
        mat = domain._fine_project.T.copy()
    else:
        mat = np.vstack([m[0] for m in domain._grid_matrices[kind][: 1 + gradient]]).T.copy()
    mat.setflags(write=False)
    return mat


def _left_steps(mats, x, out):
    """``spectral._apply(mats, x, out)`` as steps, its left product bound:
    one gemv M x per member in 1D, the gemm pair (M0 X) M1^T in 2D."""
    if len(mats) == 1:
        return [(np.matmul, mats[0], x[..., None], out[..., None])]
    left = np.empty(x.shape[:-2] + (mats[0].shape[0], x.shape[-1]))
    return [(np.matmul, mats[0], x, left), (np.matmul, left, mats[1].T, out)]


def _fine_stages(domain, x, s):
    """Steps that evaluate the member rows x = (u_tt, u_t, u, u_ttt) on the
    fine grid: ``pre`` the values of (u_tt, u_t) and, when ``s``, the
    gradients of (u_tt, u_t, u); ``post`` the values of u_ttt; ``both``
    all of them.  Returns ``(pre, post, both, vals, pair, grads)``: the
    flat grid values of (u_tt, u_t) and of (u_tt, u_ttt) and the per-axis
    gradient components of their rows.

    In 1D a stage costs its numpy calls, so every stage is the one product
    of all four rows by [S | D]^T (``_stacked``; S^T without s), and every
    row rounds as in every call.  In 2D a stage costs its arithmetic, so it
    evaluates only the pairs read, by the products of ``spectral.evaluate``
    and ``spectral.gradient``: S0 X and D0 X over the rows read, then a
    right product by S1^T or D1^T per selection."""
    d, n = domain.dimension, domain.modes_per_axis
    sine, dcos = domain._grid_matrices["fine"]
    p = sine[0].shape[0]
    batch = x.shape[: -1 - d]
    if d == 1:
        mat = _stacked(domain, "fine", bool(s))
        out = np.empty(batch + (4, mat.shape[1]))
        grads = (out[..., 0:3, p:],) if s else None
        stage = [(np.matmul, x, mat, out)]
        return stage, stage, stage, out[..., 0:2, :p], out[..., 0::3, :p], grads
    vals, left = np.empty(batch + (3, p, p)), np.empty(batch + (2 + s, p, n))
    pre = [
        (np.matmul, sine[0], x[..., : 2 + s, :, :], left),
        (np.matmul, left[..., 0:2, :, :], sine[1].T, vals[..., 0:2, :, :]),
    ]
    grads = None
    if s:
        inner, comps = np.empty(batch + (3, p, n)), np.empty((2,) + batch + (3, p, p))
        pre += [
            (np.matmul, dcos[0], x[..., 0:3, :, :], inner),
            (np.matmul, inner, sine[1].T, comps[0]),
            (np.matmul, left, dcos[1].T, comps[1]),
        ]
        grads = tuple(comps.reshape((2,) + batch + (3, p * p)))
    post = _left_steps(sine, x[..., 3, :, :], vals[..., 2, :, :])
    vals = vals.reshape(batch + (3, p * p))
    return pre, post, pre + post, vals[..., 0:2, :], vals[..., 0::2, :], grads


def _gradient_steps(grads, out):
    """Steps that write (|grad u_t|^2, grad u . grad u_tt) into ``out``
    from the per-axis gradient components of the rows (u_tt, u_t, u): per
    axis the products (d u_t d u_t, d u d u_tt), summed over the axes in
    order.  The products of every further axis go into the first axis's
    components, which are spent by then."""
    first, *rest = grads
    steps = [(np.multiply, first[..., 1:3, :], first[..., 1::-1, :], out)]
    for comp in rest:
        spent = first[..., :2, :]
        steps += [
            (np.multiply, comp[..., 1:3, :], comp[..., 1::-1, :], spent),
            (np.add, out, spent, out),
        ]
    return steps


def _guard_steps(domain, ut, both, gauss, coll):
    """Steps that fill the guard buffer ``both`` (its Gauss and collocation
    parts ``gauss`` and ``coll``) with u_t on both grids: one product of
    u_t by [S_g; S_c] (``_stacked``), which in 1D is the whole evaluation
    and in 2D is followed by each grid's right product.  Stacking along
    the output axis keeps each node's dot product, so the values are bit
    for bit those of ``evaluate`` on each grid."""
    first = _stacked(domain, "guard")
    if domain.dimension == 1:
        return _left_steps((first,), ut, both)
    gauss_last, coll_last = (domain._grid_matrices[g][0][-1] for g in ("gauss", "collocation"))
    g = gauss.shape[-1]
    left = np.empty(ut.shape[:-2] + (first.shape[0], ut.shape[-1]))
    return [
        (np.matmul, first, ut, left),
        (np.matmul, left[..., :g, :], gauss_last.T, gauss),
        (np.matmul, left[..., g:, :], coll_last.T, coll),
    ]


def _projection_steps(domain, products, proj):
    """Steps that project each flat fine-grid product exactly into the flat
    ``proj``, by M = ``DomainSpec._fine_project`` along each axis: in 1D
    one product of all of them by M^T (``_stacked``), reading M once; in
    2D the gemm pair (M P) M^T of ``spectral.project``."""
    if domain.dimension == 1:
        return [(np.matmul, products, _stacked(domain, "project"), proj)]
    m = domain._fine_project
    grids = products.reshape(products.shape[:-1] + (m.shape[1],) * 2)
    return _left_steps((m, m), grids, proj.reshape(proj.shape[:-1] + (m.shape[0],) * 2))


def _numerator_steps(domain, weights, rows, lin_r, num):
    """Steps that write the law's numerator lin - R on the Gauss grid into
    ``num``.  R = 2k u_tt^2 + 2s (|grad u_t|^2 + grad u . grad u_tt) is a
    cosine polynomial of degree <= 2N per axis, which B =
    ``DomainSpec._fine_to_gauss`` carries from the fine grid to the Gauss
    nodes exactly.  -R is one gemv of R's fine-grid product ``rows`` with
    ``weights``, after lin in the flat ``lin_r``; the numerator is then the
    gemv [S_g | B] (lin, -R) in 1D, the gemm pair [S0 lin | B0 (-R)] [S1 |
    B1]^T in 2D.  [S_g | B] is the plan's own, so it is freed with it."""
    lin, neg = lin_r[..., : domain.n_modes], lin_r[..., domain.n_modes :]
    sine, to_gauss = domain._grid_matrices["gauss"][0], domain._fine_to_gauss
    last = np.hstack([sine[-1], to_gauss[-1]])
    steps = [(np.matmul, weights, rows, neg)]
    if domain.dimension == 1:
        return steps + _left_steps((last,), lin_r, num)
    n, p, batch = domain.modes_per_axis, to_gauss[0].shape[1], num.shape[:-2]
    left = np.empty(batch + (num.shape[-2], n + p))
    return steps + [
        (np.matmul, sine[0], lin.reshape(batch + (n, n)), left[..., :n]),
        (np.matmul, to_gauss[0], neg.reshape(batch + (p, p)), left[..., n:]),
        (np.matmul, left, last.T, num),
    ]


class KernelPlan:
    """``nonlinear_terms`` bound to one domain, params, batch shape (() or
    (n,)) and degeneracy margin ``eps_deg``.

    Building the plan resolves the weights and the guard's limit 1 -
    eps_deg, takes every matrix and view and allocates every buffer, so a
    call takes only data and time and runs a fixed list of numpy calls,
    the same in both dimensions.  Every call returns (u_ttt, f, guard
    minimum); the forcing-only route (u_ttt given) returns None for the
    guard minimum.  The plan owns its buffers, and reuses one for another
    purpose only where it is spent, at one line that gives the reason.
    The results of a call never share memory with them; those of
    ``step_terms`` are views of them, for the march to copy.

    The members (u_tt, u_t, u, u_ttt) are the rows of one array; lin is
    one ``vecdot`` of (u_tt, u_t, u) with the bracket weights.  Before the
    law the fine grid (``_fine_stages``) gives the products u_tt^2, |grad
    u_t|^2 and grad u . grad u_tt, which the law's numerator
    (``_numerator_steps``) and f share; the law guards u_t on both grids
    (``_guard_steps``) and projects its quotient by 1 + 2k u_t from the
    Gauss grid into the u_ttt row.  After it f forms u_t u_ttt, projects
    each of its four products exactly (``_projection_steps``) and weights
    them by one gemv with (2k, 2k, 2, 2).  Without s the gradient terms
    and their weights are left out.  A plan with k = s = 0 binds nothing:
    u_ttt is the bracket and f is zero.
    """

    def __init__(self, domain, params, batch=(), eps_deg=DEFAULT_EPS_DEG):
        k, s = params.k, params.s
        self.domain, self.params, self.batch = domain, params, batch
        self._limit = 1.0 - eps_deg
        self._wave = _wave_weights(domain, params)
        self._bracket = _bracket_weights(domain, params)
        self._linear = k == 0.0 and not s
        if self._linear:
            return
        d, n, size = domain.dimension, domain.modes_per_axis, domain.n_modes
        # zeros: a 1D law call evaluates the u_ttt row before it writes it
        self._rows = x = np.zeros(batch + (4,) + domain.coeff_shape)
        rows = x.reshape(batch + (4, size))
        self._fields, self._uttt = rows[..., 0:3, :], rows[..., 3, :]
        w_tt, w_t, w_u = self._bracket
        self._lin_weights = np.stack([w_tt, -w_t, -w_u]).reshape(3, size)
        # the caller's (u_tt, u_t, u), then u_ttt, are concatenated into the
        # rows along the first mode axis
        self._axis = -d
        cat = x.reshape(batch + (4 * n,) + domain.coeff_shape[1:])
        tail = (slice(None),) * (d - 1)
        self._in_rows = [cat[(..., slice(0, stop)) + tail] for stop in (3 * n, 4 * n)]
        self._shape = batch + domain.coeff_shape

        # the products: f's (u_tt^2, u_t u_ttt and, when s, |grad u_t|^2,
        # grad u . grad u_tt), then u_tt^2 again, so that R's (the gradient
        # ones, then u_tt^2) are one run of rows
        terms = 2 + 2 * s
        pre, post, both, vals, pair, grads = _fine_stages(domain, x, s)
        points = vals.shape[-1]
        products = np.empty(batch + (terms + 1, points))
        lin_r = np.empty(batch + (size + points,))
        self._lin = lin_r[..., :size]
        grad_steps = _gradient_steps(grads, products[..., 2:4, :]) if s else []
        self._proj = np.empty(batch + (terms, size))
        self._f_weights = np.array([2.0 * k] * 2 + [2.0] * 2 * s)
        f_steps = [(np.multiply, vals, pair, products[..., 0:2, :])]
        f_steps += _projection_steps(domain, products[..., :terms, :], self._proj)
        self._post, self._forcing = post + f_steps, both + grad_steps + f_steps

        # the law: 2k u_t on the guard grids, the numerator and its quotient
        # by 1 + 2k u_t, a factor formed in the Gauss part of the guard
        # buffer, which the guard has read by then
        self._both, gauss, coll = _guard_buffer(domain, batch)
        ut = rows[..., 1, :].reshape(self._shape)
        square = (np.multiply, vals[..., 0, :], vals[..., 0, :], products[..., terms, :])
        self._law = pre + [square] + grad_steps + _guard_steps(domain, ut, self._both, gauss, coll)
        self._law.append((np.multiply, 2.0 * k, self._both, self._both))
        num = np.empty(gauss.shape)
        weights = np.array([-2.0] * 2 * s + [-2.0 * k])
        quotient = _numerator_steps(domain, weights, products[..., 2:, :], lin_r, num)
        quotient += [(np.add, 1.0, gauss, gauss), (np.divide, num, gauss, num)]
        self._quotient = quotient + _left_steps(
            domain._gauss_project, num, rows[..., 3, :].reshape(self._shape)
        )

        # step_terms: the u_tt row, the (u_t, u) rows, their wave weights
        # (w_t, w_u), their products and each product alone, f
        term, wave = np.empty(batch + (2, size)), np.stack(self._wave).reshape(2, size)
        self._data_route = (rows[..., 0, :], rows[..., 1:3, :], wave, term, term[..., 0, :],
                            term[..., 1, :], np.empty(batch + (size,)))

    def _run_forcing(self, steps, out=None):
        """f of the current rows after ``steps``, flat, written into ``out``
        (a fresh array when None)."""
        _steps(steps)
        return np.matmul(self._f_weights, self._proj, out=out)

    def _run(self, time, f_out=None):
        """The law into the u_ttt row and f into ``f_out``, with the rows
        (u_tt, u_t, u) filled; returns (f, guard minimum)."""
        np.vecdot(self._lin_weights, self._fields, axis=-2, out=self._lin)
        _steps(self._law)
        guard_min = _guard(self.domain, self._both, time, self._limit)
        _steps(self._quotient)
        return self._run_forcing(self._post, f_out), guard_min

    def step_terms(self, data, time):
        """(u_tt, u_ttt, f), each flat (n,), at flat semigroup data (3, n)
        of an unbatched plan: u_tt is ``semigroup_utt`` of the data, written
        into its row as (X - w_t u_t) - w_u u after one copy of (u_t, u)
        into theirs, and the law and f are those of ``__call__`` on it.
        The results are views of the plan's buffers, which the next call
        overwrites."""
        if self._linear:
            fields = data.reshape((3,) + self.domain.coeff_shape)
            utt = _utt_of_data(self._wave, fields)
            uttt, f, _ = self(fields[0], fields[1], utt, None, time)
            return utt.reshape(-1), uttt.reshape(-1), f.reshape(-1)
        utt, ut_u, wave, term, wt_ut, wu_u, f = self._data_route
        ut_u[...] = data[1::-1]
        np.multiply(wave, ut_u, out=term)
        np.subtract(data[2], wt_ut, out=utt)
        np.subtract(utt, wu_u, out=utt)
        self._run(time, f)
        return utt, self._uttt, f

    def __call__(self, u, ut, utt, uttt=None, time=0.0):
        """(u_ttt, f, guard minimum) of one tensor or an (n,) stack, as
        ``nonlinear_terms``, guarded with the plan's own margin; a trip
        carries ``time``."""
        if self._linear:
            # the linear problem: u_ttt is the bracket and f is zero
            guard_min = None
            if uttt is None:
                uttt = _bracket(self._bracket, u, ut, utt)
                guard_min = _guard_ut(self.domain, self.params, ut, time, self._limit)
            return uttt, np.zeros(ut.shape), guard_min
        if uttt is not None:
            np.concatenate((utt, ut, u, uttt), axis=self._axis, out=self._in_rows[1])
            # the forcing-only route never guards
            return uttt, self._run_forcing(self._forcing).reshape(self._shape), None
        np.concatenate((utt, ut, u), axis=self._axis, out=self._in_rows[0])
        f, guard_min = self._run(time)
        return self._uttt.reshape(self._shape).copy(), f.reshape(self._shape), guard_min


def nonlinear_terms(
    domain,
    params,
    u,
    ut,
    utt,
    uttt=None,
    time=0.0,
    eps_deg=DEFAULT_EPS_DEG,
):
    """The quasilinear law on raw coefficient arrays: (u_ttt, f, guard minimum).

    ``u``, ``ut``, ``utt`` (and ``uttt``) have shape batch + coeff shape
    for any batch shape, and ``time`` broadcasts to the batch.

    * ``uttt`` None: u_ttt is the Galerkin projection of the law's
      quotient (lin - 2k u_tt^2 - 2s |grad u_t|^2 - 2s grad u . grad u_tt)
      / (1 + 2k u_t), with lin the ``linear_bracket``, formed pointwise on
      the Gauss grid, where the quadratic terms arrive exactly from their
      fine-grid products.  Given, it is taken as is and only f uses it.
    * f = 2k u_tt^2 + 2k u_t u_ttt + 2s |grad u_t|^2 + 2s grad u . grad
      u_tt, each product projected exactly.
    * When u_ttt is evaluated the degeneracy guard runs once per sample:
      it raises DegeneracyError unless |2k u_t| < 1 - eps_deg on the Gauss
      and the collocation nodes, and the guard minimum is the least 1 + 2k
      u_t over those nodes (1 when k = 0).  With ``uttt`` given nothing
      divides, so nothing is guarded and the guard minimum is None.

    Each block of the batch (see ``spectral.BLOCK_BYTES``) runs through a
    ``KernelPlan``, one per block shape; a march binds its own plan once
    and calls it directly.
    """
    plan = None

    def block(u_b, ut_b, utt_b, uttt_b, t_b):
        nonlocal plan
        batch = ut_b.shape[: ut_b.ndim - domain.dimension]
        if plan is None or plan.batch != batch:
            # the last block is shorter: drop the full blocks' plan first
            plan = None
            plan = KernelPlan(domain, params, batch, eps_deg)
        return plan(u_b, ut_b, utt_b, uttt_b, t_b)

    return _blockwise(domain, block, (u, ut, utt, uttt), time)


# ---------------------------------------------------------------------------
# SpectralField front ends
# ---------------------------------------------------------------------------


def check_degeneracy_guard(ut, params, time, eps_deg=DEFAULT_EPS_DEG):
    """Raise DegeneracyError unless |2k u_t| < 1 - eps_deg on both grids.

    The factor 1 + 2k u_t is checked on the collocation grid and on the
    Gauss grid where ``acceleration`` divides by it (a band-limited u_t
    can peak between collocation nodes).  Enforcing the two-sided bound
    (rather than only keeping the factor positive) keeps the reciprocal
    uniformly bounded on both sides.  Returns the minimum of the factor
    over both grids.
    """
    return degeneracy_guard(ut.domain, params, ut.coeffs, time, eps_deg)


def forcing_f(state, uttt, params):
    """Quadratic forcing f of the factorized system, exactly projected.

    f = 2k u_tt^2 + 2k u_t u_ttt + 2s |grad u_t|^2 + 2s grad(u).grad(u_tt).
    All four terms are quadratic in resolved fields, so the dealiased product
    machinery returns their exact Galerkin projection.
    """
    fields = (state.u.coeffs, state.ut.coeffs, state.utt.coeffs)
    _, f, _ = nonlinear_terms(state.domain, params, *fields, uttt=uttt.coeffs)
    return SpectralField(state.domain, f)


def acceleration(state, params, eps_deg=DEFAULT_EPS_DEG):
    """Galerkin projection of u_ttt from the quasilinear evolution law.

    The numerator and the factor 1 + 2k u_t are formed pointwise on the
    Gauss grid, divided, and projected; the quadratic gradient terms are
    skipped when s = 0 (they would contribute exact zeros).  Raises
    DegeneracyError when the guard fails.
    """
    fields = (state.u.coeffs, state.ut.coeffs, state.utt.coeffs)
    uttt, _, _ = nonlinear_terms(state.domain, params, *fields, time=state.t, eps_deg=eps_deg)
    return SpectralField(state.domain, uttt)


def make_compatibility_data(u0, u1, u2, params, eps_deg=DEFAULT_EPS_DEG):
    """The initial data as an ``EvolutionState`` at t = 0, with u1 guarded;
    u_ttt(0) is the law's, which ``nonlinear.solve`` evaluates at its start.
    A guard failure here is timed 0, as every trip of initial data is.
    """
    state = EvolutionState(0.0, u0, u1, u2)
    degeneracy_guard(state.domain, params, u1.coeffs, 0.0, eps_deg)
    return state


# ---------------------------------------------------------------------------
# diagnostics along discrete trajectories
# ---------------------------------------------------------------------------


def _quad_source(domain, params, u, ut):
    """Q = k u_t^2 + s |grad u|^2, exactly projected; leading axes allowed."""
    vals = evaluate(domain, "fine", ut)
    products = [vals * vals]
    if params.s:
        grads = gradient(domain, "fine", u)
        products.append(gradient_product(grads, grads))
    proj = project(domain, "fine", np.stack(products))
    out = params.k * proj[0]
    if params.s:
        out += proj[1]
    return out


def pde_residual_series(domain, params, t_grid, u, ut, utt):
    """Relative residual of the equation at every interior sample.

    ``u``, ``ut``, ``utt`` are (nt,) + coeff shape series on ``t_grid``;
    entry i of the result belongs to sample i + 1.  Time derivatives use
    centered differences: (a laplace - d/dt) G - d^2/dt^2 Q, normalized by
    the largest constituent term norm.
    """
    t = np.asarray(t_grid, dtype=float)
    check_uniform_grid(t)
    dt = 0.5 * ((t[1:-1] - t[:-2]) + (t[2:] - t[1:-1]))
    lam = domain.eigenvalue_grid
    out = np.empty(dt.size)
    sample_bytes = 64 * (2 * domain.modes_per_axis + 1) ** domain.dimension
    for blk in sample_blocks(out.size, sample_bytes):
        window = slice(blk.start, blk.stop + 2)
        g = wave_part(domain, params, u[window], ut[window], utt[window])
        q = _quad_source(domain, params, u[window], ut[window])
        h = dt[blk].reshape((-1,) + (1,) * domain.dimension)
        t_diff = -params.a * lam * g[1:-1]
        t_dot = (g[2:] - g[:-2]) / (2.0 * h)
        t_ddot = (q[2:] - 2.0 * q[1:-1] + q[:-2]) / (h * h)
        resid = t_diff - t_dot - t_ddot
        terms = [np.sqrt(sq_norm(domain, term)) for term in (t_diff, t_dot, t_ddot)]
        scale = np.maximum(np.max(terms, axis=0), 1e-300)
        out[blk] = np.sqrt(sq_norm(domain, resid)) / scale
    return out
