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
and degeneracy margin: building it resolves the weights and the guard's
limit, takes every matrix and view, allocates every buffer and lists the
numpy calls of a call as steps, so a call carries only data and time and
runs the same steps in both dimensions.  Every call returns f: the march
needs the law with f, the Picard sweeps and ``forcing_f`` f alone, and
``acceleration``, which needs only u_ttt, discards it.
``nonlinear_terms`` builds one plan per block shape of its batch and calls
it; a call returns u_ttt, f and the guard minima as fresh arrays, so its
buffers never escape.  ``nonlinear.solve`` builds one plan per march and
calls it once at t = 0; its bound step calls the plan's entry point from
semigroup data, ``step_terms``, at every substep sweep, which writes u_tt
into the plan's row and returns views of the plan's buffers for the march
to copy.  A call guards when it evaluates the law (u_ttt not given), and
only then: the forcing f is a polynomial and divides by nothing, so the
forcing-only route (u_ttt given) returns None for the guard minimum.  The
guard runs on one buffer of 2k u_t on the Gauss nodes and on the
collocation nodes (the Gauss half is what the law divides by), so one min
and one max per sample cover both grids; only a trip looks at the grids
apart, to report where it happened.  A plan with k = s = 0, the linear
problem of ``linear-lowest-mode`` and of the spatial study of
``convergence``, binds nothing: u_ttt is the bracket and f is zero.

The members (lin, u_tt, u_t, u, u_ttt) of a plan are the rows of one
array, and each grid stage contracts a run of rows one mode axis at a
time with the products of ``spectral``'s array layer; the dimension
selects only how the products are grouped.  A 1D call at the march's
sizes works on arrays of a few dozen values, so its cost is its count of
numpy calls: a stage is one gemm of its rows against the grid's sine and
derivative matrices stacked, and a call is about twenty numpy calls at
any N.  A 2D stage works on grids of tens of thousands of values, so it
costs its arithmetic: it evaluates only the (member, derivative) pairs it
reads, nine fields on the Gauss grid (u_t's for the guard among them) and
nine on the fine grid.  The numerator of the law and f are each one gemv
of their terms with their weights, so they round differently from the
term-by-term form, by about 1e-16 relative (``tests/test_oracle.py``,
``tests/test_kernel.py``).

f projects each of its products on its own and weights the projections.
Projection is linear, so summing the products first and projecting once
would be cheaper, but it rounds differently, and the residual
diagnostic, which divides second time differences of Q by dt^2,
amplifies that to about 1e-6 relative, and the Picard contraction ratios
move by about 1e-8.
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
    # the kernel holds about 16 grid-sized temporaries per sample
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
    ``DomainSpec._fine_project`` transposed.  A grid name: its 1D sine
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


def _shift(rows, by):
    return slice(rows.start - by, rows.stop - by)


def _evaluation(domain, grid, x, values, gradient, head=0):
    """Steps that evaluate, on ``grid``, the members ``values`` (row slices
    of the member array ``x``) and the gradient of the members
    ``gradient`` (a row slice, or None).  Returns ``(steps, buf, vals,
    grads)``: ``vals`` holds the flat grid values of the rows from the
    first value row to the last (in 2D a row between two value slices is
    left unset), each per-axis component of ``grads`` those of the
    gradient rows, and the flat ``buf`` is ``head`` grids of room for the
    caller followed by the first value row.

    In 1D a stage costs its numpy calls, so the run of rows from the first
    selected to the last is one product by [S | D]^T (``_stacked``), and
    the pairs nobody reads come free.  In 2D it costs its arithmetic, so
    only the pairs read are evaluated, by the products of
    ``spectral.evaluate`` and ``spectral.gradient``: S0 X over the run and
    D0 X over the gradient rows, then a right product by S1^T or D1^T per
    selection."""
    d, n = domain.dimension, domain.modes_per_axis
    sine, dcos = domain._grid_matrices[grid]
    p = sine[0].shape[0]
    batch = x.shape[: -1 - d]
    v0, v1 = values[0].start, values[-1].stop
    r0 = v0 if gradient is None else min(v0, gradient.start)
    run = slice(r0, v1 if gradient is None else max(v1, gradient.stop))
    if d == 1:
        mat = _stacked(domain, grid, gradient is not None)
        buf = np.empty(batch + (head * p + (run.stop - r0) * mat.shape[1],))
        out = buf[..., head * p :].reshape(batch + (run.stop - r0, mat.shape[1]))
        grads = None if gradient is None else (out[..., _shift(gradient, r0), p:],)
        return [(np.matmul, x[..., run, :], mat, out)], buf, out[..., v0 - r0 : v1 - r0, :p], grads
    buf = np.empty(batch + ((head + v1 - v0) * p * p,))
    vals = buf[..., head * p * p :].reshape(batch + (v1 - v0, p, p))
    left = np.empty(batch + (run.stop - r0, p, n))
    steps = [(np.matmul, sine[0], x[..., run, :, :], left)]
    steps += [
        (np.matmul, left[..., _shift(rows, r0), :, :], sine[1].T, vals[..., _shift(rows, v0), :, :])
        for rows in values
    ]
    grads = None
    if gradient is not None:
        m = gradient.stop - gradient.start
        inner, comps = np.empty(batch + (m, p, n)), np.empty((2,) + batch + (m, p, p))
        steps += [
            (np.matmul, dcos[0], x[..., gradient, :, :], inner),
            (np.matmul, inner, sine[1].T, comps[0]),
            (np.matmul, left[..., _shift(gradient, r0), :, :], dcos[1].T, comps[1]),
        ]
        grads = tuple(comps.reshape((2,) + batch + (m, p * p)))
    return steps, buf, vals.reshape(batch + (v1 - v0, p * p)), grads


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
    g = gauss.shape[-1]
    left = np.empty(ut.shape[:-2] + (first.shape[0], ut.shape[-1]))
    (_, gauss_last), (_, coll_last) = (
        domain._grid_matrices[grid][0] for grid in ("gauss", "collocation")
    )
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


class KernelPlan:
    """``nonlinear_terms`` bound to one domain, params, batch shape (() or
    (n,)) and degeneracy margin ``eps_deg``.

    Building the plan resolves the weights and the guard's limit 1 -
    eps_deg, takes every matrix and view and allocates every buffer, so a
    call takes only data and time and runs a fixed list of numpy calls,
    the same in both dimensions.  Every call returns (u_ttt, f, guard
    minimum).  ``nonlinear.solve`` builds one per march and steps through
    ``step_terms``; ``nonlinear_terms`` builds one per block shape and
    calls it.  The plan owns its buffers, and reuses one for another
    purpose only where it is spent, at one line that gives the reason.
    The results of a call never share memory with them; those of
    ``step_terms`` are views of them, for the march to copy.  A call
    guards only when it evaluates the law (u_ttt not given); the
    forcing-only route returns None for the guard minimum.

    The members (lin, u_tt, u_t, u, u_ttt) are the rows of one array; lin
    is one ``vecdot`` of the rows (u_tt, u_t, u) with the bracket weights.
    The law evaluates its rows on the Gauss grid (``_evaluation``) and u_t
    on both guard grids (``_guard_steps``), forms the products of the
    numerator after which lin's values lie, and takes the numerator as one
    gemv with (-2k, -2, -2, 1), the quotient by 1 + 2k u_t and its Gauss
    projection into the u_ttt row.  f evaluates its rows on the fine grid,
    forms the products (u_tt u_tt, u_t u_ttt, |grad u_t|^2, grad u . grad
    u_tt), projects each exactly (``_projection_steps``) and weights them
    by one gemv with (2k, 2k, 2, 2).  Without s the gradient terms and
    their weights are left out.  A plan with k = s = 0 binds nothing: u_ttt
    is the bracket and f is zero.
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
        self._rows = x = np.empty(batch + (5,) + domain.coeff_shape)
        rows = x.reshape(batch + (5, size))
        self._lin, self._fields, self._uttt = rows[..., 0, :], rows[..., 1:4, :], rows[..., 4, :]
        w_tt, w_t, w_u = self._bracket
        self._lin_weights = np.stack([w_tt, -w_t, -w_u]).reshape(3, size)
        # the caller's (u_tt, u_t, u), then u_ttt, are concatenated into the
        # rows along the first mode axis
        self._axis = -d
        cat = x.reshape(batch + (5 * n,) + domain.coeff_shape[1:])
        tail = (slice(None),) * (d - 1)
        self._in_rows = [cat[(..., slice(n, stop)) + tail] for stop in (4 * n, 5 * n)]
        self._shape = batch + domain.coeff_shape
        ut, uttt = (rows[..., r, :].reshape(self._shape) for r in (2, 4))

        # f: the fine values of (u_tt, u_t, u_ttt), the gradients of (u_tt,
        # u_t, u) when s.  Its buffers are allocated before the law's larger
        # ones, which keeps the peak RSS of a Picard run lower, from the
        # allocator's layout alone
        terms = 2 + 2 * s
        forcing, _, vals, grads = _evaluation(
            domain, "fine", x, (slice(1, 3), slice(4, 5)), slice(1, 4) if s else None
        )
        products = np.empty(batch + (terms, vals.shape[-1]))
        forcing.append((np.multiply, vals[..., 0:2, :], vals[..., 0::3, :], products[..., :2, :]))
        forcing += _gradient_steps(grads, products[..., 2:, :]) if s else []
        self._proj = np.empty(batch + (terms, size))
        self._f_weights = np.array([2.0 * k] * 2 + [2.0] * 2 * s)
        self._forcing = forcing + _projection_steps(domain, products, self._proj)

        # the law: the Gauss values of (lin, u_tt) follow the numerator's
        # other terms, u_tt^2 and, when s, (|grad u_t|^2, grad u . grad u_tt)
        self._both, gauss, coll = _guard_buffer(domain, batch)
        law, z, vals, grads = _evaluation(
            domain, "gauss", x, (slice(0, 2),), slice(1, 4) if s else None, terms - 1
        )
        points = vals.shape[-1]
        summands = z[..., : terms * points].reshape(batch + (terms, points))
        self._law = law + _guard_steps(domain, ut, self._both, gauss, coll)
        self._law.append((np.multiply, 2.0 * k, self._both, self._both))
        quotient = [(np.multiply, vals[..., 1, :], vals[..., 1, :], summands[..., 0, :])]
        quotient += _gradient_steps(grads, summands[..., 1:3, :]) if s else []
        # u_tt's values are spent once u_tt^2 is formed, so they hold the
        # numerator and then the quotient
        num, scaled = vals[..., 1, :], self._both[..., :points]
        quotient += [
            (np.matmul, np.array([-2.0 * k] + [-2.0] * 2 * s + [1.0]), summands, num),
            (np.add, 1.0, scaled, scaled),
            (np.divide, num, scaled, num),
        ]
        self._quotient = quotient + _left_steps(
            domain._gauss_project, num.reshape(gauss.shape), uttt
        )

        # step_terms: the u_tt row, the (u_t, u) rows, their wave weights
        # (w_t, w_u), their products and each product alone, f
        term = np.empty(batch + (2, size))
        self._data_route = (
            rows[..., 1, :],
            rows[..., 2:4, :],
            np.stack(self._wave).reshape(2, size),
            term,
            term[..., 0, :],
            term[..., 1, :],
            np.empty(batch + (size,)),
        )

    def _run_forcing(self, out=None):
        """f of the current rows, flat, written into ``out`` (a fresh array
        when None)."""
        _steps(self._forcing)
        return np.matmul(self._f_weights, self._proj, out=out)

    def _run(self, time, f_out=None):
        """The law into the u_ttt row and f into ``f_out``, with the rows
        (u_tt, u_t, u) filled; returns (f, guard minimum)."""
        np.vecdot(self._lin_weights, self._fields, axis=-2, out=self._lin)
        _steps(self._law)
        guard_min = _guard(self.domain, self._both, time, self._limit)
        _steps(self._quotient)
        return self._run_forcing(f_out), guard_min

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
            return uttt, self._run_forcing().reshape(self._shape), None
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
      the Gauss grid.  Given, it is taken as is and only f uses it.
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

    The numerator and the factor 1 + 2k u_t are evaluated pointwise on the
    Gauss grid, divided, and projected; the quadratic gradient terms are
    skipped entirely when s = 0 (they would contribute exact zeros).  Raises
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
