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
shape, to (u_ttt, f, guard minimum).  The march, the Picard sweeps and the
post-processing series call it directly; ``check_degeneracy_guard``,
``forcing_f`` and ``acceleration`` are thin SpectralField front ends.
Long batches run in blocks of ``spectral.BLOCK_BYTES``.

The wave part u_tt - b laplace(u_t) - c^2 laplace(u) is written once, in
``wave_part``, and inverted once, in ``semigroup_utt`` (the 1D march step
runs its buffered form, same operations in the same order); the semigroup
data of ``linear``, the march, the linear energy and the equation
residual all take it from there.  The time grid of a run of length T is
written once, in ``time_grid``, and every sampled series is checked by
the one ``check_uniform_grid``.

The body is a ``KernelPlan``, bound once to a domain, params, batch shape
and degeneracy margin: building it resolves the weights and the guard's
limit, takes every matrix and view and allocates every buffer, so a call
carries only data and time and is a straight run of ``out=`` numpy calls
with no shape arithmetic, allocation or cache lookup.  Every call
returns f: the march needs the law with f, the Picard sweeps and the
post-processing f alone, and the one-shot front ends that need only
u_ttt discard it.  ``nonlinear_terms`` builds one plan per block shape of
its batch and calls it; a call returns u_ttt, f and the guard minima as
fresh arrays, so its buffers never escape.  ``nonlinear.solve`` builds
one plan per march and calls it once at t = 0; its bound step calls the
plan's entry point from semigroup data, ``step_terms``, at every substep
sweep, which in 1D writes u_tt into the plan's row and returns views of
the plan's buffers for the march to copy.  A call guards when it
evaluates the law (u_ttt not given), and only then: the forcing f is a
polynomial and divides by nothing, so the forcing-only route (u_ttt
given) returns None for the guard minimum.  The guard runs on one buffer
of 2k u_t on the Gauss nodes and on the collocation nodes (the Gauss half
is what the law divides by), so one min and one max per sample cover
both grids; only a trip looks at the grids apart, to report where it
happened.  A plan with k = s = 0, the linear problem of
``linear-lowest-mode`` and of the spatial study of ``convergence``, binds
no stage in either dimension: u_ttt is the bracket and f is zero.  Every
other plan runs the one law, whatever k, and the dimension selects the
body.

* 1D (``_Plan1D``).  A 1D call at the march's sizes works on arrays of
  a few dozen values, so its cost is the count of numpy calls.  The
  members (lin, u_tt, u_t, u, u_ttt) are the rows of one array, and each
  grid stage is one gemm of a run of rows against the grid's sine and
  derivative matrices stacked, so a call is about twenty numpy calls and
  reads each matrix once, at any N.  It rounds
  differently from the term-by-term form, by about 1e-16 relative
  (``tests/test_oracle.py``).
* 2D (bound stages).  A 2D stage works on grids of tens of thousands of
  values, so the plan binds the stages of the term-by-term form: one
  member stack (u, u_tt, u_t, .) serves both grids (u is left out when
  s = 0).  Its last member is the bracket lin for the Gauss stage, which
  evaluates the values of (u_tt, u_t, lin) and the gradients of (u, u_tt,
  u_t); the projected u_ttt then takes its place, and the fine stage
  evaluates the values of (u_tt, u_t, u_ttt) and the same gradients.  The
  four fine-grid products come from two stacked multiplies, (u_tt, u_t)
  times (u_tt, u_ttt) and (d u_t, d u) times (d u_t, d u_tt), plus one add
  per further gradient component; each product P is projected by the
  gemm pair M P M^T, with M the per-axis fine projection
  ``DomainSpec._fine_project`` the 1D body uses too (the operations of
  ``spectral.project``, with the left product M P bound), and f is
  ``add.reduce`` of (2k, 2k, 2, 2) times the projections from an initial
  0.  Each bound stage owns its buffers; the product stage reuses one
  spent one, at the line that says why (``spectral`` states the rule).
  Each stacked or buffered operation is, element by element, the
  operation of the term-by-term expression it replaces, in the same
  association order: 2k u_tt^2 is ((2k) u_tt) u_tt, every gradient
  component subtracts ((2) d u_t) d u_t, then ((2) d u) d u_tt, the
  products keep their operand order (IEEE multiplication commutes
  anyway), and f is (((0 + 2k p0) + 2k p1) + 2 p2) + 2 p3.  Each numpy
  call also sees the operand layouts it saw before, since matmul and
  einsum round by layout.  So the results are bit for bit those of the
  term-by-term form (``tests/test_kernel.py``).

Both routes project each product of f on its own and weight the
projections.  Projection is linear, so summing the products first and
projecting once would be cheaper, but it rounds differently, and the
residual diagnostic, which divides second time differences of Q by dt^2,
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
    bind_evaluate_stack,
    bind_project,
    evaluate,
    evaluate_stack,
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
    buffer of its own: a guard without the law is not on the march's hot
    path, so it binds nothing."""
    batched = ut.ndim > domain.dimension
    if params.k == 0.0:
        return np.ones(ut.shape[0]) if batched else 1.0
    batch = ut.shape[: ut.ndim - domain.dimension]
    both, gauss, coll = _guard_buffer(domain, batch)
    # the values are evaluated into the buffer and scaled in place
    for grid, part in (("gauss", gauss), ("collocation", coll)):
        np.multiply(2.0 * params.k, evaluate(domain, grid, ut, out=part), out=part)
    return _guard(domain, both, time, limit)


def degeneracy_guard(domain, params, ut, time=0.0, eps_deg=DEFAULT_EPS_DEG):
    """Array form of ``check_degeneracy_guard``: ``ut`` may carry leading
    axes and ``time`` broadcasts to them; the first offending sample (in C
    order) raises.  Returns the minimum factor per sample."""

    def block(ut_b, t_b):
        return (_guard_ut(domain, params, ut_b, t_b, 1.0 - eps_deg),)

    return _blockwise(domain, block, (ut,), time)[0]


def _law_stage(domain, params, stack, batch, limit):
    """The Gauss-grid stage of the 2D law, bound to the member stack
    (u, u_tt, u_t, lin), without u when s = 0, and to the guard's
    ``limit``.  Returns ``run(ut, time)``, which guards 2k u_t and projects
    the law's quotient into the stack's last member in place of lin; it
    returns the guard minimum.  ``ut`` is the caller's u_t, from which the
    collocation values are evaluated."""
    k, s = params.k, params.s
    # Gauss grid: values of (u_tt, u_t, lin), gradients of (u, u_tt, u_t)
    evaluate_gauss, vals, grads = bind_evaluate_stack(
        domain, "gauss", stack, slice(s, s + 3), slice(0, 3) if s else None
    )
    both, scaled, coll = _guard_buffer(domain, batch)
    num, term = np.empty(scaled.shape), np.empty(scaled.shape)
    project_gauss = bind_project(domain, "gauss", num, out=stack[-1])

    def run(ut, time):
        evaluate_gauss()
        np.multiply(2.0 * k, vals[1], out=scaled)
        np.multiply(2.0 * k, evaluate(domain, "collocation", ut, out=coll), out=coll)
        guard_min = _guard(domain, both, time, limit)
        _gauss_quotient(k, vals, grads, scaled, num, term)
        project_gauss()
        return guard_min

    return run


def _product_stage(domain, params, stack):
    """The exact projections of the quadratic products of a 2D f, bound to
    the member stack ``stack`` (u, u_tt, u_t, u_ttt), without u when s = 0.
    Returns ``(run, proj)``: ``run()`` writes into ``proj`` the
    projections, in the order (u_tt^2, u_t u_ttt), then (|grad u_t|^2,
    grad u . grad u_tt) if s.

    One stack evaluation gives the values of (u_tt, u_t, u_ttt) and the
    gradients of (u, u_tt, u_t); two stacked multiplies form the products,
    in the operand order of the term-by-term form, and one gemm pair per
    product projects it, the operations of ``spectral.project``.  The
    stage owns the grid values, the products, the left products and the
    projections."""
    s = params.s
    evaluate_fine, vals, grads = bind_evaluate_stack(
        domain, "fine", stack, values=slice(s, s + 3), gradient=slice(0, 3) if s else None
    )
    products = np.empty((2 + 2 * s,) + vals.shape[1:])
    # per axis (d u_t d u_t, d u d u_tt), summed over the axes in order
    pair = products[-2:]
    factors = [(comp[2::-2], comp[2:0:-1]) for comp in grads or ()]
    # the values are spent by then, so they hold each further term
    term = vals[:2]
    # M P M^T per product, with M P bound so a call allocates no temporary
    fine = domain._fine_project
    left = np.empty(products.shape[:-2] + (fine.shape[0], products.shape[-1]))
    proj = np.empty(products.shape[:1] + stack.shape[1:])

    def run():
        evaluate_fine()
        np.multiply(vals[0:2], vals[0::2], out=products[:2])
        if s:
            np.multiply(*factors[0], out=pair)
            for a, b in factors[1:]:
                np.add(pair, np.multiply(a, b, out=term), out=pair)
        np.matmul(np.matmul(fine, products, out=left), fine.T, out=proj)

    return run, proj


@lru_cache(maxsize=32)
def _forcing_weights(k, s, ndim):
    """Weights (2k, 2k, 2, 2) of the projected products of f (without the
    s pair when s = 0), shaped to scale a stack of ``ndim`` axes."""
    w = [2.0 * k] * 2 + [2.0] * 2 * s
    return np.array(w).reshape((-1,) + (1,) * (ndim - 1))


def _gauss_quotient(k, vals, grads, scaled, num, term):
    """The law's numerator over 1 + 2k u_t on the Gauss grid, in the buffer
    ``num`` (``term`` is scratch of the same shape).  ``vals`` are the
    values of (u_tt, u_t, lin), ``grads`` the gradient components of (u,
    u_tt, u_t) or None, and ``scaled`` is 2k u_t.

    The buffered form of ``(lin - 2k u_tt u_tt - sum_i (2 d_i u_t d_i u_t
    + 2 d_i u d_i u_tt)) / (1 + 2k u_t)``, association order included.
    """
    np.multiply(2.0 * k, vals[0], out=term)
    np.subtract(vals[2], np.multiply(term, vals[0], out=term), out=num)
    for comp in grads or ():
        for a, b in ((2, 2), (0, 1)):
            np.multiply(2.0, comp[a], out=term)
            np.subtract(num, np.multiply(term, comp[b], out=term), out=num)
    return np.divide(num, np.add(1.0, scaled, out=term), out=num)


@lru_cache(maxsize=32)
def _maps_1d(domain, params):
    """The matrices of ``_Plan1D``, read-only and shared by every plan on
    this domain and params: ``(bracket, guard, gauss, fine, project)``.

    * ``bracket`` (3, N) holds the bracket weights (w_tt, -w_t, -w_u) of
      the rows (u_tt, u_t, u).
    * ``guard`` is the Gauss-grid sine matrix over the collocation one:
      the values of u_t on both grids in one gemv, bit for bit those of
      ``evaluate`` on each grid, since each row is still its own dot
      product (``tests/test_kernel.py``).
    * ``gauss`` is the Gauss-grid sine matrix, then the derivative matrix
      when s, transposed: N x G or N x 2G.
    * ``fine`` is the fine-grid sine matrix, then the derivative matrix
      when s, transposed the same way.
    * ``project`` is the folded fine projection ``DomainSpec._fine_project``
      transposed.
    """
    s = params.s
    w_tt, w_t, w_u = _bracket_weights(domain, params)
    gauss, fine = ([m[0] for m in domain._grid_matrices[grid]] for grid in ("gauss", "fine"))
    maps = (
        np.stack([w_tt, -w_t, -w_u]),
        np.vstack([gauss[0], domain._grid_matrices["collocation"][0][0]]),
        np.vstack(gauss[: 1 + s]).T.copy(),
        np.vstack(fine[: 1 + s]).T.copy(),
        domain._fine_project.T.copy(),
    )
    for mat in maps:
        mat.setflags(write=False)
    return maps


class _Plan1D:
    """The 1D body of a ``KernelPlan``: each grid stage is one matrix
    product over all of its members, about twenty numpy calls per call in
    all.

    The members are the rows (lin, u_tt, u_t, u, u_ttt) of one array; lin,
    the bracket, is one ``vecdot`` of the rows (u_tt, u_t, u) with the
    bracket weights.  A grid stage multiplies a run of rows by the grid's
    matrices stacked (values, then derivatives when s): one gemm per sample
    that reads each matrix once, where the 2D stages read a matrix once per
    member.  So a call makes far fewer numpy calls than the bound stages
    at small N and reads less memory at large N.

    The law (u_ttt not given).  The rows (lin, u_tt), and (u_t, u)
    when s, go onto the Gauss grid in one buffer, after the quadratic terms:

        [u_tt^2 | u_t'^2 | u' u_tt' | lin | ...],

    so one multiply forms u_tt^2, one more the two gradient terms when s,
    and one gemv with (-2k, -2, -2, 1) gives the numerator.  One gemv fills
    the guard buffer with u_t on the Gauss and the collocation grids (see
    ``_maps_1d``), scaled by 2k: the guard and the diagnostics of
    ``energy`` see the bits of ``degeneracy_guard``, and the Gauss part is
    the denominator's own 2k u_t.  The quotient is one add and one divide,
    and the Gauss projection (one gemv) writes u_ttt into its row.

    f.  The fine-grid values of the rows (u_tt, u_t, u, u_ttt), and their
    derivatives when s, two multiplies for the products (u_tt u_tt, u_t
    u_ttt) and (u_t' u_t', u' u_tt'), one gemm that projects them (reading
    the projection matrix once, where [2k M, 2k M, 2M, 2M] would read it
    four times) and one gemv that weights them by (2k, 2k, 2, 2).  The
    forcing-only route (u_ttt given) fills the rows and runs only this
    part, with no guard; the fine values of u_ttt come from u_ttt itself,
    so the forcing of a march is bit for bit ``energy.forcing_series`` of
    its stored trajectory.
    """

    def __init__(self, domain, params, batch, limit):
        k, s = params.k, params.s
        self.domain, self.params, self.batch, self._limit = domain, params, batch, limit
        self._bracket, self._guard, self._gauss, fine, self._project = _maps_1d(domain, params)
        n, f = domain.modes_per_axis, domain._fine_project.shape[1]
        self._x = np.empty(batch + (5 * n,))
        self._rows = rows = self._x.reshape(batch + (5, n))
        self._lin, self._fields, self._uttt = rows[..., 0, :], rows[..., 1:4, :], rows[..., 4, :]
        # (u_tt, u_t, u), then u_ttt, as the caller's arrays are copied in
        self._fill = self._x[..., n : 4 * n], self._x[..., n:]
        members = rows[..., 1:5, :]
        grid = np.empty(members.shape[:-1] + (fine.shape[1],))
        self._fine = fine, members, grid
        # (u_tt u_tt, u_t u_ttt)
        pairs = [(grid[..., 0:2, :f], grid[..., 0::3, :f])]
        if s:
            # (u_t' u_t', u' u_tt'), the derivatives after the values
            grads = grid[..., f:]
            pairs.append((grads[..., 1:3, :], grads[..., 1::-1, :]))
        self._products = np.empty(batch + (2 * len(pairs), f))
        self._pairs = [
            (a, b, self._products[..., 2 * i : 2 * i + 2, :]) for i, (a, b) in enumerate(pairs)
        ]
        self._proj = np.empty(batch + (2 * len(pairs), n))
        self._weights = _forcing_weights(k, s, 1)
        self._law = self._bind_law()
        self._data_route = self._bind_data_route()

    def _bind_law(self):
        """The Gauss-grid buffers and views: (rows, their grid values, the
        factors and destinations of the quadratic terms, the terms and lin,
        the numerator weights, the guard buffer, it as a column and its
        Gauss part, the numerator and it as a column, the Gauss projection,
        the u_ttt row as a column)."""
        domain, batch, s = self.domain, self.batch, self.params.s
        g = domain.gauss_points_per_axis
        # the rows (lin, u_tt), then (u_t, u) when s; as many summands,
        # the quadratic terms and lin
        rows = terms = 2 + 2 * s
        z = np.empty(batch + ((terms - 1 + rows * (1 + s)) * g,))
        # the Gauss values of lin, the first row, follow the terms
        out = z[..., (terms - 1) * g :].reshape(batch + (rows, (1 + s) * g))
        summands = z[..., : terms * g].reshape(batch + (terms, g))
        utt, grads = out[..., 1, :g], out[..., g:]
        # u_tt^2, then (u_t' u_t', u' u_tt')
        pairs = [(utt, utt, summands[..., 0, :])]
        if s:
            pairs.append((grads[..., 2:4, :], grads[..., 2:0:-1, :], summands[..., 1:-1, :]))
        both, scaled, _ = _guard_buffer(domain, batch)
        num = np.empty(batch + (g,))
        return (
            self._rows[..., :rows, :],
            out,
            pairs,
            summands,
            np.array([-2.0 * self.params.k] + [-2.0] * 2 * s + [1.0]),
            both,
            both[..., None],
            scaled,
            num,
            num[..., None],
            domain._gauss_project[0],
            self._uttt[..., None],
        )

    def _bind_data_route(self):
        """The buffers and views of ``step_terms``: (the u_tt row, the
        (u_t, u) rows, the wave weights (w_t, w_u) of those rows, their
        products and each product alone, f)."""
        rows, batch = self._rows, self.batch
        term = np.empty(batch + (2, rows.shape[-1]))
        return (
            rows[..., 1, :],
            rows[..., 2:4, :],
            np.stack(_wave_weights(self.domain, self.params)),
            term,
            term[..., 0, :],
            term[..., 1, :],
            np.empty(batch + rows.shape[-1:]),
        )

    def _run_law(self, ut, time):
        """Project the law's quotient into the u_ttt row; returns the guard
        minimum."""
        rows, out, pairs, summands, weights, both, both_col, scaled, num, num_col, gp, uttt = (
            self._law
        )
        np.matmul(rows, self._gauss, out=out)
        np.matmul(self._guard, ut[..., None], out=both_col)
        np.multiply(2.0 * self.params.k, both, out=both)
        guard_min = _guard(self.domain, both, time, self._limit)
        for a, b, dst in pairs:
            np.multiply(a, b, out=dst)
        np.matmul(weights, summands, out=num)
        np.divide(num, np.add(1.0, scaled, out=scaled), out=num)
        np.matmul(gp, num_col, out=uttt)
        return guard_min

    def _run_forcing(self, out=None):
        """f of the current rows, written into ``out`` (a fresh array when
        None)."""
        fine, members, grid = self._fine
        np.matmul(members, fine, out=grid)
        for a, b, dst in self._pairs:
            np.multiply(a, b, out=dst)
        np.matmul(self._products, self._project, out=self._proj)
        return np.matmul(self._weights, self._proj, out=out)

    def _run(self, ut, time, f_out=None):
        """The law into the u_ttt row and f into ``f_out``, with the rows
        (u_tt, u_t, u) filled; returns (f, guard minimum).  ``ut`` is the
        caller's u_t, which the guard's gemv reads."""
        np.vecdot(self._bracket, self._fields, axis=-2, out=self._lin)
        guard_min = self._run_law(ut, time)
        return self._run_forcing(f_out), guard_min

    def __call__(self, u, ut, utt, uttt, time):
        if uttt is not None:
            np.concatenate((utt, ut, u, uttt), axis=-1, out=self._fill[1])
            # the forcing-only route never guards
            return uttt, self._run_forcing(), None
        np.concatenate((utt, ut, u), axis=-1, out=self._fill[0])
        f, guard_min = self._run(ut, time)
        return self._uttt.copy(), f, guard_min

    def step_terms(self, data, time):
        """``KernelPlan.step_terms``: one copy of (u_t, u) into their rows,
        one multiply by (w_t, w_u), u_tt = (X - w_t u_t) - w_u u into its
        row, then the law and f."""
        utt, ut_u, wave, term, wt_ut, wu_u, f = self._data_route
        ut_u[...] = data[1::-1]
        np.multiply(wave, ut_u, out=term)
        np.subtract(data[2], wt_ut, out=utt)
        np.subtract(utt, wu_u, out=utt)
        self._run(data[1], time, f)
        return utt, self._uttt, f


class KernelPlan:
    """``nonlinear_terms`` bound to one domain, params, batch shape (() or
    (n,)) and degeneracy margin ``eps_deg``.

    Building the plan resolves the weights and the guard's limit 1 -
    eps_deg, takes every matrix and view and allocates every buffer, so a
    call takes only data and time, is a straight run of numpy calls and
    binds nothing.  Every call returns (u_ttt, f, guard minimum).
    ``nonlinear.solve`` builds one per march and steps through
    ``step_terms``; ``nonlinear_terms`` builds one per block shape and
    calls it.  The plan owns its buffers.  The results of a call never
    share memory with them; those of ``step_terms`` are views of them in
    1D, for the march to copy.  A call guards only when it evaluates the
    law (u_ttt not given); the forcing-only route returns None for the
    guard minimum.

    A plan with k = s = 0 binds no stage: u_ttt is the bracket and f is
    zero.  For every other plan the dimension selects the body (see the
    module docstring).  A 1D plan is a ``_Plan1D``: each grid stage is one
    matrix product over the stacked members, about twenty numpy calls per
    call.  A 2D plan binds the stages of the term-by-term form, with its
    operations, operand layouts and association order: one member stack
    (u, u_tt, u_t, .) serves both grids, its last member lin for the Gauss
    stage and u_ttt for the fine stage (u is left out when s = 0).
    """

    def __init__(self, domain, params, batch=(), eps_deg=DEFAULT_EPS_DEG):
        k, s = params.k, params.s
        self.domain, self.params, self.batch = domain, params, batch
        self._limit = limit = 1.0 - eps_deg
        self._wave = _wave_weights(domain, params)
        self._bracket = _bracket_weights(domain, params)
        self._plan_1d = None
        if k == 0.0 and not s:
            return
        if domain.dimension == 1:
            self._plan_1d = _Plan1D(domain, params, batch, limit)
            return
        self._stack = np.empty((s + 3,) + batch + domain.coeff_shape)
        self._products = _product_stage(domain, params, self._stack)
        self._weights = _forcing_weights(k, s, self._products[1].ndim)
        self._law = _law_stage(domain, params, self._stack, batch, limit)

    def step_terms(self, data, time):
        """(u_tt, u_ttt, f), each flat (n,), at flat semigroup data (3, n)
        of an unbatched plan: u_tt is ``semigroup_utt`` of the data, and
        the law is evaluated and guarded on it as ``__call__`` does, with
        the same operations on the same operand layouts (the guard reads
        the u_t row of ``data`` itself).  In 1D the results are views of
        the plan's buffers, which the next call overwrites."""
        if self._plan_1d is not None:
            return self._plan_1d.step_terms(data, time)
        fields = data.reshape((3,) + self.domain.coeff_shape)
        utt = _utt_of_data(self._wave, fields)
        uttt, f, _ = self(fields[0], fields[1], utt, None, time)
        return utt.reshape(-1), uttt.reshape(-1), f.reshape(-1)

    def _fill(self, u, ut, utt, last):
        """Copy the fields into the member stack, ``last`` into its last
        member."""
        stack, s = self._stack, self.params.s
        if s:
            stack[0] = u
        stack[s] = utt
        stack[s + 1] = ut
        stack[-1] = last

    def __call__(self, u, ut, utt, uttt=None, time=0.0):
        """(u_ttt, f, guard minimum) of one tensor or an (n,) stack, as
        ``nonlinear_terms``, guarded with the plan's own margin; a trip
        carries ``time``."""
        domain, params = self.domain, self.params
        # the forcing-only route (u_ttt given) never guards
        guard_min = None
        if params.k == 0.0 and not params.s:
            # the linear problem: u_ttt is the bracket and f is zero
            if uttt is None:
                uttt = _bracket(self._bracket, u, ut, utt)
                guard_min = _guard_ut(domain, params, ut, time, self._limit)
            return uttt, np.zeros(ut.shape), guard_min
        if self._plan_1d is not None:
            return self._plan_1d(u, ut, utt, uttt, time)
        if uttt is None:
            # the law: the bracket lin is the last member for the Gauss stage,
            # which projects u_ttt into its place
            self._fill(u, ut, utt, _bracket(self._bracket, u, ut, utt))
            guard_min = self._law(ut, time)
            uttt = self._stack[-1].copy()
        else:
            self._fill(u, ut, utt, uttt)
        run_products, proj = self._products
        run_products()
        # (((0 + 2k p0) + 2k p1) + 2 p2) + 2 p3, the sum of the term-by-term form
        np.multiply(self._weights, proj, out=proj)
        return uttt, np.add.reduce(proj, axis=0, initial=0.0), guard_min


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
        _, grads = evaluate_stack(domain, "fine", u[None], gradient=slice(None))
        products.append(gradient_product(grads, 0, 0))
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
