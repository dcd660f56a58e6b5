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
``forcing_f``, ``acceleration`` and ``make_compatibility_data`` are thin
SpectralField front ends.  Long batches run in blocks of
``spectral.BLOCK_BYTES``.

The wave part u_tt - b laplace(u_t) - c^2 laplace(u) is written once, in
``wave_part``, and inverted once, in ``semigroup_utt``; the semigroup data
of ``linear``, the march, the linear energy and the equation residual all
take it from there.  The time grid of a run of length T is written once,
in ``time_grid``, and every sampled series is checked by the one
``check_uniform_grid``.

On the 1D march each call works on arrays of a few dozen values, so its
cost is the count of numpy calls, not the arithmetic; the body is laid out
as a few stages whose ufunc, reduction and matmul calls each cover a whole
stack:

* one member stack (u, u_tt, u_t, .) serves both grids (u is left out
  when s = 0).  Its last member is the linear bracket lin for the Gauss
  stage, which evaluates the values of (u_tt, u_t, lin) and the gradients
  of (u, u_tt, u_t); the projected u_ttt then takes its place, and the
  fine stage evaluates the values of (u_tt, u_t, u_ttt) and the same
  gradients;
* the degeneracy guard: 2k u_t on the Gauss nodes and on the collocation
  nodes share one buffer (the Gauss half is what the law divides by), so
  one min and one max per sample cover both grids; only a trip looks at
  the grids apart, to report where it happened;
* the four fine-grid products come from two stacked multiplies, (u_tt,
  u_t) times (u_tt, u_ttt) and (d u_t, d u) times (d u_t, d u_tt), plus
  one add per further gradient component;
* f is one weighted sum of the four projections, ``add.reduce`` of
  (2k, 2k, 2, 2) times them from an initial 0.

The four forcing products are projected with one stacked projection
(``spectral.project``: the folded matrix in 1D, one batched DCT and the
cosine-to-sine matrices in 2D), then weighted and summed.  Projection is
linear, so summing the products first and projecting once would be
cheaper, but it rounds differently: the residual diagnostic divides
second time differences of Q by dt^2 and amplifies that to about 1e-6
relative, and the Picard contraction ratios move by about 1e-8.  Kept
separate, every sample reproduces the per-field arithmetic exactly.

The body is a ``KernelPlan``, bound once to a domain, params, batch shape
and forcing flag: building it resolves the weights, takes every matrix
and view and allocates every buffer (the member stack, the Gauss-grid
values, 2k u_t, the numerator and the quotient, the fine-grid values,
the products, their projections and the 2D DCT buffers), so a call is a
straight run of ``out=`` numpy calls with no shape arithmetic, allocation
or cache lookup.  Each bound stage owns its buffers; the product stage
reuses two spent ones, each at the line that says why (``spectral``
states the rule).  ``nonlinear.solve`` builds one plan per march and
calls it at every substep; ``nonlinear_terms`` builds one per block
shape of its batch and calls it.  The buffers never escape: u_ttt, f and
the guard minima come back as fresh arrays.  Each stacked or buffered
operation is, element by element, the operation of the term-by-term
expression it replaces, in the same association order: 2k u_tt^2 is
((2k) u_tt) u_tt, every gradient component subtracts ((2) d u_t) d u_t,
then ((2) d u) d u_tt, the products keep their operand order (IEEE
multiplication commutes anyway), and f is (((0 + 2k p0) + 2k p1) + 2 p2)
+ 2 p3.  Each numpy call also sees the operand layouts it saw before,
since matmul and einsum round by layout.  So the results are bit for bit
those of the term-by-term form (``tests/test_kernel.py``).
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
    "CompatibilityData",
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


@dataclass
class CompatibilityData:
    """Initial triple plus the induced third time derivative at t = 0."""

    u0: SpectralField
    u1: SpectralField
    u2: SpectralField
    uttt0: SpectralField


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


def _guard(domain, both, time, eps_deg, at_start):
    """The degeneracy guard on a ``_guard_buffer``: one min and one max
    per sample over both grids; see check_degeneracy_guard.  Returns the
    minimum factor (a float, or one per sample of an (n,) stack)."""
    low = np.minimum.reduce(both, axis=-1)
    high = np.maximum.reduce(both, axis=-1)
    limit = 1.0 - eps_deg
    # |x| >= limit somewhere iff max x >= limit or min x <= -limit; over a
    # stack, fmax and fmin pass over a sample holding a NaN, which never trips
    batched = both.ndim > 1
    top, bottom = (np.fmax.reduce(high), np.fmin.reduce(low)) if batched else (high, low)
    if top >= limit or bottom <= -limit:
        raise _degeneracy_error(domain, both, low, high, time, limit, at_start)
    return 1.0 + low if batched else float(1.0 + low)


def _degeneracy_error(domain, both, low, high, time, limit, at_start):
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
        at_start=at_start,
    )


def _guard_ut(domain, params, ut, time, eps_deg, at_start):
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
    return _guard(domain, both, time, eps_deg, at_start)


def degeneracy_guard(domain, params, ut, time=0.0, eps_deg=DEFAULT_EPS_DEG, at_start=False):
    """Array form of ``check_degeneracy_guard``: ``ut`` may carry leading
    axes and ``time`` broadcasts to them; the first offending sample (in C
    order) raises.  Returns the minimum factor per sample."""

    def block(ut_b, t_b):
        return (_guard_ut(domain, params, ut_b, t_b, eps_deg, at_start),)

    return _blockwise(domain, block, (ut,), time)[0]


def _law_stage(domain, params, stack, batch):
    """The Gauss-grid stage of the law (k != 0), bound to the member stack
    (u, u_tt, u_t, lin), without u when s = 0.  Returns ``run(ut, time,
    eps_deg, at_start)``, which guards 2k u_t (unless ``eps_deg`` is None)
    and projects the law's quotient into the stack's last member in place
    of lin; it returns the guard minimum or None.  ``ut`` is the caller's
    u_t, from which the collocation values are evaluated."""
    k, s = params.k, params.s
    # Gauss grid: values of (u_tt, u_t, lin), gradients of (u, u_tt, u_t)
    evaluate_gauss, vals, grads = bind_evaluate_stack(
        domain, "gauss", stack, slice(s, s + 3), slice(0, 3) if s else None
    )
    both, scaled, coll = _guard_buffer(domain, batch)
    num, term = np.empty(scaled.shape), np.empty(scaled.shape)
    project_gauss = bind_project(domain, "gauss", num, out=stack[-1])

    def run(ut, time, eps_deg, at_start):
        guard_min = None
        evaluate_gauss()
        np.multiply(2.0 * k, vals[1], out=scaled)
        if eps_deg is not None:
            np.multiply(2.0 * k, evaluate(domain, "collocation", ut, out=coll), out=coll)
            guard_min = _guard(domain, both, time, eps_deg, at_start)
        _gauss_quotient(k, vals, grads, scaled, num, term)
        project_gauss()
        return guard_min

    return run


def _product_stage(domain, params, stack):
    """The exact projections of the quadratic products of f, bound to the
    member stack ``stack`` (u, u_tt, u_t, u_ttt), without u when s = 0 and
    without u_ttt when k = 0.  Returns ``(run, proj)``: ``run()`` writes
    into ``proj`` the projections, in the order (u_tt^2, u_t u_ttt) if
    k != 0, then (|grad u_t|^2, grad u . grad u_tt) if s.

    One stack evaluation gives the values of (u_tt, u_t, u_ttt) and the
    gradients of (u, u_tt, u_t); two stacked multiplies form the products,
    in the operand order of the term-by-term form.  The stage owns the grid
    values, the products and the projections."""
    k, s = params.k, params.s
    evaluate_fine, vals, grads = bind_evaluate_stack(
        domain,
        "fine",
        stack,
        values=slice(s, s + 3) if k != 0.0 else None,
        gradient=slice(0, 3) if s else None,
    )
    grid = (vals if k != 0.0 else grads[0]).shape[1:]
    products = np.empty((2 * (k != 0.0) + 2 * s,) + grid)
    # per axis (d u_t d u_t, d u d u_tt), summed over the axes in order
    pair = products[-2:]
    factors = [(comp[2::-2], comp[2:0:-1]) for comp in grads or ()]
    term = None
    if len(factors) > 1:
        # the values are spent by then, so they hold each further term
        term = vals[:2] if vals is not None else np.empty(pair.shape)
    # the 2D DCT spends the products before proj is written, so they hold
    # proj; the 1D matrix reads them while it writes proj
    shape = products.shape[:1] + stack.shape[1:]
    if domain.dimension == 2:
        proj = products.reshape(-1)[: math.prod(shape)].reshape(shape)
    else:
        proj = np.empty(shape)
    project_fine = bind_project(domain, "fine", products, out=proj)

    def run():
        evaluate_fine()
        if k != 0.0:
            np.multiply(vals[0:2], vals[0::2], out=products[:2])
        if s:
            np.multiply(*factors[0], out=pair)
            for a, b in factors[1:]:
                np.add(pair, np.multiply(a, b, out=term), out=pair)
        project_fine()

    return run, proj


@lru_cache(maxsize=32)
def _forcing_weights(k, s, ndim):
    """Weights (2k, 2k, 2, 2) of the projected products of f (without the
    k pair when k = 0 and the s pair when s = 0), shaped to scale a stack
    of ``ndim`` axes."""
    w = [2.0 * k] * 2 * (k != 0.0) + [2.0] * 2 * s
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


class KernelPlan:
    """``nonlinear_terms`` bound to one domain, params, batch shape (() or
    (n,)) and forcing flag.

    Building the plan resolves the weights, takes every matrix and view and
    allocates every buffer once (those of the Gauss stage of the law on its
    first call without u_ttt), so a call is a straight run of numpy calls
    with the operations, operand layouts and association order of the
    term-by-term form.  ``nonlinear.solve`` builds one per march;
    ``nonlinear_terms`` builds one per block shape and calls it.  The plan
    owns its buffers, and the results never share memory with them.

    One member stack (u, u_tt, u_t, .) serves both grids: its last member
    is lin for the Gauss stage and u_ttt for the fine stage (u is left out
    when s = 0, the last member when k = 0).
    """

    def __init__(self, domain, params, batch=(), forcing=True):
        k, s = params.k, params.s
        self.domain, self.params, self.batch, self.forcing = domain, params, batch, forcing
        self._bracket = _bracket_weights(domain, params)
        self._wave = _wave_weights(domain, params)
        self._stack = np.empty((s + 2 + (k != 0.0),) + batch + domain.coeff_shape)
        self._law = None
        self._products = None
        if (k != 0.0 or s) and (forcing or k == 0.0):
            self._products = _product_stage(domain, params, self._stack)
            self._weights = _forcing_weights(k, s, self._products[1].ndim)

    def semigroup_utt(self, data):
        """``semigroup_utt`` of semigroup data on the plan's domain and params."""
        return _utt_of_data(self._wave, data)

    def _fill(self, u, ut, utt, last):
        """Copy the fields into the member stack (``last`` None when k = 0)."""
        stack, s = self._stack, self.params.s
        if s:
            stack[0] = u
        stack[s] = utt
        stack[s + 1] = ut
        if last is not None:
            stack[-1] = last

    def __call__(self, u, ut, utt, uttt=None, time=0.0, eps_deg=DEFAULT_EPS_DEG, at_start=False):
        """(u_ttt, f, guard minimum) of one tensor or an (n,) stack, as
        ``nonlinear_terms``."""
        domain, params = self.domain, self.params
        k, s = params.k, params.s
        guard_min = None
        lin = None
        if uttt is None:
            lin = uttt = _bracket(self._bracket, u, ut, utt)
            if k != 0.0:
                if self._law is None:
                    self._law = _law_stage(domain, params, self._stack, self.batch)
                self._fill(u, ut, utt, lin)
                guard_min = self._law(ut, time, eps_deg, at_start)
                uttt = self._stack[-1].copy()
        if guard_min is None and eps_deg is not None:
            guard_min = _guard_ut(domain, params, ut, time, eps_deg, at_start)
        # with k = 0 the law is explicit: the bracket minus the gradient terms
        gradient_route = lin is not None and k == 0.0 and s
        if not (self.forcing or gradient_route):
            return uttt, None, guard_min
        if self._products is None:
            return uttt, np.zeros(ut.shape), guard_min
        if lin is None or k == 0.0:
            self._fill(u, ut, utt, uttt if k != 0.0 else None)
        run_products, proj = self._products
        run_products()
        if gradient_route:
            grad = 2.0 * proj[0]
            grad += 2.0 * proj[1]
            uttt = lin - grad
        if not self.forcing:
            return uttt, None, guard_min
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
    at_start=False,
    forcing=True,
):
    """The quasilinear law on raw coefficient arrays: (u_ttt, f, guard minimum).

    ``u``, ``ut``, ``utt`` (and ``uttt``) have shape batch + coeff shape
    for any batch shape, and ``time`` broadcasts to the batch.

    * ``uttt`` None: u_ttt is the Galerkin projection of the evolution law
      (see ``acceleration``); given, it is taken as is and only f uses it.
    * f is the exactly projected forcing (see ``forcing_f``); None when
      ``forcing`` is false.
    * The degeneracy guard (see ``check_degeneracy_guard``) runs once per
      sample unless ``eps_deg`` is None; the guard minimum is then None.

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
            plan = KernelPlan(domain, params, batch, forcing)
        return plan(u_b, ut_b, utt_b, uttt_b, t_b, eps_deg, at_start)

    return _blockwise(domain, block, (u, ut, utt, uttt), time)


# ---------------------------------------------------------------------------
# SpectralField front ends
# ---------------------------------------------------------------------------


def check_degeneracy_guard(ut, params, time, eps_deg=DEFAULT_EPS_DEG, at_start=False):
    """Raise DegeneracyError unless |2k u_t| < 1 - eps_deg on both grids.

    The factor 1 + 2k u_t is checked on the collocation grid and on the
    Gauss grid where ``acceleration`` divides by it (a band-limited u_t
    can peak between collocation nodes).  Enforcing the two-sided bound
    (rather than only keeping the factor positive) keeps the reciprocal
    uniformly bounded on both sides.  Returns the minimum of the factor
    over both grids.
    """
    return degeneracy_guard(ut.domain, params, ut.coeffs, time, eps_deg, at_start)


def forcing_f(state, uttt, params):
    """Quadratic forcing f of the factorized system, exactly projected.

    f = 2k u_tt^2 + 2k u_t u_ttt + 2s |grad u_t|^2 + 2s grad(u).grad(u_tt).
    All four terms are quadratic in resolved fields, so the dealiased product
    machinery returns their exact Galerkin projection.
    """
    _, f, _ = nonlinear_terms(
        state.domain,
        params,
        state.u.coeffs,
        state.ut.coeffs,
        state.utt.coeffs,
        uttt=uttt.coeffs,
        eps_deg=None,
    )
    return SpectralField(state.domain, f)


def acceleration(state, params, eps_deg=DEFAULT_EPS_DEG):
    """Galerkin projection of u_ttt from the quasilinear evolution law.

    The numerator and the factor 1 + 2k u_t are evaluated pointwise on the
    Gauss grid, divided, and projected; the quadratic gradient terms are
    skipped entirely when s = 0 (they would contribute exact zeros).  Raises
    DegeneracyError when the guard fails.
    """
    uttt, _, _ = nonlinear_terms(
        state.domain,
        params,
        state.u.coeffs,
        state.ut.coeffs,
        state.utt.coeffs,
        time=state.t,
        eps_deg=eps_deg,
        forcing=False,
    )
    return SpectralField(state.domain, uttt)


def make_compatibility_data(u0, u1, u2, params, eps_deg=DEFAULT_EPS_DEG):
    """Bundle initial data with the u_ttt(0) that the evolution law itself
    induces (``acceleration`` at t = 0), guarding degeneracy once.

    A guard failure here carries ``at_start=True`` so callers can distinguish
    inadmissible data from a mid-run breakdown.
    """
    state = EvolutionState(0.0, u0, u1, u2)
    uttt0, _, _ = nonlinear_terms(
        state.domain,
        params,
        u0.coeffs,
        u1.coeffs,
        u2.coeffs,
        eps_deg=eps_deg,
        at_start=True,
        forcing=False,
    )
    return CompatibilityData(u0, u1, u2, SpectralField(state.domain, uttt0))


# ---------------------------------------------------------------------------
# diagnostics along discrete trajectories
# ---------------------------------------------------------------------------


def _quad_source(domain, params, u, ut):
    """Q = k u_t^2 + s |grad u|^2, exactly projected; leading axes allowed."""
    out = np.zeros(u.shape)
    products = []
    if params.k != 0.0:
        vals = evaluate(domain, "fine", ut)
        products.append(vals * vals)
    if params.s:
        _, grads = evaluate_stack(domain, "fine", u[None], gradient=slice(None))
        products.append(gradient_product(grads, 0, 0))
    if not products:
        return out
    proj = project(domain, "fine", np.stack(products))
    if params.k != 0.0:
        out += params.k * proj[0]
    if params.s:
        out += proj[-1]
    return out


def pde_residual_series(domain, params, t_grid, u, ut, utt, source=None):
    """Relative residual of the equation at every interior sample.

    ``u``, ``ut``, ``utt`` are (nt,) + coeff shape series on ``t_grid``;
    entry i of the result belongs to sample i + 1.  Time derivatives use
    centered differences: (a laplace - d/dt) G - d^2/dt^2 Q - source,
    normalized by the largest constituent term norm.  ``source`` (shape
    (nt - 2,) + coeff shape, at the interior samples) supports
    manufactured-solution checks.
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
        if source is not None:
            resid = resid - source[blk]
        terms = [np.sqrt(sq_norm(domain, term)) for term in (t_diff, t_dot, t_ddot)]
        scale = np.maximum(np.max(terms, axis=0), 1e-300)
        out[blk] = np.sqrt(sq_norm(domain, resid)) / scale
    return out
