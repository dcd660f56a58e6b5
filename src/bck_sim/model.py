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
shape, to (u_ttt, f, guard minimum).  Per grid it evaluates each needed
field and gradient once, as one stacked product; the degeneracy guard
runs once, on the Gauss values of 1 + 2k u_t that the law divides by and
on the collocation nodes.  The march, the Picard sweeps and the
post-processing series call it directly; ``acceleration``, ``forcing_f``
and ``check_degeneracy_guard`` are thin SpectralField front ends.  Long
batches run in blocks of ``spectral.BLOCK_BYTES``.

The four forcing products are projected with one batched DCT and one
stacked projection, then scaled and summed term by term.  Projection is
linear, so summing the products first and projecting once would be
cheaper, but it rounds differently: the residual diagnostic divides second
time differences of Q by dt^2 and amplifies that to about 1e-6 relative,
and the Picard contraction ratios move by about 1e-8.  Kept separate, every
sample reproduces the per-field arithmetic exactly.

The Gauss-grid stage of the law (the field and gradient values, 2k u_t,
the numerator and the quotient) and the fine-grid values and products of
the forcing run in the buffers of a ``spectral.GridWorkspace``:
``nonlinear.solve`` makes one per march and passes it to every kernel
call, and a batched call without one makes one shared by its blocks, so
steady-state calls allocate no Gauss-grid temporaries (the DCT of the
products and the small projection intermediates still allocate).  The
buffers never escape: u_ttt, f and the guard minima come back as fresh
arrays.  Each buffered operation is the operation of the expression it
replaces, in the same association order (2k u_tt^2 is ((2k) u_tt) u_tt,
and every gradient component subtracts ((2) d u_t) d u_t, then
((2) d u) d u_tt), so the results are bit for bit those of the
allocating form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegeneracyError
from .spectral import (  # product_dealiased is re-exported for callers of this module
    GridField,
    GridWorkspace,
    SpectralField,
    evaluate,
    evaluate_stack,
    gradient_product,
    grid_values,
    product_dealiased,
    project,
    sample_blocks,
)

__all__ = [
    "DEFAULT_EPS_DEG",
    "ModelParams",
    "PhysicalParams",
    "EvolutionState",
    "CompatibilityData",
    "derive_params",
    "degeneracy_factor",
    "degeneracy_factor_series",
    "check_degeneracy_guard",
    "degeneracy_guard",
    "linear_bracket",
    "nonlinear_terms",
    "forcing_f",
    "acceleration",
    "linear_uttt",
    "compatibility_uttt0",
    "make_compatibility_data",
    "pde_residual",
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

    @property
    def degeneracy_threshold(self):
        """|u_t| level at which 1 + 2k u_t can vanish: 1/(2k)."""
        return math.inf if self.k == 0.0 else 1.0 / (2.0 * self.k)


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


def linear_bracket(domain, params, u, ut, utt):
    """Coefficients of (a+b) laplace(u_tt) + c^2 laplace(u_t)
    - a b laplace^2(u_t) - a c^2 laplace^2(u); diagonal in the basis,
    leading axes allowed."""
    w_tt, w_t, w_u = _bracket_weights(domain, params)
    return w_tt * utt - w_t * ut - w_u * u


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


def _guard(domain, params, ut, time, eps_deg, at_start, gauss_scaled=None):
    """Guard of one tensor or of an (n,) stack; see check_degeneracy_guard.

    ``gauss_scaled`` passes in 2k u_t on the Gauss grid when the caller has
    it already.  Returns the minimum factor (a float, or one per sample).
    """
    batched = ut.ndim > domain.dimension
    n = ut.shape[0] if batched else 1
    if params.k == 0.0:
        return np.ones(n) if batched else 1.0
    scale = 2.0 * params.k
    if gauss_scaled is None:
        gauss_scaled = scale * evaluate(domain, "gauss", ut)
    grids = (
        ("grid index", scale * evaluate(domain, "collocation", ut)),
        ("Gauss node", gauss_scaled),
    )
    flats = [scaled.reshape(n, -1) for _, scaled in grids]
    lows = [flat.min(axis=1) for flat in flats]
    highs = [flat.max(axis=1) for flat in flats]
    low = np.minimum(lows[0], lows[1])
    limit = 1.0 - eps_deg
    # |x| >= limit somewhere iff max x >= limit or min x <= -limit; this
    # needs no grid-sized |x| temporary
    bad = (np.maximum(highs[0], highs[1]) >= limit) | (low <= -limit)
    if bad.any():
        i = int(np.argmax(bad))
        on_collocation = highs[0][i] >= limit or lows[0][i] <= -limit
        label, scaled = grids[0 if on_collocation else 1]
        sample = scaled[i] if batched else scaled
        worst = int(np.argmax(np.abs(sample)))
        t = float(time[i] if np.ndim(time) else time)
        idx = np.unravel_index(worst, sample.shape)
        idx = idx[0] if len(idx) == 1 else tuple(int(v) for v in idx)
        raise DegeneracyError(
            f"degeneracy guard tripped at t={t:.6g}: 1 + 2k u_t reaches "
            f"{1.0 + sample.ravel()[worst]:.6g} at {label} {idx} "
            f"(require |2k u_t| < {limit:g})",
            time=t,
            index=idx,
            factor=float(1.0 + sample.min()),
            at_start=at_start,
        )
    minima = 1.0 + low
    return minima if batched else float(minima[0])


def degeneracy_guard(domain, params, ut, time=0.0, eps_deg=DEFAULT_EPS_DEG, at_start=False):
    """Array form of ``check_degeneracy_guard``: ``ut`` may carry leading
    axes and ``time`` broadcasts to them; the first offending sample (in C
    order) raises.  Returns the minimum factor per sample."""

    def block(ut_b, t_b):
        return (_guard(domain, params, ut_b, t_b, eps_deg, at_start),)

    return _blockwise(domain, block, (ut,), time)[0]


def _product_projections(domain, params, u, ut, utt, uttt, fine, workspace):
    """Exact projections of the quadratic products of f, in the order
    (u_tt^2, u_t u_ttt) if k != 0, then (|grad u_t|^2, grad u . grad u_tt)
    if s; ``fine`` is the stack (u_tt, u_t[, u]) when the caller has it
    already (else None), ``workspace`` holds the grid values and the
    products.  None if k = s = 0."""
    k, s = params.k, params.s
    if k == 0.0 and not s:
        return None
    if fine is None:
        fine = np.array([utt, ut, u] if s else [utt, ut])
    vals, grads = evaluate_stack(
        domain,
        "fine",
        fine,
        values=slice(0, 2) if k != 0.0 else None,
        gradient=slice(0, 3) if s else None,
        workspace=workspace,
    )
    shape = (vals[0] if k != 0.0 else grads[0][0]).shape
    products = workspace.take(("fine", "products"), (2 * (k != 0.0) + 2 * s,) + shape)
    if k != 0.0:
        np.multiply(vals[0], vals[0], out=products[0])
        np.multiply(vals[1], evaluate(domain, "fine", uttt), out=products[1])
    if s:
        gradient_product(grads, 1, 1, out=products[-2])
        gradient_product(grads, 2, 0, out=products[-1])
    return project(domain, "fine", products)


def _gauss_quotient(k, vals, grads, scaled, workspace):
    """The law's numerator over 1 + 2k u_t on the Gauss grid, in a
    ``workspace`` buffer.  ``vals`` are the values of (lin, u_tt, u_t),
    ``grads`` the gradient components of (u_tt, u_t, u) or None, and
    ``scaled`` is 2k u_t.

    The buffered form of ``(lin - 2k u_tt u_tt - sum_i (2 d_i u_t d_i u_t
    + 2 d_i u d_i u_tt)) / (1 + 2k u_t)``, association order included.
    """
    num = workspace.take("num", scaled.shape)
    term = workspace.take("term", scaled.shape)
    np.multiply(2.0 * k, vals[1], out=term)
    np.subtract(vals[0], np.multiply(term, vals[1], out=term), out=num)
    for comp in grads or ():
        for a, b in ((1, 1), (2, 0)):
            np.multiply(2.0, comp[a], out=term)
            np.subtract(num, np.multiply(term, comp[b], out=term), out=num)
    return np.divide(num, np.add(1.0, scaled, out=term), out=num)


def _terms(domain, params, u, ut, utt, uttt, time, eps_deg, at_start, forcing, workspace):
    """Kernel body on one tensor or an (n,) stack; see nonlinear_terms."""
    k, s = params.k, params.s
    guard_min = None
    lin = None
    fine = None
    if uttt is None:
        lin = linear_bracket(domain, params, u, ut, utt)
        uttt = lin
        if k != 0.0:
            # Gauss grid: values of (lin, u_tt, u_t), gradients of (u_tt, u_t, u)
            # np.array stacks like np.stack, at a fraction of its call cost
            stack = np.array([lin, utt, ut, u] if s else [lin, utt, ut])
            vals, grads = evaluate_stack(
                domain,
                "gauss",
                stack,
                values=slice(0, 3),
                gradient=slice(1, 4) if s else None,
                workspace=workspace,
            )
            scaled = np.multiply(2.0 * k, vals[2], out=workspace.take("scaled", vals[2].shape))
            if eps_deg is not None:
                guard_min = _guard(domain, params, ut, time, eps_deg, at_start, scaled)
            uttt = project(domain, "gauss", _gauss_quotient(k, vals, grads, scaled, workspace))
            fine = stack[1:]
    if guard_min is None and eps_deg is not None:
        guard_min = _guard(domain, params, ut, time, eps_deg, at_start)
    # with k = 0 the law is explicit: the bracket minus the gradient terms
    gradient_route = lin is not None and k == 0.0 and s
    if not (forcing or gradient_route):
        return uttt, None, guard_min
    proj = _product_projections(domain, params, u, ut, utt, uttt, fine, workspace)
    if gradient_route:
        grad = 2.0 * proj[0]
        grad += 2.0 * proj[1]
        uttt = lin - grad
    if not forcing:
        return uttt, None, guard_min
    f = np.zeros(ut.shape)
    if k != 0.0:
        f += 2.0 * k * proj[0]
        f += 2.0 * k * proj[1]
    if s:
        f += 2.0 * proj[-2]
        f += 2.0 * proj[-1]
    return uttt, f, guard_min


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
    workspace=None,
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
    * ``workspace`` (a ``spectral.GridWorkspace``) holds the grid
      buffers; a march passes its own, None makes one for this call.
      The results never share memory with it.
    """
    ws = GridWorkspace() if workspace is None else workspace

    def block(u_b, ut_b, utt_b, uttt_b, t_b):
        return _terms(
            domain, params, u_b, ut_b, utt_b, uttt_b, t_b, eps_deg, at_start, forcing, ws
        )

    return _blockwise(domain, block, (u, ut, utt, uttt), time)


# ---------------------------------------------------------------------------
# SpectralField front ends
# ---------------------------------------------------------------------------


def degeneracy_factor(state, params):
    """Pointwise values of 1 + 2k u_t on the collocation grid and their min.

    Purely diagnostic; it never raises.  The solver-side guard is
    ``check_degeneracy_guard``.
    """
    factor = _collocation_factor(state.domain, params, state.ut.coeffs)
    return GridField(state.domain, factor), float(factor.min())


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


def linear_uttt(state, params, f=None):
    """u_ttt of the linearized equation with frozen right-hand side f:

        u_ttt = (a+b) laplace(u_tt) + c^2 laplace(u_t)
                - a b laplace^2(u_t) - a c^2 laplace^2(u) - f.

    Exact in the Galerkin space; this is the consistent third derivative of
    a solution of the linear problem, and the k = s = 0 reduction of
    ``acceleration``.
    """
    coeffs = linear_bracket(
        state.domain, params, state.u.coeffs, state.ut.coeffs, state.utt.coeffs
    )
    if f is not None:
        coeffs = coeffs - f.coeffs
    return SpectralField(state.domain, coeffs)


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


def compatibility_uttt0(u0, u1, u2, params, eps_deg=DEFAULT_EPS_DEG):
    """Third time derivative induced at t = 0 by the evolution law itself."""
    state = EvolutionState(0.0, u0, u1, u2)
    return acceleration(state, params, eps_deg)


def make_compatibility_data(u0, u1, u2, params, eps_deg=DEFAULT_EPS_DEG):
    """Bundle initial data with the induced u_ttt(0), guarding degeneracy.

    A guard failure here carries ``at_start=True`` so callers can distinguish
    inadmissible data from a mid-run breakdown.
    """
    check_degeneracy_guard(u1, params, 0.0, eps_deg, at_start=True)
    return CompatibilityData(u0, u1, u2, compatibility_uttt0(u0, u1, u2, params, eps_deg))


# ---------------------------------------------------------------------------
# diagnostics along discrete trajectories
# ---------------------------------------------------------------------------


def _collocation_factor(domain, params, ut):
    return 1.0 + 2.0 * params.k * grid_values(domain, ut)


def degeneracy_factor_series(domain, params, ut):
    """Collocation-grid minimum of 1 + 2k u_t for each tensor of an (n,) stack."""
    out = np.empty(len(ut))
    for blk in sample_blocks(out.size, 24 * domain.quadrature_points_per_axis**domain.dimension):
        factor = _collocation_factor(domain, params, ut[blk])
        out[blk] = factor.reshape(factor.shape[0], -1).min(axis=1)
    return out


def _wave_part(domain, params, u, ut, utt):
    """G = u_tt - b laplace(u_t) - c^2 laplace(u) in coefficients."""
    lam = domain.eigenvalue_grid
    return utt + params.b * lam * ut + params.c**2 * lam * u


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


def _norms(coeffs, weight):
    """L2 norm of each tensor of an (n,) stack."""
    return np.sqrt(np.sum((coeffs * coeffs).reshape(coeffs.shape[0], -1), axis=1) * weight)


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
    dt1 = t[1:-1] - t[:-2]
    dt2 = t[2:] - t[1:-1]
    if np.any(np.abs(dt1 - dt2) > 1e-9 * np.maximum(np.abs(dt1), np.abs(dt2))):
        raise ValueError("states must be equispaced in time")
    dt = 0.5 * (dt1 + dt2)
    lam = domain.eigenvalue_grid
    weight = domain.mode_l2_squared
    out = np.empty(dt.size)
    sample_bytes = 64 * (2 * domain.modes_per_axis + 1) ** domain.dimension
    for blk in sample_blocks(out.size, sample_bytes):
        window = slice(blk.start, blk.stop + 2)
        g = _wave_part(domain, params, u[window], ut[window], utt[window])
        q = _quad_source(domain, params, u[window], ut[window])
        h = dt[blk].reshape((-1,) + (1,) * domain.dimension)
        t_diff = -params.a * lam * g[1:-1]
        t_dot = (g[2:] - g[:-2]) / (2.0 * h)
        t_ddot = (q[2:] - 2.0 * q[1:-1] + q[:-2]) / (h * h)
        resid = t_diff - t_dot - t_ddot
        if source is not None:
            resid = resid - source[blk]
        terms = [_norms(term, weight) for term in (t_diff, t_dot, t_ddot)]
        scale = np.maximum(np.max(terms, axis=0), 1e-300)
        out[blk] = _norms(resid, weight) / scale
    return out


def pde_residual(prev, mid, nxt, params, source=None):
    """Relative residual of the equation at ``mid`` from three equispaced states.

    See ``pde_residual_series``; ``source`` is a SpectralField at the
    middle time.
    """
    states = (prev, mid, nxt)

    def series(name):
        return np.stack([getattr(st, name).coeffs for st in states])

    return float(
        pde_residual_series(
            mid.domain,
            params,
            [st.t for st in states],
            series("u"),
            series("ut"),
            series("utt"),
            None if source is None else source.coeffs[None],
        )[0]
    )
