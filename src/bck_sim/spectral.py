"""Sine-basis spectral calculus on a box with double Dirichlet conditions.

Fields are expanded in products of sines,

    phi_k(x) = prod_i sin(k_i pi x_i / L_i),   k_i = 1..N,

which are exactly the eigenfunctions of the Dirichlet Laplacian that also
satisfy ``laplace(u) = 0`` on the boundary.  Writing ``A = -laplace``, every
power ``A**theta`` acts diagonally on the coefficients through the
eigenvalues ``lambda_k = sum_i (k_i pi / L_i)**2``, so Sobolev norms, Poincare
bounds and semigroup propagators all reduce to elementary vector arithmetic.

Quadratic expressions are the one place the basis is left: a product of two
sine expansions is, axis by axis, a cosine polynomial of twice the degree.
``product_dealiased`` and ``gradient_dot`` therefore evaluate the factors on
a closed grid fine enough to represent that cosine polynomial exactly,
recover its cosine coefficients by a type-1 DCT, and map them back to the
retained sine modes through the analytic projection

    (2/L) int_0^L cos(p pi x/L) sin(k pi x/L) dx = 4k / (pi (k^2 - p^2))

for ``k + p`` odd (zero otherwise).  The result is the exact Galerkin
projection of the pointwise product, free of aliasing by construction.

Non-polynomial pointwise operations (the reciprocal in the third-order
evolution) cannot be exact; they are projected with a Gauss-Legendre rule
whose node count comfortably over-resolves the integrands, see
``project_gauss``.

Two layers expose this calculus.  ``SpectralField`` functions validate and
wrap single coefficient tensors.  Underneath, the array layer
(``evaluate``, ``evaluate_stack``, ``project``, ``grid_values``,
``linf_series``) takes raw coefficient arrays of shape batch + coeff
shape, with any number of leading axes (time samples, stacked fields).
Every leading index is computed with the same operations as a lone
tensor: a 1D stack goes through ``M @ x[..., None]`` (one gemv per member),
a 2D stack through ``M0 @ X @ M1.T`` (the same gemm pair), and the
transforms run over the trailing axes only, so batched results equal
unbatched ones bit for bit.  Merging matrices into one larger product, or
folding the DCT into a matrix, would change the rounding; the array layer
avoids both.  Every scipy.fft call goes through this module's ``_fft``.

Grid workspace.  ``evaluate_stack`` writes its matrix products into the
buffers of a ``GridWorkspace`` (``np.matmul(..., out=)``), and the model's
Gauss-grid arithmetic writes into the same object through ufunc ``out=``.
A workspace lives for one nonlinear march (``nonlinear.solve``) or for one
batched kernel call, shared by its blocks; nothing is cached for the life
of the module.  Its buffers never escape: every value handed back to a
caller of the model kernel is a fresh array, and an array returned by
``evaluate_stack`` stays valid only until the next call with the same
workspace and grid.  The operations and their association order are the
ones of the allocating expressions they replace, so every bit is the same;
what goes away is the fresh grid-sized temporaries per call, which at
2D N=48 (224 x 224 Gauss nodes) page-fault several megabytes per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import fft as _fft


__all__ = [
    "DomainSpec",
    "SpectralField",
    "GridField",
    "eigenvalues",
    "fractional_power",
    "sobolev_norm",
    "l2_norm",
    "to_grid",
    "to_spectral",
    "product_dealiased",
    "product_collocation",
    "gradient_dot",
    "evaluate_at",
    "evaluate_gauss",
    "project_gauss",
    "linf_grid",
    "embedding_constant_estimate",
    "BLOCK_BYTES",
    "sample_blocks",
    "GridWorkspace",
    "evaluate",
    "evaluate_stack",
    "gradient_product",
    "project",
    "grid_values",
    "linf_series",
]


def _sine_matrix(points, length, n_modes):
    """Matrix S[j, m] = sin((m+1) pi x_j / length)."""
    k = np.arange(1, n_modes + 1)
    return np.sin(np.outer(points, k * (np.pi / length)))


def _cosine_matrix(points, length, n_modes):
    k = np.arange(1, n_modes + 1)
    return np.cos(np.outer(points, k * (np.pi / length)))


@dataclass(frozen=True)
class DomainSpec:
    """Box (0, L_1) x ... x (0, L_d) with N sine modes per axis.

    ``quadrature_points_per_axis`` sizes the interior evaluation grid used
    for pointwise diagnostics (sup norms, the degeneracy factor) and for the
    collocation transforms; it defaults to the dealiasing capacity
    ``ceil(3 N / 2)`` and may not be chosen smaller.
    """

    dimension: int
    lengths: tuple[float, ...]
    modes_per_axis: int
    quadrature_points_per_axis: int | None = None

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dimension}")
        lengths = tuple(float(v) for v in self.lengths)
        if len(lengths) != self.dimension:
            raise ValueError("lengths must provide one extent per axis")
        if any(not math.isfinite(v) or v <= 0.0 for v in lengths):
            raise ValueError("lengths must be positive and finite")
        object.__setattr__(self, "lengths", lengths)
        if self.modes_per_axis < 1:
            raise ValueError("modes_per_axis must be >= 1")
        minimum = math.ceil(3 * self.modes_per_axis / 2)
        if self.quadrature_points_per_axis is None:
            object.__setattr__(self, "quadrature_points_per_axis", minimum)
        elif self.quadrature_points_per_axis < minimum:
            raise ValueError(
                "quadrature_points_per_axis must be >= ceil(3N/2) "
                f"= {minimum}, got {self.quadrature_points_per_axis}"
            )

    # -- basic mode bookkeeping ------------------------------------------

    @property
    def coeff_shape(self):
        return (self.modes_per_axis,) * self.dimension

    @property
    def n_modes(self):
        return self.modes_per_axis ** self.dimension

    @cached_property
    def axis_eigenvalues(self):
        """1D eigenvalues (k pi / L)**2 per axis, k = 1..N."""
        k = np.arange(1, self.modes_per_axis + 1, dtype=float)
        return tuple((k * np.pi / L) ** 2 for L in self.lengths)

    @cached_property
    def eigenvalue_grid(self):
        """lambda_k on the coefficient tensor, shape ``coeff_shape``."""
        if self.dimension == 1:
            return self.axis_eigenvalues[0].copy()
        lx, ly = self.axis_eigenvalues
        return lx[:, None] + ly[None, :]

    @property
    def lambda0(self):
        return float(sum(lam[0] for lam in self.axis_eigenvalues))

    @cached_property
    def eigenvalue_order(self):
        """Indices sorting the flattened eigenvalue grid ascending (stable)."""
        return np.argsort(self.eigenvalue_grid.ravel(), kind="stable")

    @cached_property
    def mode_l2_squared(self):
        """||phi_k||_{L2}^2 = prod_i L_i / 2, identical for every mode."""
        return float(np.prod([L / 2.0 for L in self.lengths]))

    # -- collocation (DST-I) grid ----------------------------------------

    @cached_property
    def grid_axes(self):
        """Interior nodes x_j = j L/(M+1), j = 1..M, per axis."""
        m = self.quadrature_points_per_axis
        return tuple(np.arange(1, m + 1) * (L / (m + 1)) for L in self.lengths)

    @property
    def grid_shape(self):
        return (self.quadrature_points_per_axis,) * self.dimension

    @cached_property
    def grid_cell_volume(self):
        m = self.quadrature_points_per_axis
        return float(np.prod([L / (m + 1) for L in self.lengths]))

    @cached_property
    def _grid_sine(self):
        """Sine matrices on the collocation nodes, for guard checks that
        avoid a transform call per evaluation."""
        return tuple(
            _sine_matrix(x, L, self.modes_per_axis)
            for x, L in zip(self.grid_axes, self.lengths)
        )

    # -- fine closed grid for exact quadratic products -------------------

    @cached_property
    def _product_panels(self):
        """Closed-grid panel count P; DCT-I on P+1 points resolves cosine
        polynomials of degree 2N exactly as long as P >= 2N."""
        return 2 * self.modes_per_axis

    @cached_property
    def _fine_axes(self):
        p = self._product_panels
        return tuple(np.arange(0, p + 1) * (L / p) for L in self.lengths)

    @cached_property
    def _fine_sine(self):
        return tuple(
            _sine_matrix(x, L, self.modes_per_axis)
            for x, L in zip(self._fine_axes, self.lengths)
        )

    @cached_property
    def _fine_dcos(self):
        """Cosine evaluation matrices carrying the derivative factor k pi/L."""
        mats = []
        for x, L in zip(self._fine_axes, self.lengths):
            scale = np.arange(1, self.modes_per_axis + 1) * (np.pi / L)
            mats.append(_cosine_matrix(x, L, self.modes_per_axis) * scale)
        return tuple(mats)

    @cached_property
    def _dct_weights(self):
        p = self._product_panels
        w = np.full(p + 1, 1.0 / p)
        w[0] = w[-1] = 0.5 / p
        return w

    @cached_property
    def _cos_to_sine(self):
        """Projection matrix W[k-1, p] = (2/L) <cos_p, sin_k>; L-independent."""
        p = self._product_panels
        k = np.arange(1, self.modes_per_axis + 1)[:, None].astype(float)
        q = np.arange(0, p + 1)[None, :].astype(float)
        odd = (k + q) % 2 == 1
        denom = k * k - q * q
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.where(odd, 4.0 * k / (np.pi * denom), 0.0)
        return w

    # -- Gauss-Legendre machinery for non-polynomial projections ---------

    @cached_property
    def gauss_points_per_axis(self):
        return 4 * self.modes_per_axis + 32

    @cached_property
    def _gauss_rule(self):
        nodes, weights = np.polynomial.legendre.leggauss(self.gauss_points_per_axis)
        out = []
        for L in self.lengths:
            out.append(((nodes + 1.0) * (L / 2.0), weights * (L / 2.0)))
        return tuple(out)

    @cached_property
    def _gauss_sine(self):
        return tuple(
            _sine_matrix(x, L, self.modes_per_axis)
            for (x, _), L in zip(self._gauss_rule, self.lengths)
        )

    @cached_property
    def _gauss_dcos(self):
        mats = []
        for (x, _), L in zip(self._gauss_rule, self.lengths):
            scale = np.arange(1, self.modes_per_axis + 1) * (np.pi / L)
            mats.append(_cosine_matrix(x, L, self.modes_per_axis) * scale)
        return tuple(mats)

    @cached_property
    def _gauss_project(self):
        """Per-axis matrices mapping Gauss samples to sine coefficients."""
        mats = []
        for (x, w), L, s in zip(self._gauss_rule, self.lengths, self._gauss_sine):
            mats.append((2.0 / L) * (s.T * w))
        return tuple(mats)

    @cached_property
    def _grid_matrices(self):
        """grid name -> (sine matrices, derivative cosine matrices) per axis."""
        return {
            "fine": (self._fine_sine, self._fine_dcos),
            "gauss": (self._gauss_sine, self._gauss_dcos),
            "collocation": (self._grid_sine, None),
        }


@dataclass
class SpectralField:
    """Coefficient tensor of a sine expansion on ``domain``."""

    domain: DomainSpec
    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=float)
        if arr.shape != self.domain.coeff_shape:
            raise ValueError(
                f"coefficient shape {arr.shape} does not match domain "
                f"{self.domain.coeff_shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        self.coeffs = arr

    @classmethod
    def zeros(cls, domain):
        return cls(domain, np.zeros(domain.coeff_shape))

    @classmethod
    def single_mode(cls, domain, mode, amplitude=1.0):
        """Field amplitude * phi_mode; ``mode`` is 1-based per axis."""
        if np.isscalar(mode):
            mode = (int(mode),) * domain.dimension
        idx = tuple(int(m) - 1 for m in mode)
        if any(i < 0 or i >= domain.modes_per_axis for i in idx):
            raise ValueError(f"mode {mode} outside 1..{domain.modes_per_axis}")
        c = np.zeros(domain.coeff_shape)
        c[idx] = amplitude
        return cls(domain, c)

    def copy(self):
        return SpectralField(self.domain, self.coeffs.copy())

    def _check(self, other):
        if other.domain is not self.domain and other.domain != self.domain:
            raise ValueError("fields live on different domains")

    def __add__(self, other):
        self._check(other)
        return SpectralField(self.domain, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check(other)
        return SpectralField(self.domain, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return SpectralField(self.domain, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return SpectralField(self.domain, -self.coeffs)


@dataclass
class GridField:
    """Point values on the interior collocation grid of ``domain``."""

    domain: DomainSpec
    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        if arr.shape != self.domain.grid_shape:
            raise ValueError(
                f"sample shape {arr.shape} does not match grid {self.domain.grid_shape}"
            )
        self.samples = arr


# ---------------------------------------------------------------------------
# diagonal operator calculus
# ---------------------------------------------------------------------------


def eigenvalues(domain):
    """Flattened (C-order) Dirichlet Laplacian eigenvalues of the mode set.

    ``domain.eigenvalue_order`` gives the permutation sorting them ascending.
    """
    return domain.eigenvalue_grid.ravel().copy()


def fractional_power(field, theta):
    """Apply A**theta diagonally; negative theta inverts (A is positive)."""
    lam = field.domain.eigenvalue_grid
    return SpectralField(field.domain, field.coeffs * lam**theta)


def sobolev_norm(field, s):
    """|| A**(s/2) u ||_{L2} computed from coefficients.

    ``s = 0`` is the plain L2 norm; the intended range is s in [0, 4].
    """
    lam = field.domain.eigenvalue_grid
    total = np.sum(lam**s * field.coeffs**2) * field.domain.mode_l2_squared
    return float(np.sqrt(total))


def l2_norm(field):
    return sobolev_norm(field, 0.0)


# ---------------------------------------------------------------------------
# array layer: coefficient stacks with leading axes
# ---------------------------------------------------------------------------

# Byte budget of the temporaries of one block of samples in the batched
# series routines; bounds their memory independently of the run length.
BLOCK_BYTES = 4 << 20


def sample_blocks(n_samples, sample_bytes):
    """Consecutive slices covering range(n_samples), each holding as many
    samples as fit in BLOCK_BYTES at ``sample_bytes`` per sample (at least one)."""
    step = max(1, BLOCK_BYTES // max(int(sample_bytes), 1))
    return [slice(i, min(i + step, n_samples)) for i in range(0, n_samples, step)]


def _apply(mats, coeffs):
    """Tensor-product matrices applied to the trailing mode axes.

    1D stacks go through ``M @ x[..., None]`` and 2D stacks through
    ``M0 @ X @ M1.T`` so that every member is one gemv/gemm call with the
    same operands as for a single tensor, hence the same rounding.
    """
    if len(mats) == 1:
        return (mats[0] @ coeffs[..., None])[..., 0]
    return mats[0] @ coeffs @ mats[1].T


def evaluate(domain, grid, coeffs):
    """Values of coefficient tensors (leading axes allowed) on ``grid``:
    "fine" (closed product grid), "gauss" or "collocation" (by sine matrix)."""
    return _apply(domain._grid_matrices[grid][0], coeffs)


class GridWorkspace:
    """Reusable output buffers for grid evaluations and grid arithmetic.

    ``take(key, shape)`` returns a C-contiguous float array of ``shape``
    backed by the buffer named ``key``, which grows when a larger shape is
    asked for.  Its contents are undefined; the caller overwrites every
    entry.  A buffer is reused by the next ``take`` of its key, so an
    array taken from a workspace must not be kept past the operation that
    took it.  See the module docstring for the lifetime of a workspace.
    """

    __slots__ = ("_buffers", "_views")

    def __init__(self):
        self._buffers = {}
        self._views = {}

    def take(self, key, shape):
        view = self._views.get((key, shape))
        if view is None:
            size = math.prod(shape)
            buf = self._buffers.get(key)
            if buf is None or buf.size < size:
                buf = self._buffers[key] = np.empty(size)
                self._views = {k: v for k, v in self._views.items() if k[0] != key}
            view = self._views[key, shape] = buf[:size].reshape(shape)
        return view


def _matmul_into(workspace, key, a, b):
    """``a @ b`` written into the workspace buffer ``key``; one of the two
    operands is a plain matrix, the other may carry leading axes."""
    if b.ndim == 2:
        shape = a.shape[:-1] + b.shape[-1:]
    else:
        shape = b.shape[:-2] + (a.shape[0], b.shape[-1])
    return np.matmul(a, b, out=workspace.take(key, shape))


def evaluate_stack(domain, grid, stack, values=None, gradient=None, workspace=None):
    """Values and gradient components of selected members of a stack.

    ``stack`` has shape (F, ...) + coeff shape; ``values`` and ``gradient``
    are slices of the member axis (or None).  Returns ``(vals, grads)`` with
    ``grads`` a tuple of per-axis components.  In 2D the first-axis sine
    factor is applied once to the whole stack and shared by the values and
    the second gradient component, so every member must be selected by at
    least one of the two slices.

    The results are buffers of ``workspace`` (a fresh ``GridWorkspace``
    when None), valid until its next call on the same grid; the products
    are the ones of ``_apply``, so the bits are too.
    """
    ws = GridWorkspace() if workspace is None else workspace
    sine, dcos = domain._grid_matrices[grid]
    if domain.dimension == 1:
        vals = grads = None
        if values is not None:
            vals = _matmul_into(ws, (grid, "vals"), sine[0], stack[values][..., None])[..., 0]
        if gradient is not None:
            grads = (
                _matmul_into(ws, (grid, "grad0"), dcos[0], stack[gradient][..., None])[..., 0],
            )
        return vals, grads
    left = _matmul_into(ws, (grid, "left"), sine[0], stack)
    vals = None if values is None else _matmul_into(ws, (grid, "vals"), left[values], sine[1].T)
    grads = None
    if gradient is not None:
        inner = _matmul_into(ws, (grid, "inner"), dcos[0], stack[gradient])
        grads = (
            _matmul_into(ws, (grid, "grad0"), inner, sine[1].T),
            _matmul_into(ws, (grid, "grad1"), left[gradient], dcos[1].T),
        )
    return vals, grads


def project(domain, grid, samples):
    """Sine coefficients of samples (leading axes allowed) on ``grid``.

    "fine": products of two resolved fields on the closed product grid,
    projected exactly (type-1 DCT over the trailing axes, trapezoid weights,
    analytic cosine-to-sine matrix).  "gauss": quadrature of arbitrary
    pointwise data, see ``project_gauss``.
    """
    if grid == "gauss":
        return _apply(domain._gauss_project, samples)
    d = domain.dimension
    y = _fft.dctn(samples, type=1, axes=tuple(range(-d, 0)))
    w = domain._dct_weights
    # y is the transform's own output, weighted in place: (y w_0) w_1 in 2D
    if d == 2:
        y *= w[:, None]
    y *= w
    return _apply((domain._cos_to_sine,) * d, y)


def grid_values(domain, coeffs, points=None):
    """Exact values on the interior DST grid of ``points`` nodes per axis
    (default: the quadrature grid), by a type-1 DST over the trailing axes."""
    d = domain.dimension
    n = domain.modes_per_axis
    m = domain.quadrature_points_per_axis if points is None else int(points)
    if m < n:
        raise ValueError("collocation grid must carry at least N points per axis")
    coeffs = np.asarray(coeffs, dtype=float)
    pad = [(0, 0)] * (coeffs.ndim - d) + [(0, m - n)] * d
    return _fft.dstn(np.pad(coeffs, pad), type=1, axes=tuple(range(-d, 0))) / (2.0**d)


def to_grid(field):
    """Sample the expansion on the interior collocation grid (exact)."""
    return GridField(field.domain, grid_values(field.domain, field.coeffs))


def to_spectral(grid):
    """Sine interpolation coefficients of grid samples, truncated to N modes.

    Content beyond the retained modes is discarded; for samples of a field
    with at most N modes per axis the round trip is exact.
    """
    domain = grid.domain
    m = domain.quadrature_points_per_axis
    y = _fft.dstn(grid.samples, type=1) / float((m + 1) ** domain.dimension)
    n = domain.modes_per_axis
    sl = (slice(0, n),) * domain.dimension
    return SpectralField(domain, y[sl].copy())


def linf_series(domain, coeffs):
    """max |u| over the interior collocation grid for each tensor of a
    (n,) + coeff shape stack, computed in blocks."""
    coeffs = np.asarray(coeffs, dtype=float)
    out = np.empty(coeffs.shape[0])
    sample_bytes = 24 * domain.quadrature_points_per_axis**domain.dimension
    for blk in sample_blocks(out.size, sample_bytes):
        vals = np.abs(grid_values(domain, coeffs[blk]))
        out[blk] = vals.reshape(vals.shape[0], -1).max(axis=1)
    return out


def linf_grid(field):
    """max |u| over the interior collocation grid."""
    return float(linf_series(field.domain, field.coeffs[None])[0])


# ---------------------------------------------------------------------------
# exact quadratic products
# ---------------------------------------------------------------------------


def gradient_product(grads, left, right, out=None):
    """grad(a) . grad(b) on a grid, from the per-axis gradient components of
    a member stack (``left`` and ``right`` index the members), summed over
    the axes in order; written into ``out`` when given."""
    acc = np.multiply(grads[0][left], grads[0][right], out=out)
    for comp in grads[1:]:
        acc = np.add(acc, comp[left] * comp[right], out=out)
    return acc


def product_dealiased(f, g):
    """Exact Galerkin projection of the pointwise product f*g.

    The factors are evaluated on the closed product grid, multiplied, and the
    resulting cosine polynomial (degree <= 2N per axis, resolved exactly by
    the grid) is projected back onto the sine modes analytically.  No
    aliasing error enters at any stage.
    """
    f._check(g)
    domain = f.domain
    vals = evaluate(domain, "fine", np.stack([f.coeffs, g.coeffs]))
    return SpectralField(domain, project(domain, "fine", vals[0] * vals[1]))


def gradient_dot(f, g):
    """Exact Galerkin projection of grad(f) . grad(g).

    Each directional derivative swaps the sine factor for a cosine on that
    axis; the dot product is again a pure cosine polynomial per axis and is
    projected exactly like ``product_dealiased``.
    """
    f._check(g)
    domain = f.domain
    _, grads = evaluate_stack(
        domain, "fine", np.stack([f.coeffs, g.coeffs]), gradient=slice(None)
    )
    return SpectralField(domain, project(domain, "fine", gradient_product(grads, 0, 1)))


def product_collocation(f, g, points=None):
    """Pseudospectral product: sample, multiply, transform back, truncate.

    Unlike ``product_dealiased`` this inherits the collocation grid's
    interpolation error (the product does not stay in the sine span), so it
    serves as the deliberately degraded reference in aliasing diagnostics.
    ``points`` defaults to the domain's quadrature grid; ``points = N``
    reproduces the fully aliased classical treatment.
    """
    f._check(g)
    domain = f.domain
    m = domain.quadrature_points_per_axis if points is None else int(points)
    vf = grid_values(domain, f.coeffs, m)
    vg = grid_values(domain, g.coeffs, m)
    y = _fft.dstn(vf * vg, type=1) / float((m + 1) ** domain.dimension)
    n = domain.modes_per_axis
    sl = (slice(0, n),) * domain.dimension
    return SpectralField(domain, y[sl].copy())


# ---------------------------------------------------------------------------
# arbitrary-point evaluation and Gauss projection
# ---------------------------------------------------------------------------


def _axis_points(domain, points):
    if domain.dimension == 1:
        axes = (np.atleast_1d(np.asarray(points, dtype=float)),)
    else:
        axes = tuple(np.atleast_1d(np.asarray(p, dtype=float)) for p in points)
        if len(axes) != domain.dimension:
            raise ValueError("need one point array per axis")
    return axes


def evaluate_at(field, points):
    """Evaluate the expansion on a tensor grid of arbitrary points.

    1D: ``points`` is an array; 2D: a pair of per-axis arrays.
    """
    domain = field.domain
    axes = _axis_points(domain, points)
    mats = [
        _sine_matrix(x, L, domain.modes_per_axis)
        for x, L in zip(axes, domain.lengths)
    ]
    return _apply(mats, field.coeffs)


def evaluate_gauss(field):
    """Values on the domain's Gauss-Legendre tensor grid."""
    return evaluate(field.domain, "gauss", field.coeffs)


def project_gauss(domain, values):
    """Sine coefficients of pointwise data given on the Gauss tensor grid.

    This is plain quadrature of <F, phi_k> / ||phi_k||^2.  For analytic
    integrands the rule over-resolves by a wide margin, so the result agrees
    with dense independent quadrature to near machine precision; it is the
    projection route for operations that leave the polynomial algebra.
    """
    return SpectralField(domain, project(domain, "gauss", values))


def embedding_constant_estimate(domain, s, n_samples=64, seed=0):
    """Empirical sup of ||u||_inf / ||u||_{H^s} over random coefficient draws.

    Reported as a diagnostic only; no claim of sharpness is made.
    """
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(n_samples):
        field = SpectralField(domain, rng.standard_normal(domain.coeff_shape))
        denom = sobolev_norm(field, s)
        if denom == 0.0:
            continue
        best = max(best, linf_grid(field) / denom)
    return best
