"""Sine-basis spectral calculus on a box with double Dirichlet conditions.

Fields are expanded in products of sines,

    phi_k(x) = prod_i sin(k_i pi x_i / L_i),   k_i = 1..N,

which are exactly the eigenfunctions of the Dirichlet Laplacian that also
satisfy ``laplace(u) = 0`` on the boundary.  Writing ``A = -laplace``, every
power ``A**theta`` acts diagonally on the coefficients through the
eigenvalues ``lambda_k = sum_i (k_i pi / L_i)**2``, so Sobolev norms, Poincare
bounds and semigroup propagators all reduce to elementary vector arithmetic.
The squared norm ``||A^{p/2} v||^2`` is written once, in ``sq_norms`` (one
power: ``sq_norm``), for coefficient stacks with leading axes; the energies,
audits, trajectory norms and residuals of the other modules all call it.

Quadratic expressions are the one place the basis is left: a product of two
sine expansions is, axis by axis, a cosine polynomial of twice the degree.
``product_dealiased`` and ``gradient_dot`` therefore evaluate the factors on
a closed grid fine enough to represent that cosine polynomial exactly and
project the samples with one folded matrix per axis (see Transforms),
which recovers the cosine coefficients and maps them to the retained sine
modes through the analytic projection

    (2/L) int_0^L cos(p pi x/L) sin(k pi x/L) dx = 4k / (pi (k^2 - p^2))

for ``k + p`` odd (zero otherwise).  The result is the exact Galerkin
projection of the pointwise product, free of aliasing by construction.

Non-polynomial pointwise operations (the reciprocal in the third-order
evolution) cannot be exact; they are projected with a Gauss-Legendre rule
whose node count comfortably over-resolves the integrands, see
``project`` on the "gauss" grid.  A product's cosine polynomial reaches
the Gauss nodes from its closed-grid samples exactly, by the DCT-I
cardinal functions ``DomainSpec._fine_to_gauss``.

Two layers expose this calculus.  ``SpectralField`` functions validate and
wrap single coefficient tensors.  Underneath, the array layer
(``evaluate``, ``gradient``, ``project``, ``grid_values``,
``grid_extremes``) takes raw coefficient arrays of shape batch + coeff
shape, with any number of leading axes (time samples, stacked fields).
All of it is ``_apply``, so every leading index is computed with the same
operations as a lone tensor: a 1D stack goes through ``M @ x[..., None]``
(one gemv per member), a 2D stack through ``M0 @ X @ M1.T`` (the same
gemm pair), so batched results equal unbatched ones bit for bit.  Merging the members into one
larger product (``X @ M.T`` over a whole stack) would round by batch
size; the array layer avoids it.
In 1D the kernel of ``model`` merges the members of one sample into one
gemm, never the samples of a batch, so it keeps batched equal to unbatched.

Transforms.  The fine projection takes the closed-grid samples of an exact
product through three linear maps along each axis: the unnormalized type-1
DCT, the trapezoid weights and the cosine-to-sine matrix.  The three are
folded into one N x (2N+1) matrix, ``DomainSpec._fine_project``, which a
domain builds on its first fine projection by running the DCT below on the
identity.  None of the three depends on L, so the one matrix M serves
every axis: ``project`` is one gemv M x per member in 1D and one gemm pair
M X M^T per member in 2D, and the 1D kernel of ``model`` applies M to its
four products in one gemm.  The fold is the same exact quadrature as a
transform route, rounded differently: against the mpmath oracle of
``tests/test_oracle.py`` it is within 1e-14 relative in both dimensions.
On the 1D march's stacks of a few short lines a transform's cost is the
dispatch of its FFT calls, which one matrix product avoids.

The DCT is ``_type1``, on ``numpy.fft`` (numpy >= 2.0 ships the C++
pocketfft), so no other FFT library is imported.  It does what
pocketfft's type-1 DCT (T_dct1) does along one axis: one real FFT of the
even extension ``[x_0 .. x_{n-1}, x_{n-2} .. x_1]``, whose real part in
bins 0..n-1 is the DCT; the results equal T_dct1's bit for bit, signed
zeros included (``tests/test_spectral.py``).  It runs only to build
``_fine_project``, one FFT call per domain, through this module's
``_fft``.  The call counter of ``perfbench/spans.py`` patches ``_fft``,
and the benchmark's own test requires it to count a call, so ``_fft``
stays until a benchmark change drops that count; the closed form of the
matrix (the exact cosine quadrature entries that the mpmath test of
``tests/test_oracle.py`` checks) can then replace the DCT.

Collocation grid.  The interior grid x_j = j L/(M+1), j = 1..M, is reached
by sine matrices only, through ``_apply``.  Its values (``grid_values``,
``grid_extremes``, ``to_grid``) use the cached matrices of
``DomainSpec._grid_matrices["collocation"]``, the ones the model's
degeneracy guard evaluates u_t with, so a reported sup of u_t or guard
minimum holds the bits the guard saw.  The inverse (in
``product_collocation``) applies the same matrices transposed and scaled
by 2/(M+1) per axis, which by the discrete orthogonality of the sines
gives the interpolation coefficients of the first N modes.  Another node
count (``points=``) builds its matrices on its own nodes.

Bound steps.  ``model.KernelPlan`` does not call this layer per call: it
binds the products of ``_apply`` (in 1D their stacked forms) and of
``_fine_to_gauss`` as steps over buffers it owns, once per nonlinear
march (``nonlinear.solve``), so a call allocates no grid-sized temporary,
which at 2D N=48 (224 x 224 Gauss nodes) would page-fault about 4 MB per
call.  The functions here bind nothing and allocate their results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy import fft as _fft
from numpy.polynomial.legendre import leggauss


__all__ = [
    "DomainSpec",
    "SpectralField",
    "sq_norm",
    "sq_norms",
    "sobolev_norm",
    "l2_norm",
    "to_grid",
    "product_dealiased",
    "product_collocation",
    "gradient_dot",
    "BLOCK_BYTES",
    "sample_blocks",
    "evaluate",
    "gradient",
    "gradient_product",
    "project",
    "grid_values",
    "grid_extremes",
]


def _sine_matrices(domain, axes):
    """Per-axis sine evaluation matrices S[j, m] = sin((m+1) pi x_j / L) on
    the nodes ``axes`` (one array per axis)."""
    k = np.arange(1, domain.modes_per_axis + 1)
    return tuple(np.sin(np.outer(x, k * (np.pi / L))) for x, L in zip(axes, domain.lengths))


def _interior_nodes(lengths, m):
    """The M = ``m`` interior nodes x_j = j L/(M+1), j = 1..M, of each axis."""
    return tuple(np.arange(1, m + 1) * (L / (m + 1)) for L in lengths)


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
    def mode_l2_squared(self):
        """||phi_k||_{L2}^2 = prod_i L_i / 2, identical for every mode."""
        return float(np.prod([L / 2.0 for L in self.lengths]))

    # -- interior collocation grid ----------------------------------------

    @cached_property
    def grid_axes(self):
        """Interior nodes x_j = j L/(M+1), j = 1..M, per axis."""
        return _interior_nodes(self.lengths, self.quadrature_points_per_axis)

    @property
    def grid_shape(self):
        return (self.quadrature_points_per_axis,) * self.dimension

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

    @cached_property
    def _fine_project(self):
        """The fine projection along one axis folded into one N x (2N+1)
        matrix: the type-1 DCT of the identity, weighted by the trapezoid
        weights, then the cosine-to-sine matrix.  None of the three depends
        on L, so the one matrix serves every axis."""
        eye = np.eye(self._product_panels + 1)
        return self._cos_to_sine @ (self._dct_weights[:, None] * _type1(eye).T)

    # -- Gauss-Legendre machinery for non-polynomial projections ---------

    @cached_property
    def gauss_points_per_axis(self):
        return 4 * self.modes_per_axis + 32

    @cached_property
    def _gauss_rule(self):
        nodes, weights = leggauss(self.gauss_points_per_axis)
        out = []
        for L in self.lengths:
            out.append(((nodes + 1.0) * (L / 2.0), weights * (L / 2.0)))
        return tuple(out)

    @cached_property
    def _gauss_project(self):
        """Per-axis matrices mapping Gauss samples to sine coefficients."""
        sine = self._grid_matrices["gauss"][0]
        return tuple(
            (2.0 / L) * (s.T * w) for (_, w), L, s in zip(self._gauss_rule, self.lengths, sine)
        )

    @cached_property
    def _fine_to_gauss(self):
        """Per-axis G x (2N+1) matrices B that carry the fine-grid samples of
        a cosine polynomial of degree <= 2N to its Gauss-node values exactly:
        the DCT-I cardinal functions at the nodes, B = C T with C[i, m] =
        cos(m theta_i), T[m, j] = (2/P) c_m c_j cos(pi m j / P) and c = 1/2
        at the ends; in extended precision from theta_i = pi x_i / L at the
        float nodes and mj reduced mod 2P, rounded once."""
        p = self._product_panels
        m = np.arange(p + 1)
        ends = np.where((m == 0) | (m == p), 0.5, 1.0)
        pi = np.arccos(np.longdouble(-1.0))
        turns = np.cos(np.arange(2 * p) * (pi / p))
        synth = (2.0 / np.longdouble(p)) * np.outer(ends, ends) * turns[np.outer(m, m) % (2 * p)]
        per_length = {}
        for (x, _), L in zip(self._gauss_rule, self.lengths):
            if L not in per_length:
                theta = x.astype(np.longdouble) / np.longdouble(L) * pi
                per_length[L] = np.dot(np.cos(np.outer(theta, m)), synth).astype(float)
        return tuple(per_length[L] for L in self.lengths)

    @cached_property
    def _grid_matrices(self):
        """grid name ("fine", "gauss", "collocation") -> (sine matrices,
        derivative cosine matrices) per axis, each grid built on its first
        lookup, so a collocation-only caller never computes the Gauss rule;
        only the fine grid has derivative matrices."""

        def build(grid):
            if grid == "collocation":
                return _sine_matrices(self, self.grid_axes), None
            if grid == "gauss":
                return _sine_matrices(self, tuple(x for x, _ in self._gauss_rule)), None
            if grid != "fine":
                raise KeyError(grid)
            # the cosines, each carrying its derivative factor k pi/L
            scales = [np.arange(1, self.modes_per_axis + 1) * (np.pi / L) for L in self.lengths]
            dcos = tuple(np.cos(np.outer(x, w)) * w for x, w in zip(self._fine_axes, scales))
            return _sine_matrices(self, self._fine_axes), dcos

        return _PerGrid(build)


class _PerGrid(dict):
    """grid name -> value, made by ``build(grid)`` on the first lookup."""

    def __init__(self, build):
        super().__init__()
        self._build = build

    def __missing__(self, grid):
        value = self[grid] = self._build(grid)
        return value


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


# ---------------------------------------------------------------------------
# diagonal operator calculus
# ---------------------------------------------------------------------------


def sq_norm(domain, coeffs, power=0):
    """Squared norm ||A^{power/2} v||^2 from raw coefficients.

    Broadcasts over any number of leading axes; the trailing axes are the
    mode axes of ``domain``.  Every norm of the package is this one.
    """
    return sq_norms(domain, coeffs, (power,))[0]


def sq_norms(domain, coeffs, powers):
    """``sq_norm`` at each of ``powers``, from one square of ``coeffs``."""
    lam, square = domain.eigenvalue_grid, coeffs * coeffs
    axes = tuple(range(-lam.ndim, 0))
    scaled = (square * lam**p if p else square for p in powers)
    return [domain.mode_l2_squared * x.sum(axis=axes) for x in scaled]


def sobolev_norm(field, s):
    """|| A**(s/2) u ||_{L2} computed from coefficients.

    ``s = 0`` is the plain L2 norm; the intended range is s in [0, 4].
    """
    return float(np.sqrt(sq_norm(field.domain, field.coeffs, s)))


def l2_norm(field):
    return sobolev_norm(field, 0.0)


# ---------------------------------------------------------------------------
# array layer: coefficient stacks with leading axes
# ---------------------------------------------------------------------------

# Byte budget of the temporaries of one block of samples in the batched series
# routines (plan calls, Duhamel forcing terms, grid_extremes, the residual and
# energy.trajectory_norms); bounds their memory independently of run length.
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
    return (mats[0] @ coeffs) @ mats[1].T


def evaluate(domain, grid, coeffs):
    """Values of coefficient tensors (leading axes allowed) on ``grid``:
    "fine" (closed product grid), "gauss" or "collocation" (by sine matrix)."""
    return _apply(domain._grid_matrices[grid][0], coeffs)


def gradient(domain, grid, coeffs):
    """Per-axis gradient components of coefficient tensors (leading axes
    allowed) on ``grid`` (only "fine" has derivative matrices): component
    i applies the derivative matrix along axis i and the sine matrices
    along the others."""
    sine, dcos = domain._grid_matrices[grid]
    return tuple(
        _apply(sine[:i] + (dcos[i],) + sine[i + 1 :], coeffs) for i in range(domain.dimension)
    )


def _type1(x):
    """Unnormalized type-1 DCT along the last axis of ``x``, bit for bit
    pocketfft's T_dct1, as a fresh C-contiguous array: the real part of
    bins 0..n-1 of one real FFT of the even extension; see the module
    docstring.  It builds ``DomainSpec._fine_project``."""
    ext = np.concatenate([x, x[..., -2:0:-1]], axis=-1)
    return np.ascontiguousarray(_fft.rfft(ext).real)


def project(domain, grid, samples):
    """Sine coefficients of samples (leading axes allowed) on ``grid``.

    "fine": products of two resolved fields on the closed product grid,
    projected exactly by the folded matrix ``DomainSpec._fine_project``
    along each axis (type-1 DCT, trapezoid weights and analytic
    cosine-to-sine matrix in one).  "gauss": quadrature of arbitrary
    pointwise data on the Gauss tensor grid, <F, phi_k> / ||phi_k||^2.
    """
    mats = domain._gauss_project if grid == "gauss" else (domain._fine_project,) * domain.dimension
    return _apply(mats, samples)


def _collocation_sine(domain, points):
    """Per-axis sine matrices of the interior grid of ``points`` nodes per
    axis; None means the quadrature grid, whose cached matrices the
    degeneracy guard uses too."""
    if points is None:
        return domain._grid_matrices["collocation"][0]
    if int(points) < domain.modes_per_axis:
        raise ValueError("collocation grid must carry at least N points per axis")
    return _sine_matrices(domain, _interior_nodes(domain.lengths, int(points)))


def grid_values(domain, coeffs, points=None):
    """Exact values on the interior grid of ``points`` nodes per axis
    (default: the quadrature grid), by sine matrix."""
    return _apply(_collocation_sine(domain, points), np.asarray(coeffs, dtype=float))


def _collocation_coefficients(domain, samples, points=None):
    """Sine interpolation coefficients of samples on the interior grid of
    ``points`` nodes per axis, truncated to the N retained modes: the
    transposed sine matrices scaled by 2/(M+1) per axis, which invert the
    grid values by the discrete orthogonality of the sines."""
    sine = _collocation_sine(domain, points)
    return _apply(tuple((2.0 / (s.shape[0] + 1)) * s.T for s in sine), samples)


def to_grid(field):
    """The values of the expansion on the interior collocation grid
    (exact), an array of the domain's ``grid_shape``."""
    return grid_values(field.domain, field.coeffs)


def grid_extremes(domain, coeffs):
    """(min u, max |u|) over the interior collocation grid for each tensor
    of a (n,) + coeff shape stack, from the values the degeneracy guard
    sees; one evaluation per block of samples serves both reductions."""
    coeffs = np.asarray(coeffs, dtype=float)
    low = np.empty(coeffs.shape[0])
    peak = np.empty(coeffs.shape[0])
    sample_bytes = 24 * domain.quadrature_points_per_axis**domain.dimension
    for blk in sample_blocks(low.size, sample_bytes):
        vals = evaluate(domain, "collocation", coeffs[blk])
        vals = vals.reshape(vals.shape[0], -1)
        low[blk] = vals.min(axis=1)
        peak[blk] = np.abs(vals).max(axis=1)
    return low, peak


# ---------------------------------------------------------------------------
# exact quadratic products
# ---------------------------------------------------------------------------


def gradient_product(grad_a, grad_b):
    """grad(a) . grad(b) on a grid, from the per-axis ``gradient``
    components of a and of b, summed over the axes in order."""
    acc = grad_a[0] * grad_b[0]
    for x, y in zip(grad_a[1:], grad_b[1:]):
        acc = acc + x * y
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
    grad_f, grad_g = zip(*gradient(domain, "fine", np.stack([f.coeffs, g.coeffs])))
    return SpectralField(domain, project(domain, "fine", gradient_product(grad_f, grad_g)))


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
    vals = grid_values(domain, np.stack([f.coeffs, g.coeffs]), points)
    return SpectralField(domain, _collocation_coefficients(domain, vals[0] * vals[1], points))
