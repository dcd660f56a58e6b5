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
    "evaluate_gradient_at",
    "evaluate_gauss",
    "gradient_gauss",
    "project_gauss",
    "linf_grid",
    "embedding_constant_estimate",
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
# collocation transforms (DST-I on the interior grid)
# ---------------------------------------------------------------------------


def _dst_values(coeffs, domain, points):
    """Evaluate a coefficient tensor on the interior DST grid of ``points``
    nodes per axis (points >= modes)."""
    d = domain.dimension
    n = domain.modes_per_axis
    if points < n:
        raise ValueError("collocation grid must carry at least N points per axis")
    pad = [(0, points - n)] * d
    padded = np.pad(coeffs, pad)
    return _fft.dstn(padded, type=1) / (2.0**d)


def to_grid(field):
    """Sample the expansion on the interior collocation grid (exact)."""
    samples = _dst_values(field.coeffs, field.domain, field.domain.quadrature_points_per_axis)
    return GridField(field.domain, samples)


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


def linf_grid(field):
    """max |u| over the interior collocation grid."""
    return float(np.max(np.abs(to_grid(field).samples)))


# ---------------------------------------------------------------------------
# exact quadratic products
# ---------------------------------------------------------------------------


def _fine_apply(domain, mats, coeffs):
    if domain.dimension == 1:
        return mats[0] @ coeffs
    return mats[0] @ coeffs @ mats[1].T


def _fine_cosine_coeffs(domain, values):
    """Exact per-axis cosine coefficients of closed-grid samples."""
    y = _fft.dctn(values, type=1)
    w = domain._dct_weights
    if domain.dimension == 1:
        return y * w
    return y * w[:, None] * w[None, :]


def _project_cosine(domain, cos_coeffs):
    w = domain._cos_to_sine
    if domain.dimension == 1:
        return w @ cos_coeffs
    return w @ cos_coeffs @ w.T


def product_dealiased(f, g):
    """Exact Galerkin projection of the pointwise product f*g.

    The factors are evaluated on the closed product grid, multiplied, and the
    resulting cosine polynomial (degree <= 2N per axis, resolved exactly by
    the grid) is projected back onto the sine modes analytically.  No
    aliasing error enters at any stage.
    """
    f._check(g)
    domain = f.domain
    vf = _fine_apply(domain, domain._fine_sine, f.coeffs)
    vg = _fine_apply(domain, domain._fine_sine, g.coeffs)
    cos = _fine_cosine_coeffs(domain, vf * vg)
    return SpectralField(domain, _project_cosine(domain, cos))


def gradient_dot(f, g):
    """Exact Galerkin projection of grad(f) . grad(g).

    Each directional derivative swaps the sine factor for a cosine on that
    axis; the dot product is again a pure cosine polynomial per axis and is
    projected exactly like ``product_dealiased``.
    """
    f._check(g)
    domain = f.domain
    acc = None
    for axis in range(domain.dimension):
        mats_f = [
            domain._fine_dcos[i] if i == axis else domain._fine_sine[i]
            for i in range(domain.dimension)
        ]
        df = _fine_apply(domain, mats_f, f.coeffs)
        dg = _fine_apply(domain, mats_f, g.coeffs)
        acc = df * dg if acc is None else acc + df * dg
    cos = _fine_cosine_coeffs(domain, acc)
    return SpectralField(domain, _project_cosine(domain, cos))


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
    vf = _dst_values(f.coeffs, domain, m)
    vg = _dst_values(g.coeffs, domain, m)
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
    return _fine_apply(domain, mats, field.coeffs)


def evaluate_gradient_at(field, points):
    """Gradient components of the expansion on a tensor grid of points."""
    domain = field.domain
    axes = _axis_points(domain, points)
    out = []
    for axis in range(domain.dimension):
        mats = []
        for i, (x, L) in enumerate(zip(axes, domain.lengths)):
            if i == axis:
                scale = np.arange(1, domain.modes_per_axis + 1) * (np.pi / L)
                mats.append(_cosine_matrix(x, L, domain.modes_per_axis) * scale)
            else:
                mats.append(_sine_matrix(x, L, domain.modes_per_axis))
        out.append(_fine_apply(domain, mats, field.coeffs))
    return out


def evaluate_gauss(field):
    """Values on the domain's Gauss-Legendre tensor grid."""
    return _fine_apply(field.domain, field.domain._gauss_sine, field.coeffs)


def gradient_gauss(field):
    """Gradient components on the Gauss-Legendre tensor grid."""
    domain = field.domain
    out = []
    for axis in range(domain.dimension):
        mats = [
            domain._gauss_dcos[i] if i == axis else domain._gauss_sine[i]
            for i in range(domain.dimension)
        ]
        out.append(_fine_apply(domain, mats, field.coeffs))
    return out


def project_gauss(domain, values):
    """Sine coefficients of pointwise data given on the Gauss tensor grid.

    This is plain quadrature of <F, phi_k> / ||phi_k||^2.  For analytic
    integrands the rule over-resolves by a wide margin, so the result agrees
    with dense independent quadrature to near machine precision; it is the
    projection route for operations that leave the polynomial algebra.
    """
    mats = domain._gauss_project
    if domain.dimension == 1:
        return SpectralField(domain, mats[0] @ values)
    return SpectralField(domain, mats[0] @ values @ mats[1].T)


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
