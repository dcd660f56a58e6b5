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
``grid_extremes``) takes raw coefficient arrays of shape batch + coeff
shape, with any number of leading axes (time samples, stacked fields).
Every leading index is computed with the same operations as a lone
tensor: a 1D stack goes through ``M @ x[..., None]`` (one gemv per member),
a 2D stack through ``M0 @ X @ M1.T`` (the same gemm pair), and the
transforms run over the trailing axes only, so batched results equal
unbatched ones bit for bit.  Merging matrices into one larger product, or
folding the DCT into a matrix, would change the rounding; the array layer
avoids both.  Stacking matrices along a batch axis does not: in 1D,
``evaluate_stack`` takes the values and the derivatives of one tensor's
stack from one matmul of the pair (sine, derivative) against the pair of
member selections, still one gemv per matrix and member.

Transforms.  The only transforms are the unnormalized type-1 DCT (exact
products) and type-1 DST (collocation values), and ``_type1`` computes
them on ``numpy.fft`` (numpy >= 2.0 ships the C++ pocketfft), so scipy.fft
and everything it imports stay off the import path.  It does what
pocketfft's own T_dct1 and T_dst1 do, which are what ``scipy.fft.dctn`` and
``dstn`` with ``type=1`` run: one real FFT per axis of the even extension
``[x_0 .. x_{n-1}, x_{n-2} .. x_1]`` (the DCT is the real part of bins
0..n-1) or the odd extension ``[0, x_0 .. x_{n-1}, 0, -x_{n-1} .. -x_0]``
(the DST is minus the imaginary part of bins 1..n), axis -2 before axis -1.
The results equal scipy's bit for bit, signed zeros included
(``tests/test_spectral.py``).  Each pass runs in place along its axis, with
no transposed copy: the extension and spectrum buffers come from a
``GridWorkspace``, and a stack is transformed a few members at a time so
they stay in cache.  Every transform call goes through this module's
``_fft``: one ``rfft`` per pass, so two per member chunk of a 2D transform.
The DCT of the exact products multiplies in its trapezoid weights as it
reads its result out of the spectrum, with no separate weighting pass.
Its input is still copied into the extension: writing the products
straight into the extension's head would save that copy, but at 1D N=8
the bookkeeping cost more than the copy (in-process timings: about 5 us
more per product stage).

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
from numpy import fft as _fft


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
    "grid_extremes",
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

    @cached_property
    def _value_gradient_stacks(self):
        """1D grid name -> its sine and derivative matrices stacked, shape
        (2, points, N): one matmul gives the values and the derivatives of
        a member stack, each member still one gemv per matrix."""
        return {
            grid: np.stack([sine[0], dcos[0]])
            for grid, (sine, dcos) in self._grid_matrices.items()
            if dcos is not None
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


def _apply(mats, coeffs, out=None):
    """Tensor-product matrices applied to the trailing mode axes, written
    into ``out`` when given.

    1D stacks go through ``M @ x[..., None]`` and 2D stacks through
    ``M0 @ X @ M1.T`` so that every member is one gemv/gemm call with the
    same operands as for a single tensor, hence the same rounding.
    """
    if len(mats) == 1:
        if out is None:
            return (mats[0] @ coeffs[..., None])[..., 0]
        np.matmul(mats[0], coeffs[..., None], out=out[..., None])
        return out
    return np.matmul(mats[0] @ coeffs, mats[1].T, out=out)


def evaluate(domain, grid, coeffs, out=None):
    """Values of coefficient tensors (leading axes allowed) on ``grid``:
    "fine" (closed product grid), "gauss" or "collocation" (by sine matrix);
    written into ``out`` when given."""
    return _apply(domain._grid_matrices[grid][0], coeffs, out)


class GridWorkspace:
    """Reusable output buffers for grid evaluations and grid arithmetic.

    ``take(key, shape, dtype=float)`` returns a C-contiguous array of
    ``shape`` backed by the buffer named ``key``, which grows when a larger
    shape (or another dtype) is asked for.  Its contents are undefined;
    the caller overwrites every entry.  A buffer is reused by the next ``take`` of its key, so an
    array taken from a workspace must not be kept past the operation that
    took it.  See the module docstring for the lifetime of a workspace.
    """

    __slots__ = ("_buffers", "_views")

    def __init__(self):
        self._buffers = {}
        self._views = {}

    def take(self, key, shape, dtype=float):
        view = self._views.get((key, shape, dtype))
        if view is None:
            size = math.prod(shape)
            buf = self._buffers.get(key)
            if buf is None or buf.size < size or buf.dtype != dtype:
                buf = self._buffers[key] = np.empty(size, dtype)
                self._views = {k: v for k, v in self._views.items() if k[0] != key}
            view = self._views[key, shape, dtype] = buf[:size].reshape(shape)
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
        if values is not None and gradient is not None and stack.ndim == 2:
            picked = (stack[values], stack[gradient])
            if len(picked[0]) == len(picked[1]):
                # one tensor's stack: the two selections against the two
                # matrices in one call, one gemv per member and matrix
                mats = domain._value_gradient_stacks[grid]
                shape = (2, len(picked[0]), mats.shape[1], 1)
                out = np.matmul(
                    mats[:, None], np.array(picked)[..., None], out=ws.take((grid, "valgrad"), shape)
                )[..., 0]
                return out[0], (out[1],)
        vals = grads = None
        if values is not None:
            vals = _matmul_into(ws, (grid, "vals"), sine[0], stack[values, ..., None])[..., 0]
        if gradient is not None:
            grads = (
                _matmul_into(ws, (grid, "grad0"), dcos[0], stack[gradient, ..., None])[..., 0],
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


def _last(a, axis):
    """View of ``a`` with ``axis`` (-1 or -2) as its last axis."""
    return a if axis == -1 else a.swapaxes(-1, -2)


def _type1_pass(kind, src, negate, ws, axis):
    """One type-1 pass along ``axis`` (-1 or -2) of ``src``, negated when
    ``negate``: the even ("dct") or odd ("dst") extension, filled as
    pocketfft's T_dct1/T_dst1 fill theirs, and its real FFT along the same
    axis.  Returns the complex spectrum, a buffer of ``ws``."""
    s = _last(src, axis)
    n = s.shape[-1]
    m = 2 * n - 2 if kind == "dct" else 2 * n + 2
    # src's shape with m points along ``axis``
    ext = ws.take(("type1", "ext"), src.shape[:axis] + (m,) + src.shape[axis:][1:])
    e = _last(ext, axis)
    # slice assignment copies as np.copyto does, without its Python wrapper
    if kind == "dct":
        e[..., :n] = s
        e[..., n:] = s[..., n - 2 : 0 : -1]
    else:
        if negate:
            np.negative(s, out=e[..., 1 : n + 1])
            e[..., n + 2 :] = s[..., ::-1]
        else:
            e[..., 1 : n + 1] = s
            np.negative(s[..., ::-1], out=e[..., n + 2 :])
        # the two fixed nodes 0 and n + 1 hold x_0 * 0, signed zeros included
        np.multiply(e[..., 1:2], 0.0, out=e[..., 0 : n + 2 : n + 1])
    spec_shape = src.shape[:axis] + (m // 2 + 1,) + src.shape[axis:][1:]
    spec = ws.take(("type1", "spec"), spec_shape, complex)
    return _fft.rfft(ext, axis=axis, out=spec)


# Buffer bytes per chunk of a batched type-1 transform: a stack is
# transformed a few members at a time, so its buffers stay in cache.
_CHUNK_BYTES = 1 << 18


def _type1(kind, x, d, workspace=None, out=None, weights=None):
    """Unnormalized type-1 DCT ("dct") or DST ("dst") over the trailing
    ``d`` axes of ``x``, bit for bit ``scipy.fft.dctn``/``dstn`` with
    ``type=1``; see the module docstring.  The result is written into
    ``out`` (C-contiguous, shape of ``x``) or a fresh array.  ``weights``
    (DCT only) is a per-axis weight vector multiplied into the result as
    it is read out of the spectrum, axis -2 first: (y w_0) w_1 in 2D."""
    ws = GridWorkspace() if workspace is None else workspace
    if out is None:
        out = np.empty(x.shape)
    core = x.shape[x.ndim - d :]
    members = x.reshape((-1,) + core)
    results = out.reshape(members.shape)
    # the extension and its spectrum take about 32 bytes per point
    step = max(1, _CHUNK_BYTES // (32 * math.prod(core)))
    for i in range(0, members.shape[0], step):
        src, negate = members[i : i + step], False
        # axis -2 first, as scipy.fft
        for axis in (-2, -1)[2 - d :]:
            spec = _type1_pass(kind, src, negate, ws, axis)
            if kind == "dct":
                src = spec.real
            else:
                src, negate = _last(_last(spec, axis).imag[..., 1:-1], axis), True
        res = results[i : i + step]
        if negate:
            np.negative(src, out=res)
        elif weights is None:
            res[...] = src
        else:
            np.multiply(src, weights[:, None] if d == 2 else weights, out=res)
            if d == 2:
                res *= weights
    return out


def project(domain, grid, samples, workspace=None, out=None):
    """Sine coefficients of samples (leading axes allowed) on ``grid``.

    "fine": products of two resolved fields on the closed product grid,
    projected exactly (type-1 DCT over the trailing axes, trapezoid weights,
    analytic cosine-to-sine matrix).  "gauss": quadrature of arbitrary
    pointwise data, see ``project_gauss``.  ``workspace`` holds the
    transform buffers (a fresh ``GridWorkspace`` when None); the result is
    written into ``out`` when given, else into a fresh array.  The
    trapezoid weights are applied as the transform reads its result out of
    the spectrum.
    """
    if grid == "gauss":
        return _apply(domain._gauss_project, samples, out)
    d = domain.dimension
    ws = GridWorkspace() if workspace is None else workspace
    y = _type1(
        "dct",
        samples,
        d,
        ws,
        out=ws.take(("type1", "out"), samples.shape),
        weights=domain._dct_weights,
    )
    return _apply((domain._cos_to_sine,) * d, y, out)


def grid_values(domain, coeffs, points=None):
    """Exact values on the interior DST grid of ``points`` nodes per axis
    (default: the quadrature grid), by a type-1 DST over the trailing axes."""
    d = domain.dimension
    n = domain.modes_per_axis
    m = domain.quadrature_points_per_axis if points is None else int(points)
    if m < n:
        raise ValueError("collocation grid must carry at least N points per axis")
    coeffs = np.asarray(coeffs, dtype=float)
    padded = np.zeros(coeffs.shape[: coeffs.ndim - d] + (m,) * d)
    padded[(...,) + (slice(0, n),) * d] = coeffs
    return _type1("dst", padded, d) / (2.0**d)


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
    y = _type1("dst", grid.samples, domain.dimension) / float((m + 1) ** domain.dimension)
    n = domain.modes_per_axis
    sl = (slice(0, n),) * domain.dimension
    return SpectralField(domain, y[sl].copy())


def grid_extremes(domain, coeffs):
    """(min u, max |u|) over the interior collocation grid for each tensor
    of a (n,) + coeff shape stack; one transform per block of samples
    serves both reductions."""
    coeffs = np.asarray(coeffs, dtype=float)
    low = np.empty(coeffs.shape[0])
    peak = np.empty(coeffs.shape[0])
    sample_bytes = 24 * domain.quadrature_points_per_axis**domain.dimension
    for blk in sample_blocks(low.size, sample_bytes):
        vals = grid_values(domain, coeffs[blk])
        vals = vals.reshape(vals.shape[0], -1)
        low[blk] = vals.min(axis=1)
        peak[blk] = np.abs(vals).max(axis=1)
    return low, peak


def linf_grid(field):
    """max |u| over the interior collocation grid."""
    return float(grid_extremes(field.domain, field.coeffs[None])[1][0])


# ---------------------------------------------------------------------------
# exact quadratic products
# ---------------------------------------------------------------------------


def gradient_product(grads, left, right):
    """grad(a) . grad(b) on a grid, from the per-axis gradient components of
    a member stack (``left`` and ``right`` index the members), summed over
    the axes in order."""
    acc = grads[0][left] * grads[0][right]
    for comp in grads[1:]:
        acc = acc + comp[left] * comp[right]
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
    y = _type1("dst", vf * vg, domain.dimension) / float((m + 1) ** domain.dimension)
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
