"""Per-mode semigroup propagation for the linearized evolution.

Over the sine eigenbasis the linear part of the third-order-in-time
equation decouples into one 3x3 block per Laplacian eigenvalue,

    A_lam = [[0, 1, 0], [-c^2 lam, -b lam, 1], [0, 0, -a lam]],

acting on the per-mode unknown U = (u, u_t, u_tt + b lam u_t
+ c^2 lam u), whose third component is ``model.wave_part`` (and
``model.semigroup_utt`` its inverse).  This module builds the blocks and
their closed-form spectra, the spectral bound, batched matrix exponentials
with the phi-function weights used by forced (Duhamel) solves, and decay
diagnostics on top of the exact propagation.

The exponentials are this module's own, in numpy (``_expm``): the
scaling and squaring Pade algorithm of Al-Mohy and Higham (2009), over a
stack of blocks grouped by Pade order and scaling, with the approximant
evaluated as I + 2 (V - U)^-1 U.  ``PropagatorTable`` builds them once
per distinct eigenvalue.  So the package needs no library beyond numpy,
whose import is most of the start-up time of a run.

The spectrum is written once, in ``mode_eigenvalues_from_coefficients``,
which takes arrays of eigenvalues; ``max_mode_real_part``,
``oscillation_ratio`` and the ``linear-analyze`` command read it, and
``generator_blocks`` builds the blocks themselves for arrays of
eigenvalues.  The forcing is the paper's f, the right-hand side of
(a laplace - d/dt)(wave part) = f, so it enters the third component as
U' = AU - (0, 0, f), and the exponential-integrator step

    U_{n+1} = (E U_n - P1 f_n) + P2 (f_n - f_{n+1}) / dt

is written once, in ``PropagatorTable``: its three terms E U, P1 f_n and
P2 (f_n - f_{n+1}) / dt are ``evolve``, ``held`` and ``slope``, combined
in that order by the recurrence of the Duhamel solve here and by the
nonlinear march's bound step (``nonlinear._bind_step``), which passes
buffers of its own as ``out``.

The semigroup state is raw data: an array of shape (3,) + coeff shape
stacking U over the coefficient grid (``semigroup_data``), and a solve
returns the series of it, shape (nt, 3) + coeff shape.  ``nonlinear``
turns such a series into its ``Trajectory``.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .energy import DecayFit, decay_fit
from .errors import FitError
from .model import check_uniform_grid, time_grid, wave_part
from .spectral import sample_blocks, sq_norm


def mode_eigenvalues_from_coefficients(lam, a, b, c):
    """Closed-form spectrum {-a*lam} | roots(mu^2 + b*lam*mu + c^2*lam).

    ``lam`` is a positive eigenvalue or an array of them; the result has
    shape lam.shape + (3,), the heat root first, then the wave pair.
    Accepts b = 0, which the analyticity diagnostics need.  The real
    quadratic branch is evaluated in the cancellation-free form.
    """
    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= 0.0):
        raise ValueError("lam must be positive")
    p = b * lam
    q = c * c * lam
    disc = p * p - 4.0 * q
    real = disc >= 0.0
    # each branch is evaluated everywhere and selected afterwards
    with np.errstate(divide="ignore", invalid="ignore"):
        big = -(p + np.sqrt(disc)) / 2.0
        small = q / big
        half = np.sqrt(-disc) / 2.0
    mu = np.zeros(lam.shape + (3,), dtype=complex)
    mu.real[..., 0] = -a * lam
    mu.real[..., 1] = np.where(real, big, -p / 2.0)
    mu.real[..., 2] = np.where(real, small, -p / 2.0)
    mu.imag[..., 1] = np.where(real, 0.0, half)
    mu.imag[..., 2] = np.where(real, 0.0, -half)
    return mu


def generator_blocks(lam, params):
    """The blocks A_lam of the module docstring, shape lam.shape + (3, 3)."""
    blocks = np.zeros(lam.shape + (3, 3))
    blocks[..., 0, 1] = 1.0
    blocks[..., 1, 0] = -params.c**2 * lam
    blocks[..., 1, 1] = -params.b * lam
    blocks[..., 1, 2] = 1.0
    blocks[..., 2, 2] = -params.a * lam
    return blocks


class SpectralBound(NamedTuple):
    value: float
    branch: str


def spectral_bound(params, lambda0):
    """Closed-form bound -min{a*lam0, b*lam0/2, c^2/b} with its branch label."""
    if lambda0 <= 0.0:
        raise ValueError("lambda0 must be positive")
    candidates = (
        (params.a * lambda0, "heat"),
        (0.5 * params.b * lambda0, "oscillatory"),
        (params.c**2 / params.b, "overdamped"),
    )
    best = min(candidates, key=lambda item: item[0])
    return SpectralBound(value=-best[0], branch=best[1])


def max_mode_real_part(domain, params):
    """Largest eigenvalue real part over the domain's actual modes."""
    mu = mode_eigenvalues_from_coefficients(domain.eigenvalue_grid, params.a, params.b, params.c)
    return float(mu.real.max())


def oscillation_ratio(domain, a, b, c):
    """max over modes of |Im mu| / (1 + |Re mu|) for the wave pair.

    Grows like c*sqrt(lam_max) when b = 0 and stays bounded for b > 0,
    which witnesses the loss of sectoriality without damping.
    """
    pair = mode_eigenvalues_from_coefficients(domain.eigenvalue_grid, a, b, c)[..., 1:]
    return float(np.max(np.abs(pair.imag) / (1.0 + np.abs(pair.real)), initial=0.0))


def semigroup_data(domain, params, u, ut, utt):
    """Stacked (u, u_t, u_tt + b lam u_t + c^2 lam u) from coefficient arrays."""
    return np.stack([u, ut, wave_part(domain, params, u, ut, utt)])


def augmented_blocks(lam, params, dt):
    """The 9x9 block companions [[A, I, 0], [0, 0, I], [0, 0, 0]] dt of the
    eigenvalues ``lam`` (a vector), shape (n, 9, 9): the exponential of
    each holds exp(dt A), dt phi1(dt A) and dt^2 phi2(dt A) in its first
    block row."""
    aug = np.zeros((lam.size, 9, 9))
    aug[:, :3, :3] = dt * generator_blocks(lam, params)
    idx = np.arange(3)
    aug[:, idx, idx + 3] = dt
    aug[:, idx + 3, idx + 6] = dt
    return aug


# Pade orders m < 13 with their bounds theta_m, the Pade coefficients b_0..b_m
# and the constants 1/|c_{2m+1}| of the backward-error bound that ell(A, m)
# reads, as Al-Mohy and Higham (2009) tabulate them.
_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
          (7, 9.504178996162932e-1), (9, 2.097847961257068e0))
_THETA_13 = 4.25
_PADE = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
         16380.0, 182.0, 1.0),
}
_ELL_C = {3: 100800.0, 5: 10059033600.0, 7: 4487938430976000.0,
          9: 5914384781877411840000.0, 13: 113250775606021113483283660800000000.0}


def _onenorm(a):
    return np.abs(a).sum(axis=-2).max(axis=-1)


def _ell(a, m):
    """ell(A, m) of Al-Mohy and Higham (2009) per block of the
    stack ``a``: the extra squarings that bring the backward-error bound
    of the order-m Pade approximant down to the unit roundoff 2^-53, from
    the exact 1-norm of |A|^(2m+1)."""
    absa = np.abs(a)
    v = np.ones(a.shape[:-1])
    for _ in range(2 * m + 1):
        v = (v[:, None, :] @ absa)[:, 0]
    alpha = v.max(axis=-1) / (_onenorm(a) * _ELL_C[m])
    return np.maximum(np.ceil(np.log2(alpha / 2.0**-53) / (2 * m)), 0).astype(int)


def _expm(a):
    """exp of each block of the stack ``a`` (n, k, k), by the scaling and
    squaring algorithm of Al-Mohy and Higham (2009, SIAM J. Matrix Anal.
    Appl. 31:970), with exact 1-norms of the powers.

    Each block gets its own Pade order m in {3, 5, 7, 9, 13} and, for
    m = 13, its scaling s, from the exact 1-norms of A^4 .. A^10 and the
    correction ell(A, m).  The blocks sharing (m, s) are evaluated as one
    stack: r_m = I + 2 (V - U)^-1 U, which equals (V - U)^-1 (V + U) but
    adds the identity exactly, so it is about one ulp closer near the
    identity, then squared s times.  Every step is per block, so a block's
    result does not depend on the other blocks of the stack.  No block may
    be nilpotent, which holds for the augmented blocks, since a > 0 gives
    A the eigenvalue -a lam dt: the norms that choose m and s are then
    positive.
    """
    n, k = a.shape[0], a.shape[-1]
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    powers = {2: a2, 4: a4, 6: a6, 8: a6 @ a2, 10: a4 @ a6}
    d = {p: _onenorm(powers[p]) ** (1.0 / p) for p in (4, 6, 8, 10)}
    eta_low, eta_mid = np.maximum(d[4], d[6]), np.maximum(d[6], d[8])
    eta = {3: eta_low, 5: eta_low, 7: eta_mid, 9: eta_mid}
    order = np.full(n, 13)
    scale = np.zeros(n, dtype=int)
    left = np.ones(n, dtype=bool)
    # an empty group skips its _ell, whose 2m + 1 products cost the same
    # per call on no blocks as on a few
    for m, theta in _THETA:
        try_m = np.flatnonzero(left & (eta[m] < theta))
        if try_m.size:
            ok = try_m[_ell(a[try_m], m) == 0]
            order[ok] = m
            left[ok] = False
    big = np.flatnonzero(left)
    if big.size:
        eta13 = np.minimum(eta_mid, np.maximum(d[8], d[10]))[big]
        least = np.maximum(np.ceil(np.log2(eta13 / _THETA_13)), 0).astype(int)
        scale[big] = least + _ell(a[big] * 2.0 ** -least[:, None, None], 13)

    eye = np.eye(k)
    out = np.empty_like(a)
    for m, s in sorted(set(zip(order.tolist(), scale.tolist()))):
        idx = np.flatnonzero((order == m) & (scale == s))
        b = _PADE[m]
        x = a[idx]
        if m < 13:
            # the even powers A^(m-1), ..., A^2, I, summed highest first
            even = [(j, powers[j][idx] if j else eye) for j in range(m - 1, -1, -2)]
            u = x @ sum(b[j + 1] * p for j, p in even)
            v = sum(b[j] * p for j, p in even)
        else:
            x = x * 2.0 ** -s
            x2, x4, x6 = (powers[p][idx] * 2.0 ** (-p * s) for p in (2, 4, 6))
            u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
                     + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * eye)
            v = (x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2)
                 + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * eye)
        r = eye + 2.0 * np.linalg.solve(v - u, u)
        for _ in range(s):
            r = r @ r
        out[idx] = r
    return out


@dataclass(frozen=True, eq=False)
class PropagatorTable:
    """Batched exp(dt*A) blocks with the phi weights of the forcing slot.

    propagator[m] = exp(dt*A_m), shape (n, 3, 3); phi1[:, m] and phi2[:, m]
    are the third columns of dt*phi1(dt*A_m) and dt^2*phi2(dt*A_m), shape
    (3, n) each, the only part a forcing in the third component reads.
    Modes are the C-order raveling of the coefficient grid.  All three
    come from the exponential of the 9x9 block companion
    [[A, I, 0], [0, 0, I], [0, 0, 0]] dt (``augmented_blocks``), computed
    by ``_expm`` (Al-Mohy and Higham's scaling and squaring, r_m = I +
    2 (V - U)^-1 U) once per distinct eigenvalue and scattered back to
    the modes: at 2D N = 48, 1001 exponentials for 2304 modes.  A block
    does not depend on the other blocks of its batch, so the table has
    the bits of one exponential per mode.

    ``evolve``, ``held`` and ``slope`` are the three terms of the one
    exponential-integrator step, on flat data of shape (3, n) and
    forcings f of shape (..., n); a step subtracts ``held`` from E U and
    adds ``slope``.
    """

    domain: object
    params: object
    dt: float
    propagator: np.ndarray
    phi1: np.ndarray
    phi2: np.ndarray

    @classmethod
    def build(cls, domain, params, dt):
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        lam = np.asarray(domain.eigenvalue_grid, dtype=float).ravel()
        distinct, mode_of = np.unique(lam, return_inverse=True)
        full = _expm(augmented_blocks(distinct, params, dt))[mode_of]
        return cls(
            domain=domain,
            params=params,
            dt=float(dt),
            propagator=np.ascontiguousarray(full[:, :3, :3]),
            phi1=np.ascontiguousarray(full[:, :3, 5].T),
            phi2=np.ascontiguousarray(full[:, :3, 8].T),
        )

    def evolve(self, data, out=None):
        """E U of flat data (3, n), written into ``out`` when given.  The
        einsum rounds by the memory layout of its operand, so it contracts
        a C-ordered copy: the result has the same bits for every layout of
        ``data`` and of ``out``."""
        return np.einsum("nij,jn->in", self.propagator, np.ascontiguousarray(data), out=out)

    def held(self, forcing, out=None):
        """P1 f of forcings f of shape (..., n), shape (..., 3, n): the
        forcing term of a step with f held at its start value."""
        return np.multiply(self.phi1, forcing[..., None, :], out=out)

    def slope(self, forcing, forcing_next, out=None):
        """P2 (f - f') / dt, shaped as ``held``: the correction for a
        forcing linear in t from f to f' over the step."""
        return np.multiply(self.phi2, ((forcing - forcing_next) / self.dt)[..., None, :], out=out)


@lru_cache(maxsize=16)
def propagator_table(domain, params, dt):
    return PropagatorTable.build(domain, params, float(dt))


def solve_duhamel(domain, params, t_grid, data0, forcing=None):
    """Exponential-integrator solve of U' = AU - (0, 0, f(t)).

    ``data0`` is the semigroup data at t_grid[0], shape (3,) + coeff shape;
    the result holds the semigroup data at every sample, shape
    (nt, 3) + coeff shape.  ``forcing`` is f sampled on t_grid (shape
    (nt,) + coeff shape), or None for the homogeneous problem (a zero
    forcing).  Each step applies

        U_{n+1} = (E U_n - P1 f_n) + P2 (f_n - f_{n+1}) / dt,

    with P1 = dt*phi1, P2 = dt^2*phi2, which is exact for forcing linear
    in t on each step and second-order accurate overall.  The weights come
    from the ``propagator_table`` cache, keyed by dt = t_grid[1] - t_grid[0].

    The forcing is known at every sample before the first step, so its
    two terms (``PropagatorTable.held`` and ``slope``) are computed for a
    block of steps at once, a block holding as many steps as fit in
    ``spectral.BLOCK_BYTES``; the loop only recurs, combining them with
    E U_n in the order above.  The result is, bit for bit, a loop of that
    step.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("t_grid must be a vector with at least two samples")
    check_uniform_grid(t)
    dt = float(t[1] - t[0])
    nt = t.size
    shape = domain.coeff_shape
    data0 = np.asarray(data0, dtype=float)
    if data0.shape != (3,) + shape:
        raise ValueError(f"semigroup data must have shape {(3,) + shape}")
    f = np.zeros((nt,) + shape) if forcing is None else np.asarray(forcing, dtype=float)
    if f.shape != (nt,) + shape:
        raise ValueError("forcing samples must have shape (nt,) + coeff shape")

    table = propagator_table(domain, params, dt)
    n_modes = domain.n_modes
    f_flat = f.reshape(nt, n_modes)
    data = np.empty((nt, 3, n_modes))
    data[0] = data0.reshape(3, -1)
    # the forcing terms of a block of steps at once; the loop only recurs
    rows = list(data)
    for blk in sample_blocks(nt - 1, 2 * data[0].nbytes):
        held = table.held(f_flat[blk])
        slope = table.slope(f_flat[blk], f_flat[blk.start + 1 : blk.stop + 1])
        nxt = rows[blk.start + 1 : blk.stop + 1]
        for prev, row, a, b in zip(rows[blk], nxt, held, slope):
            table.evolve(prev, out=row)
            row -= a
            row += b
    return data.reshape((nt, 3) + shape)


def linear_decay_report(initial, params, T, dt):
    """Homogeneous run with a log-linear decay fit on the trailing half.

    Fits linear_energy(t) ~ C*exp(-omega*t); the returned M is the
    smallest constant with E(t) <= M*exp(-omega*t)*E(0) over the whole
    run.  Raises FitError for zero data or if the energy trend grows on
    the trailing window.
    """
    t = initial.t + time_grid(T, dt)
    domain = initial.domain
    data0 = semigroup_data(
        domain, params, initial.u.coeffs, initial.ut.coeffs, initial.utt.coeffs
    )
    data = solve_duhamel(domain, params, t, data0)
    # ||A^2 u||^2 + ||A^2 u_t||^2 + ||A w||^2, w the wave part
    energy = sq_norm(domain, data[:, 0], 4) + sq_norm(domain, data[:, 1], 4)
    energy += sq_norm(domain, data[:, 2], 2)
    if energy[0] <= 0.0:
        raise FitError("zero initial data gives a degenerate decay fit")
    half = t.size // 2
    if energy[-1] > energy[half]:
        raise FitError("energy trend grows on the trailing window")
    fit = decay_fit(t, energy)
    rel = t - t[0]
    prefactor = float(np.max(energy * np.exp(fit.omega * rel) / energy[0]))
    return DecayFit(
        omega=fit.omega, M=prefactor, window=fit.window, residual=fit.residual
    )


def weighted_norm(domain, params, data, alpha=0.1):
    """Diagnostic weighted norm of semigroup data, with weight (alpha*b/2)^2
    on the first slot.

    sqrt((alpha*b/2)^2 ||A^2 U1||^2 + ||A U2||^2 + ||U3||^2).
    """
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    u1, u2, u3 = data
    scale = (alpha * params.b / 2.0) ** 2
    return math.sqrt(
        scale * sq_norm(domain, u1, 4) + sq_norm(domain, u2, 2) + sq_norm(domain, u3)
    )


@dataclass(frozen=True)
class RelativeBoundReport:
    """Measured vs. stated constants for the diagonal/off-diagonal split.

    The generator splits as A = A1 + A2 with A1 the diagonal damping part
    and A2 the coupling part; the report compares the measured offset in
    ||A2 v|| <= (alpha/2)||A1 v|| + offset*||v|| against the stated value
    sqrt(2)*max(2c^2/(alpha*b), 1).  Reported, not asserted.
    """

    alpha: float
    slope: float
    claimed_offset: float
    measured_offset: float
    satisfied: bool


def relative_bound_report(domain, params, alpha=0.1, n_samples=64, seed=0):
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    rng = np.random.default_rng(seed)
    lam = np.asarray(domain.eigenvalue_grid, dtype=float).ravel()
    a, b, c = params.a, params.b, params.c
    scale = (alpha * b / 2.0) ** 2
    v = rng.standard_normal((lam.size, n_samples, 3))
    lam_col = lam[:, None]
    v1, v2, v3 = v[..., 0], v[..., 1], v[..., 2]
    norm_v = np.sqrt(scale * lam_col**4 * v1**2 + lam_col**2 * v2**2 + v3**2)
    norm_a1 = np.sqrt(lam_col**2 * (b * lam_col * v2) ** 2 + (a * lam_col * v3) ** 2)
    norm_a2 = np.sqrt(
        scale * lam_col**4 * v2**2 + lam_col**2 * (c * c * lam_col * v1 - v3) ** 2
    )
    measured = float(np.max((norm_a2 - 0.5 * alpha * norm_a1) / norm_v))
    claimed = math.sqrt(2.0) * max(2.0 * c * c / (alpha * b), 1.0)
    return RelativeBoundReport(
        alpha=float(alpha),
        slope=0.5 * alpha,
        claimed_offset=claimed,
        measured_offset=measured,
        satisfied=measured <= claimed + 1e-12,
    )
