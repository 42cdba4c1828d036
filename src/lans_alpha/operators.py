"""Stokes and Helmholtz operators, the trilinear form b, the rotational
bilinear term, and the Galerkin drift of the alpha-model.

The advection machinery evaluates the 2D rotational nonlinearity

    Bt(u, v) = -P( u x (curl v) ),    u x (curl v) = (w v) read as
                                      (w*u2, -w*u1) with w = d1 v2 - d2 v1,

by one of three routes.  nonlinear_coeffs and linearized_nonlinear_coeffs,
the stepping path, choose theirs from basis.cutoff alone:

  triad route (cutoff < FFT_MIN_CUTOFF)
      the interaction-coefficient method (Orszag 1970): the nonlinearity is
      quadratic, N(c)_j = sum_{k<=l} S_jkl c_k c_l, and S is sparse (only
      wavevector triads k_j = +-k_k +- k_l interact: 16 / 224 / 1056 / 3120
      coefficients at cutoffs 1-4).  triad_table builds S once per
      (basis, alpha) from the dense route, folding in the Helmholtz factors
      and the sign; a call is two gathers, a product and one
      np.add.reduceat over the triads sorted by output mode.
  pseudo-spectral route (cutoff >= FFT_MIN_CUTOFF)
      each wavevector's cos/sin coefficients are paired into one complex
      amplitude z_k = c_cos - i c_sin and scattered into rfft2
      half-spectra; irfft2 gives the grid velocity and curl (i 2pi/L |k|
      z_k, because the polarization is orthogonal to k), and rfft2 of the
      product is read off at the mode wavevectors (Basis.fft_layout holds
      the index arrays and the sign conventions).  The grid has the
      smallest 5-smooth size >= 3*cutoff + 1 per axis (the 3/2 rule,
      Orszag 1971), on which the projection is still exact.  Cost grows
      as cutoff^2 log cutoff and no (modes x grid) tensor is built.
  dense route (b_tilde below FFT_MIN_CUTOFF, and the oracles)
      collocation on the 4*cutoff basis grid through the dense
      (modes x grid) tensors, then exact quadrature projection.  Cost and
      memory grow as cutoff^4; it builds the triad table and serves
      b_tilde, b_form and the cross-checks, not the stepping path.

All routes are exact to rounding and agree to about 1e-14 relative.  The
crossovers were measured on a 2-core x86 VM (numpy 2.4, one BLAS thread),
as median microseconds per nonlinear_coeffs call on M members, dense /
triad (cutoffs 1-4) and dense / pseudo-spectral (cutoffs 3 and up, per
b_tilde_coeffs call):

    cutoff   M=1        M=2         M=200          M=5000
      1      23 / 7     27 / 12     133 / 39       4885 / 601
      2      25 / 12    38 / 18     614 / 150     19725 / 7524
      3      39 / 16    61 / 31    2733 / 786     86348 / 54275
      4      62 / 26   104 / 49    7504 / 2658   235226 / 260273

    cutoff   M=1         M=20          M=200
      3      23 / 108    224 / 182     3541 / 3588
      4      61 / 134    816 / 471     8674 / 4784
      5     121 / 124   1896 / 508    19428 / 6218
      6     267 / 146   3931 / 657    40690 / 8883
      8     798 / 162  11097 / 586   146479 / 9564
     12    2746 / 125  66252 / 1619  785633 / 31870

Below cutoff 5 the triad route beats both other routes, except at cutoff 4
with M=5000, where it ties the dense one (0.90x and 1.03x in two runs); at
cutoff 5 the pseudo-spectral
route ties the dense route at M=1 and wins at every larger M, so it starts
there.  linearized_nonlinear_coeffs crosses at the same cutoff.  The choice
ignores the batch size on purpose: a member's result then cannot depend on
how many members share its batch, on the split into thread blocks, or on
LANS_THREADS.  For the same reason no route uses a BLAS matmul, whose
per-row rounding changes with the batch size.

Two independent evaluation routes are kept for cross-checking: the
antisymmetrized velocity-gradient matrix applied to u, and a direct
mode-by-mode trigonometric convolution that never touches a grid.

With F(u) = |u|_2^2 + alpha^2 |grad u|_2^2 the nonlinearity does no work
on the alpha-energy: <Bt(u, (I+a^2 A)u), u> vanishes identically, which
is the cancellation all the energy diagnostics in this package rely on.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .basis import Basis, ConfigError, SpectralField, _check_same_basis

__all__ = [
    "PhysicalParams",
    "apply_stokes",
    "helmholtz",
    "helmholtz_factor",
    "TriadTable",
    "triad_table",
    "b_form",
    "b_tilde",
    "b_tilde_dense",
    "b_tilde_fft",
    "b_tilde_matrix",
    "b_tilde_convolution",
    "drift",
    "linearized_drift",
    "alpha_energy",
    "alpha_dissipation",
]


@dataclass(frozen=True)
class PhysicalParams:
    """Viscosity, filter length and box side.

    nu = 0 is allowed (conservation tests only; stochastic runs require
    nu > 0).  alpha = 0 selects the plain Navier-Stokes drift.
    """

    nu: float
    alpha: float
    L: float

    def __post_init__(self):
        if self.nu < 0:
            raise ConfigError(f"viscosity nu must be >= 0, got {self.nu}")
        if self.alpha < 0:
            raise ConfigError(f"filter length alpha must be >= 0, got {self.alpha}")
        if not (self.L > 0):
            raise ConfigError(f"box size L must be positive, got {self.L}")

    def check_basis(self, basis: Basis) -> None:
        if basis.L != self.L:
            raise ValueError(f"params have L={self.L}, basis has L={basis.L}")


# -- diagonal operators -----------------------------------------------------


def apply_stokes(u: SpectralField) -> SpectralField:
    """A u: coefficient-wise multiplication by the eigenvalues."""
    return SpectralField(u.basis, u.basis.eigenvalues * u.coeffs)


@functools.lru_cache(maxsize=None)
def helmholtz_factor(basis: Basis, alpha: float) -> np.ndarray:
    """Eigenvalues 1 + alpha^2 lambda of I + alpha^2 A, cached read-only."""
    factor = 1.0 + alpha**2 * basis.eigenvalues
    factor.setflags(write=False)
    return factor


def helmholtz(u: SpectralField, alpha: float, mode: str = "apply") -> SpectralField:
    """Apply or invert I + alpha^2 A (diagonal, always invertible)."""
    factor = helmholtz_factor(u.basis, alpha)
    if mode == "apply":
        return SpectralField(u.basis, u.coeffs * factor)
    if mode == "solve":
        return SpectralField(u.basis, u.coeffs / factor)
    raise ValueError(f"mode must be 'apply' or 'solve', got {mode!r}")


# Smallest cutoff at which the nonlinearity and b_tilde_coeffs take the
# pseudo-spectral route (the measured crossover, see the module docstring);
# below it the nonlinearity takes the triad route and b_tilde_coeffs the
# dense one.
FFT_MIN_CUTOFF = 5


# -- batched grid kernels ---------------------------------------------------
#
# These operate on raw coefficient arrays of shape (..., n) so integrators
# and Monte-Carlo drivers can step whole ensembles at once.


def velocity_on_grid(basis: Basis, coeffs: np.ndarray) -> np.ndarray:
    """Velocities at the collocation points, shape (..., G, 2)."""
    return np.einsum("...j,jgm->...gm", coeffs, basis.grid_mode_values)


def curl_on_grid(basis: Basis, coeffs: np.ndarray) -> np.ndarray:
    """Scalar curl at the collocation points, shape (..., G)."""
    return np.einsum("...j,jg->...g", coeffs, basis.grid_mode_curls)


def project_grid_field(basis: Basis, values: np.ndarray) -> np.ndarray:
    """Quadrature L^2 projection of grid velocities back to coefficients."""
    return basis.quad_weight() * np.einsum("jgm,...gm->...j", basis.grid_mode_values, values)


def b_tilde_dense(basis: Basis, cu: np.ndarray, cv: np.ndarray) -> np.ndarray:
    """Bt(u, v) by collocation on the 4*cutoff grid (dense route)."""
    w = curl_on_grid(basis, cv)
    ug = velocity_on_grid(basis, cu)
    # -(u x curl v) = (-w*u2, +w*u1)
    integrand = np.stack([-w * ug[..., 1], w * ug[..., 0]], axis=-1)
    return project_grid_field(basis, integrand)


def _as_pair_amplitudes(c: np.ndarray) -> np.ndarray:
    # (..., n) real -> (..., n/2) complex y_k = c_cos + i c_sin, no copy
    return np.ascontiguousarray(c, dtype=np.float64).view(np.complex128)


def b_tilde_fft(basis: Basis, *pairs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """sum_i Bt(u_i, v_i) by the pseudo-spectral route (see Basis.fft_layout).

    Each pair (cu, cv) adds its integrand -(u_i x curl v_i) on the grid;
    the sum is projected once, which is exact because projection is linear.
    """
    lay = basis.fft_layout
    N = lay.size
    half = (N, N // 2 + 1)
    integrand = 0.0
    for cu, cv in pairs:
        yu, yv = _as_pair_amplitudes(cu), _as_pair_amplitudes(cv)
        batch = np.broadcast_shapes(yu.shape[:-1], yv.shape[:-1])
        # half-spectra of u_1, u_2 and curl v, flattened for the scatter
        spec = np.zeros(batch + (3, half[0] * half[1]), dtype=np.complex128)
        spec[..., :2, lay.slots] = lay.velocity_scale * yu[..., None, :]
        spec[..., 2, lay.slots] = lay.curl_scale * yv
        spec[..., lay.mirror_to] = np.conj(spec[..., lay.mirror_from])
        fields = np.fft.irfft2(spec.reshape(batch + (3,) + half), s=(N, N), norm="forward")
        u1, u2, w = fields[..., 0, :, :], fields[..., 1, :, :], fields[..., 2, :, :]
        # -(u x curl v) = (-w*u2, +w*u1)
        integrand = integrand + np.stack([-w * u2, w * u1], axis=-3)
    g = np.fft.rfft2(integrand).reshape(integrand.shape[:-2] + (-1,))[..., lay.slots]
    proj = lay.project_scale[0] * g[..., 0, :] + lay.project_scale[1] * g[..., 1, :]
    return np.ascontiguousarray(proj).view(np.float64)


def b_tilde_coeffs(basis: Basis, *pairs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """sum_i Bt(u_i, v_i) for batched coefficient pairs (cu, cv).

    The route depends on basis.cutoff alone, so a member's result does not
    depend on the batch it is evaluated in.  The dense route adds its terms
    left to right from the first, not from 0, which would turn -0.0 into +0.0.
    """
    if basis.cutoff >= FFT_MIN_CUTOFF:
        return b_tilde_fft(basis, *pairs)
    return functools.reduce(np.add, (b_tilde_dense(basis, cu, cv) for cu, cv in pairs))


class TriadTable(NamedTuple):
    """Nonzero interaction coefficients of the nonlinearity, sorted by output.

    N(c)_j = sum_{k<=l} S_jkl c_k c_l, with T_jkl = Bt(e_k, e_l)_j and
    f = 1 + alpha^2 lambda:
        S_jkl = -(T_jkl f_l + T_jlk f_k) / f_j   (k < l)
        S_jkk = -T_jkk f_k / f_j.
    Triad t adds coeff[t] c_k[t] c_l[t] to mode rows[i] for
    starts[i] <= t < starts[i + 1]; modes outside rows receive nothing.
    """

    rows: np.ndarray    # (J,) output modes with at least one triad, ascending
    starts: np.ndarray  # (J,) first triad of each output mode
    k: np.ndarray       # (T,)
    l: np.ndarray       # (T,) >= k
    coeff: np.ndarray   # (T,) S_jkl


# Coefficients below this fraction of the largest are rounding left by the
# dense route where S vanishes exactly (at most 2.4e-15 at cutoffs 1-4,
# against a smallest true coefficient of 5e-3).
_TRIAD_RTOL = 1e-12


@functools.lru_cache(maxsize=None)
def triad_table(basis: Basis, alpha: float) -> TriadTable:
    """The triad route's coefficients, built once per (basis, alpha)."""
    n = basis.mode_count
    eye = np.eye(n)
    # T[k, l, j] = Bt(e_k, e_l)_j
    T = np.stack([b_tilde_dense(basis, eye[k], eye) for k in range(n)])
    f = helmholtz_factor(basis, alpha)
    k, l = np.triu_indices(n)
    half_on_diagonal = np.where(k == l, 0.5, 1.0)[:, None]
    S = (-half_on_diagonal * (T[k, l] * f[l, None] + T[l, k] * f[k, None]) / f).T
    j, t = np.nonzero(np.abs(S) > _TRIAD_RTOL * np.abs(S).max())
    rows, starts = np.unique(j, return_index=True)
    table = TriadTable(rows, starts, k[t], l[t], S[j, t])
    for arr in table:
        arr.setflags(write=False)
    return table


def _triad_sum(table: TriadTable, *pairs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """sum over pairs (a, b) of sum_{k<=l} S_jkl a_k b_l, batched.

    Every a and b has one shape.  Mode-major: the gathers and products run
    along the member axis, and np.add.reduceat sums each member's column on
    its own, so a member's result does not depend on the batch it is in.
    The result is C-contiguous, like the states it is added to.
    """
    shape = pairs[0][0].shape
    n = shape[-1]
    prod = None
    for a, b in pairs:
        term = a.reshape(-1, n).T.take(table.k, axis=0)
        term *= b.reshape(-1, n).T.take(table.l, axis=0)
        prod = term if prod is None else prod + term
    prod *= table.coeff[:, None]
    out = np.zeros((prod.shape[1], n))
    out[:, table.rows] = np.add.reduceat(prod, table.starts, axis=0).T
    return out.reshape(shape)


# The stepping path binds its route data once (StepKernel) and passes it as
# `table` and `factor`; other callers leave them out and the cache supplies them.


def nonlinear_coeffs(
    basis: Basis,
    coeffs: np.ndarray,
    alpha: float,
    *,
    table: TriadTable | None = None,
    factor: np.ndarray | None = None,
) -> np.ndarray:
    """N(u) = -(I+a^2 A)^{-1} Bt(u, (I+a^2 A)u), batched.

    `table` is triad_table(basis, alpha) (triad route) and `factor`
    helmholtz_factor(basis, alpha) (pseudo-spectral route)."""
    if basis.cutoff < FFT_MIN_CUTOFF:
        return _triad_sum(triad_table(basis, alpha) if table is None else table, (coeffs, coeffs))
    factor = helmholtz_factor(basis, alpha) if factor is None else factor
    return -b_tilde_fft(basis, (coeffs, coeffs * factor)) / factor


def linearized_nonlinear_coeffs(
    basis: Basis,
    cu: np.ndarray,
    ceta: np.ndarray,
    alpha: float,
    *,
    table: TriadTable | None = None,
    factor: np.ndarray | None = None,
) -> np.ndarray:
    """Derivative of nonlinear_coeffs at u in direction eta, batched
    (cu and ceta of one shape; `table` and `factor` as there)."""
    if basis.cutoff < FFT_MIN_CUTOFF:
        table = triad_table(basis, alpha) if table is None else table
        return _triad_sum(table, (cu, ceta), (ceta, cu))
    factor = helmholtz_factor(basis, alpha) if factor is None else factor
    return -b_tilde_fft(basis, (ceta, cu * factor), (cu, ceta * factor)) / factor


def _weighted_square_sum(coeffs, weight, out, work) -> np.ndarray:
    # np.sum(weight * coeffs**2, axis=-1) bit for bit (np.sum is np.add.reduce),
    # writing the squares into `work` and the sums into `out` when given
    sq = np.multiply(weight, np.square(coeffs, out=work), out=work)
    return np.add.reduce(sq, axis=-1, out=out)


def alpha_energy(
    coeffs: np.ndarray,
    basis: Basis,
    alpha: float,
    *,
    weight: np.ndarray | None = None,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """F(u) = |u|_2^2 + alpha^2 |grad u|_2^2 over the last axis.

    `weight` is helmholtz_factor(basis, alpha).  `out` (shape (...,)) and
    `work` (C-contiguous, shape (..., n)) are optional buffers for the sums
    and the weighted squares; the sums have the same bits either way when
    coeffs is C-contiguous."""
    if weight is None:
        weight = helmholtz_factor(basis, alpha)
    return _weighted_square_sum(coeffs, weight, out, work)


def alpha_dissipation(
    coeffs: np.ndarray,
    basis: Basis,
    alpha: float,
    *,
    weight: np.ndarray | None = None,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """|grad u|_2^2 + alpha^2 |Au|_2^2 over the last axis.

    `weight` is basis.eigenvalues * helmholtz_factor(basis, alpha); `out`
    and `work` as in alpha_energy."""
    if weight is None:
        weight = basis.eigenvalues * helmholtz_factor(basis, alpha)
    return _weighted_square_sum(coeffs, weight, out, work)


# -- public field-level operations ------------------------------------------


def b_form(u: SpectralField, v: SpectralField, w: SpectralField) -> float:
    """Trilinear form b(u, v, w) = <(u.grad)v, w> by exact grid quadrature."""
    _check_same_basis(u, v)
    _check_same_basis(u, w)
    basis = u.basis
    ug = velocity_on_grid(basis, u.coeffs)
    wg = velocity_on_grid(basis, w.coeffs)
    gradv = np.einsum("j,jgim->gim", v.coeffs, basis.grid_mode_gradients)
    return float(basis.quad_weight() * np.einsum("gi,gim,gm->", ug, gradv, wg))


def b_tilde(u: SpectralField, v: SpectralField) -> SpectralField:
    """Bt(u, v) = -P(u x curl v) via the scalar-curl collocation route."""
    _check_same_basis(u, v)
    return SpectralField(u.basis, b_tilde_coeffs(u.basis, (u.coeffs, v.coeffs)))


def b_tilde_matrix(u: SpectralField, v: SpectralField) -> SpectralField:
    """Bt(u, v) via the antisymmetrized gradient matrix -P[(grad v - grad v^T) u].

    Index convention: (grad v)_{im} = d_i v_m, so the cross product reads
    (u x curl v)_m = sum_i (d_m v_i - d_i v_m) u_i.  Cross-check route for
    b_tilde; the two must agree to rounding.
    """
    _check_same_basis(u, v)
    basis = u.basis
    ug = velocity_on_grid(basis, u.coeffs)
    gradv = np.einsum("j,jgim->gim", v.coeffs, basis.grid_mode_gradients)
    cross = np.einsum("gmi,gi->gm", gradv, ug) - np.einsum("gim,gi->gm", gradv, ug)
    return SpectralField(basis, project_grid_field(basis, -cross))


# -- grid-free convolution oracle --------------------------------------------
#
# Scalar trigonometric polynomials are dicts mapping a canonical half-space
# wavevector to [cos, sin] amplitudes of theta_k = (2 pi / L) k.x; products
# reduce to sums via the product-to-sum identities, and the box integral
# reads off the zero-frequency cosine amplitude.  Quadratic cost in the mode
# count; intended as a small-instance oracle, not a production path.


def _canon_key(k1: int, k2: int) -> tuple[int, int, float]:
    if k1 > 0 or (k1 == 0 and k2 > 0) or (k1 == 0 and k2 == 0):
        return k1, k2, 1.0
    return -k1, -k2, -1.0


def _add_atom(poly: dict, k1: int, k2: int, cos_amp: float, sin_amp: float) -> None:
    k1, k2, flip = _canon_key(k1, k2)
    slot = poly.setdefault((k1, k2), [0.0, 0.0])
    slot[0] += cos_amp
    slot[1] += flip * sin_amp


def _trig_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for (a1, a2), (cf, sf) in f.items():
        for (b1, b2), (cg, sg) in g.items():
            d1, d2 = a1 - b1, a2 - b2
            s1, s2 = a1 + b1, a2 + b2
            # cos A cos B, sin A sin B -> cosines at A-B and A+B
            _add_atom(out, d1, d2, 0.5 * (cf * cg + sf * sg), 0.0)
            _add_atom(out, s1, s2, 0.5 * (cf * cg - sf * sg), 0.0)
            # sin A cos B, cos A sin B -> sines at A+B and A-B
            _add_atom(out, s1, s2, 0.0, 0.5 * (sf * cg + cf * sg))
            _add_atom(out, d1, d2, 0.0, 0.5 * (sf * cg - cf * sg))
    return out


def _component_polys(u: SpectralField) -> tuple[dict, dict]:
    basis = u.basis
    polys: tuple[dict, dict] = ({}, {})
    for j, ((k, par), c) in enumerate(zip(basis.modes, u.coeffs)):
        if c == 0.0:
            continue
        for m in range(2):
            amp = basis.amp * c * basis.polarizations[j, m]
            if par == 0:
                _add_atom(polys[m], k.k1, k.k2, amp, 0.0)
            else:
                _add_atom(polys[m], k.k1, k.k2, 0.0, amp)
    return polys


def _curl_poly(v: SpectralField) -> dict:
    basis = v.basis
    poly: dict = {}
    two_pi_over_L = 2.0 * np.pi / basis.L
    for j, ((k, par), c) in enumerate(zip(basis.modes, v.coeffs)):
        if c == 0.0:
            continue
        knorm = float(np.hypot(k.k1, k.k2))
        f = basis.amp * c * two_pi_over_L * knorm
        if par == 0:
            _add_atom(poly, k.k1, k.k2, 0.0, -f)
        else:
            _add_atom(poly, k.k1, k.k2, f, 0.0)
    return poly


def b_tilde_convolution(u: SpectralField, v: SpectralField) -> SpectralField:
    """Bt(u, v) by exact trigonometric convolution (grid-free oracle)."""
    _check_same_basis(u, v)
    basis = u.basis
    u1, u2 = _component_polys(u)
    w = _curl_poly(v)
    # -(u x curl v) = (-w*u2, +w*u1)
    g1 = _trig_mul(w, u2)
    g2 = _trig_mul(w, u1)
    coeffs = np.zeros(basis.mode_count)
    half_box = 0.5 * basis.L**2
    for j, (k, par) in enumerate(basis.modes):
        acc = 0.0
        slot1 = g1.get((k.k1, k.k2))
        slot2 = g2.get((k.k1, k.k2))
        if slot1 is not None:
            acc -= basis.polarizations[j, 0] * slot1[par]
        if slot2 is not None:
            acc += basis.polarizations[j, 1] * slot2[par]
        coeffs[j] = basis.amp * half_box * acc
    return SpectralField(basis, coeffs)


# -- full drift ---------------------------------------------------------------


def drift(u: SpectralField, p: PhysicalParams) -> SpectralField:
    """Right-hand side -nu A u - (I+a^2 A)^{-1} Bt(u, u + a^2 A u).

    Returns the full drift including the viscous part; integrators that
    split stiff and nonlinear terms query A separately.
    """
    p.check_basis(u.basis)
    basis = u.basis
    c = -p.nu * basis.eigenvalues * u.coeffs + nonlinear_coeffs(basis, u.coeffs, p.alpha)
    return SpectralField(basis, c)


def linearized_drift(u: SpectralField, eta: SpectralField, p: PhysicalParams) -> SpectralField:
    """Drift of the first-variation equation along u, applied to eta."""
    _check_same_basis(u, eta)
    p.check_basis(u.basis)
    basis = u.basis
    c = -p.nu * basis.eigenvalues * eta.coeffs + linearized_nonlinear_coeffs(
        basis, u.coeffs, eta.coeffs, p.alpha
    )
    return SpectralField(basis, c)
