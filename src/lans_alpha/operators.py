"""Stokes and Helmholtz operators, the trilinear form b, the rotational
bilinear term, and the Galerkin drift of the alpha-model.

The advection machinery evaluates the 2D rotational nonlinearity

    Bt(u, v) = -P( u x (curl v) ),    u x (curl v) = (w v) read as
                                      (w*u2, -w*u1) with w = d1 v2 - d2 v1,

by one of two production routes, chosen from basis.cutoff alone:

  dense route (cutoff < FFT_MIN_CUTOFF)
      collocation on the 4*cutoff basis grid through the dense
      (modes x grid) tensors, then exact quadrature projection.  Cost and
      memory grow as cutoff^4.
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

Both routes are exact to rounding and agree to about 1e-14 relative.  The
crossover was measured on a 2-core x86 VM (numpy 2.4, one BLAS thread),
as median microseconds per b_tilde_coeffs call on M members, dense /
pseudo-spectral:

    cutoff   M=1         M=20          M=200
      3      23 / 108    224 / 182     3541 / 3588
      4      61 / 134    816 / 471     8674 / 4784
      5     121 / 124   1896 / 508    19428 / 6218
      6     267 / 146   3931 / 657    40690 / 8883
      8     798 / 162  11097 / 586   146479 / 9564
     12    2746 / 125  66252 / 1619  785633 / 31870

At cutoff 5 the pseudo-spectral route ties at M=1 and wins at every larger
M, so it starts there.  linearized_nonlinear_coeffs, which projects its
two integrands at once, crosses at the same cutoff (M=1: 124 / 208 us at
cutoff 4, 239 / 199 us at cutoff 5).  The choice ignores the batch size
on purpose: a member's result then cannot depend on how many members
share its batch, on the split into thread blocks, or on LANS_THREADS.

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

import numpy as np

from .basis import Basis, ConfigError, SpectralField, _check_same_basis

__all__ = [
    "PhysicalParams",
    "apply_stokes",
    "helmholtz",
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


def helmholtz(u: SpectralField, alpha: float, mode: str = "apply") -> SpectralField:
    """Apply or invert I + alpha^2 A (diagonal, always invertible)."""
    factor = 1.0 + alpha**2 * u.basis.eigenvalues
    if mode == "apply":
        return SpectralField(u.basis, u.coeffs * factor)
    if mode == "solve":
        return SpectralField(u.basis, u.coeffs / factor)
    raise ValueError(f"mode must be 'apply' or 'solve', got {mode!r}")


# Smallest cutoff at which b_tilde_coeffs takes the pseudo-spectral route
# (the measured crossover, see the module docstring).
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


def nonlinear_coeffs(basis: Basis, coeffs: np.ndarray, alpha: float) -> np.ndarray:
    """N(u) = -(I+a^2 A)^{-1} Bt(u, (I+a^2 A)u), batched."""
    factor = 1.0 + alpha**2 * basis.eigenvalues
    return -b_tilde_coeffs(basis, (coeffs, coeffs * factor)) / factor


def linearized_nonlinear_coeffs(
    basis: Basis, cu: np.ndarray, ceta: np.ndarray, alpha: float
) -> np.ndarray:
    """Derivative of nonlinear_coeffs at u in direction eta, batched."""
    factor = 1.0 + alpha**2 * basis.eigenvalues
    return -b_tilde_coeffs(basis, (ceta, cu * factor), (cu, ceta * factor)) / factor


def alpha_energy(coeffs: np.ndarray, basis: Basis, alpha: float) -> np.ndarray:
    """F(u) = |u|_2^2 + alpha^2 |grad u|_2^2 over the last axis."""
    factor = 1.0 + alpha**2 * basis.eigenvalues
    return np.sum(factor * np.asarray(coeffs) ** 2, axis=-1)


def alpha_dissipation(coeffs: np.ndarray, basis: Basis, alpha: float) -> np.ndarray:
    """|grad u|_2^2 + alpha^2 |Au|_2^2 over the last axis."""
    lam = basis.eigenvalues
    return np.sum(lam * (1.0 + alpha**2 * lam) * np.asarray(coeffs) ** 2, axis=-1)


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
