"""Reference routes of the rotational term Bt and the trilinear form b.

No run steps with these.  They cross-check the two routes the package steps
with (see operators), and the dense route builds the triad table once per
(basis, alpha).  All are exact to rounding:

  dense route (b_tilde_dense)
      collocation on the 4*cutoff basis grid through the dense
      (modes x grid) tensors, then exact quadrature projection; cost and
      memory grow as cutoff^4.
  gradient-matrix route (b_tilde_matrix, and b_form)
      the antisymmetrized velocity-gradient matrix applied to u on that grid.
  convolution oracle (b_tilde_convolution)
      a mode-by-mode trigonometric convolution that never touches a grid.
"""

from __future__ import annotations

import numpy as np

from .basis import Basis, SpectralField, _check_same_basis

__all__ = ["b_form", "b_tilde_dense", "b_tilde_matrix", "b_tilde_convolution"]


# -- dense collocation route, on coefficient arrays of shape (..., n) --------


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


# -- field-level reference routes -------------------------------------------


def b_form(u: SpectralField, v: SpectralField, w: SpectralField) -> float:
    """Trilinear form b(u, v, w) = <(u.grad)v, w> by exact grid quadrature."""
    _check_same_basis(u, v)
    _check_same_basis(u, w)
    basis = u.basis
    ug = velocity_on_grid(basis, u.coeffs)
    wg = velocity_on_grid(basis, w.coeffs)
    gradv = np.einsum("j,jgim->gim", v.coeffs, basis.grid_mode_gradients)
    return float(basis.quad_weight() * np.einsum("gi,gim,gm->", ug, gradv, wg))


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
    modes = zip(basis.wavevectors.tolist(), basis.parities.tolist(), u.coeffs)
    for j, ((k1, k2), par, c) in enumerate(modes):
        if c == 0.0:
            continue
        for m in range(2):
            amp = basis.amp * c * basis.polarizations[j, m]
            if par == 0:
                _add_atom(polys[m], k1, k2, amp, 0.0)
            else:
                _add_atom(polys[m], k1, k2, 0.0, amp)
    return polys


def _curl_poly(v: SpectralField) -> dict:
    basis = v.basis
    poly: dict = {}
    two_pi_over_L = 2.0 * np.pi / basis.L
    for (k1, k2), par, c in zip(basis.wavevectors.tolist(), basis.parities.tolist(), v.coeffs):
        if c == 0.0:
            continue
        knorm = float(np.hypot(k1, k2))
        f = basis.amp * c * two_pi_over_L * knorm
        if par == 0:
            _add_atom(poly, k1, k2, 0.0, -f)
        else:
            _add_atom(poly, k1, k2, f, 0.0)
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
    for j, ((k1, k2), par) in enumerate(zip(basis.wavevectors.tolist(), basis.parities.tolist())):
        acc = 0.0
        slot1 = g1.get((k1, k2))
        slot2 = g2.get((k1, k2))
        if slot1 is not None:
            acc -= basis.polarizations[j, 0] * slot1[par]
        if slot2 is not None:
            acc += basis.polarizations[j, 1] * slot2[par]
        coeffs[j] = basis.amp * half_box * acc
    return SpectralField(basis, coeffs)
