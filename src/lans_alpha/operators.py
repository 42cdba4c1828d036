"""The Helmholtz factor, the rotational bilinear term, and the Galerkin
drift of the alpha-model.

The advection machinery evaluates the 2D rotational nonlinearity

    Bt(u, v) = -P( u x (curl v) ),    u x (curl v) = (w v) read as
                                      (w*u2, -w*u1) with w = d1 v2 - d2 v1,

by one of two routes.  nonlinear_coeffs and linearized_nonlinear_coeffs,
the stepping path, choose theirs from basis.cutoff alone:

  triad route (cutoff < FFT_MIN_CUTOFF)
      the interaction-coefficient method (Orszag 1970): the nonlinearity is
      quadratic, N(c)_j = sum_{k<=l} S_jkl c_k c_l, and S is sparse (only
      wavevector triads k_j = +-k_k +- k_l interact: 16 / 224 / 1056 / 3120
      coefficients at cutoffs 1-4).  triad_table builds S once per
      (basis, alpha) from the dense route (oracles.b_tilde_dense), folding
      in the Helmholtz factors and the sign; a call is two gathers, a
      product and one np.add.reduceat over the triads sorted by output
      mode, all along the member axis of (n, M) views.  Given scratch for
      many members, the gathers and products run in place and the segment
      sums as row operations in reduceat's own order (_segment_sums,
      _pairwise_rows), over contiguous rows when the states are held
      mode-major.
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
      b_tilde takes this route at every cutoff.

The reference routes (the dense collocation route, the gradient-matrix
route and b_form, and the grid-free convolution oracle) live in oracles
and are re-exported here.  All routes are exact to rounding and agree to
about 1e-14 relative.  The crossovers were measured on a 2-core x86 VM
(numpy 2.4, one BLAS thread), as median microseconds per call on M
members: dense / triad per nonlinear_coeffs call (cutoffs 1-4), and
dense / pseudo-spectral per Bt(u, v) evaluation (cutoffs 3 and up):

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
cutoff 5 the pseudo-spectral route ties the dense route at M=1 and wins at
every larger M, so it starts there.  linearized_nonlinear_coeffs crosses
at the same cutoff.  The choice ignores the batch size on purpose: a
member's result then cannot depend on how many members share its batch,
on the split into thread blocks, or on LANS_THREADS.  For the same reason
no route uses a BLAS matmul, whose per-row rounding changes with the batch
size.

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
from .oracles import b_form, b_tilde_convolution, b_tilde_dense, b_tilde_matrix

__all__ = [
    "PhysicalParams",
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
    "alpha_energy",
    "alpha_dissipation",
]


@dataclass(frozen=True)
class PhysicalParams:
    """Viscosity and filter length, the equation's two coefficients.

    The box side belongs to the basis alone (in a run, NoiseSpec.basis).
    nu = 0 is allowed (conservation tests only; stochastic runs require
    nu > 0).  alpha = 0 selects the plain Navier-Stokes drift.
    """

    nu: float
    alpha: float

    def __post_init__(self):
        if self.nu < 0:
            raise ConfigError(f"viscosity nu must be >= 0, got {self.nu}")
        if self.alpha < 0:
            raise ConfigError(f"filter length alpha must be >= 0, got {self.alpha}")


# -- Helmholtz factor --------------------------------------------------------


@functools.lru_cache(maxsize=None)
def helmholtz_factor(basis: Basis, alpha: float) -> np.ndarray:
    """Eigenvalues 1 + alpha^2 lambda of I + alpha^2 A, cached read-only."""
    with np.errstate(over="ignore"):
        factor = 1.0 + np.float64(alpha) ** 2 * basis.eigenvalues
        # the factor and the dissipation weight lambda * factor must be finite
        if not np.isfinite(basis.eigenvalues * factor).all():
            raise ConfigError(f"alpha={alpha} overflows lambda (1 + alpha^2 lambda) on {basis!r}")
    factor.setflags(write=False)
    return factor


# Smallest cutoff at which the nonlinearity takes the pseudo-spectral route
# (the measured crossover, see the module docstring); below it the triad one.
FFT_MIN_CUTOFF = 5


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


def b_tilde(u: SpectralField, v: SpectralField) -> SpectralField:
    """Bt(u, v) = -P(u x curl v) by the pseudo-spectral route, at every cutoff."""
    _check_same_basis(u, v)
    return SpectralField(u.basis, b_tilde_fft(u.basis, (u.coeffs, v.coeffs)))


class TriadTable(NamedTuple):
    """Nonzero interaction coefficients of the nonlinearity, sorted by output.

    N(c)_j = sum_{k<=l} S_jkl c_k c_l, with T_jkl = Bt(e_k, e_l)_j and
    f = 1 + alpha^2 lambda:
        S_jkl = -(T_jkl f_l + T_jlk f_k) / f_j   (k < l)
        S_jkk = -T_jkk f_k / f_j.
    Triad t adds coeff[t] c_k[t] c_l[t] to mode i for starts[i] <= t <
    starts[i + 1]; modes from len(starts) on receive nothing.
    """

    starts: np.ndarray  # (J,) first triad of each output mode 0 .. J-1
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
    if not np.array_equal(rows, np.arange(len(rows))):
        raise RuntimeError(f"modes {rows.tolist()} receive triads; expected a leading range")
    table = TriadTable(starts, k[t], l[t], S[j, t])
    for arr in table:
        arr.setflags(write=False)
    return table


# numpy's pairwise summation (pairwise_sum in its loops) sums blocks of up to
# this many values with eight running sums, and splits longer ones in two
_PAIRWISE_BLOCK = 128


def _pairwise_rows(X: np.ndarray) -> np.ndarray:
    """Sum the rows of X in numpy's pairwise order; returns X[0] holding it.

    X is overwritten.  This is the order np.add.reduce and np.add.reduceat
    use along a contiguous axis, written as operations on whole rows so that
    the sum runs over contiguous member rows of a mode-major (rows, M)
    array: under 8 rows, in sequence; up to _PAIRWISE_BLOCK rows, eight
    running sums r_i += X[8b + i] combined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the rows left
    over in sequence; above that, the sums of two halves split at a
    multiple of 8.  np.add.reduce over a transposed (M, rows) view would
    add the rows in sequence instead and change the bits.
    """
    n = len(X)
    if n < 8:
        for i in range(1, n):
            X[0] += X[i]
    elif n <= _PAIRWISE_BLOCK:
        tail = n - n % 8
        for i in range(8, tail, 8):
            X[:8] += X[i : i + 8]
        np.add(X[0:8:2], X[1:8:2], out=X[0:8:2])
        np.add(X[0:8:4], X[2:8:4], out=X[0:8:4])
        X[0] += X[4]
        for i in range(tail, n):
            X[0] += X[i]
    else:
        half = n // 2
        half -= half % 8
        first = _pairwise_rows(X[:half])
        first += _pairwise_rows(X[half:])
    return X[0]


def _segment_sums(P: np.ndarray, starts: np.ndarray, out: np.ndarray) -> None:
    """np.add.reduceat(P, starts, axis=0) into out[:len(starts)], as row ops.

    reduceat does not add a segment [s, e) in sequence: it computes
    P[s] + pairwise(P[s+1:e]).  Every segment of a triad table holds at
    least two triads, so s + 1 < e.  P is overwritten.
    """
    bounds = starts.tolist() + [len(P)]
    for row, (s, e) in enumerate(zip(bounds[:-1], bounds[1:])):
        np.add(P[s], _pairwise_rows(P[s + 1 : e]), out=out[row])


def _triad_sum(
    table: TriadTable,
    *pairs: tuple[np.ndarray, np.ndarray],
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """sum over pairs (a, b) of sum_{k<=l} S_jkl a_k b_l, batched.

    Every a and b has one shape (..., n).  Mode-major: the gathers, products
    and segment sums run along the member axis of (n, M) views of them
    (contiguous when the operands are (M, n) views of mode-major storage),
    and each member's column is summed on its own, so a member's result does
    not depend on the batch it is in.

    Without `work`: plain take and one np.add.reduceat, the faster at a few
    members.  `work`, a (2, T, M) scratch for T triads and a single pair,
    takes the gathers and products in place and the segment sums as row
    operations in reduceat's order, with the same bits.  The result goes to
    `out` when given, else to a new array of the operands' shape.
    """
    shape = pairs[0][0].shape
    n = shape[-1]
    modes = [(a.reshape(-1, n).T, b.reshape(-1, n).T) for a, b in pairs]
    if work is None:
        prod = None
        for a, b in modes:
            term = a.take(table.k, axis=0)
            term *= b.take(table.l, axis=0)
            prod = term if prod is None else prod + term
    else:
        ((a, b),) = modes
        prod, gathered = work
        np.take(a, table.k, axis=0, out=prod, mode="clip")
        np.take(b, table.l, axis=0, out=gathered, mode="clip")
        prod *= gathered
    prod *= table.coeff[:, None]
    out = np.empty(shape) if out is None else out
    out_modes = out.reshape(-1, n).T
    J = len(table.starts)
    if work is None:
        np.add.reduceat(prod, table.starts, axis=0, out=out_modes[:J])
    else:
        _segment_sums(prod, table.starts, out_modes)
    out_modes[J:] = 0.0
    return out


# The stepping path binds its route data once (StepKernel) and passes it as
# `table` and `factor`; other callers leave them out and the cache supplies them.


def nonlinear_coeffs(
    basis: Basis,
    coeffs: np.ndarray,
    alpha: float,
    *,
    table: TriadTable | None = None,
    factor: np.ndarray | None = None,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """N(u) = -(I+a^2 A)^{-1} Bt(u, (I+a^2 A)u), batched.

    `table` is triad_table(basis, alpha) (triad route) and `factor`
    helmholtz_factor(basis, alpha) (pseudo-spectral route).  The result is
    written to `out` when given; `work` is the triad route's scratch (see
    _triad_sum), which coeffs of shape (M, n) may use."""
    if basis.cutoff < FFT_MIN_CUTOFF:
        table = triad_table(basis, alpha) if table is None else table
        return _triad_sum(table, (coeffs, coeffs), out=out, work=work)
    factor = helmholtz_factor(basis, alpha) if factor is None else factor
    g = b_tilde_fft(basis, (coeffs, coeffs * factor))
    return np.divide(np.negative(g, out=g), factor, out=out)


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
    # np.sum(weight * coeffs**2, axis=-1) over C-contiguous rows, bit for bit,
    # writing the squares into `work` and the sums into `out` when given.  A
    # mode-major `work` (the (M, n) transpose of C-contiguous (n, M) storage)
    # is summed by _pairwise_rows; np.add.reduce starts from its identity 0.
    sq = np.multiply(weight, np.square(coeffs, out=work), out=work)
    if work is not None and work.ndim == 2 and not work.flags.c_contiguous:
        return np.add(0.0, _pairwise_rows(work.T), out=out)
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
    `work` (shape (..., n)) are optional buffers for the sums and the
    weighted squares.  `work` is C-contiguous, or the (M, n) transpose of a
    C-contiguous (n, M) array (mode-major); the sums have the bits of np.sum
    over C-contiguous rows either way."""
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


# -- full drift ---------------------------------------------------------------


def drift(u: SpectralField, p: PhysicalParams) -> SpectralField:
    """Right-hand side -nu A u - (I+a^2 A)^{-1} Bt(u, u + a^2 A u).

    Returns the full drift including the viscous part; integrators that
    split stiff and nonlinear terms query A separately.
    """
    basis = u.basis
    c = -p.nu * basis.eigenvalues * u.coeffs + nonlinear_coeffs(basis, u.coeffs, p.alpha)
    return SpectralField(basis, c)

