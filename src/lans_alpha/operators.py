"""The Helmholtz factor, the rotational bilinear term, and the Galerkin
drift of the alpha-model.

The advection machinery evaluates the 2D rotational nonlinearity

    Bt(u, v) = -P( u x (curl v) ),    u x (curl v) = (w v) read as
                                      (w*u2, -w*u1) with w = d1 v2 - d2 v1,

by one of two routes.  nonlinear_coeffs and linearized_nonlinear_coeffs,
the stepping path, take the route's data as `route`, which
nonlinear_route chooses from basis.cutoff alone:

  triad route (cutoff < FFT_MIN_CUTOFF, route = triad_table(basis, alpha))
      the interaction-coefficient method (Orszag 1970): the nonlinearity is
      quadratic, N(c)_j = sum_{k<=l} S_jkl c_k c_l, and S is sparse (only
      wavevector triads k_j = +-k_k +- k_l interact: 16 / 224 / 1056 / 3120
      coefficients at cutoffs 1-4).  triad_table builds S once per
      (basis, alpha) from the dense route (oracles.b_tilde_dense), folding
      in the Helmholtz factors and the sign, with the joined gather index
      [k; l] and the coefficient column; a call gathers each operand once,
      multiplies the factors and one np.add.reduceat sums over the triads
      sorted by output mode, all along the member axis of (n, M) views.
      Given scratch for many members, the gathers and products run in
      place and the segment sums as row operations in reduceat's own order
      (_segment_sums, _pairwise_rows), over contiguous rows when the states
      are held mode-major.
  pseudo-spectral route (cutoff >= FFT_MIN_CUTOFF,
                         route = helmholtz_factor(basis, alpha))
      each wavevector's cos/sin coefficients are paired into one complex
      amplitude z_k = c_cos - i c_sin, scaled, and written by one flat
      scatter, with the conjugates of the k1 = 0 line at -k, into the
      columns k1 <= cutoff of rfft2 half-spectra, the only ones that hold
      modes.  A transform along k2 of those columns and irfft along k1 give
      the grid velocity and curl (i 2pi/L |k| z_k, because the
      polarization is orthogonal to k); rfft along x1 of the product, then
      a transform along x2 of the same columns, give its coefficients,
      read off at the mode wavevectors (Basis.fft_layout holds the index
      arrays and the sign conventions).  These are the 1-D transforms of
      irfft2 and rfft2 less those whose input is zero or whose output is
      never read, so the result has their bits.  The buffers come from a
      workspace (fft_work) that a block allocates once, or fresh per call
      without one.  The linearization's two pairs share one inverse call
      that synthesises the six fields of u and eta (both velocities and
      both curls of (I+a^2 A)), which hold N's three, so one forward call
      projects DN's integrand and N's, and the workspace holds N(u) with
      u's bytes and the route; nonlinear_coeffs on that workspace at those
      bytes on that route copies it.  A variation step thus synthesises
      six fields, not nine, with the bits of the two calls.
      The grid has the smallest 5-smooth size
      >= 3*cutoff + 1 per axis (the 3/2 rule, Orszag 1971), on which the
      projection is still exact.  Cost grows as cutoff^2 log cutoff and
      no (modes x grid) tensor is built.  b_tilde takes this route at
      every cutoff.

The reference routes (the dense collocation route, the gradient-matrix
route and b_form, and the grid-free convolution oracle) live in oracles,
not here.  All routes are exact to rounding and agree to
about 1e-14 relative.  The crossovers were measured on a 2-core x86 VM
(numpy 2.4, one BLAS thread), as median microseconds per call on M
members: dense / triad per nonlinear_coeffs call (cutoffs 1-4), dense /
pseudo-spectral per Bt(u, v) evaluation (cutoffs 3 and up), and triad /
pseudo-spectral per nonlinear_coeffs call as a block makes it (cutoffs 4
and 5; at M=5000 the triad route's wide form on mode-major states).  The
pseudo-spectral route ran with a workspace from fft_work:

    cutoff   M=1        M=2         M=200          M=5000
      1      23 / 7     27 / 12     133 / 39       4885 / 601
      2      25 / 12    38 / 18     614 / 150     19725 / 7524
      3      39 / 16    61 / 31    2733 / 786     86348 / 54275
      4      62 / 26   104 / 49    7504 / 2658   235226 / 260273

    cutoff   M=1         M=20          M=200
      3      23 / 49     215 / 156     2511 / 1298
      4      45 / 51     604 / 219     6267 / 2012
      5      86 / 49    1394 / 216    14921 / 2303
      6     188 / 52    2943 / 295    30274 / 3387
      8     575 / 57   10544 / 457   100434 / 6349
     12    5935 / 77   64161 / 1102  566262 / 15207

    cutoff   M=1        M=2         M=200          M=5000
      4      13 / 53    29 / 63    2244 / 2076    73904 / 67508
      5      25 / 53    61 / 64   10125 / 2362   165770 / 79548

Below cutoff 5 the triad route beats the dense route at every M shown
except cutoff 4 with M=5000, where they tie (0.90x and 1.03x in two
runs); from cutoff 5 the pseudo-spectral route beats the dense one at
every M.  Between triad and pseudo-spectral the crossover moves with M: a
triad call is 2-4x cheaper at M <= 2 at cutoffs 4 and 5, the two are
within 10% at cutoff 4 from M=200, and the pseudo-spectral route is 2-4x
cheaper at cutoff 5 from M=200.  FFT_MIN_CUTOFF stays 5, since moving it
changes the bits of every run at the cutoffs it moves.
linearized_nonlinear_coeffs crosses at the same cutoff.  The choice
ignores the batch size on purpose: a member's result then cannot depend
on how many members share its batch, on the split into thread blocks, or
on LANS_THREADS.  For the same reason
no route uses a BLAS matmul, whose per-row rounding changes with the batch
size.

With F(u) = |u|_2^2 + alpha^2 |grad u|_2^2 the nonlinearity does no work
on the alpha-energy: <Bt(u, (I+a^2 A)u), u> vanishes identically, which
is the cancellation all the energy diagnostics in this package rely on.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .basis import Basis, ConfigError, SpectralField, _check_same_basis
from .oracles import b_tilde_dense

__all__ = [
    "PhysicalParams",
    "helmholtz_factor",
    "TriadTable",
    "triad_table",
    "b_tilde",
    "b_tilde_fft",
    "FFTWork",
    "HeldN",
    "fft_work",
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


@dataclass(eq=False)
class HeldN:
    """N(u) that a workspace's last fused call (linearized_nonlinear_coeffs)
    computed, with that call's u and route; route is None before one."""

    value: np.ndarray  # (*batch, n) the slot the fused call projects N into
    state: np.ndarray  # (*batch, n) that call's u
    route: np.ndarray | None = None


class FFTWork(NamedTuple):
    """Buffers of the pseudo-spectral route for up to `pairs` pairs of
    operands of shape (*batch, n), with the flat indices of its scatter and
    gather at that shape (see fft_work), and, with two pairs or more, the
    N(u) its last fused call left (see linearized_nonlinear_coeffs).

    A pair's fields are held as (u_2, u_1, curl v), so that one product
    gives w * (u_2, u_1).  A call rewrites only the slots of `spectra` and
    the columns k1 < C of `half`, which stay zero elsewhere, so one
    workspace serves every call on operands of its shape; a call on fewer
    pairs uses a prefix of the leading axis.  A b_tilde_fft call projects
    one integrand, a fused call two.
    """

    values: np.ndarray     # (pairs, *batch, 3, P + Q) scaled amplitudes, then the mirrored ones
    scatter: np.ndarray    # values' flat index into spectra
    spectra: np.ndarray    # (pairs, *batch, 3, N, C) half-spectra columns k1 < C = cutoff + 1
    half: np.ndarray       # (pairs, *batch, 3, N, N // 2 + 1) after the transform along k2
    fields: np.ndarray     # (pairs, *batch, 3, N, N) the fields on the grid
    integrand: np.ndarray  # (pairs, *batch, 2, N, N) w * (u_2, u_1), then the integrands
    forward: np.ndarray    # (pairs, *batch, 2, N, N // 2 + 1) the integrands after the transform
                           # along x1, over the bytes of fields
    columns: np.ndarray    # (pairs, *batch, 2, N, C) their columns k1 < C after the transform
                           # along x2, over the bytes of integrand
    gather: np.ndarray     # the slots' flat index into one integrand's columns
    gathered: np.ndarray   # (pairs, *batch, 2, P) columns at the slots; the projections in [..., 0, :]
    held: HeldN | None     # N(u) of the last fused call; None with one pair, where none runs


def fft_work(basis: Basis, batch: tuple[int, ...] = (), pairs: int = 2) -> FFTWork:
    """A workspace of the pseudo-spectral route for `pairs` pairs of
    operands of shape batch + (n,): nonlinear_coeffs uses one pair and
    linearized_nonlinear_coeffs two, whose fused call holds N(u) there."""
    lay = basis.fft_layout
    N, C, P = lay.size, basis.cutoff + 1, len(lay.slots)
    W = N // 2 + 1
    lead = (pairs,) + tuple(batch)
    members = math.prod(batch)
    cplx = np.complex128
    fields = np.empty(lead + (3, N, N))
    integrand = np.empty(lead + (2, N, N))
    gathered = np.empty(lead + (2, P), dtype=cplx)
    held = None
    if pairs >= 2:
        # the fused call projects N's integrand, the second, into gathered[1]
        held = HeldN(gathered[1, ..., 0, :].view(np.float64), np.empty(lead[1:] + (basis.mode_count,)))
    return FFTWork(
        values=np.empty(lead + (3, P + len(lay.line)), dtype=cplx),
        scatter=(3 * N * C * np.arange(pairs * members)[:, None] + lay.scatter).ravel(),
        spectra=np.zeros(lead + (3, N, C), dtype=cplx),
        half=np.zeros(lead + (3, N, W), dtype=cplx),
        fields=fields,
        integrand=integrand,
        # the forward transforms write over the grid buffers, read by then
        forward=_complex_view(fields, lead + (2, N, W)),
        columns=_complex_view(integrand, lead + (2, N, C)),
        gather=(N * C * np.arange(2 * members)[:, None] + lay.slots).ravel(),
        gathered=gathered,
        held=held,
    )


def _complex_view(buf: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # a complex array of `shape` over the leading bytes of the float array buf
    return buf.reshape(-1)[: 2 * math.prod(shape)].view(np.complex128).reshape(shape)


def _synthesise(basis: Basis, pairs, work: FFTWork) -> np.ndarray:
    """Each pair's grid fields (u_2, u_1, curl v) into work.fields, by one
    scatter and one inverse call; returns work.fields[:len(pairs)]."""
    lay = basis.fft_layout
    N, C, P = lay.size, basis.cutoff + 1, len(lay.slots)
    k = len(pairs)
    values = work.values[:k]
    for (cu, cv), vals in zip(pairs, values):
        yu = _as_pair_amplitudes(cu)[..., None, :]
        np.multiply(lay.velocity_scale[::-1], yu, out=vals[..., :2, :P])
        np.multiply(lay.curl_scale, _as_pair_amplitudes(cv), out=vals[..., 2, :P])
    mirrored = values[..., P:]
    np.take(values, lay.line, axis=-1, out=mirrored, mode="clip")
    np.conjugate(mirrored, out=mirrored)
    work.spectra.reshape(-1)[work.scatter[: values.size]] = values.reshape(-1)
    half = work.half[:k]
    np.fft.ifft(work.spectra[:k], axis=-2, norm="forward", out=half[..., :C])
    return np.fft.irfft(half, N, axis=-1, norm="forward", out=work.fields[:k])


def _project(basis: Basis, g: np.ndarray, work: FFTWork) -> np.ndarray:
    """The projections of the k integrands g = work.integrand[:k], each
    summed w * (u_2, u_1), by one forward call: (k, *batch, n), a view into
    work.gathered.  g is overwritten."""
    lay = basis.fft_layout
    k, C = len(g), basis.cutoff + 1
    # 0 - s and s + 0, which have the bits of 0.0 + sum_i (-w*u2, w*u1)
    np.subtract(0.0, g[..., 0, :, :], out=g[..., 0, :, :])
    np.add(g[..., 1, :, :], 0.0, out=g[..., 1, :, :])
    forward, columns, gathered = work.forward[:k], work.columns[:k], work.gathered[:k]
    np.fft.rfft(g, axis=-1, out=forward)
    np.fft.fft(forward[..., :C], axis=-2, out=columns)
    np.take(columns.reshape(k, -1), work.gather, axis=1, out=gathered.reshape(k, -1), mode="clip")
    np.multiply(lay.project_scale, gathered, out=gathered)
    proj = np.add(gathered[..., 0, :], gathered[..., 1, :], out=gathered[..., 0, :])
    return proj.view(np.float64)


def b_tilde_fft(
    basis: Basis, pair: tuple[np.ndarray, np.ndarray], *, work: FFTWork | None = None
) -> np.ndarray:
    """Bt(u, v) for pair = (cu, cv) by the pseudo-spectral route (see
    Basis.fft_layout).

    Of the 1-D transforms of irfft2 and rfft2 it runs those whose input is
    not all zero and whose output is read (along the second axis, the
    columns k1 <= cutoff only), so the result has the bits of the 2-D
    transforms.
    `work` is a workspace from fft_work of the operands' shape, and the
    result is then a view into it; without it the call makes a fresh one.
    """
    if work is None:
        work = fft_work(basis, np.broadcast_shapes(*(np.shape(c)[:-1] for c in pair)), 1)
    fields = _synthesise(basis, (pair,), work)[0]
    # -(u x curl v) = (-w*u2, +w*u1): w * (u2, u1)
    g = np.multiply(fields[..., 2:, :, :], fields[..., :2, :, :], out=work.integrand[0])
    return _project(basis, g[None], work)[0]


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
    kl: np.ndarray      # (2, T) [k; l], one gather index for both factors
    column: np.ndarray  # (T, 1) coeff as a column, scaling (T, M) products


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
    kl = np.stack([k[t], l[t]])
    column = S[j, t][:, None]
    # k, l and coeff are views of kl and column
    table = TriadTable(starts, kl[0], kl[1], column[:, 0], kl, column)
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
    a: np.ndarray,
    b: np.ndarray | None = None,
    *,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """sum_{k<=l} S_jkl a_k a_l, or with b the symmetric
    sum_{k<=l} S_jkl (a_k b_l + b_k a_l), batched.

    a and b have one shape (..., n).  Mode-major: the gathers, products
    and segment sums run along the member axis of (n, M) views of them
    (contiguous when the operands are (M, n) views of mode-major storage),
    and each member's column is summed on its own, so a member's result does
    not depend on the batch it is in.

    Without `work`: each operand gathered once by table.kl and one
    np.add.reduceat, the faster at a few members.  `work`, a (2, T, M)
    scratch for T triads and no b, takes the gathers and products in place
    and the segment sums as row operations in reduceat's order, with the
    same bits.  The result goes to `out` when given, else to a new array of
    a's shape.
    """
    shape = a.shape
    n = shape[-1]
    a_modes = a.T if a.ndim == 2 else a.reshape(-1, n).T  # .T alone saves a reshape call
    if work is None:
        ga = a_modes.take(table.kl, axis=0)
        prod = ga[0]
        if b is None:
            prod *= ga[1]
        else:
            gb = (b.T if b.ndim == 2 else b.reshape(-1, n).T).take(table.kl, axis=0)
            prod *= gb[1]
            prod += np.multiply(gb[0], ga[1], out=gb[0])
    else:
        prod, gathered = work
        np.take(a_modes, table.k, axis=0, out=prod, mode="clip")
        np.take(a_modes, table.l, axis=0, out=gathered, mode="clip")
        prod *= gathered
    prod *= table.column
    out = np.empty(shape) if out is None else out
    out_modes = out.T if out.ndim == 2 else out.reshape(-1, n).T
    J = len(table.starts)
    if work is None:
        np.add.reduceat(prod, table.starts, axis=0, out=out_modes[:J])
    else:
        _segment_sums(prod, table.starts, out_modes)
    if J < n:
        out_modes[J:] = 0.0
    return out


def nonlinear_route(basis: Basis, alpha: float) -> TriadTable | np.ndarray:
    """The nonlinearity's route data: triad_table(basis, alpha) below
    FFT_MIN_CUTOFF, else helmholtz_factor(basis, alpha) (pseudo-spectral)."""
    if basis.cutoff < FFT_MIN_CUTOFF:
        return triad_table(basis, alpha)
    return helmholtz_factor(basis, alpha)


# The stepping path binds its route once (StepKernel) and passes it as `route`;
# other callers leave it out and nonlinear_route supplies it.


def nonlinear_coeffs(
    basis: Basis,
    coeffs: np.ndarray,
    alpha: float,
    *,
    route: TriadTable | np.ndarray | None = None,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """N(u) = -(I+a^2 A)^{-1} Bt(u, (I+a^2 A)u), batched.

    `route` is nonlinear_route(basis, alpha).  The result is written to
    `out` when given.  `work` is the route's scratch: on the triad route a
    (2, T, M) array that coeffs of shape (M, n) may use (see _triad_sum), on
    the pseudo-spectral route a workspace from fft_work for coeffs' shape.
    On a workspace whose last fused call (linearized_nonlinear_coeffs) was
    at coeffs' bytes and on this route, the call copies the N it held."""
    if route is None:
        route = nonlinear_route(basis, alpha)
    if isinstance(route, TriadTable):
        return _triad_sum(route, coeffs, out=out, work=work)
    if work is not None and _holds(work.held, coeffs, route):
        if out is None:
            return work.held.value.copy()
        out[...] = work.held.value
        return out
    g = b_tilde_fft(basis, (coeffs, coeffs * route), work=work)
    return np.divide(np.negative(g, out=g), route, out=out)


def _holds(held: HeldN | None, coeffs: np.ndarray, route: np.ndarray) -> bool:
    """Whether held.value is N at coeffs on route: the route is the held
    one and the bytes are the held state's (compared as uint64, so signed
    zeros and NaN payloads count)."""
    return (
        held is not None
        and held.route is route
        and coeffs.dtype == held.state.dtype
        and coeffs.shape == held.state.shape
        and np.array_equal(coeffs.view(np.uint64), held.state.view(np.uint64))
    )


def linearized_nonlinear_coeffs(
    basis: Basis,
    cu: np.ndarray,
    ceta: np.ndarray,
    alpha: float,
    *,
    route: TriadTable | np.ndarray | None = None,
    work: FFTWork | None = None,
) -> np.ndarray:
    """Derivative of nonlinear_coeffs at u in direction eta, batched
    (cu and ceta of one shape; `route` as there); the result is a new array.

    `work` is a workspace from fft_work for two pairs of that shape, which
    only the pseudo-spectral route uses; without it the call makes a fresh
    one.  The call also computes N(u) from the same fields and holds it
    there, with u's bytes and the route, for the step's nonlinear_coeffs
    call at u (see _fused_fft)."""
    if route is None:
        route = nonlinear_route(basis, alpha)
    if isinstance(route, TriadTable):
        return _triad_sum(route, cu, ceta)
    if work is None:
        work = fft_work(basis, np.broadcast_shapes(np.shape(cu)[:-1], np.shape(ceta)[:-1]))
    return _fused_fft(basis, cu, ceta, route, work)


def _fused_fft(
    basis: Basis, cu: np.ndarray, ceta: np.ndarray, route: np.ndarray, work: FFTWork
) -> np.ndarray:
    """DN(u) eta as a new array, and N(u) into work.held, from one synthesis.

    The two pairs of DN, (eta, f u) and (u, f eta) for f = route, give the
    fields (eta_2, eta_1, w_u) and (u_2, u_1, w_eta), which hold N's
    (u_2, u_1, w_u) too.  DN's integrand is w_u eta + w_eta u, in that
    order, with w_eta u written over eta's velocity once w_u eta is taken;
    N's is w_u u.  One forward call projects both, so each result has the
    bits of its own two-dimensional transforms.
    """
    held = work.held
    held.route = None  # until the held arrays are rewritten
    fields = _synthesise(basis, ((ceta, cu * route), (cu, ceta * route)), work)
    w_u, v_eta = fields[0, ..., 2:, :, :], fields[0, ..., :2, :, :]
    w_eta, v_u = fields[1, ..., 2:, :, :], fields[1, ..., :2, :, :]
    g = work.integrand[:2]
    np.multiply(w_u, v_eta, out=g[0])
    np.multiply(w_u, v_u, out=g[1])
    g[0] += np.multiply(w_eta, v_u, out=v_eta)
    proj = _project(basis, g, work)
    np.negative(proj, out=proj)
    np.divide(proj[1], route, out=held.value)  # held.value is proj[1]
    held.state[...] = cu
    held.route = route
    return np.divide(proj[0], route)


def _weighted_square_sum(coeffs, weight, out, work) -> np.ndarray:
    # np.sum(weight * coeffs**2, axis=-1) over C-contiguous rows, bit for bit,
    # writing the squares into `work` and the sums into `out` when given.  A
    # mode-major `work` (each (M, n) slice the transpose of C-contiguous
    # (n, M) storage) is summed by _pairwise_rows over its mode axis;
    # np.add.reduce starts from its identity 0.
    sq = np.multiply(weight, np.square(coeffs, out=work), out=work)
    if work is not None and work.ndim >= 2 and not work.flags.c_contiguous:
        return np.add(0.0, _pairwise_rows(np.moveaxis(work, -1, 0)), out=out)
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
    weighted squares.  `work` is C-contiguous, or mode-major: a (..., M, n)
    view of C-contiguous (..., n, M) storage; the sums have the bits of
    np.sum over C-contiguous rows either way."""
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

