"""Divergence-free Fourier eigenbasis of the Stokes operator on [0,L]^2.

Every velocity field handled by this package lives in the span of real
trigonometric modes

    e_{k,cos}(x) = sqrt(2/L^2) * cos(2*pi*k.x/L) * (-k2, k1)/|k|
    e_{k,sin}(x) = sqrt(2/L^2) * sin(2*pi*k.x/L) * (-k2, k1)/|k|

indexed by nonzero integer wavevectors k = (k1, k2) kept on one side of
the half-space k1 > 0 or (k1 = 0 and k2 > 0), so that each direction is
represented exactly once.  These modes are orthonormal in L^2, pointwise
divergence-free, mean-zero, and diagonalize the Stokes operator with
eigenvalue lambda_k = (2*pi/L)^2 |k|^2.

The mode table is two arrays: `Basis.wavevectors` (n, 2) and
`Basis.parities` (n,), sorted by (|k|^2, k1, k2) with the cos mode of
each wavevector right before its sin mode.

The basis also owns a uniform collocation grid with M = 4*cutoff points
per axis.  The rectangle rule on that grid integrates trigonometric
polynomials of degree < M exactly, which covers products of up to three
truncated fields, so all quadratures used here are exact to rounding.
That grid serves the reference routes of `oracles.py` (the dense route
among them builds the triad table once) and `leray_project`; the stepping
path does not touch it.

Above the crossover cutoff the nonlinearity, and `b_tilde` at every
cutoff, take the pseudo-spectral route of `operators.py`.  Its grid has
the smallest 5-smooth size N >= 3*cutoff + 1 per axis (the 3/2 rule): a
quadratic product reaches |k|_inf <= 2*cutoff, and testing it against a
mode with |k|_inf <= cutoff aliases only through wavenumbers
>= N - cutoff > 2*cutoff, so projection is still exact.
`Basis.fft_layout` holds that route's index arrays and scale factors.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "ConfigError",
    "Basis",
    "FFTLayout",
    "SpectralField",
    "build_basis",
    "eval_field",
    "inner_product",
    "sobolev_norms",
    "leray_project",
    "dump_snapshot",
    "load_snapshot",
    "save_snapshot",
]

SNAPSHOT_HEADER = "lans-alpha-snapshot v1"

PARITY_COS = 0  # and 1 for sin
_PARITY_NAMES = ("cos", "sin")


class ConfigError(ValueError):
    """A value that a config key or LANS_THREADS sets is out of range."""


class FFTLayout(NamedTuple):
    """Index arrays and scale factors of the pseudo-spectral route.

    Modes come in (cos, sin) pairs of one wavevector k, so a coefficient
    array of shape (..., n) viewed as complex is y_k = c_cos + i c_sin,
    shape (..., P) with P = n / 2.  The route works on the reflected grid
    x -> -x, where a field sum_k Re(conj(y_k) e^{i theta_k(x)}) reads
    sum_k Re(y_k e^{i theta_k(x)}): the half-spectrum entry at k is then
    y_k / 2 and no conjugation is needed on the way in or out.  Products
    are pointwise, so the reflection cancels in the projection.

    Half-spectra have shape (size, size // 2 + 1), indexed
    [k2 mod size, k1]; every half-space wavevector (k1 >= 0) has its own
    slot.  Only the columns k1 = 0..cutoff hold modes, so the route keeps
    those (size, cutoff + 1) columns and the slots index them.  Wavevectors
    with k1 = 0 sit on the line that rfft2 does not make Hermitian by
    itself, so their conjugate is written at -k too.
    """

    size: int                   # grid points per axis
    slots: np.ndarray           # (P,) flat index of k in the (size, cutoff + 1) columns
    line: np.ndarray            # (Q,) the pairs with k1 = 0, mirrored to -k
    scatter: np.ndarray         # (3 (P + Q),) flat index into (3, size, cutoff + 1)
                                # columns of 3 fields' P slots, then their Q mirrors
    velocity_scale: np.ndarray  # (2, P) y_k -> half-spectrum of u_1, u_2
    curl_scale: np.ndarray      # (P,) y_k -> half-spectrum of the curl
    project_scale: np.ndarray   # (2, P) rfft2 of (g_1, g_2) at k -> y_k of P g


class Basis:
    """Ordered divergence-free trigonometric basis on [0,L]^2.

    Immutable after construction; instances may be shared freely across
    threads.  Grid evaluation tensors and the FFT layout are
    functools.cached_property values, computed on first use and read-only
    (idempotent, so a benign race at worst recomputes them).
    """

    def __init__(self, L: float, cutoff: int):
        if not (L > 0):
            raise ConfigError(f"box size L must be positive, got {L}")
        if not (isinstance(cutoff, (int, np.integer)) and cutoff >= 1):
            raise ConfigError(f"cutoff must be an integer >= 1, got {cutoff!r}")
        self.L = float(L)
        self.cutoff = int(cutoff)

        # the half-space k1 > 0 or (k1 = 0, k2 > 0) of |k|_inf <= cutoff:
        # row-major over k1 in 0..cutoff, k2 in -cutoff..cutoff, from (0, 1) on
        side = 2 * self.cutoff + 1
        k1, k2 = np.divmod(np.arange(self.cutoff + 1, (self.cutoff + 1) * side), side)
        k2 -= self.cutoff
        order = np.lexsort((k2, k1, k1 * k1 + k2 * k2))
        # a cosine (parity 0) and then a sine (parity 1) mode per wavevector
        wv = self.wavevectors = np.empty((2 * len(order), 2), dtype=np.int64)
        wv[0::2, 0] = wv[1::2, 0] = k1[order]
        wv[0::2, 1] = wv[1::2, 1] = k2[order]
        self.mode_count = len(wv)
        self.parities = np.arange(self.mode_count, dtype=np.int64) % 2
        ksq = np.sum(self.wavevectors.astype(np.float64) ** 2, axis=1)
        L = np.float64(self.L)  # a finite L can still put these out of range
        with np.errstate(over="ignore", divide="ignore"):
            self.eigenvalues = (2.0 * np.pi / L) ** 2 * ksq
            self.amp = np.sqrt(2.0 / L**2)
        scales = np.append(self.eigenvalues, self.amp)
        if not (np.isfinite(scales).all() and scales.min() > 0):
            raise ConfigError(f"box size L={self.L} puts lambda_k or sqrt(2)/L out of range")
        knorm = np.sqrt(ksq)
        self.polarizations = (
            np.stack([-self.wavevectors[:, 1], self.wavevectors[:, 0]], axis=1) / knorm[:, None]
        )

        # collocation grid: exact for cubic products of truncated fields
        self.grid_size = 4 * self.cutoff

        self.eigenvalues.setflags(write=False)
        self.wavevectors.setflags(write=False)
        self.parities.setflags(write=False)
        self.polarizations.setflags(write=False)

    # -- identity ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Basis) and other.L == self.L and other.cutoff == self.cutoff
        )

    def __hash__(self) -> int:
        return hash((Basis, self.L, self.cutoff))

    def __repr__(self) -> str:
        return f"Basis(L={self.L!r}, cutoff={self.cutoff}, n={self.mode_count})"

    def lambda_min(self) -> float:
        return float(self.eigenvalues.min())

    # -- grid machinery ----------------------------------------------------

    def grid_points(self, grid_size: int | None = None) -> np.ndarray:
        """Uniform collocation points, shape (M*M, 2), row-major in (x1, x2)."""
        M = self.grid_size if grid_size is None else int(grid_size)
        x = np.arange(M) * (self.L / M)
        X1, X2 = np.meshgrid(x, x, indexing="ij")
        return np.stack([X1.ravel(), X2.ravel()], axis=1)

    def quad_weight(self, grid_size: int | None = None) -> float:
        M = self.grid_size if grid_size is None else int(grid_size)
        return (self.L / M) ** 2

    def _phases(self, points: np.ndarray) -> np.ndarray:
        # theta[j, g] = (2 pi / L) k_j . x_g
        return (2.0 * np.pi / self.L) * (self.wavevectors.astype(np.float64) @ points.T)

    def mode_values(self, points: np.ndarray) -> np.ndarray:
        """Mode velocities at the given points, shape (n, P, 2)."""
        theta = self._phases(points)
        trig = np.where(self.parities[:, None] == PARITY_COS, np.cos(theta), np.sin(theta))
        return self.amp * trig[:, :, None] * self.polarizations[:, None, :]

    def mode_curls(self, points: np.ndarray) -> np.ndarray:
        """Scalar curls d1 e2 - d2 e1 of every mode, shape (n, P)."""
        theta = self._phases(points)
        knorm = np.sqrt(np.sum(self.wavevectors.astype(np.float64) ** 2, axis=1))
        factor = self.amp * (2.0 * np.pi / self.L) * knorm
        # cos modes curl to -sin, sin modes curl to +cos
        trig = np.where(self.parities[:, None] == PARITY_COS, -np.sin(theta), np.cos(theta))
        return factor[:, None] * trig

    def mode_gradients(self, points: np.ndarray) -> np.ndarray:
        """Velocity gradients of every mode, shape (n, P, 2, 2).

        Entry [j, g, i, m] is d_i (e_j)_m evaluated at point g.
        """
        theta = self._phases(points)
        scale = self.amp * (2.0 * np.pi / self.L)
        dtrig = np.where(self.parities[:, None] == PARITY_COS, -np.sin(theta), np.cos(theta))
        kf = self.wavevectors.astype(np.float64)
        return (
            scale
            * dtrig[:, :, None, None]
            * kf[:, None, :, None]
            * self.polarizations[:, None, None, :]
        )

    @functools.cached_property
    def grid_mode_values(self) -> np.ndarray:
        return _read_only(self.mode_values(self.grid_points()))

    @functools.cached_property
    def grid_mode_curls(self) -> np.ndarray:
        return _read_only(self.mode_curls(self.grid_points()))

    @functools.cached_property
    def grid_mode_gradients(self) -> np.ndarray:
        return _read_only(self.mode_gradients(self.grid_points()))

    @functools.cached_property
    def fft_layout(self) -> FFTLayout:
        # the mode order sorts parity last, so modes 2p and 2p+1 are the
        # cos and sin modes of one wavevector
        k = self.wavevectors[0::2]
        N = _five_smooth_at_least(3 * self.cutoff + 1)
        width = self.cutoff + 1
        slots = (k[:, 1] % N) * width + k[:, 0]
        line = np.flatnonzero(k[:, 0] == 0)
        mirror = ((-k[line, 1]) % N) * width
        field = N * width * np.arange(3)[:, None]
        scatter = (field + np.concatenate([slots, mirror])).ravel()
        pol = np.ascontiguousarray(self.polarizations[0::2].T)
        knorm = np.hypot(k[:, 0], k[:, 1])
        # a cos mode curls to -sin, a sin mode to +cos: curl y_k -> -i |k| y_k
        curl = -0.5j * self.amp * (2.0 * np.pi / self.L) * knorm
        return FFTLayout(
            size=N,
            slots=_read_only(slots),
            line=_read_only(line),
            scatter=_read_only(scatter),
            velocity_scale=_read_only(0.5 * self.amp * pol),
            curl_scale=_read_only(curl),
            project_scale=_read_only(self.amp * (self.L / N) ** 2 * pol),
        )


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _five_smooth_at_least(m: int) -> int:
    """Smallest integer >= m with no prime factor above 5."""
    while True:
        r = m
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


def build_basis(L: float, cutoff: int) -> Basis:
    """Construct the truncated basis with |k|_inf <= cutoff on [0,L]^2."""
    return Basis(L, cutoff)


@dataclass(frozen=True)
class SpectralField:
    """Real coefficient vector over a Basis.

    Represents exactly sum_j coeffs[j] * e_j(x): mean-zero and
    divergence-free by construction.
    """

    basis: Basis
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.float64)
        if c.shape != (self.basis.mode_count,):
            raise ValueError(
                f"coefficient vector has shape {c.shape}, expected ({self.basis.mode_count},)"
            )
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def zeros(cls, basis: Basis) -> "SpectralField":
        return cls(basis, np.zeros(basis.mode_count))

    @classmethod
    def unit(cls, basis: Basis, j: int, amplitude: float = 1.0) -> "SpectralField":
        if not 0 <= j < basis.mode_count:
            raise ValueError(f"mode index {j} out of range 0..{basis.mode_count - 1}")
        c = np.zeros(basis.mode_count)
        c[j] = amplitude
        return cls(basis, c)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_same_basis(self, other)
        return SpectralField(self.basis, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _check_same_basis(self, other)
        return SpectralField(self.basis, self.coeffs - other.coeffs)

    def __mul__(self, a: float) -> "SpectralField":
        return SpectralField(self.basis, self.coeffs * float(a))

    __rmul__ = __mul__


def _check_same_basis(u: SpectralField, v: SpectralField) -> None:
    if u.basis is not v.basis and u.basis != v.basis:
        raise ValueError(f"basis mismatch: {u.basis!r} vs {v.basis!r}")


def eval_field(u: SpectralField, points) -> np.ndarray:
    """Evaluate the velocity field at physical points, shape (P, 2).

    Exact trigonometric sum, cost O(mode_count * point_count).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must have shape (P, 2), got {pts.shape}")
    L = u.basis.L
    if np.any(pts < -1e-12 * L) or np.any(pts > L * (1 + 1e-12)):
        raise ValueError("points must lie inside [0, L]^2")
    E = u.basis.mode_values(pts)  # (n, P, 2)
    return np.einsum("j,jpm->pm", u.coeffs, E)


def inner_product(u: SpectralField, v: SpectralField) -> float:
    """L^2 pairing; orthonormality reduces it to a coefficient dot product."""
    _check_same_basis(u, v)
    return float(u.coeffs @ v.coeffs)


def sobolev_norms(u: SpectralField) -> tuple[float, float, float]:
    """Return (|u|_2, |grad u|_2, |Au|_2) from the spectral definition."""
    lam = u.basis.eigenvalues
    c2 = u.coeffs**2
    return (
        float(np.sqrt(np.sum(c2))),
        float(np.sqrt(np.sum(lam * c2))),
        float(np.sqrt(np.sum(lam**2 * c2))),
    )


def leray_project(samples: np.ndarray, basis: Basis) -> SpectralField:
    """Project a gridded vector field onto the truncated divergence-free space.

    `samples` holds velocities on the uniform M x M grid (shape (M, M, 2)
    with samples[a, b] taken at x = (a*L/M, b*L/M)).  M >= 4*cutoff is
    required so the rectangle-rule coefficients below are exact; coarser
    grids would alias and are rejected.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 3 or samples.shape[2] != 2 or samples.shape[0] != samples.shape[1]:
        raise ValueError(f"samples must have shape (M, M, 2), got {samples.shape}")
    M = samples.shape[0]
    if M < 4 * basis.cutoff:
        raise ValueError(
            f"grid too coarse: M={M} would alias, need M >= 4*cutoff = {4 * basis.cutoff}"
        )
    if M == basis.grid_size:
        E = basis.grid_mode_values
    else:
        E = basis.mode_values(basis.grid_points(M))
    w = basis.quad_weight(M)
    flat = samples.reshape(M * M, 2)
    coeffs = w * np.einsum("jpm,pm->j", E, flat)
    return SpectralField(basis, coeffs)


# -- snapshot format -------------------------------------------------------


def dump_snapshot(u: SpectralField) -> str:
    """Serialize a field in the versioned text snapshot format."""
    b = u.basis
    lines = [
        SNAPSHOT_HEADER,
        f"L={b.L:.17g} cutoff={b.cutoff} n={b.mode_count}",
    ]
    for (k1, k2), par, c in zip(b.wavevectors.tolist(), b.parities.tolist(), u.coeffs):
        lines.append(f"{k1} {k2} {_PARITY_NAMES[par]} {c:.17g}")
    return "\n".join(lines) + "\n"


def save_snapshot(u: SpectralField, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(dump_snapshot(u))


def load_snapshot(text_or_path) -> SpectralField:
    """Parse a snapshot produced by dump_snapshot / save_snapshot: text, or
    the path of a file holding it when the argument has no newline and does
    not start with the header's first word."""
    text = text_or_path
    if "\n" not in str(text) and str(text).split(" ")[0] != SNAPSHOT_HEADER.split()[0]:
        with open(text_or_path) as fh:
            text = fh.read()
    lines = [ln for ln in str(text).splitlines() if ln.strip()]
    if not lines or lines[0].strip() != SNAPSHOT_HEADER:
        raise ValueError(f"not a snapshot: expected header {SNAPSHOT_HEADER!r}")
    head = lines[1] if len(lines) > 1 else ""
    header = {}
    for item in head.split():
        key, eq, value = item.partition("=")
        if not eq:
            raise ValueError(f"snapshot header {head!r}: {item!r} is not key=value")
        header[key] = value
    values = []
    for key, kind in (("L", float), ("cutoff", int), ("n", int)):
        try:
            values.append(kind(header[key]))
        except (KeyError, ValueError):
            raise ValueError(
                f"snapshot header {head!r}: {key}= is missing or not {kind.__name__}"
            ) from None
    L, cutoff, n = values
    basis = build_basis(L, cutoff)
    if n != basis.mode_count:
        raise ValueError(f"snapshot declares n={n}, basis has {basis.mode_count} modes")
    if len(lines) - 2 != n:
        raise ValueError(f"snapshot has {len(lines) - 2} mode lines, expected {n}")
    coeffs = np.zeros(n)
    modes = zip(lines[2:], basis.wavevectors.tolist(), basis.parities.tolist())
    for row, (ln, k, p) in enumerate(modes):
        try:
            k1s, k2s, par, cs = ln.split()
            wavevector, c = [int(k1s), int(k2s)], float(cs)
        except ValueError:
            raise ValueError(f"mode line {row} {ln!r} is not 'k1 k2 cos|sin coefficient'") from None
        if wavevector != k or par != _PARITY_NAMES[p]:
            raise ValueError(f"mode line {row} does not match canonical ordering: {ln!r}")
        if not np.isfinite(c):
            raise ValueError(f"mode line {row} {ln!r} has a non-finite coefficient")
        coeffs[row] = c
    return SpectralField(basis, coeffs)
