"""Time stepping for the truncated stochastic alpha-model.

Three one-step maps share a common interface:

  semi_implicit_em   u+ = (I + dt nu A)^{-1} [u + dt N(u) + Q dW],
                     stiff linear part implicit, nonlinearity and noise
                     explicit; unconditionally stable in the linear part.
  exponential_em     per mode, exact integration of the linear part and
                     of the stochastic convolution (the scheme is exact
                     in law when the nonlinearity is suppressed), with
                     phi1(z) = (e^z - 1)/z weighting the nonlinearity.
  rk4_deterministic  classical 4-stage step on du/dt = drift(u); only
                     valid without noise.

All kernels operate on raw coefficient arrays of shape (..., n), so a
whole Monte-Carlo ensemble steps as one batch.  Noise enters as
pre-scaled standard increments dW with per-mode standard deviation
sqrt(dt); `noise_injected` applies Q (or the exact per-mode convolution
standard deviation for the exponential scheme) and `step` adds the result.

The first-variation map is the exact Jacobian action of the discrete
one-step map, so pathwise finite differences with common noise converge
to it at the finite-difference rate with no scheme mismatch.

One batched loop (`_run_ensemble_block`) steps every trajectory the
package computes.  `integrate` is that loop at M=1 on substream
(seed, member); `run_ensemble` splits members into blocks over threads;
the strong-convergence study passes every level its one fine path in
place of the substream draws.  Each step computes the alpha-energy once;
it updates the running sup, is recorded as F and detects blow-up, being
non-finite whenever a coefficient is (and when it overflows).

At M <= 2 a step is mostly Python dispatch, so what does not change from
step to step is fixed once:

  StepKernel   picks the scheme's one-step and first-variation maps and
               binds the nonlinearity's route data (triad table or
               Helmholtz factor) and the energy and dissipation weights;
               no step walks the scheme branches or looks up a
               (basis, alpha) cache.
  noise        one buffer per block, laid out as the state, holds the
               increments dW of a chunk of at most _NOISE_CHUNK steps and
               _NOISE_BYTES bytes: drawn member by member through a tile
               that fits in L2 and scaled by sqrt(dt), or each the sum of
               r increments of a caller's fine path.  noise_injected scales
               the chunk once, in place or, when the Bismut-Elworthy sum
               reads dW, into a second chunk buffer.
  reductions   the per-step energy and the recorded dissipation are
               np.square, np.multiply and a sum into preallocated buffers,
               the bits of np.sum(w * c**2, -1) over C-contiguous rows.

The state steps in place.  A wide block (M >= _WIDE_MEMBERS) holds it,
each step's noise slice and the squares mode-major, as C-contiguous (n, M)
storage, so every gather, product and reduction runs over contiguous rows
of members, into scratch allocated once per block (StepScratch).  The maps
are handed the (M, n) views of that storage, so every signature keeps its
(..., n) meaning, and EnsemblePaths is returned C-contiguous.  Narrow
blocks keep C-contiguous (M, n) states, plain take and one np.add.reduceat
per call, which win at few members.  A member's bits do not depend on the
layout, because the wide block's row operations keep numpy's summation
order (operators._pairwise_rows):

  triad sums   np.add.reduceat adds segment [s, e) as P[s] + pairwise(P[s+1:e]),
               not in sequence;
  energies     np.add.reduce over a C-contiguous row is 0 + pairwise(row),
               where pairwise adds under 8 terms in sequence and up to 128
               in eight running sums, combined as
               ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the
               rest in sequence; a reduce over the transposed view would
               add the rows in sequence;
  martingale   the three-operand einsum adds over the modes in sequence in
               either layout;
  BE sum       the two-operand einsum does not, so it is handed
               C-contiguous rows: the first variation is held as (M, n)
               in every block, and dW[i] is copied.

The stepping path still calls the names the benchmark's tracer patches
(nonlinear_coeffs, linearized_nonlinear_coeffs, alpha_energy,
alpha_dissipation, StepKernel.step and step_variation, substream), and
every result equals the plain maps bit for bit.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .basis import ConfigError, SpectralField
from .noise import NoiseSpec, substream
from .operators import (
    FFT_MIN_CUTOFF,
    PhysicalParams,
    alpha_dissipation,
    alpha_energy,
    helmholtz_factor,
    linearized_nonlinear_coeffs,
    nonlinear_coeffs,
    triad_table,
)

__all__ = [
    "IntegratorConfig",
    "BlowUpError",
    "StepKernel",
    "integrate",
    "EnsemblePaths",
    "run_ensemble",
]

SCHEMES = ("semi_implicit_em", "exponential_em", "rk4_deterministic")

_NOISE_CHUNK = 2048  # most steps of increments held in memory at once
_NOISE_BYTES = 64 << 20  # and most bytes of them, over the block's chunk buffers
_TILE_BYTES = 1 << 21  # draws of one tile of members, copied into the chunk while in L2
# From this many members a block is wide: it holds its state, noise and
# squares mode-major and sums triads and energies by row operations into
# scratch.  Against the member-major loop (2-core x86 VM, numpy 2.4, one BLAS
# thread) the crossover lies near M = 256 at cutoff 1, 512 at cutoff 2 and
# 100-200 at cutoffs 3-4; the bits are the same either way.
_WIDE_MEMBERS = 512


@dataclass(frozen=True)
class IntegratorConfig:
    scheme: str = "semi_implicit_em"
    dt: float = 1e-3
    t_end: float = 1.0
    record_every: int = 10
    nonlinearity: bool = True

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        if not (self.dt > 0):
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if self.t_end < 0:
            raise ConfigError(f"t_end must be >= 0, got {self.t_end}")
        if self.t_end > 0 and self.dt > self.t_end * (1 + 1e-12):
            raise ConfigError(f"dt={self.dt} exceeds t_end={self.t_end}")
        if self.record_every < 1:
            raise ConfigError(f"record_every must be >= 1, got {self.record_every}")
        if not self.t_end / self.dt < 2**63:
            raise ConfigError(f"dt={self.dt} takes 2^63 or more steps to t_end={self.t_end}")

    def num_steps(self) -> int:
        raw = self.t_end / self.dt
        steps = int(round(raw))
        if abs(steps - raw) > 1e-6 * max(1.0, abs(raw)):
            steps = int(np.floor(raw))
        return steps


class BlowUpError(RuntimeError):
    """Non-finite energy (non-finite or overflowing coefficients);
    carries the first bad time and the member."""

    def __init__(self, time: float, member: int | None = None):
        self.time = time
        self.member = member
        where = f" (member {member})" if member is not None else ""
        super().__init__(f"non-finite energy at t={time:.6g}{where}")


def _phi1(z: np.ndarray) -> np.ndarray:
    # (e^z - 1)/z with a series fallback near zero
    z = np.asarray(z, dtype=np.float64)
    small = np.abs(z) < 1e-6
    safe = np.where(small, 1.0, z)
    return np.where(small, 1.0 + z / 2.0 + z**2 / 6.0, np.expm1(safe) / safe)


class StepScratch(NamedTuple):
    """Temporaries of one (M, n) step, allocated once per ensemble block."""

    nonlinear: np.ndarray       # (M, n): N(c), then the right-hand side built on it
    triad: np.ndarray | None    # (2, T, M) triad-route scratch, or None (see _triad_sum)


class StepKernel:
    """Batched one-step map for fixed (params, config, noise), on spec.basis.

    The noise spec owns the basis the kernel steps on; a spec with
    sigma = 0 gives the noiseless kernel.  Construction is the step plan: it
    picks the scheme's one-step and first-variation maps and binds the
    nonlinearity's route data (the triad table below FFT_MIN_CUTOFF, else
    the Helmholtz factor) and the energy and dissipation weights, so a step
    neither walks the scheme branches nor looks up a (basis, alpha) cache.
    """

    def __init__(self, p: PhysicalParams, cfg: IntegratorConfig, spec: NoiseSpec):
        sigma = self.sigma = spec.sigma
        if cfg.scheme == "rk4_deterministic" and sigma > 0:
            raise ConfigError("rk4_deterministic requires sigma = 0")
        if sigma > 0 and p.nu <= 0:
            raise ConfigError("stochastic runs (sigma > 0) require nu > 0")
        basis = self.basis = spec.basis
        self.p = p
        self.cfg = cfg
        lam = basis.eigenvalues
        dt = self.dt = cfg.dt
        self.sqrt_dt = np.sqrt(dt)
        self.helm = helmholtz_factor(basis, p.alpha)
        self.dissipation_weight = lam * self.helm
        self.triad = None
        if cfg.nonlinearity and basis.cutoff < FFT_MIN_CUTOFF:
            self.triad = triad_table(basis, p.alpha)

        # the scheme's maps, which step and step_variation call
        self._step, self._variation = self._rk4_step, self._rk4_variation
        if cfg.scheme == "semi_implicit_em":
            self._step, self._variation = self._semi_implicit_step, self._semi_implicit_variation
            self.implicit_denom = 1.0 + dt * p.nu * lam
            self.noise_scale = spec.q
        elif cfg.scheme == "exponential_em":
            self._step, self._variation = self._exponential_step, self._exponential_variation
            z = -p.nu * lam * dt
            self.decay = np.exp(z)
            self.phi1_dt = dt * _phi1(z)
            # exact variance of the per-mode stochastic convolution
            a = 2.0 * p.nu * lam * dt
            small = a < 1e-12
            safe = np.where(small, 1.0, a)
            var = dt * np.where(small, 1.0 - a / 2.0, -np.expm1(-safe) / safe)
            self.conv_std = spec.q * np.sqrt(var)

    def nonlinear(self, c: np.ndarray, scratch: StepScratch | None = None) -> np.ndarray:
        if not self.cfg.nonlinearity:
            return np.zeros_like(c)
        out, work = (None, None) if scratch is None else scratch
        return nonlinear_coeffs(
            self.basis, c, self.p.alpha, table=self.triad, factor=self.helm, out=out, work=work
        )

    def _linearized(self, cu: np.ndarray, ceta: np.ndarray) -> np.ndarray:
        if not self.cfg.nonlinearity:
            return np.zeros_like(ceta)
        return linearized_nonlinear_coeffs(
            self.basis, cu, ceta, self.p.alpha, table=self.triad, factor=self.helm
        )

    def _full_drift(self, c: np.ndarray) -> np.ndarray:
        return -self.p.nu * self.basis.eigenvalues * c + self.nonlinear(c)

    def _full_linearized_drift(self, cu: np.ndarray, ceta: np.ndarray) -> np.ndarray:
        return -self.p.nu * self.basis.eigenvalues * ceta + self._linearized(cu, ceta)

    def step(
        self,
        c: np.ndarray,
        zeta: np.ndarray | None,
        out: np.ndarray | None = None,
        scratch: StepScratch | None = None,
    ) -> np.ndarray:
        """Advance coefficients by one step; zeta is the injected noise,
        `noise_injected(dW)` (None without noise).  The result is written to
        `out` when given, which may be c itself; `scratch` (see
        `StepScratch`) holds the step's temporaries for (M, n) states."""
        return self._step(c, zeta, out, scratch)

    def step_variation(self, cu: np.ndarray, ceta: np.ndarray) -> np.ndarray:
        """Exact Jacobian action of the one-step map at the pre-step state."""
        return self._variation(cu, ceta)

    # The nonlinearity is a fresh array or scratch, which the steps update in
    # place by the same operations, on the same operands, as the expressions
    # c + dt * N(c) + zeta and so on.  Every read of c comes before the write
    # to out, so out may be c.

    def _semi_implicit_step(self, c, zeta, out, scratch):
        if self.cfg.nonlinearity:
            rhs = self.nonlinear(c, scratch)
            rhs *= self.dt
            np.add(c, rhs, out=rhs)
            if zeta is not None:
                rhs += zeta
        else:
            rhs = c if zeta is None else c + zeta
        return np.divide(rhs, self.implicit_denom, out=out)

    def _semi_implicit_variation(self, cu, ceta):
        return (ceta + self.dt * self._linearized(cu, ceta)) / self.implicit_denom

    def _exponential_step(self, c, zeta, out, scratch):
        nl = None
        if self.cfg.nonlinearity:
            nl = self.nonlinear(c, scratch)
            nl *= self.phi1_dt
        out = np.multiply(self.decay, c, out=out)
        if nl is not None:
            out += nl
        if zeta is not None:
            out += zeta
        return out

    def _exponential_variation(self, cu, ceta):
        return self.decay * ceta + self.phi1_dt * self._linearized(cu, ceta)

    def _rk4_step(self, c, zeta, out, scratch):
        dt = self.dt
        k1 = self._full_drift(c)
        k2 = self._full_drift(c + 0.5 * dt * k1)
        k3 = self._full_drift(c + 0.5 * dt * k2)
        k4 = self._full_drift(c + dt * k3)
        return np.add(c, (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), out=out)

    def _rk4_variation(self, cu, ceta):
        dt = self.dt
        k1u = self._full_drift(cu)
        k1e = self._full_linearized_drift(cu, ceta)
        u2 = cu + 0.5 * dt * k1u
        k2u = self._full_drift(u2)
        k2e = self._full_linearized_drift(u2, ceta + 0.5 * dt * k1e)
        u3 = cu + 0.5 * dt * k2u
        k3u = self._full_drift(u3)
        k3e = self._full_linearized_drift(u3, ceta + 0.5 * dt * k2e)
        u4 = cu + dt * k3u
        k4e = self._full_linearized_drift(u4, ceta + dt * k3e)
        return ceta + (dt / 6.0) * (k1e + 2.0 * k2e + 2.0 * k3e + k4e)

    def noise_injected(
        self, dW: np.ndarray | None, out: np.ndarray | None = None
    ) -> np.ndarray | None:
        """Coefficients of the noise term the scheme adds for increments dW,
        written into `out` when given (which may be dW itself)."""
        if dW is None or self.sigma == 0.0:  # so always for rk4_deterministic
            return None
        if self.cfg.scheme == "semi_implicit_em":
            return np.multiply(self.noise_scale, dW, out=out)
        return np.multiply(self.conv_std, np.divide(dW, self.sqrt_dt, out=out), out=out)


def _record_indices(num_steps: int, record_every: int) -> list[int]:
    idx = list(range(0, num_steps + 1, record_every))
    if idx[-1] != num_steps:
        idx.append(num_steps)
    return idx


def integrate(
    x0: SpectralField,
    p: PhysicalParams,
    spec: NoiseSpec,
    cfg: IntegratorConfig,
    *,
    member: int = 0,
    store_fields: bool = False,
) -> EnsemblePaths:
    """Iterate the one-step map from x0 and record the energy bookkeeping.

    The ensemble loop at M=1 on substream (spec.seed, member): its
    EnsemblePaths has one row, which equals row `member` of any batched run
    bit for bit.  x0 must lie on spec.basis (ValueError otherwise).  Raises
    BlowUpError with the first bad time if the energy stops being finite.
    """
    return _run_ensemble_block(
        _coeffs_on(x0, spec), p, spec, cfg, 1, member_offset=member, store_fields=store_fields
    )


def _coeffs_on(x: SpectralField, spec: NoiseSpec) -> np.ndarray:
    """x's coefficients; x, a run's start or direction, must lie on spec.basis."""
    if x.basis != spec.basis:
        raise ValueError(f"field basis {x.basis!r} is not the run's basis {spec.basis!r}")
    return x.coeffs


# -- batched ensemble driver ---------------------------------------------------


@dataclass
class EnsemblePaths:
    """Per-member recorded series of a run, one row per member.

    `martingale[:, r]` is the running sum of <(I + alpha^2 A) u_m, zeta_m>
    over all steps m before recorded time r, with zeta_m the noise actually
    injected at step m.  Reductions over members are done with numpy
    pairwise summation in fixed member order.
    """

    times: np.ndarray                 # (R,)
    F: np.ndarray                     # (M, R)
    dissipation: np.ndarray           # (M, R)
    martingale: np.ndarray            # (M, R) running accumulator
    sup_F: np.ndarray                 # (M,) running max over every step
    final_coeffs: np.ndarray          # (M, n)
    eta_final: np.ndarray | None = None   # (M, n)
    be_accumulator: np.ndarray | None = None  # (M,) sum_m <Q^{-1} eta_m, dW_m>
    snapshots: np.ndarray | None = None   # (M, R, n) recorded states

    def dissipation_integrals(self) -> np.ndarray:
        return np.trapezoid(self.dissipation, self.times, axis=1)


def ensemble_threads() -> int:
    """Worker count for ensemble parallelism: LANS_THREADS (default 1,
    serial) capped at os.cpu_count()."""
    raw = os.environ.get("LANS_THREADS", "1")
    try:
        requested = int(raw)
    except ValueError:
        raise ConfigError(f"LANS_THREADS must be an integer, got {raw!r}") from None
    return max(1, min(requested, os.cpu_count() or 1))


def run_ensemble(
    x0_coeffs: np.ndarray,
    p: PhysicalParams,
    spec: NoiseSpec,
    cfg: IntegratorConfig,
    M: int,
    *,
    eta0_coeffs: np.ndarray | None = None,
    collect_be: bool = False,
    store_fields: bool = False,
    increments: np.ndarray | None = None,
) -> EnsemblePaths:
    """Step M members in lockstep on spec.basis, member i on the noise
    substream (spec.seed, i).

    `x0_coeffs` is (n,) (shared start) or (M, n).  When `eta0_coeffs` is
    given (a single direction of shape (n,), shared by all members), the
    first variation is co-integrated with shared increments; `collect_be`
    additionally accumulates sum_m <Q^{-1} eta(t_m), dW_m>.
    `store_fields` keeps the recorded states in `snapshots`.
    `increments`, (M, r * steps, n) normals scaled to sqrt(dt / r), replace
    the substream draws, r of them summed per step (common-path coupling).
    LANS_THREADS > 1 splits the members into contiguous blocks run on a
    thread pool; per-member substreams make the result identical either way.
    `integrate` runs one member on any substream, with the same bits as its
    row here.
    """
    n = spec.basis.mode_count
    x0_arr = np.broadcast_to(np.asarray(x0_coeffs, dtype=np.float64), (M, n))
    if increments is not None:
        steps = cfg.num_steps()
        r = increments.shape[1] // steps if steps and increments.ndim == 3 else 1
        if r < 1 or increments.shape != (M, r * steps, n):
            raise ValueError(f"increments of shape {increments.shape} not ({M}, r * {steps}, {n})")

    def run_block(a: int, b: int) -> EnsemblePaths:
        return _run_ensemble_block(
            x0_arr[a:b], p, spec, cfg, b - a,
            eta0_coeffs=eta0_coeffs, collect_be=collect_be,
            member_offset=a, store_fields=store_fields,
            increments=None if increments is None else increments[a:b],
        )

    workers = ensemble_threads()
    if workers == 1 or M < 2 * workers:
        return run_block(0, M)
    bounds = np.linspace(0, M, workers + 1, dtype=int)
    blocks = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(run_block, a, b) for a, b in blocks]
    errors = [f.exception() for f in futures]
    blow_ups = [e for e in errors if isinstance(e, BlowUpError)]
    if blow_ups:
        # what the serial loop raises: the first bad step, lowest member there
        raise min(blow_ups, key=lambda e: (e.time, e.member))
    parts = [f.result() for f in futures]
    joined = {}
    for f in fields(EnsemblePaths):
        xs = [getattr(q, f.name) for q in parts]
        joined[f.name] = xs[0] if f.name == "times" or xs[0] is None else np.concatenate(xs)
    return EnsemblePaths(**joined)


def _states(M: int, n: int, mode_major: bool, lead: tuple[int, ...] = ()) -> np.ndarray:
    # an (*lead, M, n) array; mode-major, each (M, n) slice is held as
    # C-contiguous (n, M) storage, one contiguous row of members per mode
    if mode_major:
        return np.empty(lead + (n, M)).swapaxes(-1, -2)
    return np.empty(lead + (M, n))


def _draw_chunk(gens: list, tile: np.ndarray | None, noise: np.ndarray) -> None:
    """Member i's next len(noise) steps of standard normals into noise[:, i],
    drawn in its substream's own order (steps, then modes) into a tile of
    members that fits in L2 and copied from there into noise's layout; a
    single member (no tile) draws into its contiguous slice directly."""
    if tile is None:
        gens[0].standard_normal(out=noise[:, 0])
        return
    for a in range(0, len(gens), len(tile)):
        block = gens[a : a + len(tile)]
        for rows, g in zip(tile, block):
            g.standard_normal(out=rows[: len(noise)])
        noise[:, a : a + len(block)] = tile[: len(block), : len(noise)].swapaxes(0, 1)


def _chunk_len(num_steps: int, M: int, n: int, buffers: int) -> int:
    """Steps per noise chunk: <= _NOISE_CHUNK, `buffers` of them <= _NOISE_BYTES, >= 1."""
    return min(_NOISE_CHUNK, num_steps, max(1, _NOISE_BYTES // (8 * M * n * buffers)))


def _run_ensemble_block(
    x0_coeffs: np.ndarray,
    p: PhysicalParams,
    spec: NoiseSpec,
    cfg: IntegratorConfig,
    M: int,
    *,
    eta0_coeffs: np.ndarray | None = None,
    collect_be: bool = False,
    member_offset: int = 0,
    store_fields: bool = False,
    increments: np.ndarray | None = None,
) -> EnsemblePaths:
    basis = spec.basis
    kernel = StepKernel(p, cfg, spec)
    n = basis.mode_count
    num_steps = cfg.num_steps()
    rec = _record_indices(num_steps, cfg.record_every)
    rec_set = set(rec)
    wide = M >= _WIDE_MEMBERS

    # the state steps in place; the kernel sees (M, n) views of the storage
    C = _states(M, n, wide)
    C[...] = np.asarray(x0_coeffs, dtype=np.float64)
    # the first variation stays C-contiguous (M, n) in every block:
    # step_variation returns fresh C-contiguous arrays
    Eta = None
    if eta0_coeffs is not None:
        Eta = np.empty((M, n))
        Eta[...] = np.asarray(eta0_coeffs, dtype=np.float64)
    if collect_be and (spec.sigma <= 0 or Eta is None):
        raise ValueError("Bismut-Elworthy accumulation requires sigma > 0 and eta0_coeffs")
    be_acc = np.zeros(M) if collect_be else None

    # a chunk's increments dW and its injected noise, laid out as the state;
    # one buffer unless the BE sum reads dW
    chunk_len = _chunk_len(num_steps, M, n, buffers=2 if collect_be else 1)
    noise = injected = gens = tile = None
    if kernel.sigma > 0:
        noise = _states(M, n, wide, lead=(chunk_len,))
        injected = _states(M, n, wide, lead=(chunk_len,)) if collect_be else noise
        members = max(1, min(M, _TILE_BYTES // (8 * n * max(1, chunk_len))))
        if increments is None:
            gens = [substream(spec.seed, member_offset + i) for i in range(M)]
            tile = None if M == 1 else np.empty((members, chunk_len, n))
    triad_work = None
    if wide and kernel.triad is not None:
        triad_work = np.empty((2, len(kernel.triad.k), M))
    scratch = StepScratch(_states(M, n, wide), triad_work)

    R = len(rec)
    times = np.array([m * cfg.dt for m in rec])
    F = np.empty((M, R))
    D = np.empty((M, R))
    mart_series = np.empty((M, R))
    snaps = np.empty((M, R, n)) if store_fields else None
    mart = np.zeros(M)
    # the energy and dissipation reductions write into these; mode-major
    # squares are summed by row operations
    E = np.empty(M)
    work = _states(M, n, wide)
    helm, alpha = kernel.helm, p.alpha
    alpha_energy(C, basis, alpha, weight=helm, out=E, work=work)
    sup_F = E.copy()

    r = 0

    def record():
        nonlocal r
        F[:, r] = E
        alpha_dissipation(C, basis, alpha, weight=kernel.dissipation_weight, out=D[:, r], work=work)
        mart_series[:, r] = mart
        if snaps is not None:
            snaps[:, r] = C
        r += 1

    record()
    m = 0
    # overflow shows up as a non-finite energy and is raised as BlowUpError
    with np.errstate(over="ignore", invalid="ignore"):
        while m < num_steps:
            chunk = min(chunk_len, num_steps - m)
            dW = zetas = (None,) * chunk
            if noise is not None:
                dW = noise[:chunk]
                if gens is not None:
                    _draw_chunk(gens, tile, dW)
                    dW *= kernel.sqrt_dt
                else:  # a tile of members at a time, so a mode-major write stays in cache
                    k = increments.shape[1] // num_steps
                    for a in range(0, M, members):
                        fine = increments[a : a + members, m * k : (m + chunk) * k]
                        rows = dW[:, a : a + members].swapaxes(0, 1)
                        if k == 1:  # a copy keeps the sign of a zero
                            rows[...] = fine
                        else:  # the bits of the whole path's reshape(M, steps, k, n).sum(axis=2)
                            np.sum(fine.reshape(len(fine), chunk, k, n), axis=2, out=rows)
                zetas = kernel.noise_injected(dW, out=injected[:chunk])
            for i in range(chunk):
                zeta = zetas[i]
                if zeta is not None:
                    mart += np.einsum("j,mj,mj->m", helm, C, zeta)
                if be_acc is not None:
                    # a two-operand einsum sums in an order that depends on the
                    # layout, so a mode-major dW[i] is copied to C-contiguous rows
                    be_acc += np.einsum("mj,mj->m", Eta / spec.q, np.ascontiguousarray(dW[i]))
                if Eta is not None:
                    Eta = kernel.step_variation(C, Eta)
                kernel.step(C, zeta, out=C, scratch=scratch)
                m += 1
                # energies are >= 0 and non-finite whenever C is, so the
                # running max turns non-finite at the first bad step
                alpha_energy(C, basis, alpha, weight=helm, out=E, work=work)
                np.maximum(sup_F, E, out=sup_F)
                if not math.isfinite(sup_F.max(initial=0.0)):
                    bad = int(np.flatnonzero(~np.isfinite(E))[0])
                    raise BlowUpError(m * cfg.dt, member=member_offset + bad)
                if m in rec_set:
                    record()

    return EnsemblePaths(
        times=times,
        F=F,
        dissipation=D,
        martingale=mart_series,
        sup_F=sup_F,
        final_coeffs=np.ascontiguousarray(C),
        eta_final=Eta,
        be_accumulator=be_acc,
        snapshots=snaps,
    )
