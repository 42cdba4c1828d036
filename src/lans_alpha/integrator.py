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

One batched loop steps every trajectory the package computes: a block
(`_run_ensemble_block`) drives a group of runs on the same members, each
a stepper (`_Stepper`) that steps a segment at a time through the rows
of noise it is handed.  Runs that read the same substreams (an Ito
balance at dt and dt/2, a first variation beside its bumped start, a
Bismut-Elworthy run beside its finite differences) step in lockstep:
the block draws each chunk of standard normals once and hands it to
every run that has not reached its horizon, the first rows to a run that
needs fewer.  A single run is a group of one.  `integrate` is the loop
at M=1 on substream (seed, member); `run_ensembles` splits members into
blocks over threads and `run_ensemble` is its one-run case; the
strong-convergence study passes every level its one fine path in place
of the substream draws.  Every step's alpha-energy is computed once; it
updates the running sup, is recorded as F and detects blow-up, being
non-finite whenever a coefficient is (and when it overflows).  A group
raises what its runs called one after the other would: the error of the
first run, in order, that blows up.

At M <= 2 a step costs numpy call overhead, not flops: at cutoff 1 it is
about nine numpy calls on 16 triads (a gather, two products, one
np.add.reduceat, the zeroed idle modes and four updates of the state).
So what does not change from step to step is fixed once, a step makes
only the numpy calls its arithmetic needs, and what can wait is computed
once per segment:

  StepKernel   picks the scheme's one-step and first-variation maps and
               binds the nonlinearity's `route` (operators.nonlinear_route:
               triad table or Helmholtz factor) and the energy and
               dissipation weights; no step walks the scheme branches or
               looks up a (basis, alpha) cache.  The triad table holds its
               gather index and coefficient column ready, so a narrow call
               gathers each operand once, and the block passes its rows to
               `step` as positional arguments.
  scratch      one StepScratch per block, so one per thread, shared by
               the block's runs, which step one after another, and passed
               to `step` and `step_variation`: the nonlinearity's buffer and
               the route's work, a wide block's triad products or, on the
               pseudo-spectral route, its workspace (operators.fft_work),
               zero-filled once, with room for the first variation's two
               pairs when a run of the block carries it.  There a run
               calls step_variation(H[i]) before step(H[i]): the
               variation's fused call leaves N(H[i]) in the workspace,
               keyed by H[i]'s bytes and the route, and the step copies
               it instead of synthesising u's fields again.
  noise        one buffer per block, laid out as the state, holds the
               standard normals Z of a chunk of at most _NOISE_CHUNK steps,
               drawn member by member through a tile that fits in L2; with
               the segment buffers of the group's k runs it fills at most
               _NOISE_BYTES, and the chunk gets 1/k of the room those
               leave, since the k runs' records are alive at once.  A
               caller's fine path needs no chunk: each run sums r of its
               increments per step into a segment buffer of its own.
  segment      a run steps s states through a buffer H of s + 1, step i
               reading H[i] and writing H[i + 1]; s fills about
               _SEGMENT_BYTES (512 steps at M = 2, cutoff 1), at least
               _SEGMENT_MIN, within a chunk.  It first scales the
               segment's rows of the chunk into an (s, M, n) buffer laid
               out as the state, dW = Z sqrt(dt), then noise_injected turns
               them into the injected noise in place.  Only the first
               variation and the Bismut-Elworthy sum, which a step reads,
               stay per step; the BE sum scales its row of Z the same way.
  reductions   then, over the segment's (s, M) arrays at once: the
               energies of H[1..s] (np.square, np.multiply and a sum into
               preallocated buffers, the bits of np.sum(w * c**2, -1) over
               C-contiguous rows; the squares overwrite the segment's
               injected noise), the running sup from their max over the
               segment, blow-up from the first row holding a non-finite
               energy (its step and lowest member, as a step-by-step check
               finds them), the martingale as one three-operand einsum
               and np.cumsum (a sequential running sum, as adding step by
               step), and the recorded steps' F, martingale, dissipation
               and states, read as strided rows.  H[s] carries over to
               H[0].

A wide block (M >= _WIDE_MEMBERS) holds the states, each step's noise
slice and the squares mode-major, each (M, n) slice as C-contiguous (n, M)
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
               in every block, and dW[i] is written to an (M, n) row.

The stepping path still calls the names the benchmark's tracer patches
(nonlinear_coeffs, linearized_nonlinear_coeffs, alpha_energy,
alpha_dissipation, StepKernel.step and step_variation, substream), and
every result equals the plain maps bit for bit.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .basis import ConfigError, SpectralField
from .noise import NoiseSpec, substream
from .operators import (
    FFTWork,
    PhysicalParams,
    TriadTable,
    alpha_dissipation,
    alpha_energy,
    fft_work,
    helmholtz_factor,
    linearized_nonlinear_coeffs,
    nonlinear_coeffs,
    nonlinear_route,
)

__all__ = [
    "IntegratorConfig",
    "BlowUpError",
    "StepKernel",
    "integrate",
    "EnsemblePaths",
    "EnsembleRun",
    "run_ensemble",
    "run_ensembles",
]

SCHEMES = ("semi_implicit_em", "exponential_em", "rk4_deterministic")

_NOISE_CHUNK = 2048  # most steps of increments held in memory at once
_NOISE_BYTES = 64 << 20  # and most bytes of them, with a segment's buffers, per block
_TILE_BYTES = 1 << 21  # draws of one tile of members, copied into the chunk while in L2
# A block steps a segment of states, then does the segment's bookkeeping in
# whole-array calls.  A segment's states fill about _SEGMENT_BYTES, so a few
# members take hundreds of steps per call; the floor keeps a wide block from
# one call per step, which cost about 10% of wall time at M = 5000 (2-core x86
# VM, numpy 2.4); a 2 MB budget with no floor raised the peak RSS of a
# cutoff-12, M = 1 variation run by about 5%.
_SEGMENT_BYTES = 64 << 10
_SEGMENT_MIN = 8
# From this many members a block is wide: it holds its state, noise and
# squares mode-major and sums triads and energies by row operations into
# scratch.  Against the member-major loop (2-core x86 VM, numpy 2.4, one BLAS
# thread) the crossover lies near M = 256 at cutoff 1, 512 at cutoff 2,
# 128-256 at cutoff 3 and 64-128 at cutoff 4; the bits are the same either way.
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
    carries the first bad time, the member and that member's energy one
    step before, its last finite one, and the run's index in its group
    (`run_ensembles`; 0 for a single run)."""

    def __init__(
        self, time: float, member: int | None = None, energy: float | None = None, run: int = 0
    ):
        self.time = time
        self.member = member
        self.energy = energy
        self.run = run
        where = f" (member {member})" if member is not None else ""
        before = f", last finite energy {energy:.6g}" if energy is not None else ""
        super().__init__(f"non-finite energy at t={time:.6g}{where}{before}")


def _phi1(z: np.ndarray) -> np.ndarray:
    # (e^z - 1)/z with a series fallback near zero
    z = np.asarray(z, dtype=np.float64)
    small = np.abs(z) < 1e-6
    safe = np.where(small, 1.0, z)
    return np.where(small, 1.0 + z / 2.0 + z**2 / 6.0, np.expm1(safe) / safe)


class StepScratch(NamedTuple):
    """Temporaries of one (M, n) step, allocated once per ensemble block."""

    nonlinear: np.ndarray              # (M, n): N(c), then the right-hand side built on it
    work: np.ndarray | FFTWork | None  # the route's: (2, T, M) triad scratch of a wide
                                       # block (see _triad_sum), the pseudo-spectral
                                       # workspace (fft_work), or None


class StepKernel:
    """Batched one-step map for fixed (params, config, noise), on spec.basis.

    The noise spec owns the basis the kernel steps on; a spec with
    sigma = 0 gives the noiseless kernel.  Construction is the step plan: it
    picks the scheme's one-step and first-variation maps and binds the
    nonlinearity's `route` (operators.nonlinear_route: the triad table below
    FFT_MIN_CUTOFF, else the Helmholtz factor; None with the nonlinearity
    off) and the energy and dissipation weights, so a step neither walks the
    scheme branches nor looks up a (basis, alpha) cache.
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
        if not math.isfinite(spec.trace_alpha(p.alpha)):
            raise ConfigError(f"sigma={sigma}, alpha={p.alpha} overflow Tr[Q*(I+alpha^2 A)Q]")
        self.dissipation_weight = lam * self.helm
        self.route = nonlinear_route(basis, p.alpha) if cfg.nonlinearity else None

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
            # the per-mode stochastic convolution has variance q^2 dt phi1(2z)
            self.conv_std = spec.q * np.sqrt(dt * _phi1(2.0 * z))

    def _linearized(self, cu: np.ndarray, ceta: np.ndarray, work=None) -> np.ndarray:
        if self.route is None:  # a fresh float array, which the maps update in place
            return np.zeros(np.shape(ceta))
        return linearized_nonlinear_coeffs(
            self.basis, cu, ceta, self.p.alpha, route=self.route, work=work
        )

    def _full_drift(self, c: np.ndarray) -> np.ndarray:
        if self.route is None:
            nl = np.zeros_like(c)
        else:
            nl = nonlinear_coeffs(self.basis, c, self.p.alpha, route=self.route)
        return -self.p.nu * self.basis.eigenvalues * c + nl

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
        return self._step(c, zeta, out, StepScratch(None, None) if scratch is None else scratch)

    def step_variation(
        self, cu: np.ndarray, ceta: np.ndarray, scratch: StepScratch | None = None
    ) -> np.ndarray:
        """Exact Jacobian action of the one-step map at the pre-step state,
        a new array; `scratch` as in `step`."""
        return self._variation(cu, ceta, None if scratch is None else scratch.work)

    # The nonlinearity and its derivative are fresh arrays or scratch, which
    # the maps update in place by the same operations, on the same operands,
    # as the expressions c + dt * N(c) + zeta and so on (+ and * commute
    # bit for bit).  Every read of c comes before the write to out, so out
    # may be c.

    def _semi_implicit_step(self, c, zeta, out, scratch):
        if self.route is not None:
            rhs = nonlinear_coeffs(
                self.basis, c, self.p.alpha, route=self.route,
                out=scratch.nonlinear, work=scratch.work,
            )
            rhs *= self.dt
            np.add(c, rhs, out=rhs)
            if zeta is not None:
                rhs += zeta
        else:
            rhs = c if zeta is None else c + zeta
        return np.divide(rhs, self.implicit_denom, out=out)

    def _semi_implicit_variation(self, cu, ceta, work):
        dn = self._linearized(cu, ceta, work)
        dn *= self.dt
        np.add(ceta, dn, out=dn)
        return np.divide(dn, self.implicit_denom, out=dn)

    def _exponential_step(self, c, zeta, out, scratch):
        nl = None
        if self.route is not None:
            nl = nonlinear_coeffs(
                self.basis, c, self.p.alpha, route=self.route,
                out=scratch.nonlinear, work=scratch.work,
            )
            nl *= self.phi1_dt
        out = np.multiply(self.decay, c, out=out)
        if nl is not None:
            out += nl
        if zeta is not None:
            out += zeta
        return out

    def _exponential_variation(self, cu, ceta, work):
        dn = self._linearized(cu, ceta, work)
        dn *= self.phi1_dt
        return np.add(self.decay * ceta, dn, out=dn)

    def _rk4_step(self, c, zeta, out, scratch):
        dt = self.dt
        k1 = self._full_drift(c)
        k2 = self._full_drift(c + 0.5 * dt * k1)
        k3 = self._full_drift(c + 0.5 * dt * k2)
        k4 = self._full_drift(c + dt * k3)
        return np.add(c, (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), out=out)

    def _rk4_variation(self, cu, ceta, work):
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
    )[0]


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


class EnsembleRun(NamedTuple):
    """One run of a group (`run_ensembles`): the run_ensemble arguments
    that may differ between runs on the same members' substreams."""

    x0_coeffs: np.ndarray                 # (n,) shared start, or (M, n)
    cfg: IntegratorConfig
    eta0_coeffs: np.ndarray | None = None  # (n,) direction of the first variation
    collect_be: bool = False
    store_fields: bool = False


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
    row here.  This is the one-run group of `run_ensembles`.
    """
    run = EnsembleRun(x0_coeffs, cfg, eta0_coeffs, collect_be, store_fields)
    return run_ensembles(p, spec, M, [run], increments=increments)[0]


def run_ensembles(
    p: PhysicalParams,
    spec: NoiseSpec,
    M: int,
    runs: list[EnsembleRun],
    *,
    increments: np.ndarray | None = None,
) -> list[EnsemblePaths]:
    """Each run's `run_ensemble(run.x0_coeffs, p, spec, run.cfg, M, ...)`,
    bit for bit, stepped as one group.

    Every run reads members 0..M-1 of the same substreams, each step the
    next row of standard normals scaled by its own sqrt(dt), so the group
    draws each row once, for the longest run, and builds each generator
    once.  With `increments` every run sums its own r = rows // steps of
    them per step.  A run that blows up raises what the calls one after
    the other would: the first run, in order, that blows up, at its first
    bad step and lowest member there.
    """
    n = spec.basis.mode_count
    runs = [
        run._replace(x0_coeffs=np.broadcast_to(np.asarray(run.x0_coeffs, dtype=np.float64), (M, n)))
        for run in runs
    ]
    if increments is not None:
        for run in runs:
            steps = run.cfg.num_steps()
            r = increments.shape[1] // steps if steps and increments.ndim == 3 else 1
            if r < 1 or increments.shape != (M, r * steps, n):
                raise ValueError(
                    f"increments of shape {increments.shape} not ({M}, r * {steps}, {n})"
                )

    def run_block(a: int, b: int) -> list[EnsemblePaths]:
        first, *others = [run._replace(x0_coeffs=run.x0_coeffs[a:b]) for run in runs]
        return _run_ensemble_block(
            first.x0_coeffs, p, spec, first.cfg, b - a,
            eta0_coeffs=first.eta0_coeffs, collect_be=first.collect_be,
            store_fields=first.store_fields, others=others, member_offset=a,
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
        # what the serial loop raises: the first run that blows up, at its
        # first bad step, lowest member there
        raise min(blow_ups, key=lambda e: (e.run, e.time, e.member))
    parts = [f.result() for f in futures]
    return [_joined([part[i] for part in parts]) for i in range(len(runs))]


def _joined(parts: list[EnsemblePaths]) -> EnsemblePaths:
    """One run's blocks, joined in member order."""
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


def _segment_len(M: int, n: int) -> int:
    """Steps per segment: the segment's states fill about _SEGMENT_BYTES, >= _SEGMENT_MIN."""
    return max(_SEGMENT_MIN, _SEGMENT_BYTES // (8 * M * n))


def _chunk_len(num_steps: int, M: int, n: int, runs: int = 1) -> int:
    """Steps per noise chunk: <= _NOISE_CHUNK, >= 1, and with the segment
    buffers (_segment_len steps) of `runs` runs <= _NOISE_BYTES, counting
    for each run the noise buffer its block's runs share; a group of k runs
    gives the chunk 1/k of the room their buffers leave, since it holds k
    runs' records besides."""
    s = _segment_len(M, n)
    # the segment's s + 1 states and s rows of injected noise and squares,
    # and per member its s + 1 energies and martingale sums and s dissipation sums
    room = _NOISE_BYTES - runs * 8 * ((2 * s + 1) * M * n + (3 * s + 2) * M)
    return max(1, min(_NOISE_CHUNK, num_steps, room // (8 * M * n * runs)))


def _step_scratch(kernel: StepKernel, M: int, wide: bool, variation: bool) -> StepScratch:
    """A block's step scratch for M members, laid out as its states: the
    route's work is a wide block's triad scratch or, on the pseudo-spectral
    route, a workspace for the first variation's two pairs when it runs."""
    n = kernel.basis.mode_count
    work = None
    if isinstance(kernel.route, TriadTable):
        if wide:
            work = np.empty((2, len(kernel.route.k), M))
    elif kernel.route is not None:
        work = fft_work(kernel.basis, (M,), pairs=2 if variation else 1)
    return StepScratch(_states(M, n, wide), work)


def _run_ensemble_block(
    x0_coeffs: np.ndarray,
    p: PhysicalParams,
    spec: NoiseSpec,
    cfg: IntegratorConfig,
    M: int,
    *,
    eta0_coeffs: np.ndarray | None = None,
    collect_be: bool = False,
    store_fields: bool = False,
    others: Sequence[EnsembleRun] = (),
    member_offset: int = 0,
    increments: np.ndarray | None = None,
) -> list[EnsemblePaths]:
    """The EnsemblePaths of the run (x0_coeffs, cfg, eta0_coeffs,
    collect_be, store_fields) and of the runs in `others`, on members
    member_offset.. member_offset + M - 1, stepped in lockstep: each chunk of
    standard normals is drawn once and handed to every run that has not
    reached its horizon, the first rows to a run that needs fewer.  Raises
    the BlowUpError of the first run, in order, that blows up."""
    runs = [EnsembleRun(x0_coeffs, cfg, eta0_coeffs, collect_be, store_fields), *others]
    n = spec.basis.mode_count
    chunk_len = _chunk_len(max(run.cfg.num_steps() for run in runs), M, n, len(runs))
    s = min(chunk_len, _segment_len(M, n))
    wide = M >= _WIDE_MEMBERS
    kernels = [StepKernel(p, run.cfg, spec) for run in runs]
    # the runs step one after another in this thread, so they share the step
    # scratch, built for a kernel with the nonlinearity on if there is one,
    # and the segment's noise and squares
    routed = [k for k in kernels if k.route is not None] or kernels
    variation = any(run.eta0_coeffs is not None for run in runs)
    scratch = _step_scratch(routed[0], M, wide, variation)
    work = _states(M, n, wide, lead=(s,))
    # a tile of members whose chunk of draws fits in L2; a caller's fine
    # path is summed a tile at a time, so a mode-major write stays in cache
    members = max(1, min(M, _TILE_BYTES // (8 * n * chunk_len)))
    fine = None if increments is None else (increments, members)
    steppers = [
        _Stepper(run, i, spec, kernel, scratch, work, s, member_offset, fine)
        for i, (run, kernel) in enumerate(zip(runs, kernels))
    ]

    # the group's chunk of standard normals, laid out as the state
    noise = gens = tile = None
    if spec.sigma > 0 and increments is None:
        noise = _states(M, n, wide, lead=(chunk_len,))
        gens = [substream(spec.seed, member_offset + i) for i in range(M)]
        tile = None if M == 1 else np.empty((members, chunk_len, n))

    m = 0
    blown = None
    live = [st for st in steppers if st.num_steps > 0]
    # overflow shows up as a non-finite energy and is raised as BlowUpError
    with np.errstate(over="ignore", invalid="ignore"):
        while live:
            chunk = min(chunk_len, max(st.num_steps for st in live) - m)
            Z = None
            if gens is not None:
                Z = noise[:chunk]
                _draw_chunk(gens, tile, Z)
            for st in live:
                try:
                    st.advance(Z, min(chunk, st.num_steps - m))
                except BlowUpError as error:
                    blown = error  # the runs after it no longer matter
                    break
            m += chunk
            live = [
                st for st in live
                if st.num_steps > m and (blown is None or st.index < blown.run)
            ]
    if blown is not None:
        raise blown
    return [st.paths() for st in steppers]


class _Stepper:
    """One run of a block: its kernel, its segment buffers and its records.

    `advance` steps it through rows of the group's standard normals (or
    its caller's fine path, or no noise), a segment at a time, and `paths`
    returns what it recorded.

    A segment of s steps runs from H[0] through H[1..s]; its energies E
    and running martingale sums X are indexed as H, so row 0 carries the
    segment's start.  The kernel sees (M, n) views of the storage.  work[:s],
    laid out as the states and shared by the block's runs, holds the
    segment's increments dW = Z sqrt(dt), then in place its injected noise,
    then the squares of the energy and dissipation sums.
    """

    def __init__(self, run, index, spec, kernel, scratch, work, s, member_offset, fine):
        cfg = self.cfg = run.cfg
        basis = self.basis = spec.basis
        M, n = work.shape[1:]
        wide = M >= _WIDE_MEMBERS
        self.index, self.spec, self.member_offset = index, spec, member_offset
        self.kernel, self.scratch, self.work = kernel, scratch, work
        num_steps = self.num_steps = cfg.num_steps()
        self.rec = _record_indices(num_steps, cfg.record_every)

        # the first variation stays C-contiguous (M, n) in every block:
        # step_variation returns fresh C-contiguous arrays
        self.Eta = None
        if run.eta0_coeffs is not None:
            self.Eta = np.empty((M, n))
            self.Eta[...] = np.asarray(run.eta0_coeffs, dtype=np.float64)
        if run.collect_be and (spec.sigma <= 0 or self.Eta is None):
            raise ValueError("Bismut-Elworthy accumulation requires sigma > 0 and eta0_coeffs")
        self.be_acc = np.zeros(M) if run.collect_be else None
        # a two-operand einsum sums in an order that depends on the layout,
        # so the BE sum reads each step's dW from C-contiguous rows
        self.be_row = np.empty((M, n)) if run.collect_be else None

        s = self.s = min(s, max(1, num_steps))
        # a caller's fine path and its tile of members: r increments per step
        # are summed into the run's own segment buffer, which the BE sum also reads
        self.fine = self.dW = None
        if fine is not None:
            self.fine, self.members = fine
            self.r = self.fine.shape[1] // num_steps if num_steps else 1
            self.dW = _states(M, n, wide, lead=(s,))
        H = self.H = _states(M, n, wide, lead=(s + 1,))
        H[0] = run.x0_coeffs
        self.E = np.empty((s + 1, M))
        self.X = np.zeros((s + 1, M))
        self.D_rows = np.empty((s, M))
        alpha_energy(
            H[0], basis, kernel.p.alpha, weight=kernel.helm, out=self.E[0], work=work[0]
        )
        self.sup_F = self.E[0].copy()

        R = len(self.rec)
        self.out = EnsemblePaths(
            times=np.array([m * cfg.dt for m in self.rec]),
            F=np.empty((M, R)),
            dissipation=np.empty((M, R)),
            martingale=np.empty((M, R)),
            sup_F=self.sup_F,
            final_coeffs=None,  # the last state, when the run ends
            be_accumulator=self.be_acc,
            snapshots=np.empty((M, R, n)) if run.store_fields else None,
        )
        self.m = self.r_rec = 0
        self._record(slice(0, 1))

    def _record(self, rows: slice) -> None:
        E, H, r, out = self.E, self.H, self.r_rec, self.out
        k = len(E[rows])
        out.F[:, r : r + k] = E[rows].T
        alpha_dissipation(
            H[rows], self.basis, self.kernel.p.alpha, weight=self.kernel.dissipation_weight,
            out=self.D_rows[:k], work=self.work[:k],
        )
        out.dissipation[:, r : r + k] = self.D_rows[:k].T
        out.martingale[:, r : r + k] = self.X[rows].T
        if out.snapshots is not None:
            out.snapshots[:, r : r + k] = H[rows].swapaxes(0, 1)
        self.r_rec = r + k

    def _fine_sums(self, seg: int) -> np.ndarray:
        """The next seg steps' increments, each the sum of r of the fine path's."""
        r, m, dW, members = self.r, self.m, self.dW[:seg], self.members
        for a in range(0, dW.shape[1], members):
            fine = self.fine[a : a + members, m * r : (m + seg) * r]
            rows = dW[:, a : a + members].swapaxes(0, 1)
            if r == 1:  # a copy keeps the sign of a zero
                rows[...] = fine
            else:  # the bits of the whole path's reshape(M, steps, r, n).sum(axis=2)
                np.sum(fine.reshape(len(fine), seg, r, fine.shape[2]), axis=2, out=rows)
        return dW

    def advance(self, Z: np.ndarray | None, steps: int) -> None:
        """Step `steps` steps on the first rows of Z, the group's standard
        normals, or on the caller's fine path when Z is None."""
        kernel, spec, H, E, X, work = self.kernel, self.spec, self.H, self.E, self.X, self.work
        s, scratch, Eta, be_acc, be_row = self.s, self.scratch, self.Eta, self.be_acc, self.be_row
        rec, R, dt = self.rec, len(self.rec), self.cfg.dt
        basis, helm, alpha = self.basis, kernel.helm, kernel.p.alpha
        for c in range(0, steps, s):
            seg = min(s, steps - c)
            dW = None
            if Z is not None:
                dW = np.multiply(Z[c : c + seg], kernel.sqrt_dt, out=work[:seg])
            elif self.fine is not None:
                dW = self._fine_sums(seg)
            zs = kernel.noise_injected(dW, out=work[:seg])
            for i in range(seg):
                if be_acc is not None:
                    if self.fine is None:
                        np.multiply(Z[c + i], kernel.sqrt_dt, out=be_row)
                    else:
                        be_row[...] = dW[i]
                    be_acc += np.einsum("mj,mj->m", Eta / spec.q, be_row)
                if Eta is not None:
                    Eta = kernel.step_variation(H[i], Eta, scratch)
                kernel.step(H[i], None if zs is None else zs[i], H[i + 1], scratch)

            # the segment's bookkeeping, each call with the bits of its per-step form;
            # the martingale reads the injected noise before the squares overwrite it
            m = self.m
            if zs is not None:
                # a sequential running sum, as mart += <helm H[i], zeta_i> step by step
                np.einsum("j,imj,imj->im", helm, H[:seg], zs, out=X[1 : seg + 1])
                np.cumsum(X[: seg + 1], axis=0, out=X[: seg + 1])
            alpha_energy(
                H[1 : seg + 1], basis, alpha, weight=helm, out=E[1 : seg + 1], work=work[:seg]
            )
            # energies are >= 0 and non-finite whenever a state is, so the
            # running max turns non-finite with the first bad step
            np.maximum(self.sup_F, E[1 : seg + 1].max(axis=0), out=self.sup_F)
            if not math.isfinite(self.sup_F.max(initial=0.0)):
                bad = ~np.isfinite(E[1 : seg + 1])
                row = int(np.flatnonzero(bad.any(axis=1))[0])
                j = int(np.flatnonzero(bad[row])[0])
                raise BlowUpError(
                    (m + row + 1) * dt, member=self.member_offset + j,
                    energy=float(E[row, j]), run=self.index,
                )
            # the record grid's steps in the segment, then the last step off it
            while self.r_rec < R and rec[self.r_rec] <= m + seg:
                self._record(slice(rec[self.r_rec] - m, seg + 1, self.cfg.record_every))
            self.m = m + seg
            H[0] = H[seg]
            E[0] = E[seg]
            X[0] = X[seg]
        self.Eta = Eta

    def paths(self) -> EnsemblePaths:
        self.out.final_coeffs = self.H[0].copy()
        self.out.eta_final = self.Eta
        return self.out
