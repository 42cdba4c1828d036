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
the strong-convergence study passes its common-path increments in place
of the substream draws.  Each step computes the alpha-energy once; it
updates the running sup, is recorded as F and detects blow-up, being
non-finite whenever a coefficient is (and when it overflows).

At M <= 2 a step is mostly Python dispatch, so what does not change from
step to step is fixed once:

  StepKernel   picks the scheme's one-step and first-variation maps and
               binds the nonlinearity's route data (triad table or
               Helmholtz factor) and the energy and dissipation weights;
               no step walks the scheme branches or looks up a
               (basis, alpha) cache.
  noise        each chunk of _NOISE_CHUNK steps is drawn straight into
               one buffer per block.  When the block draws its own
               increments and nothing else reads them (no Bismut-Elworthy
               accumulation), the chunk is scaled to the injected noise
               in place by noise_injected's own operations.  Caller
               increments are never written; they, and BE runs, are
               scaled per step.
  reductions   the per-step energy and the recorded dissipation are
               np.square, np.multiply and np.add.reduce into preallocated
               (M, n) and (M,) buffers, the bits of np.sum(w * c**2, -1).

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

import numpy as np

from .basis import Basis, ConfigError, SpectralField
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
    "TrajectoryRecord",
    "BlowUpError",
    "StepKernel",
    "step",
    "step_variation",
    "integrate",
    "EnsemblePaths",
    "run_ensemble",
]

SCHEMES = ("semi_implicit_em", "exponential_em", "rk4_deterministic")

_NOISE_CHUNK = 2048  # steps of pre-drawn increments held in memory at once


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


@dataclass
class TrajectoryRecord:
    """Recorded time series along one trajectory.

    `martingale_accumulator[r]` is the running sum of
    <(I + alpha^2 A) u_m, zeta_m> over all steps m before recorded time r,
    with zeta_m the noise actually injected at step m.
    """

    times: np.ndarray
    F_values: np.ndarray
    dissipation_values: np.ndarray
    martingale_accumulator: np.ndarray
    snapshots: np.ndarray | None = None

    def dissipation_integral(self) -> float:
        """Trapezoidal rule on the recorded dissipation values."""
        return float(np.trapezoid(self.dissipation_values, self.times))


def _phi1(z: np.ndarray) -> np.ndarray:
    # (e^z - 1)/z with a series fallback near zero
    z = np.asarray(z, dtype=np.float64)
    small = np.abs(z) < 1e-6
    safe = np.where(small, 1.0, z)
    return np.where(small, 1.0 + z / 2.0 + z**2 / 6.0, np.expm1(safe) / safe)


class StepKernel:
    """Batched one-step map for a fixed (basis, params, noise, config).

    Construction is the step plan: it picks the scheme's one-step and
    first-variation maps and binds the nonlinearity's route data (the triad
    table below FFT_MIN_CUTOFF, else the Helmholtz factor) and the energy
    and dissipation weights, so a step neither walks the scheme branches
    nor looks up a (basis, alpha) cache.
    """

    def __init__(
        self,
        basis: Basis,
        p: PhysicalParams,
        cfg: IntegratorConfig,
        spec: NoiseSpec | None = None,
    ):
        p.check_basis(basis)
        if spec is not None and spec.basis != basis:
            raise ValueError("noise spec basis does not match integration basis")
        sigma = 0.0 if spec is None else spec.sigma
        if cfg.scheme == "rk4_deterministic" and sigma > 0:
            raise ConfigError("rk4_deterministic requires sigma = 0")
        if sigma > 0 and p.nu <= 0:
            raise ConfigError("stochastic runs (sigma > 0) require nu > 0")
        self.basis = basis
        self.p = p
        self.cfg = cfg
        self.sigma = sigma
        self.n = basis.mode_count
        lam = basis.eigenvalues
        dt = self.dt = cfg.dt
        self.sqrt_dt = np.sqrt(dt)
        self.helm = helmholtz_factor(basis, p.alpha)
        self.dissipation_weight = lam * self.helm
        self.triad = None
        if cfg.nonlinearity and basis.cutoff < FFT_MIN_CUTOFF:
            self.triad = triad_table(basis, p.alpha)
        q = spec.q if spec is not None else np.zeros(self.n)

        # the scheme's maps, which step and step_variation call
        self._step, self._variation = self._rk4_step, self._rk4_variation
        if cfg.scheme == "semi_implicit_em":
            self._step, self._variation = self._semi_implicit_step, self._semi_implicit_variation
            self.implicit_denom = 1.0 + dt * p.nu * lam
            self.noise_scale = q
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
            self.conv_std = q * np.sqrt(var)

    def nonlinear(self, c: np.ndarray) -> np.ndarray:
        if not self.cfg.nonlinearity:
            return np.zeros_like(c)
        return nonlinear_coeffs(self.basis, c, self.p.alpha, table=self.triad, factor=self.helm)

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

    def step(self, c: np.ndarray, zeta: np.ndarray | None) -> np.ndarray:
        """Advance coefficients by one step; zeta is the injected noise,
        `noise_injected(dW)` (None without noise)."""
        return self._step(c, zeta)

    def step_variation(self, cu: np.ndarray, ceta: np.ndarray) -> np.ndarray:
        """Exact Jacobian action of the one-step map at the pre-step state."""
        return self._variation(cu, ceta)

    # The nonlinearity returns a fresh array, which the steps update in place
    # by the same operations, on the same operands, as the expressions
    # c + dt * N(c) + zeta and so on.

    def _semi_implicit_step(self, c, zeta):
        if self.cfg.nonlinearity:
            rhs = self.nonlinear(c)
            rhs *= self.dt
            np.add(c, rhs, out=rhs)
        else:
            rhs = c
        if zeta is not None:
            rhs = rhs + zeta
        return rhs / self.implicit_denom

    def _semi_implicit_variation(self, cu, ceta):
        return (ceta + self.dt * self._linearized(cu, ceta)) / self.implicit_denom

    def _exponential_step(self, c, zeta):
        out = self.decay * c
        if self.cfg.nonlinearity:
            nl = self.nonlinear(c)
            nl *= self.phi1_dt
            out += nl
        if zeta is not None:
            out += zeta
        return out

    def _exponential_variation(self, cu, ceta):
        return self.decay * ceta + self.phi1_dt * self._linearized(cu, ceta)

    def _rk4_step(self, c, zeta):
        dt = self.dt
        k1 = self._full_drift(c)
        k2 = self._full_drift(c + 0.5 * dt * k1)
        k3 = self._full_drift(c + 0.5 * dt * k2)
        k4 = self._full_drift(c + dt * k3)
        return c + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

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
        if dW is None or self.sigma == 0.0:
            return None
        if self.cfg.scheme == "semi_implicit_em":
            return np.multiply(self.noise_scale, dW, out=out)
        if self.cfg.scheme == "exponential_em":
            return np.multiply(self.conv_std, np.divide(dW, self.sqrt_dt, out=out), out=out)
        return None


def step(
    u: SpectralField,
    p: PhysicalParams,
    spec: NoiseSpec,
    cfg: IntegratorConfig,
    rng: np.random.Generator | None = None,
) -> SpectralField:
    """Advance one step, drawing the increment from rng when sigma > 0."""
    kernel = StepKernel(u.basis, p, cfg, spec)
    dW = None
    if kernel.sigma > 0:
        if rng is None:
            raise ValueError("sigma > 0 requires an rng to draw increments from")
        dW = kernel.sqrt_dt * rng.standard_normal(u.basis.mode_count)
    return SpectralField(u.basis, kernel.step(u.coeffs, kernel.noise_injected(dW)))


def step_variation(
    u_path_point: SpectralField,
    eta: SpectralField,
    p: PhysicalParams,
    cfg: IntegratorConfig,
) -> SpectralField:
    """Advance the first variation one step along the stored u path point."""
    if u_path_point.basis != eta.basis:
        raise ValueError("u and eta must share a basis")
    kernel = StepKernel(u_path_point.basis, p, cfg, None)
    return SpectralField(eta.basis, kernel.step_variation(u_path_point.coeffs, eta.coeffs))


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
) -> TrajectoryRecord:
    """Iterate the one-step map and record the energy bookkeeping.

    The ensemble loop at M=1 on substream (spec.seed, member), so the
    record equals row `member` of any batched run bit for bit.  Raises
    BlowUpError with the first bad time if the energy stops being finite.
    """
    paths = _run_ensemble_block(
        x0.coeffs, p, spec, cfg, 1,
        basis=x0.basis, member_offset=member, store_fields=store_fields,
    )
    return TrajectoryRecord(
        times=paths.times,
        F_values=paths.F[0],
        dissipation_values=paths.dissipation[0],
        martingale_accumulator=paths.martingale[0],
        snapshots=None if paths.snapshots is None else paths.snapshots[0],
    )


# -- batched ensemble driver ---------------------------------------------------


@dataclass
class EnsemblePaths:
    """Per-member recorded series for a batched ensemble run.

    Member i of an ensemble started at member_offset uses the noise
    substream (seed, member_offset + i); reductions over members are done
    with numpy pairwise summation in fixed member order.
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
    basis: Basis | None = None,
    eta0_coeffs: np.ndarray | None = None,
    collect_be: bool = False,
    member_offset: int = 0,
    store_fields: bool = False,
    increments: np.ndarray | None = None,
) -> EnsemblePaths:
    """Step M members in lockstep, each on its own noise substream.

    `x0_coeffs` is (n,) (shared start) or (M, n).  When `eta0_coeffs` is
    given (a single direction of shape (n,), shared by all members), the
    first variation is co-integrated with shared increments; `collect_be`
    additionally accumulates sum_m <Q^{-1} eta(t_m), dW_m>.
    `store_fields` keeps the recorded states in `snapshots`.
    `increments`, an (M, steps, n) array of sqrt(dt)-scaled normals,
    replaces the substream draws (common-path coupling across step sizes).
    LANS_THREADS > 1 splits the members into contiguous blocks run on a
    thread pool; per-member substreams make the result identical either way.
    """
    x0_arr = np.asarray(x0_coeffs, dtype=np.float64)
    n = x0_arr.shape[-1]
    x0_arr = np.broadcast_to(x0_arr, (M, n))
    expected = (M, cfg.num_steps(), n)
    if increments is not None and increments.shape != expected:
        raise ValueError(f"increments have shape {increments.shape}, expected {expected}")

    def run_block(a: int, b: int) -> EnsemblePaths:
        return _run_ensemble_block(
            x0_arr[a:b], p, spec, cfg, b - a,
            basis=basis, eta0_coeffs=eta0_coeffs, collect_be=collect_be,
            member_offset=member_offset + a, store_fields=store_fields,
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


def _run_ensemble_block(
    x0_coeffs: np.ndarray,
    p: PhysicalParams,
    spec: NoiseSpec,
    cfg: IntegratorConfig,
    M: int,
    *,
    basis: Basis | None = None,
    eta0_coeffs: np.ndarray | None = None,
    collect_be: bool = False,
    member_offset: int = 0,
    store_fields: bool = False,
    increments: np.ndarray | None = None,
) -> EnsemblePaths:
    basis = basis if basis is not None else spec.basis
    kernel = StepKernel(basis, p, cfg, spec)
    n = basis.mode_count
    num_steps = cfg.num_steps()
    rec = _record_indices(num_steps, cfg.record_every)
    rec_set = set(rec)

    C = np.broadcast_to(np.asarray(x0_coeffs, dtype=np.float64), (M, n)).copy()
    Eta = None
    if eta0_coeffs is not None:
        Eta = np.broadcast_to(np.asarray(eta0_coeffs, dtype=np.float64), (M, n)).copy()
    if collect_be:
        if spec.sigma <= 0:
            raise ValueError("Bismut-Elworthy accumulation requires sigma > 0")
        if Eta is None:
            raise ValueError("collect_be requires eta0_coeffs")
    be_acc = np.zeros(M) if collect_be else None

    draw = kernel.sigma > 0 and increments is None
    gens = [substream(spec.seed, member_offset + i) for i in range(M)] if draw else None
    # self-drawn increments nothing else reads are scaled to the injected
    # noise a whole chunk at a time, in place; the others per step
    scaled = draw and not collect_be
    drawn = np.empty((M, min(_NOISE_CHUNK, num_steps), n)) if draw else None
    # with M > 1 a step's slice of the chunk is strided across members, and
    # the step runs faster on a contiguous copy
    zeta_rows = np.empty((M, n)) if scaled and M > 1 else None

    R = len(rec)
    times = np.array([m * cfg.dt for m in rec])
    F = np.empty((M, R))
    D = np.empty((M, R))
    mart_series = np.empty((M, R))
    snaps = np.empty((M, R, n)) if store_fields else None
    mart = np.zeros(M)
    # the energy and dissipation reductions write into these
    E = np.empty(M)
    work = np.empty((M, n))
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
            chunk = min(_NOISE_CHUNK, num_steps - m)
            noise = None  # (M, chunk, n): increments dW, or the injected noise if scaled
            if increments is not None:
                noise = increments[:, m : m + chunk]
            elif draw:
                noise = drawn[:, :chunk]
                for i, g in enumerate(gens):
                    g.standard_normal(out=noise[i])
                noise *= kernel.sqrt_dt
                if scaled:
                    kernel.noise_injected(noise, out=noise)
            for i in range(chunk):
                dW = None if noise is None else noise[:, i]
                if zeta_rows is not None:
                    zeta = zeta_rows
                    zeta[...] = dW
                else:
                    zeta = dW if scaled else kernel.noise_injected(dW)
                if zeta is not None:
                    mart += np.einsum("j,mj,mj->m", helm, C, zeta)
                if be_acc is not None:
                    be_acc += np.einsum("mj,mj->m", Eta / spec.q, dW)
                if Eta is not None:
                    Eta = kernel.step_variation(C, Eta)
                C = kernel.step(C, zeta)
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
        final_coeffs=C,
        eta_final=Eta,
        be_accumulator=be_acc,
        snapshots=snaps,
    )
