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
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .basis import Basis, SpectralField
from .noise import NoiseSpec, substream
from .operators import (
    PhysicalParams,
    alpha_dissipation,
    alpha_energy,
    linearized_nonlinear_coeffs,
    nonlinear_coeffs,
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
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        if not (self.dt > 0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_end < 0:
            raise ValueError(f"t_end must be >= 0, got {self.t_end}")
        if self.t_end > 0 and self.dt > self.t_end * (1 + 1e-12):
            raise ValueError(f"dt={self.dt} exceeds t_end={self.t_end}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")

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
    observables: dict[str, np.ndarray] = field(default_factory=dict)

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
    """Batched one-step map for a fixed (basis, params, noise, config)."""

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
            raise ValueError("rk4_deterministic requires sigma = 0")
        if sigma > 0 and p.nu <= 0:
            raise ValueError("stochastic runs require nu > 0")
        self.basis = basis
        self.p = p
        self.cfg = cfg
        self.spec = spec
        self.sigma = sigma
        self.n = basis.mode_count
        lam = basis.eigenvalues
        dt = cfg.dt
        self.sqrt_dt = np.sqrt(dt)
        self.helm = 1.0 + p.alpha**2 * lam
        q = spec.q if spec is not None else np.zeros(self.n)

        if cfg.scheme == "semi_implicit_em":
            self.implicit_denom = 1.0 + dt * p.nu * lam
            self.noise_scale = q
        elif cfg.scheme == "exponential_em":
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
        return nonlinear_coeffs(self.basis, c, self.p.alpha)

    def _linearized(self, cu: np.ndarray, ceta: np.ndarray) -> np.ndarray:
        if not self.cfg.nonlinearity:
            return np.zeros_like(ceta)
        return linearized_nonlinear_coeffs(self.basis, cu, ceta, self.p.alpha)

    def _full_drift(self, c: np.ndarray) -> np.ndarray:
        return -self.p.nu * self.basis.eigenvalues * c + self.nonlinear(c)

    def _full_linearized_drift(self, cu: np.ndarray, ceta: np.ndarray) -> np.ndarray:
        return -self.p.nu * self.basis.eigenvalues * ceta + self._linearized(cu, ceta)

    def step(self, c: np.ndarray, zeta: np.ndarray | None) -> np.ndarray:
        """Advance coefficients by one step; zeta is the injected noise,
        `noise_injected(dW)` (None without noise)."""
        cfg = self.cfg
        if cfg.scheme == "semi_implicit_em":
            rhs = c + cfg.dt * self.nonlinear(c) if cfg.nonlinearity else c
            if zeta is not None:
                rhs = rhs + zeta
            return rhs / self.implicit_denom
        if cfg.scheme == "exponential_em":
            out = self.decay * c
            if cfg.nonlinearity:
                out = out + self.phi1_dt * self.nonlinear(c)
            if zeta is not None:
                out = out + zeta
            return out
        # rk4_deterministic
        dt = cfg.dt
        k1 = self._full_drift(c)
        k2 = self._full_drift(c + 0.5 * dt * k1)
        k3 = self._full_drift(c + 0.5 * dt * k2)
        k4 = self._full_drift(c + dt * k3)
        return c + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def step_variation(self, cu: np.ndarray, ceta: np.ndarray) -> np.ndarray:
        """Exact Jacobian action of the one-step map at the pre-step state."""
        cfg = self.cfg
        if cfg.scheme == "semi_implicit_em":
            return (ceta + cfg.dt * self._linearized(cu, ceta)) / self.implicit_denom
        if cfg.scheme == "exponential_em":
            return self.decay * ceta + self.phi1_dt * self._linearized(cu, ceta)
        dt = cfg.dt
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

    def noise_injected(self, dW: np.ndarray | None) -> np.ndarray | None:
        """Coefficients of the noise term the scheme adds for increments dW."""
        if dW is None or self.sigma == 0.0:
            return None
        if self.cfg.scheme == "semi_implicit_em":
            return self.noise_scale * dW
        if self.cfg.scheme == "exponential_em":
            return self.conv_std * (dW / self.sqrt_dt)
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
    observers: dict[str, Callable[[float, SpectralField], float]] | None = None,
    *,
    member: int = 0,
    store_fields: bool = False,
) -> TrajectoryRecord:
    """Iterate the one-step map and record the energy bookkeeping.

    The ensemble loop at M=1 on substream (spec.seed, member), so the
    record equals row `member` of any batched run bit for bit.  Observers
    are evaluated afterwards on the recorded states.  Raises BlowUpError
    with the first bad time if the energy stops being finite.
    """
    basis = x0.basis
    paths = _run_ensemble_block(
        x0.coeffs, p, spec, cfg, 1,
        basis=basis, member_offset=member, store_fields=store_fields or bool(observers),
    )
    snaps = None if paths.snapshots is None else paths.snapshots[0]
    observables = {
        name: np.array([fn(t, SpectralField(basis, c)) for t, c in zip(paths.times, snaps)])
        for name, fn in (observers or {}).items()
    }
    return TrajectoryRecord(
        times=paths.times,
        F_values=paths.F[0],
        dissipation_values=paths.dissipation[0],
        martingale_accumulator=paths.martingale[0],
        snapshots=snaps if store_fields else None,
        observables=observables,
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
        raise ValueError(f"LANS_THREADS must be an integer, got {raw!r}") from None
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

    R = len(rec)
    times = np.array([m * cfg.dt for m in rec])
    F = np.empty((M, R))
    D = np.empty((M, R))
    mart_series = np.empty((M, R))
    snaps = np.empty((M, R, n)) if store_fields else None
    mart = np.zeros(M)
    E = alpha_energy(C, basis, p.alpha)
    sup_F = E.copy()

    r = 0

    def record():
        nonlocal r
        F[:, r] = E
        D[:, r] = alpha_dissipation(C, basis, p.alpha)
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
            dWs = None
            if increments is not None:
                dWs = increments[:, m : m + chunk]
            elif draw:
                dWs = np.empty((M, chunk, n))
                for i, g in enumerate(gens):
                    dWs[i] = g.standard_normal((chunk, n))
                dWs *= kernel.sqrt_dt
            for i in range(chunk):
                dW = dWs[:, i, :] if dWs is not None else None
                zeta = kernel.noise_injected(dW)
                if zeta is not None:
                    mart += np.einsum("j,mj,mj->m", kernel.helm, C, zeta)
                if be_acc is not None:
                    be_acc += np.einsum("mj,mj->m", Eta / spec.q, dW)
                if Eta is not None:
                    Eta = kernel.step_variation(C, Eta)
                C = kernel.step(C, zeta)
                m += 1
                # energies are >= 0 and non-finite whenever C is, so the
                # running max turns non-finite at the first bad step
                E = alpha_energy(C, basis, p.alpha)
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
