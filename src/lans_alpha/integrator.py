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
sqrt(dt); the kernel applies Q (or the exact per-mode convolution
standard deviation for the exponential scheme).

The first-variation map is the exact Jacobian action of the discrete
one-step map, so pathwise finite differences with common noise converge
to it at the finite-difference rate with no scheme mismatch.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
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
    """Non-finite coefficients; carries the first bad time."""

    def __init__(self, time: float, member: int | None = None):
        self.time = time
        self.member = member
        where = f" (member {member})" if member is not None else ""
        super().__init__(f"non-finite coefficients at t={time:.6g}{where}")


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

    def step(self, c: np.ndarray, dW: np.ndarray | None) -> np.ndarray:
        """Advance coefficients by one step; dW are sqrt(dt)-scaled normals."""
        cfg = self.cfg
        if cfg.scheme == "semi_implicit_em":
            rhs = c + cfg.dt * self.nonlinear(c)
            if dW is not None:
                rhs = rhs + self.noise_scale * dW
            return rhs / self.implicit_denom
        if cfg.scheme == "exponential_em":
            out = self.decay * c + self.phi1_dt * self.nonlinear(c)
            if dW is not None:
                out = out + self.conv_std * (dW / self.sqrt_dt)
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
    return SpectralField(u.basis, kernel.step(u.coeffs, dW))


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

    Deterministic given (spec.seed, member, cfg).  Raises BlowUpError with
    the first bad time if coefficients stop being finite.
    """
    basis = x0.basis
    kernel = StepKernel(basis, p, cfg, spec)
    num_steps = cfg.num_steps()
    rec = _record_indices(num_steps, cfg.record_every)
    rec_set = set(rec)

    c = x0.coeffs.copy()
    mart = 0.0
    times, Fs, Ds, marts, snaps = [], [], [], [], []
    obs_values: dict[str, list[float]] = {name: [] for name in (observers or {})}

    rng = substream(spec.seed, member) if kernel.sigma > 0 else None

    def record(m: int):
        t = m * cfg.dt
        times.append(t)
        Fs.append(alpha_energy(c, basis, p.alpha))
        Ds.append(alpha_dissipation(c, basis, p.alpha))
        marts.append(mart)
        if store_fields:
            snaps.append(c.copy())
        for name, fn in (observers or {}).items():
            obs_values[name].append(fn(t, SpectralField(basis, c)))

    record(0)
    m = 0
    # overflow is detected via the finiteness check and surfaced as BlowUpError
    with np.errstate(over="ignore", invalid="ignore"):
        while m < num_steps:
            chunk = min(_NOISE_CHUNK, num_steps - m)
            dWs = kernel.sqrt_dt * rng.standard_normal((chunk, basis.mode_count)) if rng else None
            for i in range(chunk):
                dW = dWs[i] if dWs is not None else None
                zeta = kernel.noise_injected(dW)
                if zeta is not None:
                    mart += float(np.sum(kernel.helm * c * zeta))
                c = kernel.step(c, dW)
                m += 1
                if not np.all(np.isfinite(c)):
                    raise BlowUpError(m * cfg.dt)
                if m in rec_set:
                    record(m)

    return TrajectoryRecord(
        times=np.array(times),
        F_values=np.array(Fs),
        dissipation_values=np.array(Ds),
        martingale_accumulator=np.array(marts),
        snapshots=np.array(snaps) if store_fields else None,
        observables={k: np.array(v) for k, v in obs_values.items()},
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
) -> EnsemblePaths:
    """Step M members in lockstep, each on its own noise substream.

    `x0_coeffs` is (n,) (shared start) or (M, n).  When `eta0_coeffs` is
    given (a single direction of shape (n,), shared by all members), the
    first variation is co-integrated with shared increments; `collect_be`
    additionally accumulates sum_m <Q^{-1} eta(t_m), dW_m>.
    LANS_THREADS > 1 splits the members into contiguous blocks run on a
    thread pool; per-member substreams make the result identical either way.
    """
    workers = ensemble_threads()
    if workers > 1 and M >= 2 * workers:
        x0_arr = np.asarray(x0_coeffs, dtype=np.float64)
        bounds = np.linspace(0, M, workers + 1, dtype=int)
        blocks = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]

        def run_block(a: int, b: int) -> EnsemblePaths:
            block_x0 = x0_arr[a:b] if x0_arr.ndim == 2 else x0_arr
            return _run_ensemble_block(
                block_x0, p, spec, cfg, b - a,
                basis=basis, eta0_coeffs=eta0_coeffs, collect_be=collect_be,
                member_offset=member_offset + a,
            )

        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda ab: run_block(*ab), blocks))
        cat = lambda xs: None if xs[0] is None else np.concatenate(xs, axis=0)
        return EnsemblePaths(
            times=parts[0].times,
            F=cat([q.F for q in parts]),
            dissipation=cat([q.dissipation for q in parts]),
            martingale=cat([q.martingale for q in parts]),
            sup_F=cat([q.sup_F for q in parts]),
            final_coeffs=cat([q.final_coeffs for q in parts]),
            eta_final=cat([q.eta_final for q in parts]),
            be_accumulator=cat([q.be_accumulator for q in parts]),
        )
    return _run_ensemble_block(
        x0_coeffs, p, spec, cfg, M,
        basis=basis, eta0_coeffs=eta0_coeffs, collect_be=collect_be,
        member_offset=member_offset,
    )


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

    stochastic = kernel.sigma > 0
    gens = [substream(spec.seed, member_offset + i) for i in range(M)] if stochastic else None

    R = len(rec)
    times = np.array([m * cfg.dt for m in rec])
    F = np.empty((M, R))
    D = np.empty((M, R))
    mart_series = np.empty((M, R))
    mart = np.zeros(M)
    sup_F = alpha_energy(C, basis, p.alpha)

    r = 0

    def record():
        nonlocal r
        F[:, r] = alpha_energy(C, basis, p.alpha)
        D[:, r] = alpha_dissipation(C, basis, p.alpha)
        mart_series[:, r] = mart
        r += 1

    record()
    m = 0
    # overflow is detected via the finiteness check and surfaced as BlowUpError
    with np.errstate(over="ignore", invalid="ignore"):
        while m < num_steps:
            chunk = min(_NOISE_CHUNK, num_steps - m)
            dWs = None
            if stochastic:
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
                C = kernel.step(C, dW)
                m += 1
                if not np.all(np.isfinite(C)):
                    bad = np.where(~np.isfinite(C).all(axis=1))[0]
                    raise BlowUpError(m * cfg.dt, member=member_offset + int(bad[0]))
                np.maximum(sup_F, alpha_energy(C, basis, p.alpha), out=sup_F)
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
    )
