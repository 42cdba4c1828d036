"""Trace-class noise: diagonal covariance, admissibility checks, substreams.

The driving Wiener process is expanded in the same eigenbasis as the
state, so the covariance Q = sigma * A^{-(1+eps)/2} acts diagonally with
per-mode multipliers q_j = sigma * lambda_j^{-(1+eps)/2}.  On the
truncation every trace is a finite sum; the admissibility report states
whether the untruncated operator would satisfy the two standing
assumptions (finite energy-injection trace for eps > d/2 = 1, and an
invertible Q with D(A^{3/2}) in the domain of Q^{-1} for eps <= 2).

Reproducibility contract: all randomness flows through numpy's Philox
counter-based generator.  Ensemble member i draws from the substream
derived from (seed, i), so results do not depend on scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import Basis, ConfigError

__all__ = [
    "NoiseSpec",
    "AdmissibilityReport",
    "SingularOperatorError",
    "make_noise",
    "substream",
]


class SingularOperatorError(ConfigError):
    """Raised when Q^{-1} is requested for sigma = 0."""


@dataclass(frozen=True)
class AdmissibilityReport:
    """Verdicts for the untruncated covariance behind a finite truncation."""

    hyp_trace_ok: bool        # eps > d/2 = 1: Tr[Q*(I+A)Q] finite in the limit
    hyp_inverse_ok: bool      # eps <= 2: D(A^{3/2}) contained in D(Q^{-1})
    trace_tail_estimate: float  # integral-comparison tail of sum lambda_k^{-eps}
    messages: tuple[str, ...]

    @property
    def admissible(self) -> bool:
        return self.hyp_trace_ok and self.hyp_inverse_ok


@dataclass(frozen=True)
class NoiseSpec:
    """Spectral multipliers of Q with truncated traces and the RNG seed."""

    epsilon: float
    sigma: float
    basis: Basis
    q: np.ndarray = field(repr=False)
    trace_Q: float
    trace_QAQ: float
    seed: int

    def __post_init__(self):
        q = np.asarray(self.q, dtype=np.float64)
        q.setflags(write=False)
        object.__setattr__(self, "q", q)

    def trace_alpha(self, alpha: float) -> float:
        """Tr[Q*(I + alpha^2 A)Q] on the truncation."""
        return self.trace_Q + alpha**2 * self.trace_QAQ


def make_noise(
    epsilon: float, sigma: float, basis: Basis, seed: int = 0
) -> tuple[NoiseSpec, AdmissibilityReport]:
    """Build the diagonal covariance and its admissibility report.

    Inadmissible exponents are reported, never rejected: the truncated
    operator is well-defined for any epsilon.
    """
    if sigma < 0:
        raise ConfigError(f"noise amplitude sigma must be >= 0, got {sigma}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    lam = basis.eigenvalues
    with np.errstate(over="ignore", invalid="ignore"):
        q = sigma * lam ** (-(1.0 + epsilon) / 2.0)
        trace_Q = float(np.sum(q**2))
        trace_QAQ = float(np.sum(q**2 * lam))
    if not np.isfinite([trace_Q, trace_QAQ]).all():  # as they are when a q is not
        raise ConfigError(f"sigma={sigma}, epsilon={epsilon} overflow q or its traces on {basis!r}")
    spec = NoiseSpec(
        epsilon=float(epsilon),
        sigma=float(sigma),
        basis=basis,
        q=q,
        trace_Q=trace_Q,
        trace_QAQ=trace_QAQ,
        seed=int(seed),
    )

    messages = []
    hyp_trace_ok = epsilon > 1.0
    hyp_inverse_ok = epsilon <= 2.0
    tail = _trace_tail_estimate(epsilon, basis)
    if hyp_trace_ok:
        messages.append(
            f"trace condition holds in the limit (eps={epsilon} > 1); "
            f"untruncated tail of sum lambda^-eps ~ {tail:.6g}"
        )
    else:
        messages.append(
            f"trace condition fails in the limit (eps={epsilon} <= 1): "
            "truncated trace grows without bound as cutoff -> infinity"
        )
    if hyp_inverse_ok:
        messages.append(f"inverse condition holds (eps={epsilon} <= 2)")
    else:
        messages.append(
            f"inverse condition fails (eps={epsilon} > 2): "
            "D(A^{3/2}) no longer lies in the domain of Q^{-1}"
        )
    if sigma == 0.0:
        messages.append("sigma=0: noise disabled, Q is singular")
    report = AdmissibilityReport(
        hyp_trace_ok=hyp_trace_ok,
        hyp_inverse_ok=hyp_inverse_ok,
        trace_tail_estimate=tail,
        messages=tuple(messages),
    )
    return spec, report


def _trace_tail_estimate(epsilon: float, basis: Basis) -> float:
    """Integral comparison for sum_{|k| > cutoff} lambda_k^{-eps} in 2D.

    The lattice sum is compared with 2*pi*Int_N^inf r^(1-2*eps) dr, which
    is finite exactly when eps > 1.
    """
    if epsilon <= 1.0:
        return float("inf")
    N = basis.cutoff
    prefactor = (2.0 * np.pi / basis.L) ** (-2.0 * epsilon)
    return float(prefactor * 2.0 * np.pi * N ** (2.0 - 2.0 * epsilon) / (2.0 * epsilon - 2.0))


def substream(seed: int, member: int = 0) -> np.random.Generator:
    """Counter-based generator for ensemble member `member` of stream `seed`."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(member,))))
