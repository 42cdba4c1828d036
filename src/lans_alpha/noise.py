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
derived from (seed, i), so results do not depend on scheduling.  That
substream is Generator(Philox(SeedSequence(seed, spawn_key=(i,)))), bit
for bit.  Its Philox key is derived with those of its block of
_KEY_BLOCK members in one vectorised pass of SeedSequence's hash: the
seed's share of the hashing is the same for every member, so a
substream costs about a third of one built through SeedSequence.
numpy.random is imported at the first substream, not with this module.
"""

from __future__ import annotations

import functools
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
    is finite exactly when eps > 1; a float64 overflow of it, or the nan of
    an overflowing prefactor times an underflowing power, is a ConfigError.
    """
    if epsilon <= 1.0:
        return float("inf")
    N = basis.cutoff
    with np.errstate(over="ignore", invalid="ignore"):
        prefactor = np.float64(2.0 * np.pi / basis.L) ** (-2.0 * epsilon)
        tail = float(prefactor * 2.0 * np.pi * N ** (2.0 - 2.0 * epsilon) / (2.0 * epsilon - 2.0))
    if not np.isfinite(tail):
        raise ConfigError(f"L={basis.L}, epsilon={epsilon} overflow the trace tail estimate")
    return tail


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx); the
# hash works on 32-bit words, so every product is reduced mod 2^32
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_WORD = 0xFFFFFFFF
_KEY_BLOCK = 4096  # members whose keys are derived together: 64 KiB of keys


def substream(seed: int, member: int = 0) -> np.random.Generator:
    """Counter-based generator for ensemble member `member` of stream `seed`:
    Generator(Philox(SeedSequence(seed, spawn_key=(member,)))), bit for bit.

    A member in [0, 2^32) of an int seed takes its Philox key from its
    block's keys; any other pair (a two-word member, a negative one, a
    non-int) goes through SeedSequence itself, errors included.
    """
    if type(seed) is int and type(member) is int and 0 <= member <= _WORD:
        block, row = divmod(member, _KEY_BLOCK)
        seq = _MemberSeed(seed, member, _block_keys(seed, block)[row])
    else:
        seq = np.random.SeedSequence(seed, spawn_key=(member,))
    return np.random.Generator(np.random.Philox(seq))


class _MemberSeed:
    """The seed sequence of a substream with a derived key.  Philox asks it
    for two uint64 words, its key; any other request, and `spawn`, goes to
    SeedSequence(seed, spawn_key=(member,)), built at its first use, so a
    substream spawns the children SeedSequence would.  `_block_keys`
    registers it as numpy's ISpawnableSeedSequence."""

    __slots__ = ("seed", "member", "key", "_sequence")

    def __init__(self, seed: int, member: int, key: np.ndarray):
        self.seed, self.member, self.key = seed, member, key
        self._sequence = None

    def sequence(self):
        if self._sequence is None:
            self._sequence = np.random.SeedSequence(self.seed, spawn_key=(self.member,))
        return self._sequence

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words == 2 and dtype is np.uint64:
            return self.key
        return self.sequence().generate_state(n_words, dtype)

    def spawn(self, n_children: int) -> list:
        return self.sequence().spawn(n_children)


@functools.lru_cache(maxsize=16)  # at most 16 blocks, 1 MiB of keys
def _block_keys(seed: int, block: int) -> np.ndarray:
    """Read-only (_KEY_BLOCK, 2) Philox keys of members block * _KEY_BLOCK
    onwards: row i is SeedSequence(seed, spawn_key=(member,))
    .generate_state(2, np.uint64) for member block * _KEY_BLOCK + i.

    SeedSequence hashes the seed's 32-bit words, zero-padded to four, into
    a four-word pool, then hashes the member's word into each pool word.
    The seed's part is the same for every member: it leaves
    SeedSequence(seed).pool and the hash constant INIT_A * MULT_A^k after
    k = 16 + 4 (words - 4) hashes.  What is left per member runs here over
    the whole block, followed by generate_state's four output words.  The
    first member's key is checked against SeedSequence, so a numpy whose
    hash differs raises RuntimeError instead of giving other streams.
    """
    from numpy.random import SeedSequence
    from numpy.random.bit_generator import ISpawnableSeedSequence

    ISpawnableSeedSequence.register(_MemberSeed)
    first = block * _KEY_BLOCK
    members = np.arange(first, first + _KEY_BLOCK, dtype=np.uint32)
    words = max(4, -(-seed.bit_length() // 32))
    hash_a = _INIT_A * pow(_MULT_A, 16 + 4 * (words - 4), 1 << 32) & _WORD
    hash_b = _INIT_B
    state = np.empty((_KEY_BLOCK, 4), dtype=np.uint32)
    for i, pooled in enumerate(SeedSequence(seed).pool.tolist()):
        # hashmix(member) and mix it into pool word i
        h = members ^ hash_a
        hash_a = hash_a * _MULT_A & _WORD
        h *= hash_a
        h ^= h >> 16
        w = (_MIX_MULT_L * pooled & _WORD) - _MIX_MULT_R * h
        w ^= w >> 16
        # generate_state's output word i
        w ^= hash_b
        hash_b = hash_b * _MULT_B & _WORD
        w *= hash_b
        w ^= w >> 16
        state[:, i] = w
    keys = state.view("<u8").astype(np.uint64, copy=False)
    expected = SeedSequence(seed, spawn_key=(first,)).generate_state(2, np.uint64)
    if not np.array_equal(keys[0], expected):
        raise RuntimeError(
            f"numpy {np.__version__}: SeedSequence no longer hashes as the substream keys assume"
        )
    keys.setflags(write=False)
    return keys
