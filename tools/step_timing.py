"""Microseconds per one-step call of a narrow ensemble block.

    python3 tools/step_timing.py [CALLS]

Times `StepKernel.step` and `StepKernel.step_variation` in-process, as a
narrow block (M < integrator._WIDE_MEMBERS) calls them: (M, n) states,
the injected noise of one step, the result written into a second state
and the block's step scratch.  It covers cutoffs 1-4, M = 1, 2, 3 and the
schemes `semi_implicit_em` and `exponential_em`, with the nonlinearity on
(nu = 1, alpha = 0.5, sigma = 0.5, eps = 1.5).  Each figure is the best of
3 repeats of CALLS calls (default 20000), in microseconds per call.  Set
the BLAS and OpenMP thread variables to 1 for figures comparable with the
benchmark's.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lans_alpha.basis import build_basis  # noqa: E402
from lans_alpha.integrator import IntegratorConfig, StepKernel, StepScratch  # noqa: E402
from lans_alpha.noise import make_noise  # noqa: E402
from lans_alpha.operators import PhysicalParams  # noqa: E402

CUTOFFS = (1, 2, 3, 4)
MEMBERS = (1, 2, 3)
SCHEMES = ("semi_implicit_em", "exponential_em")
REPEATS = 3


def best_us(call, calls: int) -> float:
    """Best of REPEATS loops of `calls` calls, in microseconds per call."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(calls):
            call()
        best = min(best, time.perf_counter() - start)
    return best / calls * 1e6


def main(argv: list[str]) -> int:
    calls = int(argv[0]) if argv else 20000
    p = PhysicalParams(nu=1.0, alpha=0.5)
    print(f"us per call, best of {REPEATS} x {calls} calls (numpy {np.__version__})")
    print(f"{'scheme':<17} {'cutoff':>6} {'M':>2} {'step':>8} {'variation':>10}")
    for scheme in SCHEMES:
        cfg = IntegratorConfig(scheme=scheme, dt=1e-3)
        for cutoff in CUTOFFS:
            basis = build_basis(2 * np.pi, cutoff)
            spec, _ = make_noise(1.5, 0.5, basis, seed=0)
            kernel = StepKernel(p, cfg, spec)
            n = basis.mode_count
            for M in MEMBERS:
                c, eta, dW = 0.3 * np.random.default_rng(M).standard_normal((3, M, n))
                zeta = kernel.noise_injected(dW)
                out = np.empty((M, n))
                scratch = StepScratch(np.empty((M, n)), None)
                step = best_us(lambda: kernel.step(c, zeta, out, scratch), calls)
                variation = best_us(lambda: kernel.step_variation(c, eta), calls)
                print(f"{scheme:<17} {cutoff:>6} {M:>2} {step:>8.2f} {variation:>10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
