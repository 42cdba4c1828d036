"""Microseconds per one-step call of a narrow ensemble block.

    python3 tools/step_timing.py [CALLS]

Times `StepKernel.step` and `StepKernel.step_variation` in-process, as a
narrow block (M < integrator._WIDE_MEMBERS) that runs the first variation
calls them: (M, n) states, the injected noise of one step, the result
written into a second state, and the block's step scratch passed to both
(on the pseudo-spectral route it holds the route's workspace).  On that
route a variation step leaves N(u) in the workspace for the step at the
same state, so the `step` column runs on a scratch of its own that never
runs a variation and times the computing path, and the `pair` column
times `step_variation` then `step` on one state and one scratch, as a
block runs them (cutoffs 5, 8 and 12 only).  It covers
the triad route at cutoffs 1-4 with M = 1, 2, 3 and the pseudo-spectral
route at cutoffs 5, 8 and 12 with M = 1, 2, the schemes `semi_implicit_em`
and `exponential_em`, with the nonlinearity on (nu = 1, alpha = 0.5,
sigma = 0.5, eps = 1.5).  Each figure is the best of 3 repeats of CALLS
calls (default 20000; a twentieth of that on the pseudo-spectral route),
in microseconds per call.  Set the BLAS and OpenMP thread variables to 1
for figures comparable with the benchmark's.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lans_alpha.basis import build_basis  # noqa: E402
from lans_alpha.integrator import IntegratorConfig, StepKernel, _step_scratch  # noqa: E402
from lans_alpha.noise import make_noise  # noqa: E402
from lans_alpha.operators import FFT_MIN_CUTOFF, PhysicalParams  # noqa: E402

# (cutoff, member counts): the triad route, then the pseudo-spectral one
CASES = [(c, (1, 2, 3)) for c in (1, 2, 3, 4)] + [(c, (1, 2)) for c in (5, 8, 12)]
FFT_CALLS = 20  # the pseudo-spectral route times CALLS // FFT_CALLS calls
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
    fft_calls = max(1, calls // FFT_CALLS)
    print(
        f"us per call, best of {REPEATS} x {calls} calls, {fft_calls} from cutoff"
        f" {FFT_MIN_CUTOFF} (numpy {np.__version__})"
    )
    print(f"{'scheme':<17} {'cutoff':>6} {'M':>2} {'step':>8} {'variation':>10} {'pair':>8}")
    for scheme in SCHEMES:
        cfg = IntegratorConfig(scheme=scheme, dt=1e-3)
        for cutoff, members in CASES:
            basis = build_basis(2 * np.pi, cutoff)
            spec, _ = make_noise(1.5, 0.5, basis, seed=0)
            kernel = StepKernel(p, cfg, spec)
            n = basis.mode_count
            k = fft_calls if cutoff >= FFT_MIN_CUTOFF else calls
            for M in members:
                c, eta, dW = 0.3 * np.random.default_rng(M).standard_normal((3, M, n))
                zeta = kernel.noise_injected(dW)
                out = np.empty((M, n))
                scratch, fresh = (
                    _step_scratch(kernel, M, wide=False, variation=True) for _ in range(2)
                )
                step = best_us(lambda: kernel.step(c, zeta, out, fresh), k)
                variation = best_us(lambda: kernel.step_variation(c, eta, scratch), k)
                pair = "-"
                if cutoff >= FFT_MIN_CUTOFF:

                    def both():
                        kernel.step_variation(c, eta, scratch)
                        kernel.step(c, zeta, out, scratch)

                    pair = f"{best_us(both, k):.2f}"
                print(f"{scheme:<17} {cutoff:>6} {M:>2} {step:>8.2f} {variation:>10.2f} {pair:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
