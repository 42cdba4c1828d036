"""Dense-operator sweep: `nonlinear_coeffs` over a grid of (cutoff, M).

Gives the dense route's cost per member at each size, the crossover data
a second nonlinearity backend is chosen by.  Cells whose computed working
set exceeds CAP_MB are skipped and reported as skipped.
"""

from __future__ import annotations

import time

import numpy as np

CUTOFFS = (1, 2, 4, 8, 16)
MEMBERS = (1, 200, 20000)
CAP_MB = 512  # cells whose computed working set exceeds this are skipped
MIN_S = 0.2   # time each cell for at least this long, and at least one call


def working_set_mb(cutoff: int, members: int) -> float:
    """Computed bytes of one nonlinear evaluation: grid tensors plus temporaries.

    The (modes x grid) value and curl tensors take 3 * n * G doubles; the
    batched evaluation holds the grid velocity, the curl, the stacked
    integrand and two products, 7 * M * G doubles.
    """
    n = (2 * cutoff + 1) ** 2 - 1
    G = (4 * cutoff) ** 2
    return 8 * (3 * n * G + 7 * members * G) / 1e6


def cells():
    """(metric name, cutoff, M, skipped) for every cell of the sweep grid."""
    return [
        (f"operators.nonlinear.c{c}_m{m}.us_per_member", c, m, working_set_mb(c, m) > CAP_MB)
        for c in CUTOFFS
        for m in MEMBERS
    ]


def run(seed: int) -> dict:
    """Median time per member of `nonlinear_coeffs` in every cell under the cap."""
    from lans_alpha.basis import build_basis
    from lans_alpha.operators import nonlinear_coeffs

    rng = np.random.default_rng(seed)
    timed, skipped = {}, []
    for name, cutoff, members, skip in cells():
        if skip:
            skipped.append(name)
            continue
        basis = build_basis(2 * np.pi, cutoff)
        basis.grid_mode_values, basis.grid_mode_curls  # built before timing
        c = 0.3 * rng.standard_normal((members, basis.mode_count))
        times = []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < MIN_S:
            t0 = time.perf_counter()
            out = nonlinear_coeffs(basis, c, 0.5)
            times.append(time.perf_counter() - t0)
        if not np.all(np.isfinite(out)):
            raise FloatingPointError(f"{name}: non-finite nonlinearity")
        timed[name] = float(np.median(times)) / members * 1e6
    return {"cells": timed, "skipped": skipped, "cap_mb": CAP_MB}
