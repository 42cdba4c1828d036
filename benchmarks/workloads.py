"""The benchmark's workloads: CLI config text generated from a seed.

Each workload is a list of (subcommand, config text) pairs run in order
through `lans_alpha.cli`.  The "full" variant is the measured run; the
"setup" variant is the same subcommands and config cut to the shortest
horizon they accept, so its wall time is the fixed cost of a run
(config parsing, basis and grid tensors, noise spec, per-member
substreams, kernel set-up, CSV writing).

The seed only enters the config's `seed` key, so every seed runs the same
amount of work on different noise.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 42

WORKLOADS = ("long_path", "wide_ensemble", "fine_grid")
VARIANTS = ("full", "setup")

# cutoff-1 physics of criteria 4 and 9 (configs/base.cfg, configs/invariant.cfg)
_BOX = """\
nu = 1.0
alpha = 0.5
L = 6.283185307179586
cutoff = {cutoff}
epsilon = 1.5
sigma = 0.5
seed = {seed}
"""

# criterion 3 physics (configs/ou-test.cfg)
_OU_BOX = """\
nu = 2.0
alpha = 0.5
L = 1.0
cutoff = 1
epsilon = 1.5
sigma = 0.5
seed = {seed}
"""

# long_path sizes: T_long and t_end are long enough that the cross-start
# 3-sigma check and the 5% OU variance check hold on every seed scanned
_INVARIANT_DT = 0.002
_INVARIANT_RECORD = 5
_INVARIANT_T = {"full": 60.0, "setup": 0.2}      # setup: 21 records, the batch-means minimum
_INVARIANT_BURN = {"full": 5.0, "setup": 0.0}
_OU_DT = 0.005
_OU_T = {"full": 200.0, "setup": 0.02}
_OU_BURN = {"full": 20.0, "setup": 0.0}

_MC_DT = 0.001
_MC_M = 5000
_MC_T = {"full": 0.2, "setup": _MC_DT}

_VAR_CUTOFF = 12
_VAR_DT = 0.001
_VAR_T = {"full": 0.2, "setup": _VAR_DT}


@dataclass(frozen=True)
class Step:
    """One CLI invocation: subcommand, config text and trajectory-steps it runs."""

    subcommand: str
    config: str
    member_steps: int


def _steps(t_end: float, dt: float) -> int:
    return int(round(t_end / dt))


def steps_for(workload: str, seed: int, variant: str = "full") -> list[Step]:
    """The CLI invocations of one run of `workload` at `seed`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    if workload == "long_path":
        T, burn = _INVARIANT_T[variant], _INVARIANT_BURN[variant]
        invariant = _BOX.format(cutoff=1, seed=seed) + (
            f"dt = {_INVARIANT_DT}\nrecord_every = {_INVARIANT_RECORD}\n"
            f"T_long = {T}\nburn_in = {burn}\neps_exp = 0.2\nx0_list = zero, iso 10\n"
        )
        ou = _OU_BOX.format(seed=seed) + (
            f"scheme = exponential_em\ndt = {_OU_DT}\nt_end = {_OU_T[variant]}\n"
            f"record_every = 2\nnonlinearity = off\nburn_in = {_OU_BURN[variant]}\n"
        )
        return [
            Step("invariant", invariant, 2 * _steps(T, _INVARIANT_DT)),
            Step("ou-test", ou, _steps(_OU_T[variant], _OU_DT)),
        ]
    if workload == "wide_ensemble":
        T = _MC_T[variant]
        text = _BOX.format(cutoff=1, seed=seed) + (
            f"dt = {_MC_DT}\nt_end = {T}\nrecord_every = 1\nM = {_MC_M}\nx0 = iso 1\n"
        )
        # mc-energy runs the ensemble at dt and again at dt/2
        return [Step("mc-energy", text, _MC_M * 3 * _steps(T, _MC_DT))]
    T = _VAR_T[variant]
    text = _BOX.format(cutoff=_VAR_CUTOFF, seed=seed) + (
        f"dt = {_VAR_DT}\nt_end = {T}\nx0 = iso 1\ndelta_fd = 1e-5\nh_mode = 0\n"
    )
    # the base trajectory (with its first variation) and the bumped one
    return [Step("variation", text, 2 * _steps(T, _VAR_DT))]
