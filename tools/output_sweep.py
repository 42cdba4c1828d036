"""Record every output of the command line, for a byte-identity check.

    python3 tools/output_sweep.py OUTDIR

Runs, each in a fresh `python3 -m lans_alpha.cli` process that imports
this checkout's `src`, with `LANS_THREADS` unset and the BLAS and OpenMP
thread variables set to 1:

- every subcommand on every `configs/*.cfg`;
- one more `simulate` on every `configs/*.cfg` that saves its final
  snapshot (`snapshot_out` relative to the run's working directory, so
  the printed path is the same in every checkout);
- every step of each benchmark workload's `full` variant at seeds 42 and
  7, with the config text that `benchmarks/workloads.steps_for` gives,
  and the wide_ensemble and fine_grid steps at seed 42 again with
  `LANS_THREADS=2` (THREADED_WORKLOADS), saved as `<run>-threads2`;
- `mc-energy`, `be` and `convergence` on `configs/base.cfg` and
  `configs/be.cfg` again with `LANS_THREADS=2`, saved as
  `<cfg>-<sub>-threads2`;
- `mc-energy` on `configs/base.cfg` with the three-word seed 2^70, saved
  as `base-mc-energy-bigseed`;
- every subcommand on `configs/base.cfg` with `cutoff = 6` and short
  horizons appended (FFT_KEYS), where the nonlinearity takes the
  pseudo-spectral route, saved as `base-c6-<sub>`, and its `mc-energy` and
  `be` again with `LANS_THREADS=2`;
- `variation` and `be`, the runs that carry the first variation, on that
  config with `scheme = exponential_em` too (EXP_KEYS), saved as
  `base-c6-exp-<sub>`;
- `mc-energy` and `be` on `configs/base.cfg` with `cutoff = 5` and
  `M = 512` appended (WIDE_KEYS), one wide block on the pseudo-spectral
  route, saved as `base-c5-wide-<sub>`, and again with `LANS_THREADS=2`,
  which splits it into two narrow blocks.

For each run OUTDIR gets `<run>.csv` (when the run writes one),
`<run>.snap` (when it saves a snapshot), `<run>.stdout`, `<run>.stderr`
and `<run>.exit`.  Two checkouts give the same outputs when
`diff -r OUTDIR_A OUTDIR_B` prints nothing.  The progress line of each run
gives its exit code and its own peak RSS (the child's `ru_maxrss` from
`os.wait4`), which OUTDIR does not hold.  The tool exits 1 when a
`-threads2` run differs from its serial twin in CSV, stdout or exit code,
and 0 otherwise.  The runs go one at a time; the config runs take about
a minute on two cores.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import workloads  # noqa: E402
from lans_alpha.cli import _HANDLERS  # noqa: E402

SEEDS = (42, 7)
THREADED_CONFIGS = ("base", "be")
THREADED_SUBCOMMANDS = ("mc-energy", "be", "convergence")
BIG_SEED = 2**70  # a seed of more than one 32-bit word
# appended to configs/base.cfg: a cutoff on the pseudo-spectral route and
# horizons of a few dozen steps (invariant needs 20 batch-means samples)
FFT_KEYS = "cutoff = 6\nt_end = 0.02\nt = 0.02\nT_long = 0.3\nburn_in = 0.01\n"
FFT_THREADED = ("mc-energy", "be")
EXP_KEYS = "scheme = exponential_em\n"  # the other scheme whose first variation calls DN
EXP_SUBCOMMANDS = ("variation", "be")
THREADED_WORKLOADS = ("wide_ensemble", "fine_grid")  # their seed-42 steps get thread twins
WIDE_KEYS = "cutoff = 5\nM = 512\nt_end = 0.02\nt = 0.02\n"  # M >= integrator._WIDE_MEMBERS
WIDE_SUBCOMMANDS = ("mc-energy", "be")


def _env(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("LANS_THREADS", None)
    if threads > 1:
        env["LANS_THREADS"] = str(threads)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _runs(scratch: Path) -> list[tuple[str, str, Path, int]]:
    """(run name, subcommand, config path, LANS_THREADS) of every run, in order."""
    runs = []
    for cfg in sorted((ROOT / "configs").glob("*.cfg")):
        runs.extend((f"{cfg.stem}-{sub}", sub, cfg, 1) for sub in _HANDLERS)
        name = f"{cfg.stem}-simulate-snapshot"
        snap_cfg = scratch / f"{name}.cfg"
        snap_cfg.write_text(f"{cfg.read_text()}\nsnapshot_out = {name}.snap\n")
        runs.append((name, "simulate", snap_cfg, 1))
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for i, step in enumerate(workloads.steps_for(workload, seed)):
                name = f"{workload}-seed{seed}-{i}-{step.subcommand}"
                cfg = scratch / f"{name}.cfg"
                cfg.write_text(step.config)
                runs.append((name, step.subcommand, cfg, 1))
                if workload in THREADED_WORKLOADS and seed == SEEDS[0]:
                    runs.append((f"{name}-threads2", step.subcommand, cfg, 2))
    for stem in THREADED_CONFIGS:
        cfg = ROOT / "configs" / f"{stem}.cfg"
        runs.extend((f"{stem}-{sub}-threads2", sub, cfg, 2) for sub in THREADED_SUBCOMMANDS)
    base = (ROOT / "configs" / "base.cfg").read_text()
    big = scratch / "base-mc-energy-bigseed.cfg"
    big.write_text(f"{base}\nseed = {BIG_SEED}\n")
    runs.append(("base-mc-energy-bigseed", "mc-energy", big, 1))
    fft = scratch / "base-c6.cfg"
    fft.write_text(f"{base}\n{FFT_KEYS}")
    runs.extend((f"base-c6-{sub}", sub, fft, 1) for sub in _HANDLERS)
    runs.extend((f"base-c6-{sub}-threads2", sub, fft, 2) for sub in FFT_THREADED)
    exp = scratch / "base-c6-exp.cfg"
    exp.write_text(f"{base}\n{FFT_KEYS}{EXP_KEYS}")
    runs.extend((f"base-c6-exp-{sub}", sub, exp, 1) for sub in EXP_SUBCOMMANDS)
    wide = scratch / "base-c5-wide.cfg"
    wide.write_text(f"{base}\n{WIDE_KEYS}")
    for sub in WIDE_SUBCOMMANDS:
        runs.append((f"base-c5-wide-{sub}", sub, wide, 1))
        runs.append((f"base-c5-wide-{sub}-threads2", sub, wide, 2))
    return runs


def _output(out: Path, name: str) -> list[bytes | None]:
    # what a thread split must not change: the CSV, stdout and exit code
    paths = (out / f"{name}.{ext}" for ext in ("csv", "stdout", "exit"))
    return [p.read_bytes() if p.exists() else None for p in paths]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    differ = []
    with tempfile.TemporaryDirectory() as scratch:
        for name, sub, cfg, threads in _runs(Path(scratch)):
            cmd = [sys.executable, "-m", "lans_alpha.cli", sub, "--config", str(cfg),
                   "--out", str(out / f"{name}.csv")]
            with open(out / f"{name}.stdout", "wb") as so, open(out / f"{name}.stderr", "wb") as se:
                child = subprocess.Popen(cmd, env=_env(threads), cwd=scratch, stdout=so, stderr=se)
                # wait4 gives this child's own rusage, where RUSAGE_CHILDREN
                # would give the running max over every child so far; the
                # returncode tells Popen the child is already reaped
                _, status, usage = os.wait4(child.pid, 0)
            child.returncode = code = os.waitstatus_to_exitcode(status)
            (out / f"{name}.exit").write_text(f"{code}\n")
            snap = Path(scratch) / f"{name}.snap"
            if snap.exists():
                shutil.copyfile(snap, out / snap.name)
            print(f"{name}: exit {code}, peak RSS {usage.ru_maxrss / 1024:.1f} MB", flush=True)
            twin = name.removesuffix(f"-threads{threads}")
            if threads > 1 and _output(out, name) != _output(out, twin):
                differ.append(name)
    for name in differ:
        print(f"{name}: differs from its serial run", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
