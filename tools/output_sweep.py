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
  7, with the config text that `benchmarks/workloads.steps_for` gives;
- `mc-energy`, `be` and `convergence` on `configs/base.cfg` and
  `configs/be.cfg` again with `LANS_THREADS=2`, saved as
  `<cfg>-<sub>-threads2`;
- `mc-energy` on `configs/base.cfg` with the three-word seed 2^70, saved
  as `base-mc-energy-bigseed`.

For each run OUTDIR gets `<run>.csv` (when the run writes one),
`<run>.snap` (when it saves a snapshot), `<run>.stdout`, `<run>.stderr`
and `<run>.exit`.  Two checkouts give the same outputs when
`diff -r OUTDIR_A OUTDIR_B` prints nothing.  The tool exits 1 when a
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
    for stem in THREADED_CONFIGS:
        cfg = ROOT / "configs" / f"{stem}.cfg"
        runs.extend((f"{stem}-{sub}-threads2", sub, cfg, 2) for sub in THREADED_SUBCOMMANDS)
    big = scratch / "base-mc-energy-bigseed.cfg"
    big.write_text(f"{(ROOT / 'configs' / 'base.cfg').read_text()}\nseed = {BIG_SEED}\n")
    runs.append(("base-mc-energy-bigseed", "mc-energy", big, 1))
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
            done = subprocess.run(
                cmd, env=_env(threads), cwd=scratch, capture_output=True, text=True
            )
            (out / f"{name}.stdout").write_text(done.stdout)
            (out / f"{name}.stderr").write_text(done.stderr)
            (out / f"{name}.exit").write_text(f"{done.returncode}\n")
            snap = Path(scratch) / f"{name}.snap"
            if snap.exists():
                shutil.copyfile(snap, out / snap.name)
            print(f"{name}: exit {done.returncode}", flush=True)
            twin = name.removesuffix(f"-threads{threads}")
            if threads > 1 and _output(out, name) != _output(out, twin):
                differ.append(name)
    for name in differ:
        print(f"{name}: differs from its serial run", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
