"""lans-alpha benchmark: the CLI subcommands on three workloads.

    python3 benchmarks/run.py --workload long_path --seed 42 --seconds 40 --trace 0

Run from the root of a checkout.  Every measurement runs in a fresh
process (child.py) with LANS_THREADS unset and one BLAS/OpenMP thread.
`--trace 0` alternates set-up runs and full runs for `--seconds` and
reports the end-to-end metrics; `--trace 1` reports the per-layer
metrics of traced runs, the tracing overhead, the dense-operator sweep
and the LANS_THREADS=2 split.  The last line of standard output is one
JSON object: correct, attempted, failed, metrics.

`--record-reference` reruns every workload at the default seed and
rewrites reference.json, the CSVs later runs at that seed are checked
against.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import sweep  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"
WORK = ROOT / ".bench_work"

# a CSV cell agrees with the reference when |a - b| <= REL_TOL * |b| plus the
# column's absolute tolerance: loose enough for an evaluation route that
# differs by rounding, far tighter than any error bar or bound the CSVs carry
REL_TOL = 1e-6
# variation's rel_error is a finite difference at delta = 1e-5, so rounding
# alone moves it by ~1e-10; its verdict bound is 1e-4
ABS_TOL = {("variation", "rel_error"): 1e-8}

MIN_ROUNDS = 3          # set-up/full pairs per untraced run, however short --seconds is
TIME_LIMIT_S = 170.0    # the whole benchmark process must end well within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "member_steps_per_s": "1/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = dict(tracing.UNITS)
    units["integrator.thread_split.efficiency"] = "ratio"
    units["trace.untraced_wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    for name, _, _, skipped in sweep.cells():
        if not skipped:
            units[name] = "us"
    return units


# -- environment -----------------------------------------------------------------


def child_env(threads: int | None = None) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("LANS_THREADS", None)
    if threads is not None:
        env["LANS_THREADS"] = str(threads)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def environment(seed: int) -> dict[str, str]:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    env = child_env()
    return {
        "nproc": str(os.cpu_count()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "LANS_THREADS": "unset (serial)",
        **{var: env[var] for var in THREAD_VARS},
        "commit": commit,
        "seed": str(seed),
    }


# -- child processes --------------------------------------------------------------


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return self.end - time.monotonic()


def spawn(args: list[str], deadline: Deadline, env: dict[str, str]) -> dict:
    """Run child.py with `args`; its last stdout line, or {"error": ...}."""
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), *args],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline.left()),
        )
    except subprocess.TimeoutExpired:
        return {"error": f"child {args[:3]} timed out"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except ValueError:
            pass
    return {"error": f"child {args[:3]} exited {proc.returncode}: {proc.stderr.strip()[-800:]}"}


def run_child(workload, seed, variant, tag, deadline, threads=None, spans=None) -> dict:
    outdir = WORK / f"{workload}-{seed}-{tag}"
    args = ["run", workload, str(seed), variant, str(outdir)]
    if spans is not None:
        args.append(str(spans))
    return spawn(args, deadline, child_env(threads))


# -- output checks -------------------------------------------------------------


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _read_csv(path: str) -> list[list[str]]:
    with open(path) as fh:
        return [line.split(",") for line in fh.read().splitlines()]


def check(rec: dict, workload: str, seed: int, variant: str, reference: dict | None) -> list[str]:
    """Problems with one workload run; empty when every check holds.

    A full run must exit 0 (the subcommand's own verdict held); a set-up
    run stops at the shortest horizon, where the verdict means nothing, so
    it may also exit 1.  Neither may blow up, and every numeric CSV cell
    must be finite.  At the default seed the CSVs must agree with the
    recorded reference within REL_TOL and ABS_TOL.
    """
    if "error" in rec:
        return [rec["error"]]
    problems = []
    allowed = (0,) if variant == "full" else (0, 1)
    expected = None
    if reference is not None and seed == reference["seed"]:
        expected = reference["runs"][workload][variant]
    for i, step in enumerate(rec["steps"]):
        sub = step["subcommand"]
        if step["blowup"]:
            problems.append(f"{sub}: blow-up: {step['stderr'].strip()}")
        if step["code"] not in allowed:
            problems.append(f"{sub}: exit code {step['code']} {step['stderr'].strip()}")
        try:
            table = _read_csv(step["csv"])
        except OSError as exc:
            problems.append(f"{sub}: no CSV: {exc}")
            continue
        cells = [c for row in table[1:] for c in row]
        if any((v := _number(c)) is not None and not math.isfinite(v) for c in cells):
            problems.append(f"{sub}: non-finite CSV value")
        if expected is not None:
            problems.extend(f"{sub}: {p}" for p in compare(sub, table, expected[i]))
    return problems


def compare(subcommand: str, table: list[list[str]], ref_text: str) -> list[str]:
    ref = [line.split(",") for line in ref_text.splitlines()]
    if [len(r) for r in table] != [len(r) for r in ref] or table[:1] != ref[:1]:
        return ["CSV shape or header differs from the reference"]
    out = []
    for row, ref_row in zip(table[1:], ref[1:]):
        for column, cell, want in zip(ref[0], row, ref_row):
            a, b = _number(cell), _number(want)
            if a is None or b is None:
                ok = cell == want
            else:
                ok = abs(a - b) <= REL_TOL * abs(b) + ABS_TOL.get((subcommand, column), 0.0)
            if not ok:
                out.append(f"{cell} differs from reference {want}")
    return out


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


# -- statistics and output -----------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def print_metric(name: str, values: list[float], unit: str, value: float | None = None) -> None:
    q1, q2, q3 = quartiles(values)
    shown = q2 if value is None else value
    print(f"{name} = {shown:.6g} {unit}  (n={len(values)}, q1={q1:.6g}, median={q2:.6g}, q3={q3:.6g})")


class Tally:
    """Attempted and failed workload runs, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def add(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
        return not problems


def measure_end_to_end(workload: str, seed: int, seconds: float, deadline: Deadline, tally: Tally):
    reference = load_reference()
    start = time.monotonic()
    full, setup = [], []
    rounds, last = 0, 0.0
    # start another round only if it should end within --seconds
    while rounds < MIN_ROUNDS or time.monotonic() - start + last <= seconds:
        round_start = time.monotonic()
        for variant, into in (("setup", setup), ("full", full)):
            rec = run_child(workload, seed, variant, f"{variant}{rounds}", deadline)
            if tally.add(f"{workload}/{variant}#{rounds}", check(rec, workload, seed, variant, reference)):
                into.append(rec)
        rounds += 1
        last = time.monotonic() - round_start
        if deadline.left() < 2 * last:
            break
    if not full or not setup:
        return {}
    wall = [r["wall_s"] for r in full]
    fixed = [r["wall_s"] for r in setup]
    rss = [r["peak_rss_mb"] for r in full]
    work = full[0]["member_steps"] - setup[0]["member_steps"]
    rate = work / (statistics.median(wall) - statistics.median(fixed))
    # per-round rates give the spread; the reported rate uses the medians
    rates = [work / (w - s) for w, s in zip(wall, fixed)]
    print_metric("member_steps_per_s", rates, "1/s", rate)
    print_metric("wall_s", wall, "s")
    print_metric("setup_s", fixed, "s")
    print_metric("peak_rss_mb", rss, "MB")
    return {
        "member_steps_per_s": rate,
        "wall_s": statistics.median(wall),
        "setup_s": statistics.median(fixed),
        "peak_rss_mb": statistics.median(rss),
    }


def measure_layers(workload: str, seed: int, seconds: float, deadline: Deadline, tally: Tally):
    reference = load_reference()
    start = time.monotonic()
    metrics: dict[str, float] = {}

    sweep = spawn(["sweep", str(seed)], deadline, child_env())
    if tally.add("sweep", [sweep["error"]] if "error" in sweep else []):
        metrics.update(sweep["cells"])
        print(f"sweep: skipped above {sweep['cap_mb']} MB computed working set: {', '.join(sweep['skipped'])}")

    # thread split: byte-identical CSV at LANS_THREADS=2, and its efficiency
    split = "wide_ensemble"
    serial = run_child(split, seed, "full", "serial", deadline)
    threaded = run_child(split, seed, "full", "threads2", deadline, threads=2)
    ok_serial = tally.add("thread-split/serial", check(serial, split, seed, "full", reference))
    problems = check(threaded, split, seed, "full", reference)
    if ok_serial and not problems:
        for a, b in zip(serial["steps"], threaded["steps"]):
            if Path(a["csv"]).read_bytes() != Path(b["csv"]).read_bytes():
                problems.append(f"{a['subcommand']}: CSV at LANS_THREADS=2 differs from serial")
    if tally.add("thread-split/threads2", problems) and ok_serial:
        metrics["integrator.thread_split.efficiency"] = serial["wall_s"] / (2 * threaded["wall_s"])
        print("thread split: LANS_THREADS=2 CSV is byte-identical to the serial CSV")

    WORK.mkdir(parents=True, exist_ok=True)
    spans = WORK / f"spans-{workload}.csv"
    traced, plain = [], []
    rounds, last = 0, 0.0
    while rounds < 1 or time.monotonic() - start + last <= seconds:
        round_start = time.monotonic()
        rec = run_child(workload, seed, "full", f"traced{rounds}", deadline, spans=spans)
        problems = check(rec, workload, seed, "full", reference)
        if "error" not in rec and not rec["restored"]:
            problems.append("a traced name was not restored to its original object")
        if tally.add(f"{workload}/traced#{rounds}", problems):
            traced.append(rec)
        rec = run_child(workload, seed, "full", f"untraced{rounds}", deadline)
        if tally.add(f"{workload}/untraced#{rounds}", check(rec, workload, seed, "full", reference)):
            plain.append(rec)
        rounds += 1
        last = time.monotonic() - round_start
        if deadline.left() < 2 * last:
            break
    if traced:
        for key in traced[0]["layers"]:
            metrics[key] = statistics.median(r["layers"][key] for r in traced)
        print(f"spans of the last traced run written to {spans.relative_to(ROOT)}")
    if traced and plain:
        metrics["trace.untraced_wall_s"] = statistics.median(r["wall_s"] for r in plain)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
        shares = {
            layer: metrics[f"{layer}.self_s"] / metrics["trace.wall_s"]
            for layer in tracing.LAYERS
        }
        order = sorted(shares, key=shares.get, reverse=True)
        print("self-time share of traced wall: " + ", ".join(f"{k} {shares[k]:.3f}" for k in order))
    units = per_layer_units()
    for name, unit in units.items():
        if name in metrics:
            print(f"{name} = {metrics[name]:.6g} {unit}")
    return {name: metrics[name] for name in units if name in metrics}


def record_reference(deadline: Deadline) -> int:
    seed = workloads.DEFAULT_SEED
    runs: dict[str, dict[str, list[str]]] = {}
    for workload in workloads.WORKLOADS:
        for variant in workloads.VARIANTS:
            rec = run_child(workload, seed, variant, f"ref-{variant}", deadline)
            problems = check(rec, workload, seed, variant, None)
            if problems:
                print("\n".join(problems), file=sys.stderr)
                return 1
            runs.setdefault(workload, {})[variant] = [
                Path(step["csv"]).read_text() for step in rec["steps"]
            ]
    REFERENCE.write_text(json.dumps({"seed": seed, "runs": runs}, indent=1) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lans_alpha" / "__init__.py").is_file():
        print(f"no lans_alpha sources under {ROOT / 'src'}: run from a full checkout", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference(Deadline(600.0))
    if args.workload is None:
        parser.error("--workload is required")
    deadline = Deadline(TIME_LIMIT_S)

    for key, value in environment(args.seed).items():
        print(f"env {key} = {value}")
    tally = Tally()
    try:
        if args.trace:
            values = measure_layers(args.workload, args.seed, args.seconds, deadline, tally)
            units = per_layer_units()
        else:
            values = measure_end_to_end(args.workload, args.seed, args.seconds, deadline, tally)
            units = END_TO_END_UNITS
    finally:
        for outdir in WORK.glob(f"{args.workload}-{args.seed}-*"):
            shutil.rmtree(outdir, ignore_errors=True)
    for problem in tally.problems:
        print(f"FAILED {problem}")
    print(f"failed_ratio = {tally.failed / max(tally.attempted, 1):.6g} ratio  "
          f"({tally.failed} of {tally.attempted} runs)")
    missing = [name for name in units if name not in values]
    correct = tally.failed == 0 and not missing
    if missing:
        print(f"FAILED no value for {', '.join(missing)}")
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units if name in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
