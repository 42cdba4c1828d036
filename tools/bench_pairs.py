"""Alternating benchmark runs of two checkouts, each output parsed strictly.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W [--pairs N] [--seed S] [--seconds T]

Runs `python3 benchmarks/run.py --workload W --seed S --seconds T` in
the checkout PARENT and in the checkout CHANGE, N times each (default 5,
seed 42, 40 s), one pair at a time; the second side goes first in every
other pair, so that a drift in the host's speed falls on both.  Each run
has its checkout as working directory and its stderr merged into its
stdout, so a line written after the result, at interpreter exit
included, is seen.  A run passes when it exits 0 and the last line of
that output parses as JSON, with NaN and infinities rejected, and reads
`"correct": true` and `"failed": 0`.  The tool stops at the first run
that does not pass, prints the end of its output and exits 1.

Otherwise it prints each run's end-to-end metrics as it ends, then for
every metric both sides' medians and in how many pairs the change is
better (strictly; the direction is BENCHMARK.json's `better`, and
metrics it does not list have no winner), and exits 0.  It writes no
bytecode into the checkouts; run.py cleans its own `.bench_work`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300.0  # run.py ends within 170 s by its own limit


def _reject(constant: str):
    raise ValueError(f"non-finite constant {constant} in the result line")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """run.py's result in `checkout`, or SystemExit with the end of its output."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}  # no __pycache__ in the checkouts
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=TIMEOUT_S)
    lines = proc.stdout.splitlines()
    problem = None
    try:
        result = json.loads(lines[-1] if lines else "", parse_constant=_reject)
        if proc.returncode != 0:
            problem = f"exit code {proc.returncode}"
        elif not isinstance(result, dict) or result.get("correct") is not True:
            problem = "correct is not true"
        elif result.get("failed") != 0:
            problem = f"failed is {result.get('failed')!r}, not 0"
    except ValueError as error:  # json.JSONDecodeError is a ValueError
        problem = f"last line is not a result: {error}"
    if problem is not None:
        tail = "\n".join(lines[-10:])
        raise SystemExit(f"{checkout}: {problem}; the end of its output:\n{tail}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}

    values: dict[str, list[dict]] = {side: [] for side in sides}
    for pair in range(args.pairs):
        order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
        for side in order:
            got = run_once(sides[side], args.workload, args.seed, args.seconds)
            values[side].append(got)
            shown = "  ".join(f"{name} {got[name]:.6g}" for name in better if name in got)
            print(f"pair {pair + 1} {side}: {shown}", flush=True)

    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs: "
          "median parent, median change, pairs the change wins")
    for name in values["parent"][0]:
        parent = [v[name] for v in values["parent"]]
        change = [v[name] for v in values["change"]]
        wins = "-"
        if name in better:
            sign = 1 if better[name] == "higher" else -1
            wins = f"{sum(sign * (c - p) > 0 for p, c in zip(parent, change))}/{args.pairs}"
        print(f"{name}: {statistics.median(parent):.6g} {statistics.median(change):.6g} {wins}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
