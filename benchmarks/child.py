"""One benchmark measurement in a fresh process; prints one JSON line.

    python3 benchmarks/child.py run WORKLOAD SEED VARIANT OUTDIR [SPANS_FILE]
    python3 benchmarks/child.py sweep SEED

`run` feeds the workload's config text to `lans_alpha.cli` in this
process and times it from config text to CSV written.  With SPANS_FILE
the run is traced (see tracing.py) and the spans are written there.
`sweep` times the dense nonlinearity over a grid of (cutoff, M) (sweep.py).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import sweep  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _run(workload: str, seed: int, variant: str, outdir: str, spans_file: str | None) -> dict:
    from lans_alpha import cli

    steps = workloads.steps_for(workload, seed, variant)
    tracer = None
    if spans_file:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        originals = tracer.patched()
    os.makedirs(outdir, exist_ok=True)
    results = []

    def run_steps():
        for i, step in enumerate(steps):
            out = os.path.join(outdir, f"{i}-{step.subcommand}.csv")
            err = io.StringIO()
            # the CLI names are looked up on the module at call time, so
            # traced wrappers are used when they are installed
            cfg = cli.parse_config(step.config)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.run(step.subcommand, cfg, out)
            results.append(
                {
                    "subcommand": step.subcommand,
                    "csv": out,
                    "code": code,
                    "blowup": "blow-up detected" in err.getvalue(),
                    "stderr": err.getvalue()[-500:],
                }
            )

    measured = tracer.wrap("bench.run", run_steps) if tracer else run_steps
    try:
        t0 = time.perf_counter()
        measured()
        wall = time.perf_counter() - t0
    finally:
        if tracer:
            tracer.restore()
    rec = {
        "wall_s": wall,
        "member_steps": sum(s.member_steps for s in steps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "steps": results,
    }
    if tracer:
        rec["restored"] = all(owner.__dict__[attr] is orig for owner, attr, orig in originals)
        rec["layers"] = tracing.layer_metrics(tracer.spans, tracer.counts, wall)
        rec["span_count"] = len(tracer.spans)
        tracing.write_spans(tracer.spans, spans_file)
    return rec


def main(argv: list[str]) -> int:
    if argv[0] == "run":
        workload, seed, variant, outdir = argv[1], int(argv[2]), argv[3], argv[4]
        spans_file = argv[5] if len(argv) > 5 else None
        rec = _run(workload, seed, variant, outdir, spans_file)
    elif argv[0] == "sweep":
        rec = sweep.run(int(argv[1]))
    else:
        raise SystemExit(f"unknown mode {argv[0]!r}")
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
