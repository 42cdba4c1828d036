"""Self-tests of the benchmark.

    python3 -m pytest -q benchmarks/selftest.py

The first test runs the benchmark end to end on fine_grid (about 40 s);
the rest are quick.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _bench(*args: str) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_emits_every_named_metric_with_its_unit(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result, stdout = _bench("--workload", "fine_grid", "--seed", "42", "--seconds", "0", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name in want:
        assert f"\n{name} = " in stdout
    assert "env nproc = " in stdout and "failed_ratio = 0 " in stdout


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def _spans(*rows):
    return [(sid, name, parent, float(s), float(e)) for sid, name, parent, s, e in rows]


def test_self_time_subtracts_the_union_of_children():
    spans = _spans(
        (0, "cli.run", None, 0, 10),
        (1, "integrator.loop", 0, 1, 4),
        (2, "integrator.loop", 0, 3, 6),      # overlaps its sibling, as a thread would
        (3, "operators.nonlinear", 1, 2, 3),
        (4, "noise.draw", 0, 8, 9),
        (5, "noise.draw", 0, 9.5, 12),        # runs past its parent's end
    )
    own = tracing.self_times(spans)
    assert own == {0: 10 - (5 + 1 + 0.5), 1: 3 - 1, 2: 3, 3: 1, 4: 1, 5: 2.5}
    agg = tracing.by_name(spans)
    assert agg["integrator.loop"] == {"calls": 2, "s": 6.0, "self_s": 5.0}
    assert agg["noise.draw"]["self_s"] == 3.5


def test_layer_self_times_account_for_the_root():
    spans = _spans(
        (0, "bench.run", None, 0, 10),
        (1, "cli.run", 0, 0, 10),
        (2, "integrator.loop", 1, 1, 9),
        (3, "integrator.step", 2, 2, 6),
        (4, "operators.nonlinear", 3, 3, 5),
    )
    m = tracing.layer_metrics(spans, {"integrator.steps": 4.0}, wall_s=10.0)
    assert m["cli.self_s"] == 2 and m["integrator.self_s"] == 6 and m["operators.self_s"] == 2
    assert m["integrator.loop.self_s"] == 4 and m["integrator.us_per_step"] == 1e6
    assert m["trace.accounted_share"] == 1.0


def test_tracer_records_parents_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("operators.reduce", lambda x: x + 1)
    outer = tracer.wrap("integrator.loop", lambda x: inner(x) * 2)
    assert tracer.wrap("bench.run", outer)(1) == 4
    by_id = {sid: (name, parent, s, e) for sid, name, parent, s, e in tracer.spans}
    assert by_id == {
        0: ("bench.run", None, 0.0, 5.0),
        1: ("integrator.loop", 0, 1.0, 4.0),
        2: ("operators.reduce", 1, 2.0, 3.0),
    }


def _namespaces():
    from lans_alpha import basis, cli, diagnostics, integrator

    owners = (basis, cli, diagnostics, integrator, basis.Basis, integrator.StepKernel)
    return {id(o): (o, dict(o.__dict__)) for o in owners}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_restores_every_patched_name(workload, tmp_path):
    from lans_alpha import cli

    before = _namespaces()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    patched = tracer.patched()
    try:
        assert patched and all(owner.__dict__[attr] is not orig for owner, attr, orig in patched)
        steps = workloads.steps_for(workload, workloads.DEFAULT_SEED, "setup")
        for step in steps:
            cfg = cli.parse_config(step.config)
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.run(step.subcommand, cfg, str(tmp_path / "out.csv")) in (0, 1)
    finally:
        tracer.restore()
    for owner, namespace in before.values():
        assert all(owner.__dict__[k] is v for k, v in namespace.items())
    assert all(owner.__dict__[attr] is orig for owner, attr, orig in patched)
    # the counts the traced wrappers keep agree with the workload's own
    assert tracer.counts["integrator.member_steps"] == sum(s.member_steps for s in steps)


def test_check_flags_bad_outputs(tmp_path):
    ref = {"seed": 1, "runs": {"fine_grid": {"full": ["delta,rel_error,eta_norm\n1e-05,6e-10,0.8\n"]}}}

    def outcome(csv_text, code=0, seed=1):
        path = tmp_path / "v.csv"
        path.write_text(csv_text)
        step = {"subcommand": "variation", "csv": str(path), "code": code, "blowup": False, "stderr": ""}
        return run.check({"steps": [step]}, "fine_grid", seed, "full", ref)

    assert outcome("delta,rel_error,eta_norm\n1e-05,6.5e-10,0.8000000001\n") == []
    assert outcome("delta,rel_error,eta_norm\n1e-05,6e-10,0.81\n")
    assert outcome("delta,rel_error,eta_norm\n1e-05,nan,0.8\n", seed=2)
    assert outcome("delta,rel_error,eta_norm\n1e-05,6e-10,0.8\n", code=1)
    assert outcome("delta,rel_error\n1e-05,6e-10\n")
