"""The benchmark's tracer patches program names by lookup on their owners
(`owner.__dict__[attr]`), so renaming or removing one breaks every traced
benchmark run.  Install the tracer here, then restore it, and check that
every name it needs exists and is put back."""

import importlib.util
import sys
from pathlib import Path

from lans_alpha import cli, diagnostics, integrator

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"

# names the benchmark's traced step and loop counts rely on
REQUIRED = [
    (integrator, "_run_ensemble_block"),
    (integrator, "substream"),
    (integrator, "alpha_energy"),
    (integrator, "nonlinear_coeffs"),
    (integrator, "linearized_nonlinear_coeffs"),
    (integrator, "alpha_dissipation"),
    (diagnostics, "substream"),
    (diagnostics, "run_ensemble"),
    (diagnostics, "integrate"),
    (cli, "integrate"),
    (cli, "run_ensemble"),
    (integrator.StepKernel, "step"),
    (integrator.StepKernel, "step_variation"),
]


def load_tracing():
    # load without writing bytecode next to the benchmark's sources
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    writes = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


def test_install_patches_every_hook_and_restore_puts_it_back():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        saved = tracer.patched()
    finally:
        tracer.restore()
    patched = {(owner, attr) for owner, attr, _ in saved}
    for owner, attr in REQUIRED:
        assert (owner, attr) in patched, f"{attr} is not traced"
    for owner, attr, original in saved:
        assert owner.__dict__[attr] is original, f"{attr} was not restored"
