"""The benchmark's tracer patches program names by lookup on their owners
(`owner.__dict__[attr]`), so renaming or removing one breaks every traced
benchmark run.  Install the tracer here, then restore it, and check that
every name it needs exists and is put back, and that the stepping path
still calls the patched names, so that traced runs record their spans."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from lans_alpha import (
    IntegratorConfig,
    PhysicalParams,
    build_basis,
    cli,
    diagnostics,
    integrator,
    make_noise,
)

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


def test_stepping_path_calls_the_traced_names(monkeypatch):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    monkeypatch.delenv("LANS_THREADS", raising=False)
    p = PhysicalParams(nu=1.0, alpha=0.5)
    cfg = IntegratorConfig(dt=1e-3, t_end=0.02, record_every=5)
    names = []
    try:
        tracing.install(tracer)
        # cutoff 1 (triad route), stochastic
        spec, _ = make_noise(1.5, 0.5, build_basis(2 * np.pi, 1), seed=4)
        integrator.run_ensemble(np.ones(8), p, spec, cfg, 2)
        names.append({name for _, name, *_ in tracer.spans})
        tracer.spans.clear()
        # cutoff 5 (pseudo-spectral route) with the first variation
        basis = build_basis(2 * np.pi, 5)
        spec, _ = make_noise(1.5, 0.0, basis)
        h = np.ones(basis.mode_count)
        integrator.run_ensemble(h, p, spec, cfg, 2, eta0_coeffs=h)
        names.append({name for _, name, *_ in tracer.spans})
    finally:
        tracer.restore()
    assert {
        "operators.nonlinear", "operators.reduce", "integrator.step", "noise.draw"
    } <= names[0]
    assert {
        "operators.nonlinear", "operators.linearized", "operators.reduce",
        "integrator.step", "integrator.step_variation",
    } <= names[1]
