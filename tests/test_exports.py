import importlib
import inspect

import pytest

MODULES = [
    "lans_alpha",
    "lans_alpha.basis",
    "lans_alpha.cli",
    "lans_alpha.diagnostics",
    "lans_alpha.integrator",
    "lans_alpha.noise",
    "lans_alpha.operators",
    "lans_alpha.oracles",
]

# field-level wrappers whose batched kernels are the public surface, and
# the wavevector type that Basis.wavevectors replaces
REMOVED = {
    "step",
    "step_variation",
    "sample_increment",
    "q_apply",
    "apply_stokes",
    "helmholtz",
    "linearized_drift",
    "WaveVector",
}


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(name)
    public = getattr(module, "__all__", None)
    if public is None:  # the package: what it imports from its modules
        public = [
            n for n, obj in vars(module).items()
            if not n.startswith("_") and not inspect.ismodule(obj)
        ]
    assert [n for n in public if not hasattr(module, n)] == []
    assert [n for n in REMOVED if hasattr(module, n)] == []
