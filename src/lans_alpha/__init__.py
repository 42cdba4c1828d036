"""Spectral Galerkin simulator and verification harness for the stochastic
alpha-Navier-Stokes (LANS-alpha) equation with additive trace-class noise
on a 2D periodic box."""

from .basis import (
    Basis,
    ConfigError,
    SpectralField,
    build_basis,
    dump_snapshot,
    eval_field,
    inner_product,
    leray_project,
    load_snapshot,
    save_snapshot,
    sobolev_norms,
)
from .integrator import (
    BlowUpError,
    EnsemblePaths,
    EnsembleRun,
    IntegratorConfig,
    StepKernel,
    integrate,
    run_ensemble,
    run_ensembles,
)
from .noise import (
    AdmissibilityReport,
    NoiseSpec,
    SingularOperatorError,
    make_noise,
    substream,
)
from .operators import (
    PhysicalParams,
    alpha_dissipation,
    alpha_energy,
    b_tilde,
    drift,
)
from .oracles import b_form, b_tilde_convolution, b_tilde_matrix

__version__ = "0.1.0"
