"""Acceptance suite: one test per criterion, each printing a pass/fail line
followed by its verdicts, with their margins.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Criteria 3-7 and 9 assert on the verdicts `lans_alpha.diagnostics`
returns, against the bounds the CLI also uses; criteria 1-2 pin their
operator tolerances here.  Seeds are fixed so every run is deterministic.
The stated runtime budgets are printed alongside each verdict (they hold
with large margin on commodity hardware but are not asserted, to keep the
suite machine-independent).
"""

import time

import numpy as np
import pytest

from lans_alpha import (
    IntegratorConfig,
    PhysicalParams,
    SpectralField,
    b_form,
    b_tilde,
    b_tilde_convolution,
    b_tilde_matrix,
    build_basis,
    inner_product,
    integrate,
    make_noise,
    sobolev_norms,
)
from lans_alpha.cli import parse_config, run
from lans_alpha.diagnostics import (
    Observable,
    Verdict,
    agreement,
    bismut_elworthy,
    cross_start_verdicts,
    exp_moment_report,
    first_variation_check,
    invariant_stats,
    ito_balance_report,
    ito_balance_verdict,
    ito_halving_verdict,
    moment_report,
    ou_variance_comparison,
    ou_verdict,
    strong_convergence_study,
)
from lans_alpha.operators import helmholtz_factor, nonlinear_coeffs


def _verdict(name: str, budget: str, t0: float, verdicts: list[Verdict]):
    ok = all(v.ok for v in verdicts)
    print(f"[{'PASS' if ok else 'FAIL'}] {name} (elapsed {time.time() - t0:.1f}s, budget {budget})")
    for v in verdicts:
        print(f"    {v}")
    assert ok, "; ".join(str(v) for v in verdicts if not v.ok)


def vnorm(u):
    return sobolev_norms(u)[1]


def test_criterion_1_operator_identity_suite():
    t0 = time.time()
    basis = build_basis(2 * np.pi, 2)
    rng = np.random.default_rng(42)
    f = helmholtz_factor(basis, 0.5)
    worst_self = worst_anti = worst_pair = 0.0
    worst_matrix = worst_conv = worst_triad = 0.0
    for trial in range(1000):
        u = SpectralField(basis, rng.standard_normal(24))
        v = SpectralField(basis, rng.standard_normal(24))
        w = SpectralField(basis, rng.standard_normal(24))
        bt_uv = b_tilde(u, v)
        scale3 = vnorm(u) * vnorm(v) * vnorm(w)
        worst_self = max(worst_self, abs(inner_product(bt_uv, u)) / (vnorm(u) ** 2 * vnorm(v)))
        anti = inner_product(bt_uv, w) + inner_product(b_tilde(w, v), u)
        worst_anti = max(worst_anti, abs(anti) / scale3)
        pair = inner_product(bt_uv, v) + b_form(v, v, u)
        worst_pair = max(worst_pair, abs(pair) / (vnorm(u) * vnorm(v) ** 2))
        ref = np.abs(bt_uv.coeffs).max() + 1.0
        worst_matrix = max(
            worst_matrix, np.abs(bt_uv.coeffs - b_tilde_matrix(u, v).coeffs).max() / ref
        )
        if trial < 100:
            worst_conv = max(
                worst_conv, np.abs(bt_uv.coeffs - b_tilde_convolution(u, v).coeffs).max() / ref
            )
            # the triad route N(u) = -(I+a^2 A)^{-1} Bt(u, (I+a^2 A)u) the package steps with
            N = nonlinear_coeffs(basis, u.coeffs, 0.5)
            fu = SpectralField(basis, f * u.coeffs)
            for route in (b_tilde_matrix, b_tilde_convolution):
                want = -route(u, fu).coeffs / f
                worst_triad = max(worst_triad, np.abs(N - want).max() / (np.abs(want).max() + 1.0))
    _verdict("criterion 1 (operator identities)", "30 s", t0, [
        Verdict("self-orthogonality", worst_self, 1e-10),
        Verdict("antisymmetry", worst_anti, 1e-10),
        Verdict("pair identity", worst_pair, 1e-10),
        Verdict("gradient-matrix route", worst_matrix, 1e-11),
        Verdict("convolution oracle", worst_conv, 1e-11),
        Verdict("triad route", worst_triad, 1e-11),
    ])


def test_criterion_2_energy_conservation():
    t0 = time.time()
    basis = build_basis(2 * np.pi, 2)
    p = PhysicalParams(nu=0.0, alpha=0.5, L=2 * np.pi)
    spec, _ = make_noise(1.5, 0.0, basis, seed=42)
    cfg = IntegratorConfig(scheme="rk4_deterministic", dt=1e-3, t_end=1.0, record_every=50)
    x0 = SpectralField(basis, 0.5 * np.random.default_rng(42).standard_normal(24))
    rec = integrate(x0, p, spec, cfg, store_fields=True)
    drift_rel = abs(rec.F[0][-1] - rec.F[0][0]) / rec.F[0][0]

    helm = 1.0 + p.alpha**2 * basis.eigenvalues
    worst_orth = 0.0
    for c in rec.snapshots[0]:
        N = nonlinear_coeffs(basis, c, p.alpha)
        val = abs(float(N @ (helm * c)))
        scale = np.linalg.norm(N) * np.linalg.norm(helm * c) + 1e-300
        worst_orth = max(worst_orth, val / scale)
    _verdict("criterion 2 (energy conservation)", "1 min", t0, [
        Verdict("relative F drift", drift_rel, 1e-8),
        Verdict("drift orthogonality", worst_orth, 1e-11),
    ])


def test_criterion_3_ou_oracle():
    t0 = time.time()
    basis = build_basis(1.0, 1)
    p = PhysicalParams(nu=2.0, alpha=0.5, L=1.0)
    spec, _ = make_noise(1.5, 0.5, basis, seed=42)
    cfg = IntegratorConfig(
        scheme="exponential_em", dt=0.005, t_end=200.0, record_every=2, nonlinearity=False
    )
    _, _, rel = ou_variance_comparison(p, spec, cfg, burn_in=50.0)
    _verdict("criterion 3 (OU stationary oracle)", "2 min", t0, [ou_verdict(rel)])


def test_criterion_4_ito_energy_balance():
    t0 = time.time()
    basis = build_basis(2 * np.pi, 1)
    p = PhysicalParams(nu=1.0, alpha=0.5, L=2 * np.pi)
    spec, _ = make_noise(1.5, 0.5, basis, seed=42)
    x0 = SpectralField(basis, 0.3 * np.random.default_rng(2).standard_normal(8))
    cfg = IntegratorConfig(dt=1e-3, t_end=0.5, record_every=1)
    cfg_half = IntegratorConfig(dt=5e-4, t_end=0.5, record_every=1)

    rep = ito_balance_report(p, spec, cfg, x0, 200)

    # the deterministic O(dt) coefficient needs a tighter Monte-Carlo
    # error than M=200 provides, so the halving pair runs larger
    big_1 = ito_balance_report(p, spec, cfg, x0, 20_000)
    big_2 = ito_balance_report(p, spec, cfg_half, x0, 20_000)
    _verdict("criterion 4 (Ito energy balance)", "5 min", t0, [
        ito_balance_verdict(rep, big_1, big_2),
        ito_halving_verdict(big_1, big_2),
    ])


def test_criterion_5_strong_convergence_order():
    t0 = time.time()
    basis = build_basis(2 * np.pi, 2)
    p = PhysicalParams(nu=1.0, alpha=0.5, L=2 * np.pi)
    spec, _ = make_noise(1.5, 0.5, basis, seed=42)
    cfg = IntegratorConfig(dt=1e-3, t_end=0.5)
    x0 = SpectralField(basis, 0.3 * np.random.default_rng(4).standard_normal(24))
    res = strong_convergence_study(p, spec, cfg, x0, [4e-3, 2e-3, 1e-3, 5e-4], 50)
    print(f"strong errors {res.errors}")
    _verdict("criterion 5 (strong convergence order)", "5 min", t0, [res.verdict])


def test_criterion_6_first_variation():
    t0 = time.time()
    basis = build_basis(2 * np.pi, 1)
    p = PhysicalParams(nu=1.0, alpha=0.5, L=2 * np.pi)
    spec, _ = make_noise(1.5, 0.5, basis, seed=11)
    cfg = IntegratorConfig(dt=1e-3, t_end=0.1)
    x0 = SpectralField(basis, 0.4 * np.random.default_rng(5).standard_normal(8))
    h = SpectralField.unit(basis, 2)
    verdict, _ = first_variation_check(p, spec, cfg, x0, h, 1e-5)
    _verdict("criterion 6 (first variation)", "1 min", t0, [verdict])


def test_criterion_7_bismut_elworthy():
    t0 = time.time()
    basis = build_basis(2 * np.pi, 1)
    p = PhysicalParams(nu=1.0, alpha=0.5, L=2 * np.pi)

    # OU regime: large sigma, nonlinearity suppressed, linear observable
    spec_ou, _ = make_noise(1.5, 2.0, basis, seed=42)
    cfg_ou = IntegratorConfig(dt=1e-3, t_end=1.0, nonlinearity=False)
    x = SpectralField(basis, 0.3 * np.random.default_rng(3).standard_normal(8))
    h = SpectralField.unit(basis, 0)
    est_ou = bismut_elworthy(Observable("linear", mode=0), x, h, 0.25, 10_000, p, spec_ou, cfg_ou)
    assert est_ou.exact is not None

    # full nonlinear system against the common-random-number FD oracle
    spec_nl, _ = make_noise(1.5, 0.5, basis, seed=42)
    cfg_nl = IntegratorConfig(dt=1e-3, t_end=1.0, nonlinearity=True)
    est_nl = bismut_elworthy(
        Observable("energy_clipped", clip=50.0), x, h, 0.2, 10_000, p, spec_nl, cfg_nl,
        fd_delta=1e-3,
    )
    _verdict("criterion 7 (Bismut-Elworthy)", "5 min", t0, est_ou.verdicts() + est_nl.verdicts())


def test_criterion_8_moment_structure():
    t0 = time.time()
    basis = build_basis(2 * np.pi, 1)
    p = PhysicalParams(nu=1.0, alpha=0.5, L=2 * np.pi)
    spec, _ = make_noise(1.5, 0.5, basis, seed=42)
    cfg = IntegratorConfig(dt=1e-3, t_end=2.0, record_every=50)
    x0 = SpectralField(basis, 0.5 * np.random.default_rng(5).standard_normal(8))

    eps_bad = 2.0 * p.nu * basis.lambda_min() / spec.trace_alpha(p.alpha)
    with pytest.raises(ValueError, match=r"2\*eps\*Tr.*lambda_1"):
        exp_moment_report(p, spec, cfg, x0, eps_bad, 10)
    verdicts = [moment_report(p, spec, cfg, x0, k, 300).verdict for k in (1, 2)]
    verdicts.append(exp_moment_report(p, spec, cfg, x0, 0.2, 300).verdict)
    _verdict("criterion 8 (moment structure; inadmissible eps_exp refused)", "5 min", t0, verdicts)


def test_criterion_9_invariant_measure_mixing():
    t0 = time.time()
    basis = build_basis(2 * np.pi, 1)
    p = PhysicalParams(nu=1.0, alpha=0.5, L=2 * np.pi)
    spec, _ = make_noise(1.5, 0.5, basis, seed=42)
    cfg = IntegratorConfig(dt=2e-3, t_end=1.0, record_every=5)
    weight = 1.0 + p.alpha**2 * basis.eigenvalues
    c = np.full(8, 1.0 / np.sqrt(np.sum(weight)))
    x_cold = SpectralField.zeros(basis)
    x_hot = SpectralField(basis, c * np.sqrt(10.0))

    stats = invariant_stats(
        p, spec, cfg, [x_cold, x_hot], T_long=500.0, burn_in=50.0, eps_exp=0.2
    )
    cold = stats[0]
    (doubled,) = invariant_stats(p, spec, cfg, [x_cold], T_long=1000.0, burn_in=50.0, eps_exp=0.2)
    doubling = agreement(
        "avg_exp_weighted_D(T_long) - avg_exp_weighted_D(2 T_long)",
        cold.average_exp_weighted_dissipation, cold.error_exp_weighted_dissipation,
        doubled.average_exp_weighted_dissipation, doubled.error_exp_weighted_dissipation,
    )
    _verdict(
        "criterion 9 (invariant-measure mixing)", "10 min", t0,
        cross_start_verdicts(stats) + [doubling],
    )


def test_criterion_10_determinism(tmp_path):
    t0 = time.time()
    base = (
        "nu = 1.0\nalpha = 0.5\nL = 6.283185307179586\ncutoff = 1\n"
        "epsilon = 1.5\nsigma = 0.5\nseed = 42\nt_end = 0.1\nM = 20\nx0 = iso 1.0\n"
    )
    cfg = parse_config(base)
    differing = 0
    for sub in ("validate", "simulate", "mc-energy", "variation"):
        a, b = tmp_path / f"{sub}-a.csv", tmp_path / f"{sub}-b.csv"
        assert run(sub, cfg, str(a)) == 0
        assert run(sub, cfg, str(b)) == 0
        differing += a.read_bytes() != b.read_bytes()
    _verdict("criterion 10 (determinism)", "trivial", t0, [
        Verdict("validate/simulate/mc-energy/variation CSV pairs differing", differing, 0),
    ])
