import math

import numpy as np
import pytest

from lans_alpha import diagnostics as dg
from lans_alpha import (
    ConfigError,
    IntegratorConfig,
    PhysicalParams,
    SingularOperatorError,
    SpectralField,
    alpha_energy,
    build_basis,
    make_noise,
)
from lans_alpha.diagnostics import (
    Observable,
    Verdict,
    agreement,
    batch_means,
    bismut_elworthy,
    cross_start_verdicts,
    exp_moment_margin,
    exp_moment_report,
    invariant_stats,
    ito_balance_report,
    ito_balance_verdict,
    moment_report,
    ou_mean_energy,
    ou_stationary_oracle,
    ou_variance_comparison,
)
from conftest import rand_field


def params(nu=1.0, alpha=0.5):
    return PhysicalParams(nu=nu, alpha=alpha)


class TestVerdict:
    def test_value_on_a_bound_is_ok_with_zero_margin(self):
        for v in (Verdict("hi", 1.0, 1.0), Verdict("lo", 0.7, 1.3, 0.7)):
            assert v.ok and v.margin == 0.0
        assert Verdict("in", 1.0, 1.3, 0.7).margin == pytest.approx(0.3)
        below = Verdict("below", 0.6, 1.3, 0.7)
        assert not below.ok and below.margin == pytest.approx(-0.1)
        assert "VIOLATED" in str(below) and "margin -0.1" in str(below)

    def test_nan_fails(self):
        assert not Verdict("nan", math.nan, 1.0).ok
        assert not Verdict("nan", math.nan, 1.3, 0.7).ok
        assert "VIOLATED" in str(Verdict("nan", math.nan, 1.0))

    def test_agreement_is_the_three_sigma_inequality(self):
        rng = np.random.default_rng(0)
        cases = [(1.0, 0.0, 1.0, 0.0), (1.0, 0.0, 1.0 + 1e-15, 0.0), (0.0, 1.0, 3.0, 0.0)]
        cases += [tuple(x) for x in rng.standard_normal((200, 4)) * [1, 0.3, 1, 0.3]]
        for a, ea, b, eb in cases:
            ea, eb = abs(ea), abs(eb)
            expected = abs(a - b) <= 3.0 * float(np.hypot(ea, eb))
            assert agreement("x", a, ea, b, eb).ok == expected
            # the exact-value comparison passes a zero second error
            assert agreement("x", a, ea, b, 0.0).ok == (abs(a - b) <= 3.0 * ea)

    def test_tolerances_are_pinned(self):
        assert dg.N_SIGMA == 3.0
        assert dg.OU_REL_TOL == 0.05
        assert dg.CONVERGENCE_ORDER_RANGE == (0.7, 1.3)
        assert dg.VARIATION_REL_TOL == 1e-4
        assert dg.HALVING_RATIO_RANGE == (1.4, 2.6)


class TestItoBalance:
    def test_deterministic_reduces_to_energy_identity(self, basis1):
        # sigma = 0 with the deterministic integrator: no noise, no trace
        # term, and only the trapezoid error of the dissipation integral
        # remains, which is O(dt^2)
        p = params()
        spec, _ = make_noise(1.5, 0.0, basis1)
        x0 = rand_field(basis1, np.random.default_rng(0), scale=0.5)
        residuals = []
        for dt in (1e-3, 5e-4):
            cfg = IntegratorConfig(scheme="rk4_deterministic", dt=dt, t_end=0.5, record_every=1)
            rep = ito_balance_report(p, spec, cfg, x0, 2)
            assert rep.standard_error == 0.0
            residuals.append(abs(rep.estimate))
        assert residuals[0] < 50 * 1e-6 * (1 + rep.details["F0"])
        assert residuals[0] / residuals[1] == pytest.approx(4.0, rel=0.2)

    def test_linear_case_within_mc_error(self, basis1):
        # nonlinearity suppressed: the identity is the exact OU balance
        p = params()
        spec, _ = make_noise(1.5, 0.5, basis1, seed=5)
        cfg = IntegratorConfig(dt=1e-3, t_end=0.5, record_every=1, nonlinearity=False)
        rep = ito_balance_report(p, spec, cfg, SpectralField.zeros(basis1), 200)
        o_dt_slack = rep.details["trace_alpha"] * cfg.dt
        assert abs(rep.estimate) <= 3 * rep.standard_error + o_dt_slack

    def test_full_system_residual_budget(self, basis1):
        p = params()
        spec, _ = make_noise(1.5, 0.5, basis1, seed=42)
        cfg = IntegratorConfig(dt=1e-3, t_end=0.5, record_every=1)
        x0 = rand_field(basis1, np.random.default_rng(2), scale=0.3)
        r1 = ito_balance_report(p, spec, cfg, x0, 200)
        half = IntegratorConfig(dt=5e-4, t_end=0.5, record_every=1)
        r2 = ito_balance_report(p, spec, half, x0, 200)
        assert ito_balance_verdict(r1, r1, r2).ok


class TestMomentReport:
    def test_deterministic_decay(self, basis1):
        p = params()
        spec, _ = make_noise(1.5, 0.0, basis1)
        cfg = IntegratorConfig(dt=1e-3, t_end=1.0, record_every=50)
        x0 = rand_field(basis1, np.random.default_rng(3))
        rep = moment_report(p, spec, cfg, x0, 1, 2)
        F0 = alpha_energy(x0.coeffs, basis1, p.alpha)
        assert np.all(rep.series <= F0 * (1 + 1e-12))
        assert rep.verdict.ok

    def test_zero_start_is_trace_bounded(self, basis1):
        p = params()
        spec, _ = make_noise(1.5, 0.5, basis1, seed=6)
        cfg = IntegratorConfig(dt=1e-3, t_end=1.0, record_every=50)
        rep = moment_report(p, spec, cfg, SpectralField.zeros(basis1), 1, 400)
        bound = spec.trace_alpha(p.alpha) * rep.times
        assert np.all(rep.series <= bound + 3 * rep.series_standard_error + 1e-12)

    def test_linear_case_matches_ou_mean_energy(self):
        # nonlinearity suppressed, alpha = 0: exact closed form
        basis = build_basis(2 * np.pi, 1)
        p = PhysicalParams(nu=1.0, alpha=0.0)
        spec, _ = make_noise(1.5, 0.5, basis, seed=7)
        cfg = IntegratorConfig(
            scheme="exponential_em", dt=5e-3, t_end=1.0, record_every=20, nonlinearity=False
        )
        rep = moment_report(p, spec, cfg, SpectralField.zeros(basis), 1, 2000)
        exact = ou_mean_energy(spec, p, rep.times)
        dev = np.abs(rep.series - exact)
        assert np.all(dev[1:] <= 3 * rep.series_standard_error[1:])

    def test_k2_finite_and_bounded(self, basis1):
        p = params()
        spec, _ = make_noise(1.5, 0.5, basis1, seed=8)
        cfg = IntegratorConfig(dt=1e-3, t_end=1.0, record_every=50)
        x0 = rand_field(basis1, np.random.default_rng(4), scale=0.5)
        rep = moment_report(p, spec, cfg, x0, 2, 300)
        assert np.all(np.isfinite(rep.series))
        assert np.isfinite(rep.sup_estimate)
        assert rep.verdict.ok

    def test_bad_arguments(self, basis1):
        p = params()
        spec, _ = make_noise(1.5, 0.5, basis1)
        cfg = IntegratorConfig(dt=1e-3, t_end=0.1)
        with pytest.raises(ValueError):
            moment_report(p, spec, cfg, SpectralField.zeros(basis1), 0, 10)
        with pytest.raises(ValueError):
            moment_report(p, spec, cfg, SpectralField.zeros(basis1), 1, 1)


class TestExpMomentReport:
    def test_zero_eps_is_identity(self, basis1):
        p = params()
        spec, _ = make_noise(1.5, 0.5, basis1, seed=9)
        cfg = IntegratorConfig(dt=1e-3, t_end=0.2, record_every=20)
        rep = exp_moment_report(p, spec, cfg, SpectralField.zeros(basis1), 0.0, 10)
        assert np.all(rep.series == 1.0)
        assert np.all(rep.series_standard_error == 0.0)

    def test_deterministic_monotone(self, basis1):
        p = params()
        spec, _ = make_noise(1.5, 0.0, basis1)
        cfg = IntegratorConfig(dt=1e-3, t_end=0.5, record_every=25)
        x0 = rand_field(basis1, np.random.default_rng(5), scale=0.5)
        rep = exp_moment_report(p, spec, cfg, x0, 0.1, 2)
        start = np.exp(0.1 * alpha_energy(x0.coeffs, basis1, p.alpha))
        assert np.all(rep.series <= start * (1 + 1e-12))
        assert np.all(np.diff(rep.series) <= 1e-12)

    def test_admissible_is_bounded(self, basis1):
        p = params()
        spec, _ = make_noise(1.5, 0.5, basis1, seed=10)
        cfg = IntegratorConfig(dt=1e-3, t_end=2.0, record_every=100)
        x0 = rand_field(basis1, np.random.default_rng(6), scale=0.3)
        rep = exp_moment_report(p, spec, cfg, x0, 0.2, 300)
        assert rep.admissibility_margin > 0
        assert rep.verdict.ok
        assert np.isfinite(rep.weighted_dissipation_estimate)

    def test_inadmissible_refused_with_bound_named(self, basis1):
        p = params()
        spec, _ = make_noise(1.5, 0.5, basis1)
        cfg = IntegratorConfig(dt=1e-3, t_end=0.1)
        eps_bad = 2.0 * p.nu * basis1.lambda_min() / spec.trace_alpha(p.alpha)
        with pytest.raises(ValueError, match="2\\*eps\\*Tr"):
            exp_moment_report(p, spec, cfg, SpectralField.zeros(basis1), eps_bad, 10)

    def test_margin_formula(self, basis1):
        p = params()
        spec, _ = make_noise(1.5, 0.5, basis1)
        eps = 0.1
        expected = p.nu - 2 * eps * spec.trace_alpha(p.alpha) / basis1.lambda_min()
        assert exp_moment_margin(p, spec, eps) == pytest.approx(expected, rel=1e-15)


class TestOUOracles:
    def test_stationary_variance_formula(self, basis1):
        p = params(nu=1.0)
        spec, _ = make_noise(1.0, 1.0, basis1)
        var = ou_stationary_oracle(spec, p)
        j = int(np.argmin(basis1.eigenvalues))  # lambda=1, q=1
        assert var[j] == pytest.approx(0.5, rel=1e-15)

    def test_sigma_zero_gives_zeros(self, basis1):
        spec, _ = make_noise(1.5, 0.0, basis1)
        assert np.all(ou_stationary_oracle(spec, params()) == 0.0)

    def test_long_run_variances_match(self):
        basis = build_basis(1.0, 1)
        p = PhysicalParams(nu=2.0, alpha=0.5)
        spec, _ = make_noise(1.5, 0.5, basis, seed=42)
        cfg = IntegratorConfig(
            scheme="exponential_em", dt=0.005, t_end=200.0, record_every=2, nonlinearity=False
        )
        oracle, emp, rel = ou_variance_comparison(p, spec, cfg, burn_in=50.0)
        assert np.all(rel <= 0.05)

    def test_burn_in_validation(self, basis1):
        p = params()
        spec, _ = make_noise(1.5, 0.5, basis1)
        cfg = IntegratorConfig(dt=1e-3, t_end=1.0, nonlinearity=False)
        with pytest.raises(ValueError):
            ou_variance_comparison(p, spec, cfg, burn_in=2.0)


class TestBismutElworthy:
    def setup_ou(self, sigma=2.0, seed=42):
        basis = build_basis(2 * np.pi, 1)
        p = params()
        spec, _ = make_noise(1.5, sigma, basis, seed=seed)
        cfg = IntegratorConfig(dt=1e-3, t_end=1.0, nonlinearity=False)
        return basis, p, spec, cfg

    def test_ou_linear_observable_matches_semigroup(self):
        basis, p, spec, cfg = self.setup_ou()
        x = rand_field(basis, np.random.default_rng(7), scale=0.3)
        j = 0
        h = SpectralField.unit(basis, j)
        t = 0.25
        est = bismut_elworthy(Observable("linear", mode=j), x, h, t, 4000, p, spec, cfg)
        exact = np.exp(-p.nu * basis.eigenvalues[j] * t)
        assert est.exact == pytest.approx(exact, rel=1e-12)
        assert abs(est.value - exact) <= 3 * est.standard_error

    def test_zero_direction_gives_zero(self):
        basis, p, spec, cfg = self.setup_ou()
        x = rand_field(basis, np.random.default_rng(8), scale=0.3)
        h = SpectralField.zeros(basis)
        est = bismut_elworthy(Observable("energy"), x, h, 0.2, 50, p, spec, cfg)
        assert est.value == 0.0 and est.standard_error == 0.0

    def test_linear_in_direction(self):
        basis, p, spec, cfg = self.setup_ou()
        x = rand_field(basis, np.random.default_rng(9), scale=0.3)
        h = SpectralField.unit(basis, 1)
        obs = Observable("linear", mode=1)
        one = bismut_elworthy(obs, x, h, 0.2, 2000, p, spec, cfg)
        # eta is linear in h and the members share noise, so scaling is exact
        three = bismut_elworthy(obs, x, 3.0 * h, 0.2, 2000, p, spec, cfg)
        assert three.value == pytest.approx(3.0 * one.value, rel=1e-12)

    def test_nonlinear_agrees_with_fd(self):
        basis = build_basis(2 * np.pi, 1)
        p = params()
        spec, _ = make_noise(1.5, 0.5, basis, seed=42)
        cfg = IntegratorConfig(dt=1e-3, t_end=1.0, nonlinearity=True)
        x = rand_field(basis, np.random.default_rng(10), scale=0.3)
        h = SpectralField.unit(basis, 0)
        est = bismut_elworthy(
            Observable("energy_clipped", clip=50.0), x, h, 0.2, 4000, p, spec, cfg,
            fd_delta=1e-3,
        )
        assert est.exact is None
        (fd,) = est.verdicts()
        assert fd.ok

    def test_preconditions(self):
        basis, p, spec, cfg = self.setup_ou()
        x = SpectralField.zeros(basis)
        h = SpectralField.unit(basis, 0)
        with pytest.raises(ValueError):
            bismut_elworthy(Observable("energy"), x, h, 0.0, 10, p, spec, cfg)
        spec0, _ = make_noise(1.5, 0.0, basis)
        with pytest.raises(SingularOperatorError):
            bismut_elworthy(Observable("energy"), x, h, 0.1, 10, p, spec0, cfg)


class TestInvariantStats:
    def test_deterministic_collapses_to_zero(self, basis1):
        p = params()
        spec, _ = make_noise(1.5, 0.0, basis1)
        cfg = IntegratorConfig(dt=2e-3, t_end=1.0, record_every=5)
        x0 = rand_field(basis1, np.random.default_rng(11), scale=0.5)
        stats = invariant_stats(p, spec, cfg, [x0], T_long=40.0, burn_in=20.0)
        assert stats[0].average_F < 1e-10
        assert stats[0].average_dissipation < 1e-10

    def test_linear_case_matches_ou_energy(self, basis1):
        p = params()
        spec, _ = make_noise(1.5, 0.5, basis1, seed=12)
        cfg = IntegratorConfig(
            scheme="exponential_em", dt=5e-3, t_end=1.0, record_every=4, nonlinearity=False
        )
        stats = invariant_stats(
            p, spec, cfg, [SpectralField.zeros(basis1)], T_long=400.0, burn_in=50.0
        )
        oracle = float(
            np.sum((1 + p.alpha**2 * basis1.eigenvalues) * ou_stationary_oracle(spec, p))
        )
        assert abs(stats[0].average_F - oracle) / oracle <= 0.05

    def test_two_initial_conditions_agree(self, basis1):
        p = params()
        spec, _ = make_noise(1.5, 0.5, basis1, seed=42)
        cfg = IntegratorConfig(dt=2e-3, t_end=1.0, record_every=5)
        weight = 1 + p.alpha**2 * basis1.eigenvalues
        c = np.full(8, 1.0 / np.sqrt(np.sum(weight)))
        x_hot = SpectralField(basis1, c * np.sqrt(10.0))
        stats = invariant_stats(
            p, spec, cfg, [SpectralField.zeros(basis1), x_hot],
            T_long=150.0, burn_in=30.0, eps_exp=0.2,
        )
        a, b = stats
        assert all(v.ok for v in cross_start_verdicts(stats))
        assert a.margin == pytest.approx(
            p.nu - 0.2 * spec.trace_alpha(p.alpha) / basis1.lambda_min()
        )
        assert exp_moment_margin(p, spec, 0.2) > 0

    def test_burn_in_validation(self, basis1):
        p = params()
        spec, _ = make_noise(1.5, 0.5, basis1)
        cfg = IntegratorConfig(dt=1e-3, t_end=1.0)
        with pytest.raises(ValueError):
            invariant_stats(p, spec, cfg, [SpectralField.zeros(basis1)], 10.0, 20.0)

    def test_horizons_from_one_run(self, basis1):
        # each horizon has the bits of its own run, and the first start of
        # the longest run those of a run of that start alone
        p = params()
        spec, _ = make_noise(1.5, 0.5, basis1, seed=3)
        cfg = IntegratorConfig(dt=2e-3, t_end=1.0, record_every=5)
        starts = [SpectralField.zeros(basis1), rand_field(basis1, np.random.default_rng(4))]
        # 2002 steps to the last horizon: off the record grid, which only the last may be
        short, longer = dg.invariant_stats_at(p, spec, cfg, starts, [2.0, 4.004], 0.5, 0.2)
        assert short == invariant_stats(p, spec, cfg, starts, 2.0, 0.5, 0.2)
        assert longer[:1] == invariant_stats(p, spec, cfg, starts[:1], 4.004, 0.5, 0.2)
        with pytest.raises(ConfigError, match="record_every"):
            dg.invariant_stats_at(p, spec, cfg, starts, [2.004, 4.0], 0.5)


class TestBatchMeans:
    def test_iid_standard_error(self):
        rng = np.random.default_rng(13)
        series = rng.standard_normal(20_000)
        mean, err = batch_means(series)
        assert abs(mean) < 4 * err
        assert err == pytest.approx(1.0 / np.sqrt(20_000), rel=0.5)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            batch_means(np.ones(10))
