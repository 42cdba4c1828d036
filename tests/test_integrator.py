import dataclasses
import os
import tracemalloc

import numpy as np
import pytest

from lans_alpha import (
    BlowUpError,
    ConfigError,
    EnsembleRun,
    IntegratorConfig,
    PhysicalParams,
    SpectralField,
    StepKernel,
    alpha_energy,
    integrate,
    make_noise,
    run_ensemble,
    run_ensembles,
    substream,
)
from lans_alpha import diagnostics, integrator
from lans_alpha.basis import Basis, build_basis
from lans_alpha.diagnostics import strong_convergence_study
from lans_alpha.integrator import ensemble_threads
from lans_alpha.operators import alpha_dissipation, triad_table
from conftest import rand_field


def params(nu=1.0, alpha=0.5):
    return PhysicalParams(nu=nu, alpha=alpha)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(scheme="euler")
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(dt=2.0, t_end=1.0)
        with pytest.raises(ValueError):
            IntegratorConfig(record_every=0)
        assert IntegratorConfig(dt=1e-3, t_end=0.0).num_steps() == 0

    def test_rk4_rejects_noise(self, basis1):
        spec, _ = make_noise(1.5, 1.0, basis1)
        cfg = IntegratorConfig(scheme="rk4_deterministic", dt=1e-3, t_end=0.1)
        with pytest.raises(ValueError):
            StepKernel(params(), cfg, spec)

    def test_stochastic_requires_viscosity(self, basis1):
        spec, _ = make_noise(1.5, 1.0, basis1)
        cfg = IntegratorConfig(dt=1e-3, t_end=0.1)
        with pytest.raises(ValueError):
            StepKernel(PhysicalParams(nu=0.0, alpha=0.0), cfg, spec)


class TestStep:
    def test_exponential_exact_linear_decay(self, basis1):
        p = params(nu=2.0)
        spec, _ = make_noise(1.5, 0.0, basis1)
        cfg = IntegratorConfig(
            scheme="exponential_em", dt=0.37, t_end=0.37, nonlinearity=False
        )
        j = 5
        out = StepKernel(p, cfg, spec).step(SpectralField.unit(basis1, j).coeffs, None)
        assert out[j] == np.exp(-p.nu * basis1.eigenvalues[j] * cfg.dt)
        assert np.all(out[np.arange(8) != j] == 0.0)

    def test_exponential_one_step_variance(self, basis1):
        # from u = 0 the one-step law is the exact OU transition
        p = params()
        spec, _ = make_noise(1.5, 1.0, basis1, seed=3)
        dt = 0.05
        cfg = IntegratorConfig(scheme="exponential_em", dt=dt, t_end=dt, nonlinearity=False)
        kern = StepKernel(p, cfg, spec)
        M = 100_000
        dW = np.sqrt(dt) * substream(3).standard_normal((M, basis1.mode_count))
        out = kern.step(np.zeros((M, basis1.mode_count)), kern.noise_injected(dW))
        lam = basis1.eigenvalues
        theo = spec.q**2 * (1 - np.exp(-2 * p.nu * lam * dt)) / (2 * p.nu * lam)
        assert np.all(np.abs(out.var(axis=0, ddof=1) / theo - 1) <= 0.05)

    def test_convolution_std_is_q_sqrt_dt_phi1(self, basis1):
        # a = 2 nu lambda dt from 1e-14 to 10 spans both branches of _phi1:
        # the expm1 quotient is bitwise, the series agrees to rounding
        spec, _ = make_noise(1.5, 1.0, basis1)
        dt = 1e-3
        cfg = IntegratorConfig(scheme="exponential_em", dt=dt, nonlinearity=False)
        lam = basis1.eigenvalues
        for nu in np.logspace(-14, 1, 61) / (2.0 * lam.min() * dt):
            a = 2.0 * nu * lam * dt
            want = spec.q * np.sqrt(dt * (-np.expm1(-a) / a))
            got = StepKernel(params(nu=nu), cfg, spec).conv_std
            exact = a >= 1e-6
            assert got[exact].tobytes() == want[exact].tobytes()
            np.testing.assert_allclose(got[~exact], want[~exact], rtol=1e-15, atol=0)

    def test_rk4_conserves_alpha_energy(self, basis2):
        p = params(nu=0.0)
        spec, _ = make_noise(1.5, 0.0, basis2)
        cfg = IntegratorConfig(scheme="rk4_deterministic", dt=1e-3, t_end=1.0, record_every=100)
        x0 = rand_field(basis2, np.random.default_rng(0), scale=0.5)
        rec = integrate(x0, p, spec, cfg)
        drift_rel = abs(rec.F[0][-1] - rec.F[0][0]) / rec.F[0][0]
        assert drift_rel <= 1e-8

    def test_rk4_conservation_error_is_fourth_order(self, basis2):
        # needs an amplitude where the O(dt^4) defect sits above rounding
        p = params(nu=0.0, alpha=0.3)
        spec, _ = make_noise(1.5, 0.0, basis2)
        x0 = rand_field(basis2, np.random.default_rng(1), scale=3.0)
        errs = []
        for dt in (0.02, 0.01):
            cfg = IntegratorConfig(scheme="rk4_deterministic", dt=dt, t_end=0.2, record_every=1)
            rec = integrate(x0, p, spec, cfg)
            errs.append(abs(rec.F[0][-1] - rec.F[0][0]))
        ratio = errs[0] / errs[1]
        assert 8.0 <= ratio <= 32.0  # nominal 16x per halving

    def test_semi_implicit_unconditionally_damps_linear_part(self, basis2):
        p = params(nu=50.0)
        spec, _ = make_noise(1.5, 0.0, basis2)
        cfg = IntegratorConfig(dt=0.5, t_end=5.0, nonlinearity=False)
        rec = integrate(rand_field(basis2, np.random.default_rng(2)), p, spec, cfg)
        assert rec.F[0][-1] < rec.F[0][0]
        assert np.all(np.isfinite(rec.F[0]))

    def test_stochastic_step_replays_with_same_stream(self, basis1):
        spec, _ = make_noise(1.5, 1.0, basis1, seed=77)
        cfg = IntegratorConfig(dt=1e-3, t_end=1e-3)
        kern = StepKernel(params(), cfg, spec)
        c0 = rand_field(basis1, np.random.default_rng(20)).coeffs

        def step_from(rng):
            dW = kern.sqrt_dt * rng.standard_normal(basis1.mode_count)
            return kern.step(c0, kern.noise_injected(dW))

        a, b = step_from(substream(77)), step_from(substream(77))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c0)


class TestStepVariation:
    def test_zero_stays_zero(self, basis1):
        p = params()
        spec, _ = make_noise(1.5, 0.5, basis1, seed=1)
        cfg = IntegratorConfig(dt=1e-3, t_end=0.05)
        paths = run_ensemble(
            rand_field(basis1, np.random.default_rng(3)).coeffs,
            p, spec, cfg, 1, eta0_coeffs=np.zeros(8),
        )
        assert np.all(paths.eta_final == 0.0)

    def test_linearity(self, basis1):
        p = params()
        cfg = IntegratorConfig(dt=1e-3, t_end=1e-3)
        rng = np.random.default_rng(4)
        u, h = rand_field(basis1, rng).coeffs, rand_field(basis1, rng).coeffs
        kern = StepKernel(p, cfg, make_noise(1.5, 0.0, basis1)[0])
        one = kern.step_variation(u, h)
        scaled = kern.step_variation(u, 3.0 * h)
        assert np.abs(scaled - 3.0 * one).max() < 1e-12 * (1 + np.abs(one).max())

    @pytest.mark.parametrize("scheme", ["semi_implicit_em", "exponential_em"])
    def test_pathwise_finite_difference(self, basis1, scheme):
        # common noise: the variation is the exact derivative of the
        # discrete map, so the FD error is O(delta)
        p = params()
        spec, _ = make_noise(1.5, 0.5, basis1, seed=11)
        cfg = IntegratorConfig(scheme=scheme, dt=1e-3, t_end=0.1)
        x0 = rand_field(basis1, np.random.default_rng(5), scale=0.4)
        h = SpectralField.unit(basis1, 2)
        delta = 1e-5
        base = run_ensemble(x0.coeffs, p, spec, cfg, 1, eta0_coeffs=h.coeffs)
        bumped = run_ensemble(x0.coeffs + delta * h.coeffs, p, spec, cfg, 1)
        fd = (bumped.final_coeffs[0] - base.final_coeffs[0]) / delta
        eta = base.eta_final[0]
        assert np.linalg.norm(fd - eta) / np.linalg.norm(eta) <= 1e-4

    def test_rk4_variation_is_exact_jacobian(self, basis1):
        p = params(nu=0.3)
        spec, _ = make_noise(1.5, 0.0, basis1)
        cfg = IntegratorConfig(scheme="rk4_deterministic", dt=5e-3, t_end=0.2)
        x0 = rand_field(basis1, np.random.default_rng(6), scale=0.5)
        h = SpectralField.unit(basis1, 0)
        delta = 1e-6
        base = run_ensemble(x0.coeffs, p, spec, cfg, 1, eta0_coeffs=h.coeffs)
        bumped = run_ensemble(x0.coeffs + delta * h.coeffs, p, spec, cfg, 1)
        fd = (bumped.final_coeffs[0] - base.final_coeffs[0]) / delta
        assert np.linalg.norm(fd - base.eta_final[0]) / np.linalg.norm(base.eta_final[0]) < 1e-5


class TestIntegrate:
    def test_zero_horizon(self, basis1):
        spec, _ = make_noise(1.5, 0.5, basis1)
        cfg = IntegratorConfig(dt=1e-3, t_end=0.0)
        x0 = rand_field(basis1, np.random.default_rng(7))
        rec = integrate(x0, params(), spec, cfg)
        assert len(rec.times) == 1 and rec.times[0] == 0.0
        assert rec.F[0][0] == pytest.approx(alpha_energy(x0.coeffs, basis1, 0.5))

    def test_start_must_share_the_noise_basis(self, basis1, basis2):
        spec, _ = make_noise(1.5, 0.5, basis1)
        cfg = IntegratorConfig(dt=1e-3, t_end=0.01)
        with pytest.raises(ValueError, match="basis"):
            integrate(rand_field(basis2, np.random.default_rng(7)), params(), spec, cfg)

    def test_deterministic_dissipation(self, basis2):
        spec, _ = make_noise(1.5, 0.0, basis2)
        cfg = IntegratorConfig(dt=1e-3, t_end=1.0, record_every=10)
        rec = integrate(rand_field(basis2, np.random.default_rng(8)), params(), spec, cfg)
        assert np.all(np.diff(rec.F[0]) <= 1e-14)

    def test_bit_identical_replay(self, basis1):
        spec, _ = make_noise(1.5, 0.5, basis1, seed=21)
        cfg = IntegratorConfig(dt=1e-3, t_end=0.2, record_every=7)
        x0 = rand_field(basis1, np.random.default_rng(9))
        r1 = integrate(x0, params(), spec, cfg, store_fields=True)
        r2 = integrate(x0, params(), spec, cfg, store_fields=True)
        assert np.array_equal(r1.F[0], r2.F[0])
        assert np.array_equal(r1.martingale[0], r2.martingale[0])
        assert np.array_equal(r1.snapshots[0], r2.snapshots[0])

    def test_blow_up_reported_with_time(self, basis1):
        p = PhysicalParams(nu=1e-6, alpha=0.0)
        spec, _ = make_noise(1.5, 0.0, basis1)
        cfg = IntegratorConfig(dt=5.0, t_end=500.0, nonlinearity=True)
        huge = SpectralField(basis1, 1e6 * np.ones(8))
        with pytest.raises(BlowUpError) as err:
            integrate(huge, p, spec, cfg)
        assert err.value.time > 0

    @pytest.mark.parametrize("threads", [None, "2"])
    def test_blow_up_names_member(self, basis1, monkeypatch, threads):
        # member 3 (second of two blocks) blows up before member 0 does; a
        # split must report what the serial loop and integrate report
        p = PhysicalParams(nu=1e-6, alpha=0.0)
        spec, _ = make_noise(1.5, 0.0, basis1)
        cfg = IntegratorConfig(dt=5.0, t_end=500.0, nonlinearity=True)
        X0 = np.zeros((4, 8))
        X0[0], X0[3] = 1e3, 1e6
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.delenv("LANS_THREADS", raising=False)
        if threads is not None:
            monkeypatch.setenv("LANS_THREADS", threads)
        with pytest.raises(BlowUpError) as err:
            run_ensemble(X0, p, spec, cfg, 4)
        with pytest.raises(BlowUpError) as single:
            integrate(SpectralField(basis1, X0[3]), p, spec, cfg, member=3)
        assert err.value.member == single.value.member == 3
        assert err.value.time == single.value.time > 0

    def test_record_shapes_and_monotone_times(self, basis1):
        spec, _ = make_noise(1.5, 0.5, basis1, seed=17)
        cfg = IntegratorConfig(dt=1e-3, t_end=0.123, record_every=7)
        rec = integrate(rand_field(basis1, np.random.default_rng(16)), params(), spec, cfg)
        n = len(rec.times)
        assert (
            len(rec.F[0])
            == len(rec.dissipation[0])
            == len(rec.martingale[0])
            == n
        )
        assert np.all(np.diff(rec.times) > 0)
        assert rec.times[-1] == pytest.approx(cfg.num_steps() * cfg.dt)


class TestPathwiseStability:
    def test_same_increments_bit_exact(self, basis1):
        spec, _ = make_noise(1.5, 0.5, basis1, seed=31)
        cfg = IntegratorConfig(dt=1e-3, t_end=0.5)
        x0 = rand_field(basis1, np.random.default_rng(11), scale=0.5)
        a = run_ensemble(x0.coeffs, params(), spec, cfg, 1).final_coeffs
        b = run_ensemble(x0.coeffs, params(), spec, cfg, 1).final_coeffs
        assert np.array_equal(a, b)

    def test_tiny_perturbation_stays_small(self, basis1):
        # Gronwall-type surrogate for pathwise uniqueness
        spec, _ = make_noise(1.5, 0.5, basis1, seed=32)
        cfg = IntegratorConfig(dt=1e-3, t_end=0.5)
        x0 = rand_field(basis1, np.random.default_rng(12), scale=0.5)
        base = run_ensemble(x0.coeffs, params(), spec, cfg, 1).final_coeffs[0]
        shifted = x0.coeffs.copy()
        shifted[0] += 1e-10
        other = run_ensemble(shifted, params(), spec, cfg, 1).final_coeffs[0]
        assert np.linalg.norm(other - base) <= 1e-6


class TestDiscreteItoBalance:
    def residual_rms(self, dt, basis, p, spec, M=100):
        cfg = IntegratorConfig(dt=dt, t_end=0.25, record_every=1)
        x0 = 0.3 * np.ones(basis.mode_count)
        paths = run_ensemble(x0, p, spec, cfg, M)
        F0 = alpha_energy(x0, basis, p.alpha)
        res = (
            paths.F[:, -1]
            + 2 * p.nu * paths.dissipation_integrals()
            - F0
            - spec.trace_alpha(p.alpha) * paths.times[-1]
            - 2 * paths.martingale[:, -1]
        )
        return float(np.sqrt(np.mean(res**2)))

    def test_pathwise_residual_shrinks_with_dt(self, basis1):
        p = params()
        spec, _ = make_noise(1.5, 0.5, basis1, seed=33)
        r1 = self.residual_rms(2e-3, basis1, p, spec)
        r2 = self.residual_rms(5e-4, basis1, p, spec)
        order = np.log(r1 / r2) / np.log(4.0)
        # the squared-increment fluctuations contribute an O(sqrt(dt))
        # component, so the fitted order sits between 1/2 and 1
        assert r2 < r1
        assert 0.3 <= order <= 1.3


class TestStrongConvergence:
    def test_order_near_one(self, basis2):
        p = params()
        spec, _ = make_noise(1.5, 0.5, basis2, seed=42)
        cfg = IntegratorConfig(dt=1e-3, t_end=0.5)
        x0 = rand_field(basis2, np.random.default_rng(13), scale=0.3)
        res = strong_convergence_study(p, spec, cfg, x0, [4e-3, 2e-3, 1e-3, 5e-4], 30)
        assert np.all(np.diff(res.errors) < 0)
        assert 0.7 <= res.order <= 1.3

    @pytest.mark.parametrize("wide", [False, True])
    def test_increments_are_the_block_sums_of_one_fine_path(self, basis1, monkeypatch, wide):
        # every level is handed the one fine path, sqrt(finest) * xi, and steps
        # as on its whole-path block sums of r = 4, 2, 1 fine increments, with
        # chunks of 7 steps and tiles of one member, so that the sums cross
        # chunk and tile boundaries
        monkeypatch.setattr(integrator, "_NOISE_CHUNK", 7)
        monkeypatch.setattr(integrator, "_TILE_BYTES", 1)
        if wide:
            monkeypatch.setattr(integrator, "_WIDE_MEMBERS", 3)
        monkeypatch.delenv("LANS_THREADS", raising=False)
        p = params()
        spec, _ = make_noise(1.5, 0.5, basis1, seed=42)
        dts, M, steps_fine, n = [4e-3, 2e-3, 1e-3], 3, 40, 8
        cfg = IntegratorConfig(dt=1e-3, t_end=0.04)
        x0 = rand_field(basis1, np.random.default_rng(17), scale=0.5)
        seen = []

        def capture(*args, increments, **kwargs):
            paths = run_ensemble(*args, increments=increments, **kwargs)
            seen.append((args[3], increments, paths))
            return paths

        monkeypatch.setattr(diagnostics, "run_ensemble", capture)
        strong_convergence_study(p, spec, cfg, x0, dts, M)
        xi = np.stack([substream(42, i).standard_normal((steps_fine, n)) for i in range(M)])
        dW_fine = np.sqrt(1e-3) * xi
        for (level_cfg, increments, got), r in zip(seen, [4, 2, 1]):
            assert np.array_equal(increments, dW_fine)
            assert level_cfg.num_steps() * r == steps_fine
            coarse = dW_fine.reshape(M, steps_fine // r, r, n).sum(axis=2)
            want = naive_ensemble(basis1, p, spec, level_cfg, x0.coeffs, M, increments=coarse)
            for name, value in want.items():
                if value is not None:
                    assert np.array_equal(getattr(got, name), value), (r, name)

    def test_blow_up_is_raised(self, basis1):
        p = PhysicalParams(nu=1e-6, alpha=0.0)
        spec, _ = make_noise(1.5, 0.5, basis1, seed=42)
        cfg = IntegratorConfig(dt=1.0, t_end=20.0)
        huge = SpectralField(basis1, 1e6 * np.ones(8))
        with pytest.raises(BlowUpError) as err:
            strong_convergence_study(p, spec, cfg, huge, [1.0, 0.5, 0.25], 2)
        assert err.value.member == 0 and err.value.time > 0

    def test_final_time_must_divide_all_resolutions(self, basis2):
        p = params()
        spec, _ = make_noise(1.5, 0.5, basis2, seed=42)
        cfg = IntegratorConfig(dt=1e-3, t_end=0.25)  # 0.25/4e-3 is not integer
        x0 = rand_field(basis2, np.random.default_rng(13), scale=0.3)
        with pytest.raises(ValueError):
            strong_convergence_study(p, spec, cfg, x0, [4e-3, 2e-3, 1e-3, 5e-4], 5)


class TestEnsembleMachinery:
    def test_matches_single_trajectory(self, basis1):
        # member i of the batch reproduces integrate(member=i) bit-exactly
        p = params()
        spec, _ = make_noise(1.5, 0.5, basis1, seed=55)
        cfg = IntegratorConfig(dt=1e-3, t_end=0.05, record_every=1)
        x0 = rand_field(basis1, np.random.default_rng(14), scale=0.5)
        paths = run_ensemble(x0.coeffs, p, spec, cfg, 3, store_fields=True)
        for i in range(3):
            rec = integrate(x0, p, spec, cfg, member=i, store_fields=True)
            assert np.array_equal(paths.F[i], rec.F[0])
            assert np.array_equal(paths.dissipation[i], rec.dissipation[0])
            assert np.array_equal(paths.martingale[i], rec.martingale[0])
            assert np.array_equal(paths.snapshots[i], rec.snapshots[0])

    def test_thread_split_is_bit_identical(self, basis1, monkeypatch):
        p = params()
        spec, _ = make_noise(1.5, 0.5, basis1, seed=56)
        cfg = IntegratorConfig(dt=1e-3, t_end=0.05)
        x0 = rand_field(basis1, np.random.default_rng(15)).coeffs
        # four blocks whatever the machine's core count
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.delenv("LANS_THREADS", raising=False)
        serial = run_ensemble(x0, p, spec, cfg, 8)
        monkeypatch.setenv("LANS_THREADS", "4")
        threaded = run_ensemble(x0, p, spec, cfg, 8)
        assert np.array_equal(serial.final_coeffs, threaded.final_coeffs)
        assert np.array_equal(serial.F, threaded.F)

    def test_thread_split_is_bit_identical_on_pseudo_spectral_route(self, basis8, monkeypatch):
        p = params()
        spec, _ = make_noise(1.5, 0.5, basis8, seed=57)
        cfg = IntegratorConfig(dt=1e-3, t_end=0.01, record_every=2)
        x0 = rand_field(basis8, np.random.default_rng(16), scale=0.3).coeffs
        h = SpectralField.unit(basis8, 0).coeffs
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.delenv("LANS_THREADS", raising=False)
        serial = run_ensemble(x0, p, spec, cfg, 5, eta0_coeffs=h, collect_be=True)
        monkeypatch.setenv("LANS_THREADS", "2")
        threaded = run_ensemble(x0, p, spec, cfg, 5, eta0_coeffs=h, collect_be=True)
        for name in ("final_coeffs", "F", "dissipation", "martingale", "eta_final", "be_accumulator"):
            assert np.array_equal(getattr(serial, name), getattr(threaded, name)), name

    @pytest.mark.parametrize("threads", [None, "2"])
    def test_mismatched_inputs_rejected(self, basis1, monkeypatch, threads):
        spec, _ = make_noise(1.5, 0.5, basis1, seed=58)
        cfg = IntegratorConfig(dt=1e-3, t_end=0.01)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.delenv("LANS_THREADS", raising=False)
        if threads is not None:
            monkeypatch.setenv("LANS_THREADS", threads)
        with pytest.raises(ValueError):
            run_ensemble(np.ones((6, 8)), params(), spec, cfg, 4)
        with pytest.raises(ValueError, match="increments"):
            run_ensemble(np.ones(8), params(), spec, cfg, 4, increments=np.zeros((6, 10, 8)))
        # a fine path must hold a whole number r >= 1 of increments per step
        for fine_steps in (5, 15):
            with pytest.raises(ValueError, match="increments"):
                run_ensemble(
                    np.ones(8), params(), spec, cfg, 4, increments=np.zeros((4, fine_steps, 8))
                )

    def test_threads_capped_at_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setenv("LANS_THREADS", "64")
        assert ensemble_threads() == 3
        monkeypatch.setenv("LANS_THREADS", "2")
        assert ensemble_threads() == 2
        monkeypatch.setenv("LANS_THREADS", "0")
        assert ensemble_threads() == 1
        monkeypatch.delenv("LANS_THREADS")
        assert ensemble_threads() == 1
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
        monkeypatch.setenv("LANS_THREADS", "8")
        assert ensemble_threads() == 1

    @pytest.mark.parametrize("value", ["two", "2.5", ""])
    def test_non_integer_threads_rejected(self, monkeypatch, value):
        monkeypatch.setenv("LANS_THREADS", value)
        with pytest.raises(ConfigError, match="LANS_THREADS"):
            ensemble_threads()


def naive_ensemble(
    basis, p, spec, cfg, x0, M, eta0=None, collect_be=False, increments=None, store_fields=False
):
    """Every step through the plain maps, as the stepping loop once read:
    per-step substream draws scaled by sqrt(dt), noise_injected, step,
    step_variation and the cache-backed energy and dissipation."""
    kernel = StepKernel(p, cfg, spec)
    steps, n = cfg.num_steps(), basis.mode_count
    if increments is None and spec.sigma > 0:
        increments = np.stack(
            [kernel.sqrt_dt * substream(spec.seed, i).standard_normal((steps, n)) for i in range(M)]
        )
    record_at = set(range(0, steps + 1, cfg.record_every)) | {steps}
    C = np.ascontiguousarray(np.broadcast_to(x0, (M, n)))
    Eta = None if eta0 is None else np.tile(eta0, (M, 1))
    E = alpha_energy(C, basis, p.alpha)
    sup_F, mart, be = E.copy(), np.zeros(M), np.zeros(M)
    F, D, marts = [E], [alpha_dissipation(C, basis, p.alpha)], [mart.copy()]
    snaps = [C]
    for m in range(steps):
        dW = None if increments is None else increments[:, m]
        zeta = kernel.noise_injected(dW)
        if zeta is not None:
            mart = mart + np.einsum("j,mj,mj->m", kernel.helm, C, zeta)
        if collect_be:
            be = be + np.einsum("mj,mj->m", Eta / spec.q, dW)
        if Eta is not None:
            Eta = kernel.step_variation(C, Eta)
        C = kernel.step(C, zeta)
        E = alpha_energy(C, basis, p.alpha)
        sup_F = np.maximum(sup_F, E)
        if m + 1 in record_at:
            F.append(E)
            D.append(alpha_dissipation(C, basis, p.alpha))
            marts.append(mart.copy())
            snaps.append(C)
    return {
        "times": np.array([m * cfg.dt for m in sorted(record_at)]),
        "F": np.stack(F, axis=1),
        "dissipation": np.stack(D, axis=1),
        "martingale": np.stack(marts, axis=1),
        "sup_F": sup_F,
        "final_coeffs": C,
        "eta_final": Eta,
        "be_accumulator": be if collect_be else None,
        "snapshots": np.stack(snaps, axis=1) if store_fields else None,
    }


class TestStepPlan:
    """The step plan (scheme and route data bound once, noise scaled per
    chunk, reductions into buffers) against the plain maps, bit for bit,
    with chunks of 7 steps so that runs cross chunk boundaries."""

    @pytest.fixture(autouse=True)
    def short_chunks(self, monkeypatch):
        monkeypatch.setattr(integrator, "_NOISE_CHUNK", 7)
        monkeypatch.delenv("LANS_THREADS", raising=False)

    @staticmethod
    def case(cutoff, scheme, nonlinearity):
        basis = build_basis(2 * np.pi, cutoff)
        sigma = 0.0 if scheme == "rk4_deterministic" else 0.8
        spec, _ = make_noise(1.5, sigma, basis, seed=5)
        cfg = IntegratorConfig(
            scheme=scheme, dt=2e-3, t_end=0.04, record_every=3, nonlinearity=nonlinearity
        )
        rng = np.random.default_rng(cutoff)
        x0, h = rng.standard_normal((2, basis.mode_count))
        return basis, spec, cfg, x0, h

    @pytest.mark.parametrize("cutoff", [1, 5])
    @pytest.mark.parametrize("nonlinearity", [True, False])
    @pytest.mark.parametrize(
        "scheme, run",
        [
            (scheme, run)
            for scheme in ("semi_implicit_em", "exponential_em", "rk4_deterministic")
            for run in ("plain", "variation", "collect_be")
            # Bismut-Elworthy accumulation needs noise, which rk4 does not take
            if not (scheme == "rk4_deterministic" and run == "collect_be")
        ],
    )
    def test_matches_plain_maps(self, cutoff, nonlinearity, scheme, run):
        basis, spec, cfg, x0, h = self.case(cutoff, scheme, nonlinearity)
        eta0 = None if run == "plain" else h
        got = run_ensemble(
            x0, params(), spec, cfg, 3, eta0_coeffs=eta0, collect_be=run == "collect_be"
        )
        want = naive_ensemble(basis, params(), spec, cfg, x0, 3, eta0, run == "collect_be")
        for name, value in want.items():
            if value is None:
                assert getattr(got, name) is None, name
            else:
                assert np.array_equal(getattr(got, name), value), name

    @pytest.mark.parametrize("cutoff", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("M", [1, 2, 3, 257])
    @pytest.mark.parametrize(
        "scheme, run",
        [
            (scheme, run)
            for scheme in ("semi_implicit_em", "exponential_em", "rk4_deterministic")
            for run in ("plain", "variation", "collect_be")
            if not (scheme == "rk4_deterministic" and run == "collect_be")
        ],
    )
    def test_wide_blocks_match_plain_maps(self, monkeypatch, cutoff, M, scheme, run):
        # from 3 members the block steps mode-major through its scratch, and
        # a tile of draws holds a few members, so 257 members span many tiles
        monkeypatch.setattr(integrator, "_WIDE_MEMBERS", 3)
        monkeypatch.setattr(integrator, "_TILE_BYTES", 5000)
        basis, spec, cfg, x0, h = self.case(cutoff, scheme, True)
        eta0 = None if run == "plain" else h
        got = run_ensemble(
            x0, params(), spec, cfg, M, eta0_coeffs=eta0, collect_be=run == "collect_be"
        )
        want = naive_ensemble(basis, params(), spec, cfg, x0, M, eta0, run == "collect_be")
        for name, value in want.items():
            if value is None:
                assert getattr(got, name) is None, name
            else:
                assert getattr(got, name).tobytes() == value.tobytes(), name
                assert getattr(got, name).flags.c_contiguous, name

    @pytest.mark.parametrize("scheme", ["semi_implicit_em", "exponential_em"])
    def test_caller_increments_are_not_written(self, scheme):
        basis, spec, cfg, x0, _ = self.case(1, scheme, True)
        dW = np.sqrt(cfg.dt) * np.random.default_rng(3).standard_normal((3, cfg.num_steps(), 8))
        before = dW.copy()
        got = run_ensemble(x0, params(), spec, cfg, 3, increments=dW)
        assert np.array_equal(dW, before)
        want = naive_ensemble(basis, params(), spec, cfg, x0, 3, increments=before)
        assert np.array_equal(got.final_coeffs, want["final_coeffs"])
        assert np.array_equal(got.martingale, want["martingale"])


class TestSegments:
    """The block steps segments of states and does their bookkeeping in
    whole-array calls; every field must equal the plain maps' step-by-step
    bookkeeping bit for bit, wherever segments, chunks and records fall."""

    @staticmethod
    def segments(monkeypatch, steps, wide, threads):
        # segments of `steps` steps (capped at the chunk) inside 5-step chunks
        monkeypatch.setattr(integrator, "_SEGMENT_BYTES", 0)
        monkeypatch.setattr(integrator, "_SEGMENT_MIN", steps)
        monkeypatch.setattr(integrator, "_NOISE_CHUNK", 5)
        if wide:  # so two threads step two wide blocks of two
            monkeypatch.setattr(integrator, "_WIDE_MEMBERS", 2)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.delenv("LANS_THREADS", raising=False)
        if threads is not None:
            monkeypatch.setenv("LANS_THREADS", threads)

    @pytest.mark.parametrize("threads", [None, "2"])
    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize("seg", [1, 3, 7])
    @pytest.mark.parametrize("run", ["plain", "variation", "collect_be", "increments", "fields"])
    def test_segment_and_chunk_boundaries_match_plain_maps(
        self, monkeypatch, seg, wide, threads, run
    ):
        self.segments(monkeypatch, seg, wide, threads)
        basis = build_basis(2 * np.pi, 1)
        spec, _ = make_noise(1.5, 0.8, basis, seed=6)
        # 22 steps: chunks of 5, 5, 5, 5 and 2; records every 3 steps and the last
        cfg = IntegratorConfig(dt=2e-3, t_end=0.044, record_every=3)
        M, n, steps = 4, basis.mode_count, cfg.num_steps()
        rng = np.random.default_rng(seg)
        x0, h = rng.standard_normal((2, n))
        eta0 = h if run in ("variation", "collect_be") else None
        fine = coarse = None
        if run == "increments":  # two fine increments per step
            fine = np.sqrt(cfg.dt / 2) * rng.standard_normal((M, 2 * steps, n))
            coarse = fine.reshape(M, steps, 2, n).sum(axis=2)
        got = run_ensemble(
            x0, params(), spec, cfg, M, eta0_coeffs=eta0, collect_be=run == "collect_be",
            store_fields=run == "fields", increments=fine,
        )
        want = naive_ensemble(
            basis, params(), spec, cfg, x0, M, eta0, run == "collect_be",
            increments=coarse, store_fields=run == "fields",
        )
        assert set(want) == {f.name for f in dataclasses.fields(got)}
        for name, value in want.items():
            if value is None:
                assert getattr(got, name) is None, name
            else:
                assert np.array_equal(getattr(got, name), value), name

    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize("steps", [0, 1, 2, 7])
    def test_runs_shorter_than_a_segment(self, monkeypatch, wide, steps):
        # the default segment of a few members is hundreds of steps
        if wide:
            monkeypatch.setattr(integrator, "_WIDE_MEMBERS", 3)
        monkeypatch.delenv("LANS_THREADS", raising=False)
        basis = build_basis(2 * np.pi, 1)
        spec, _ = make_noise(1.5, 0.8, basis, seed=8)
        cfg = IntegratorConfig(dt=2e-3, t_end=steps * 2e-3, record_every=3)
        x0 = np.random.default_rng(steps).standard_normal(basis.mode_count)
        assert integrator._segment_len(3, basis.mode_count) > steps
        got = run_ensemble(x0, params(), spec, cfg, 3, store_fields=True)
        want = naive_ensemble(basis, params(), spec, cfg, x0, 3, store_fields=True)
        for name, value in want.items():
            if value is not None:
                assert np.array_equal(getattr(got, name), value), name

    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize("seg", [None, 1, 3, 7])
    def test_blow_up_inside_a_segment(self, monkeypatch, seg, wide):
        # member 3 turns non-finite first, at step 25: inside the one
        # 100-step segment, or at row 0, 0 or 3 of a 1-, 3- or 7-step one
        if seg is not None:
            self.segments(monkeypatch, seg, wide, None)
        elif wide:
            monkeypatch.setattr(integrator, "_WIDE_MEMBERS", 2)
        monkeypatch.delenv("LANS_THREADS", raising=False)
        basis = build_basis(2 * np.pi, 1)
        p = PhysicalParams(nu=1e-6, alpha=0.0)
        spec, _ = make_noise(1.5, 0.0, basis)
        cfg = IntegratorConfig(dt=5.0, t_end=500.0, record_every=1)
        X0 = np.zeros((4, 8))
        X0[0], X0[3] = 1e3, 1e6
        with np.errstate(over="ignore", invalid="ignore"):
            F = naive_ensemble(basis, p, spec, cfg, X0, 4)["F"]
        step = int(np.flatnonzero(~np.isfinite(F).all(axis=0))[0])
        member = int(np.flatnonzero(~np.isfinite(F[:, step]))[0])
        assert (step, member) == (25, 3)
        with pytest.raises(BlowUpError) as err:
            run_ensemble(X0, p, spec, cfg, 4)
        assert (err.value.time, err.value.member) == (step * cfg.dt, member)
        assert err.value.energy == F[member, step - 1]
        assert f"last finite energy {F[member, step - 1]:.6g}" in str(err.value)


class TestGroups:
    """Runs on the same members' substreams step in lockstep on one chunk
    of draws (run_ensembles); each run must equal its solo run_ensemble
    bit for bit, with 7-step chunks so that runs end inside a chunk."""

    @staticmethod
    def setup(monkeypatch, wide, threads):
        monkeypatch.setattr(integrator, "_NOISE_CHUNK", 7)
        if wide:  # so two threads step two wide blocks
            monkeypatch.setattr(integrator, "_WIDE_MEMBERS", 2)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.delenv("LANS_THREADS", raising=False)
        if threads is not None:
            monkeypatch.setenv("LANS_THREADS", threads)

    @staticmethod
    def runs(case, n):
        # 15 steps at dt and 30 at dt / 2: the shorter run ends at row 1 of the third chunk
        cfg = IntegratorConfig(dt=2e-3, t_end=0.03, record_every=3)
        half = dataclasses.replace(cfg, dt=1e-3)
        x0, h = np.random.default_rng(len(case)).standard_normal((2, n))
        delta = 1e-3
        if case == "halving":
            return [EnsembleRun(x0, cfg), EnsembleRun(x0, half)]
        if case == "halving-every-step":
            every = dataclasses.replace(cfg, record_every=1)
            return [EnsembleRun(x0, every), EnsembleRun(x0, dataclasses.replace(every, dt=1e-3))]
        if case == "halving-exponential":
            expo = dataclasses.replace(cfg, scheme="exponential_em")
            return [EnsembleRun(x0, expo), EnsembleRun(x0, dataclasses.replace(expo, dt=1e-3))]
        if case == "variation":
            return [EnsembleRun(x0, cfg, eta0_coeffs=h), EnsembleRun(x0 + delta * h, cfg)]
        if case == "bismut-elworthy":
            return [
                EnsembleRun(x0, half, eta0_coeffs=h, collect_be=True),
                EnsembleRun(x0 + delta * h, half),
                EnsembleRun(x0 - delta * h, half),
            ]
        if case == "fields":
            return [EnsembleRun(x0, cfg, store_fields=True), EnsembleRun(x0, half, store_fields=True)]
        assert case == "zero-steps"
        still = IntegratorConfig(dt=2e-3, t_end=0.0)
        five = dataclasses.replace(cfg, t_end=0.01)
        return [EnsembleRun(x0, still, store_fields=True), EnsembleRun(x0, five)]

    @pytest.mark.parametrize("threads", [None, "2"])
    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize(
        "case",
        ["halving", "halving-every-step", "halving-exponential", "variation",
         "bismut-elworthy", "fields", "zero-steps"],
    )
    def test_each_run_equals_its_solo_run(self, monkeypatch, case, wide, threads):
        self.setup(monkeypatch, wide, threads)
        basis = build_basis(2 * np.pi, 1)
        spec, _ = make_noise(1.5, 0.8, basis, seed=6)
        M = 5
        runs = self.runs(case, basis.mode_count)
        group = run_ensembles(params(), spec, M, runs)
        assert len(group) == len(runs)
        for run, got in zip(runs, group):
            want = run_ensemble(
                run.x0_coeffs, params(), spec, run.cfg, M, eta0_coeffs=run.eta0_coeffs,
                collect_be=run.collect_be, store_fields=run.store_fields,
            )
            for f in dataclasses.fields(want):
                a, b = getattr(got, f.name), getattr(want, f.name)
                if b is None:
                    assert a is None, f.name
                else:
                    assert np.array_equal(a, b), (run.cfg, f.name)

    def test_a_group_draws_each_normal_once(self, monkeypatch):
        # a (dt, dt/2) group builds one generator per member and draws the
        # longer run's rows once; the shorter run reads their first rows
        self.setup(monkeypatch, False, None)
        basis = build_basis(2 * np.pi, 1)
        spec, _ = make_noise(1.5, 0.8, basis, seed=6)
        M, n = 4, basis.mode_count
        counts = {"generators": 0, "normals": 0}

        class Counted:
            def __init__(self, gen):
                self.gen = gen

            def standard_normal(self, *args, out, **kwargs):
                counts["normals"] += out.size
                return self.gen.standard_normal(*args, out=out, **kwargs)

        def counted(seed, member=0):
            counts["generators"] += 1
            return Counted(substream(seed, member))

        monkeypatch.setattr(integrator, "substream", counted)
        runs = self.runs("halving", n)
        run_ensembles(params(), spec, M, runs)
        steps = runs[1].cfg.num_steps()
        assert steps == 2 * runs[0].cfg.num_steps() == 30
        assert counts == {"generators": M, "normals": M * steps * n}

    @pytest.mark.parametrize("threads", [None, "2"])
    @pytest.mark.parametrize("both", [True, False])
    def test_blow_up_is_what_the_calls_in_order_raise(self, monkeypatch, both, threads):
        # the second run blows up first in time (member 3 at step 25); the
        # group raises the first run's error (member 0 at step 50) when it
        # blows up too, and the second's otherwise, as run_ensemble on each
        # run in order does; over two threads each run blows up in one block
        self.setup(monkeypatch, False, threads)
        basis = build_basis(2 * np.pi, 1)
        p = PhysicalParams(nu=1e-6, alpha=0.0)
        spec, _ = make_noise(1.5, 0.0, basis)
        cfg = IntegratorConfig(dt=5.0, t_end=500.0, record_every=1)
        first, second = np.zeros((2, 4, 8))
        if both:
            first[0] = 1e3
        second[3] = 1e6
        with pytest.raises(BlowUpError) as err:
            run_ensemble(second, p, spec, cfg, 4)
        want = err.value
        assert (want.time, want.member) == (25 * cfg.dt, 3)
        if both:
            with pytest.raises(BlowUpError) as err:
                run_ensemble(first, p, spec, cfg, 4)
            assert (err.value.time, err.value.member) == (50 * cfg.dt, 0)
            want = err.value
        else:
            assert np.isfinite(run_ensemble(first, p, spec, cfg, 4).sup_F).all()
        with pytest.raises(BlowUpError) as err:
            run_ensembles(p, spec, 4, [EnsembleRun(first, cfg), EnsembleRun(second, cfg)])
        got = err.value
        assert (got.time, got.member, got.energy) == (want.time, want.member, want.energy)
        assert got.run == (0 if both else 1)
        assert str(got) == str(want)


@pytest.mark.parametrize("cutoff", [1, 5])
def test_thread_split_across_the_wide_threshold(monkeypatch, cutoff):
    # serially the 5 members step as one wide block; over two threads as a
    # narrow block of 2 and a wide block of 3, with the same bytes
    monkeypatch.setattr(integrator, "_WIDE_MEMBERS", 3)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    basis = build_basis(2 * np.pi, cutoff)
    spec, _ = make_noise(1.5, 0.5, basis, seed=21)
    cfg = IntegratorConfig(dt=1e-3, t_end=0.02, record_every=3)
    x0, h = np.random.default_rng(22).standard_normal((2, basis.mode_count))
    monkeypatch.delenv("LANS_THREADS", raising=False)
    serial = run_ensemble(x0, params(), spec, cfg, 5, eta0_coeffs=h, collect_be=True)
    monkeypatch.setenv("LANS_THREADS", "2")
    threaded = run_ensemble(x0, params(), spec, cfg, 5, eta0_coeffs=h, collect_be=True)
    for name in ("F", "dissipation", "martingale", "sup_F", "final_coeffs", "eta_final",
                 "be_accumulator"):
        assert getattr(serial, name).tobytes() == getattr(threaded, name).tobytes(), name


@pytest.mark.parametrize("cutoff", [1, 3, 5])
@pytest.mark.parametrize("wide", [False, True])
@pytest.mark.parametrize("shared", [True, False])
def test_recorded_start_energy_is_alpha_energy(monkeypatch, cutoff, wide, shared):
    # the reports read F(0) from paths.F[:, 0], so on either layout it must
    # be alpha_energy of each member's start, bit for bit
    if wide:
        monkeypatch.setattr(integrator, "_WIDE_MEMBERS", 3)
    monkeypatch.delenv("LANS_THREADS", raising=False)
    basis = build_basis(2 * np.pi, cutoff)
    spec, _ = make_noise(1.5, 0.5, basis, seed=4)
    cfg = IntegratorConfig(dt=1e-3, t_end=2e-3)
    M, p = 5, params()
    rng = np.random.default_rng(cutoff)
    x0 = rng.standard_normal(basis.mode_count)
    if not shared:  # starts of energies 1e-6 to 1e6
        x0 = np.logspace(-3, 3, M)[:, None] * rng.standard_normal((M, basis.mode_count))
    paths = run_ensemble(x0, p, spec, cfg, M)
    for i in range(M):
        start = x0 if shared else x0[i]
        assert paths.F[i, 0].tobytes() == alpha_energy(start, basis, p.alpha).tobytes()


@pytest.mark.parametrize("case", ["steps_bound", "bytes_bound", "collect_be"])
def test_working_memory_is_the_declared_buffers(monkeypatch, case):
    # a wide block allocates its buffers once: the peak of traced memory is
    # the noise chunk, sized by the block's own chunk rule, the (M, R)
    # records, the segment's buffers and the step workspace, plus 10%
    monkeypatch.delenv("LANS_THREADS", raising=False)
    if case == "bytes_bound":  # room for 12 steps of noise beside the segment
        monkeypatch.setattr(integrator, "_NOISE_BYTES", 4 << 20)
    basis = build_basis(2 * np.pi, 1)
    spec, _ = make_noise(1.5, 0.5, basis, seed=11)
    cfg = IntegratorConfig(dt=1e-3, t_end=0.1, record_every=1)
    M, n, steps = 2000, basis.mode_count, cfg.num_steps()
    assert M >= integrator._WIDE_MEMBERS
    x0 = SpectralField.unit(basis, 0).coeffs
    be = dict(eta0_coeffs=x0, collect_be=True) if case == "collect_be" else {}
    run_ensemble(x0, params(), spec, cfg, 2, **be)  # build the cached tables first

    tracemalloc.start()
    try:
        gens = [substream(spec.seed, i) for i in range(M)]
        substreams = tracemalloc.get_traced_memory()[0]
        del gens
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        run_ensemble(x0, params(), spec, cfg, M, **be)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()

    # one chunk of increments in every case
    chunk = integrator._chunk_len(steps, M, n)
    assert chunk == (12 if case == "bytes_bound" else steps)
    seg = min(chunk, integrator._segment_len(M, n))
    noise = chunk * n * M
    records = 3 * M * (steps + 1)
    tile = min(M, integrator._TILE_BYTES // (8 * n * chunk)) * chunk * n
    triads = len(triad_table(basis, params().alpha).k)
    # the segment's states, its injected noise (then its squares),
    # nonlinearity and the returned copy; triad scratch; the segment's
    # energies, martingale and dissipation sums, its max and the running max
    workspace = tile + (2 * seg + 3) * n * M + 2 * triads * M + (3 * seg + 4) * M
    if be:
        # the first variation's state, the narrow triad route's gathers and
        # products (its successor among them) and the BE sums
        workspace += n * M + 3 * triads * M + M
    declared = 8 * (noise + records + workspace) + substreams
    assert peak <= 1.1 * declared, (peak / 1e6, declared / 1e6)


@pytest.mark.parametrize("cutoff", [1, 5])
def test_no_cache_lookup_per_step(monkeypatch, cutoff):
    # the step plan binds every (basis, alpha)-keyed datum at set-up, so the
    # number of Basis hashes and comparisons does not grow with the steps
    basis = build_basis(2 * np.pi, cutoff)
    spec, _ = make_noise(1.5, 0.5, build_basis(2 * np.pi, cutoff), seed=9)
    h = np.random.default_rng(0).standard_normal(basis.mode_count)
    monkeypatch.delenv("LANS_THREADS", raising=False)

    def run(steps):
        cfg = IntegratorConfig(dt=1e-3, t_end=steps * 1e-3, record_every=3)
        run_ensemble(h, params(), spec, cfg, 2, eta0_coeffs=h, collect_be=True)
        run_ensemble(h, params(), spec, cfg, 2)

    run(10)  # build the cached tables first
    calls = {"hash": 0, "eq": 0}
    original_hash, original_eq = Basis.__hash__, Basis.__eq__

    def counted_hash(self):
        calls["hash"] += 1
        return original_hash(self)

    def counted_eq(self, other):
        calls["eq"] += 1
        return original_eq(self, other)

    monkeypatch.setattr(Basis, "__hash__", counted_hash)
    monkeypatch.setattr(Basis, "__eq__", counted_eq)
    counts = []
    for steps in (10, 200):
        calls.update(hash=0, eq=0)
        run(steps)
        counts.append(dict(calls))
    assert counts[0] == counts[1]
