import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lans_alpha
from lans_alpha import noise
from lans_alpha import (
    IntegratorConfig,
    PhysicalParams,
    SpectralField,
    StepKernel,
    build_basis,
    make_noise,
    sobolev_norms,
    substream,
)
from conftest import rand_field


class TestMakeNoise:
    def test_trace_example(self, basis1):
        # eps=1, sigma=1, alpha=0: q_j^2 = lambda_j^-2, eigenvalues {1x4, 2x4}
        spec, _ = make_noise(1.0, 1.0, basis1)
        assert spec.trace_Q == pytest.approx(4 * 1.0 + 4 * 0.25, rel=1e-15)

    def test_admissible_window(self, basis1):
        _, rep = make_noise(1.5, 1.0, basis1)
        assert rep.hyp_trace_ok and rep.hyp_inverse_ok
        assert np.isfinite(rep.trace_tail_estimate)

    def test_small_eps_flagged(self, basis1):
        _, rep = make_noise(0.5, 1.0, basis1)
        assert not rep.hyp_trace_ok
        assert rep.trace_tail_estimate == np.inf
        assert any("grows without bound" in m for m in rep.messages)

    def test_large_eps_flagged(self, basis1):
        _, rep = make_noise(2.5, 1.0, basis1)
        assert rep.hyp_trace_ok and not rep.hyp_inverse_ok

    def test_truncated_trace_grows_when_inadmissible(self):
        # with eps <= 1 the energy-injection trace Tr[Q*(I+A)Q] diverges
        # as the cutoff grows
        traces = [
            make_noise(0.5, 1.0, build_basis(2 * np.pi, N))[0].trace_alpha(1.0)
            for N in (2, 4, 8)
        ]
        assert traces[0] < traces[1] < traces[2]
        assert traces[2] / traces[0] > 1.5

    def test_negative_sigma_rejected(self, basis1):
        with pytest.raises(ValueError):
            make_noise(1.5, -0.1, basis1)

    def test_trace_alpha_decomposition(self, basis1):
        spec, _ = make_noise(1.3, 0.7, basis1)
        for alpha in (0.0, 0.5, 2.0):
            direct = float(np.sum(spec.q**2 * (1 + alpha**2 * basis1.eigenvalues)))
            assert spec.trace_alpha(alpha) == pytest.approx(direct, rel=1e-15)
            assert spec.trace_alpha(alpha) == spec.trace_Q + alpha**2 * spec.trace_QAQ


class TestIncrements:
    @staticmethod
    def kernel(spec, dt):
        p = PhysicalParams(nu=1.0, alpha=0.5)
        return StepKernel(p, IntegratorConfig(dt=dt, t_end=dt), spec)

    def test_sigma_zero_injects_nothing(self, basis1):
        spec, _ = make_noise(1.5, 0.0, basis1)
        kern = self.kernel(spec, 0.1)
        assert kern.noise_injected(kern.sqrt_dt * substream(0).standard_normal(8)) is None

    def test_gaussian_moments(self, basis1):
        # the injected noise Q dW of the semi-implicit step has law N(0, q^2 dt)
        spec, _ = make_noise(1.5, 0.8, basis1, seed=5)
        dt = 0.01
        kern = self.kernel(spec, dt)
        dW = np.sqrt(dt) * substream(spec.seed).standard_normal((100_000, basis1.mode_count))
        draws = kern.noise_injected(dW)
        M = draws.shape[0]
        mean_tol = 4.0 * spec.q * np.sqrt(dt / M)
        assert np.all(np.abs(draws.mean(axis=0)) <= mean_tol)
        var = draws.var(axis=0, ddof=1)
        assert np.all(np.abs(var / (spec.q**2 * dt) - 1.0) <= 0.05)

    def test_cross_covariances_vanish(self, basis1):
        spec, _ = make_noise(1.5, 1.0, basis1, seed=9)
        dt = 0.05
        rng = substream(spec.seed)
        draws = rng.standard_normal((100_000, basis1.mode_count)) * spec.q * np.sqrt(dt)
        M = draws.shape[0]
        cov = np.cov(draws, rowvar=False)
        se = np.sqrt(np.outer(np.diag(cov), np.diag(cov)) / M)
        off = ~np.eye(basis1.mode_count, dtype=bool)
        assert np.all(np.abs(cov[off]) <= 4.0 * se[off])

    def test_deterministic_replay(self):
        assert np.array_equal(
            substream(123).standard_normal(8), substream(123).standard_normal(8)
        )
        r1, r2 = substream(123, 4), substream(123, 4)
        seq1 = np.concatenate([r1.standard_normal(8) for _ in range(5)])
        seq2 = np.concatenate([r2.standard_normal(8) for _ in range(5)])
        assert np.array_equal(seq1, seq2)

    def test_substreams_differ(self):
        assert not np.array_equal(
            substream(7, 0).standard_normal(8), substream(7, 1).standard_normal(8)
        )


def reference_substream(seed, member):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(member,))))


def generator_state(g):
    s = g.bit_generator.state
    return (
        s["bit_generator"], s["state"]["counter"].tolist(), s["state"]["key"].tolist(),
        s["buffer"].tolist(), s["buffer_pos"], s["has_uint32"], s["uinteger"],
    )


class TestSubstream:
    # a substream is Generator(Philox(SeedSequence(seed, spawn_key=(member,)))),
    # with the key of a member below 2^32 derived with its block's keys
    MEMBERS = (0, 5, 4095, 4096, 4999, 20000, 2**31, 2**32 - 1, 2**32)

    @pytest.mark.parametrize(
        "seed", [0, 1, 42, 2**32 - 1, 2**32, 2**64 + 5, 2**127 + 3, 2**128 + 9, 2**200 + 1]
    )
    def test_equals_seed_sequence_route(self, seed):
        for member in self.MEMBERS:
            g, ref = substream(seed, member), reference_substream(seed, member)
            derived = isinstance(g.bit_generator.seed_seq, noise._MemberSeed)
            assert derived == (member < 2**32), member
            assert generator_state(g) == generator_state(ref), member
            assert np.array_equal(g.standard_normal(9), ref.standard_normal(9)), member

    @pytest.mark.parametrize("seed, member", [(42, -1), (-1, 0), (-(2**40), 3)])
    def test_negative_raises_as_seed_sequence(self, seed, member):
        with pytest.raises(ValueError) as expected:
            reference_substream(seed, member)
        with pytest.raises(ValueError) as got:
            substream(seed, member)
        assert str(got.value) == str(expected.value) == "expected non-negative integer"

    def test_spawn_gives_seed_sequence_children(self):
        g, ref = substream(42, 3), reference_substream(42, 3)
        for _ in range(2):  # the second call continues the children's count
            children, expected = g.spawn(2), ref.spawn(2)
            assert [generator_state(c) for c in children] == [
                generator_state(c) for c in expected
            ]
        seq = g.bit_generator.seed_seq
        assert np.array_equal(
            seq.generate_state(3), np.random.SeedSequence(42, spawn_key=(3,)).generate_state(3)
        )

    def test_key_mismatch_raises(self, monkeypatch):
        # a numpy whose SeedSequence hash differs must not give other streams
        monkeypatch.setattr(noise, "_MULT_B", noise._MULT_B ^ 2)
        with pytest.raises(RuntimeError, match="SeedSequence"):
            substream(2**90 + 12345, 7)

    def test_key_cache_is_bounded(self):
        keys = noise._block_keys(42, 0)
        assert keys.shape == (noise._KEY_BLOCK, 2) and not keys.flags.writeable
        assert noise._block_keys.cache_info().maxsize * keys.nbytes <= 1 << 20


def test_import_leaves_numpy_random_unloaded():
    # numpy.random loads at the first substream, so importing the package,
    # and any timing of what follows the import, does not include it
    src = str(Path(lans_alpha.__file__).resolve().parents[1])
    code = "import sys, lans_alpha.cli; print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


class TestQMultipliers:
    # Q and Q^{-1} act as * spec.q and / spec.q
    @settings(max_examples=25, deadline=None)
    @given(
        eps=st.floats(min_value=0.2, max_value=3.0, allow_nan=False),
        sigma=st.floats(min_value=0.05, max_value=4.0, allow_nan=False),
    )
    def test_roundtrip(self, eps, sigma):
        basis = build_basis(2 * np.pi, 2)
        spec, _ = make_noise(eps, sigma, basis)
        u = rand_field(basis, np.random.default_rng(0)).coeffs
        back = (spec.q * u) / spec.q
        assert np.abs(back - u).max() < 1e-13 * (1 + np.abs(u).max())

    def test_unit_multiplier_mode(self, basis1):
        spec, _ = make_noise(1.0, 1.0, basis1)
        j = int(np.argmin(basis1.eigenvalues))  # lambda = 1 -> q = 1
        assert spec.q[j] == 1.0

    def test_inverse_norm_bound_saturated_at_top_mode(self, basis2):
        spec, _ = make_noise(1.5, 0.7, basis2)
        bound = basis2.eigenvalues.max() ** ((1 + spec.epsilon) / 2) / spec.sigma

        def q_inv(u):
            return SpectralField(basis2, u.coeffs / spec.q)

        rng = np.random.default_rng(1)
        for _ in range(50):
            u = rand_field(basis2, rng)
            assert sobolev_norms(q_inv(u))[0] <= bound * sobolev_norms(u)[0] * (1 + 1e-12)
        top = SpectralField.unit(basis2, int(np.argmax(basis2.eigenvalues)))
        assert sobolev_norms(q_inv(top))[0] == pytest.approx(bound, rel=1e-12)


class TestBoundedExtension:
    def test_helmholtz_weighted_bound(self, basis2):
        # |Q(I + a^2 A) x|^2 <= Tr[Q*(I+a^2 A)Q] (|x|^2 + a^2 |grad x|^2)
        rng = np.random.default_rng(2)
        spec, _ = make_noise(1.5, 0.9, basis2)
        for alpha in (0.0, 0.5, 1.5):
            trace = spec.trace_alpha(alpha)
            helm = 1 + alpha**2 * basis2.eigenvalues
            for _ in range(334):
                x = rand_field(basis2, rng)
                lhs = float(np.sum((spec.q * helm * x.coeffs) ** 2))
                rhs = trace * float(np.sum(helm * x.coeffs**2))
                assert rhs - lhs >= -1e-12 * rhs
