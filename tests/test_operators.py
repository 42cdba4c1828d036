import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lans_alpha import (
    IntegratorConfig,
    PhysicalParams,
    SpectralField,
    alpha_energy,
    b_form,
    b_tilde,
    b_tilde_convolution,
    b_tilde_matrix,
    build_basis,
    drift,
    inner_product,
    make_noise,
    run_ensemble,
    sobolev_norms,
    StepKernel,
)
import lans_alpha
from lans_alpha import operators, oracles
from lans_alpha.operators import (
    FFT_MIN_CUTOFF,
    b_tilde_fft,
    fft_work,
    helmholtz_factor,
    linearized_nonlinear_coeffs,
    nonlinear_coeffs,
    nonlinear_route,
    triad_table,
)
from lans_alpha.oracles import b_tilde_dense
from conftest import rand_field, vnorm


def assert_members_independent_of_batch(basis, alpha=0.5):
    # member i is bit-identical for any batch size and any two-block split
    rng = np.random.default_rng(29)
    C, E = rng.standard_normal((2, 7, basis.mode_count))
    N7 = nonlinear_coeffs(basis, C, alpha)
    L7 = linearized_nonlinear_coeffs(basis, C, E, alpha)
    for i in range(7):
        assert np.array_equal(nonlinear_coeffs(basis, C[i], alpha), N7[i])
        assert np.array_equal(linearized_nonlinear_coeffs(basis, C[i], E[i], alpha), L7[i])
    for M in (2, 3):
        assert np.array_equal(nonlinear_coeffs(basis, C[:M], alpha), N7[:M])
        assert np.array_equal(linearized_nonlinear_coeffs(basis, C[:M], E[:M], alpha), L7[:M])
    for split in range(1, 7):
        parts = [slice(0, split), slice(split, 7)]
        assert np.array_equal(
            np.concatenate([nonlinear_coeffs(basis, C[s], alpha) for s in parts]), N7
        )
        assert np.array_equal(
            np.concatenate([linearized_nonlinear_coeffs(basis, C[s], E[s], alpha) for s in parts]),
            L7,
        )


class TestStokesAndHelmholtz:
    # A and I + a^2 A act as * basis.eigenvalues and * helmholtz_factor
    def test_eigenrelation(self, basis1):
        j = int(np.argmax(basis1.eigenvalues))  # lambda = 2
        assert basis1.eigenvalues[j] == 2.0

    def test_zero_field(self, basis1):
        # no mean mode: A u = 0 only for u = 0
        assert np.all(basis1.eigenvalues > 0.0)

    def test_norm_matches_sobolev(self, basis2):
        u = rand_field(basis2, np.random.default_rng(0))
        au = SpectralField(basis2, basis2.eigenvalues * u.coeffs)
        assert sobolev_norms(au)[0] == pytest.approx(sobolev_norms(u)[2], rel=1e-14)

    def test_helmholtz_alpha_zero_identity(self, basis2):
        u = rand_field(basis2, np.random.default_rng(1)).coeffs
        factor = helmholtz_factor(basis2, 0.0)
        assert np.array_equal(u * factor, u)
        assert np.array_equal(u / factor, u)

    @settings(max_examples=25, deadline=None)
    @given(alpha=st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
    def test_solve_inverts_apply(self, alpha):
        basis = build_basis(2 * np.pi, 2)
        u = rand_field(basis, np.random.default_rng(2)).coeffs
        factor = helmholtz_factor(basis, alpha)
        back = (u * factor) / factor
        assert np.abs(back - u).max() < 1e-15 * (1 + np.abs(u).max())

    def test_helmholtz_apply_mode(self, basis1):
        j = int(np.argmin(basis1.eigenvalues))  # lambda = 1
        assert helmholtz_factor(basis1, 1.0)[j] == 2.0


class TestBForm:
    def test_skew_in_last_two_arguments(self, basis2):
        rng = np.random.default_rng(3)
        for _ in range(20):
            u, v, w = (rand_field(basis2, rng) for _ in range(3))
            scale = vnorm(u) * vnorm(v) * vnorm(w) + 1e-30
            assert abs(b_form(u, v, v)) < 1e-11 * vnorm(u) * vnorm(v) ** 2
            assert abs(b_form(u, v, w) + b_form(u, w, v)) < 1e-11 * scale

    def test_single_shear_mode_self_advection(self, basis2):
        # polarization is orthogonal to k, so (u.grad)u vanishes pointwise
        u = SpectralField.unit(basis2, 7, 2.5)
        for j in range(basis2.mode_count):
            assert abs(b_form(u, u, SpectralField.unit(basis2, j))) < 1e-14

    def test_basis_mismatch(self, basis1, basis2):
        with pytest.raises(ValueError):
            b_form(
                SpectralField.zeros(basis1),
                SpectralField.zeros(basis2),
                SpectralField.zeros(basis2),
            )


class TestBTilde:
    def test_no_work_on_first_argument(self, basis2):
        rng = np.random.default_rng(4)
        for _ in range(20):
            u, v = rand_field(basis2, rng), rand_field(basis2, rng)
            val = inner_product(b_tilde(u, v), u)
            assert abs(val) < 1e-11 * vnorm(u) ** 2 * vnorm(v)

    def test_reduces_to_navier_stokes_form(self, basis2):
        rng = np.random.default_rng(5)
        u, w = rand_field(basis2, rng), rand_field(basis2, rng)
        lhs = inner_product(b_tilde(u, u), w)
        rhs = b_form(u, u, w)
        assert abs(lhs - rhs) < 1e-10 * vnorm(u) ** 2 * vnorm(w)

    def test_defining_identity(self, basis2):
        # <Bt(u,v),w> = b(u,v,w) - b(w,v,u) pins the sign convention
        rng = np.random.default_rng(6)
        for _ in range(10):
            u, v, w = (rand_field(basis2, rng) for _ in range(3))
            lhs = inner_product(b_tilde(u, v), w)
            rhs = b_form(u, v, w) - b_form(w, v, u)
            assert abs(lhs - rhs) < 1e-11 * vnorm(u) * vnorm(v) * vnorm(w)

    def test_antisymmetry(self, basis2):
        rng = np.random.default_rng(7)
        for _ in range(20):
            u, v, w = (rand_field(basis2, rng) for _ in range(3))
            lhs = inner_product(b_tilde(u, v), w)
            rhs = -inner_product(b_tilde(w, v), u)
            assert abs(lhs - rhs) < 1e-11 * vnorm(u) * vnorm(v) * vnorm(w)

    def test_pairing_with_second_argument(self, basis2):
        rng = np.random.default_rng(8)
        for _ in range(20):
            u, v = rand_field(basis2, rng), rand_field(basis2, rng)
            lhs = inner_product(b_tilde(u, v), v)
            rhs = -b_form(v, v, u)
            assert abs(lhs - rhs) < 1e-11 * vnorm(u) * vnorm(v) ** 2

    def test_matrix_route_agrees(self, basis2):
        rng = np.random.default_rng(9)
        for _ in range(20):
            u, v = rand_field(basis2, rng), rand_field(basis2, rng)
            a = b_tilde(u, v).coeffs
            b = b_tilde_matrix(u, v).coeffs
            assert np.abs(a - b).max() < 1e-11 * (1 + np.abs(a).max())

    @pytest.mark.parametrize("cutoff", [1, 2, 8])
    def test_convolution_oracle_agrees(self, cutoff):
        basis = build_basis(2 * np.pi, cutoff)
        rng = np.random.default_rng(10 + cutoff)
        for _ in range(10):
            u, v = rand_field(basis, rng), rand_field(basis, rng)
            a = b_tilde(u, v).coeffs
            c = b_tilde_convolution(u, v).coeffs
            assert np.abs(a - c).max() < 1e-12 * (1 + np.abs(a).max())

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.floats(min_value=-3, max_value=3, allow_nan=False),
        b=st.floats(min_value=-3, max_value=3, allow_nan=False),
    )
    def test_bilinearity(self, a, b):
        basis = build_basis(2 * np.pi, 2)
        rng = np.random.default_rng(11)
        u1, u2, v = (rand_field(basis, rng) for _ in range(3))
        left = b_tilde(a * u1 + b * u2, v).coeffs
        right = a * b_tilde(u1, v).coeffs + b * b_tilde(u2, v).coeffs
        assert np.abs(left - right).max() < 1e-12 * (1 + np.abs(right).max())

    def test_continuity_ratio_bounded(self, basis2):
        # |<Bt(u,v),w>| <= c |u|^1/2 |u|_V^1/2 |v|_V |w|_V with an unspecified
        # constant: check scale invariance of the ratio and that its empirical
        # tail over many triples shows no growth (boundedness, not a fixed c).
        rng = np.random.default_rng(12)
        ratios = []
        for _ in range(10_000):
            u, v, w = (rand_field(basis2, rng) for _ in range(3))
            val = abs(inner_product(b_tilde(u, v), w))
            l2u = sobolev_norms(u)[0]
            denom = np.sqrt(l2u) * np.sqrt(vnorm(u)) * vnorm(v) * vnorm(w)
            ratios.append(val / denom)
        ratios = np.array(ratios)
        assert np.all(np.isfinite(ratios))
        assert ratios.max() <= 5.0 * np.quantile(ratios, 0.99)
        # degree-(3/2, 1, 1) homogeneity: the ratio is scale invariant
        u, v, w = (rand_field(basis2, rng) for _ in range(3))

        def ratio(uu, vv, ww):
            val = abs(inner_product(b_tilde(uu, vv), ww))
            return val / (
                np.sqrt(sobolev_norms(uu)[0]) * np.sqrt(vnorm(uu)) * vnorm(vv) * vnorm(ww)
            )

        r1 = ratio(u, v, w)
        r2 = ratio(3.7 * u, 0.2 * v, 11.0 * w)
        assert r2 == pytest.approx(r1, rel=1e-10)


class TestDrift:
    def params(self, nu=1.0, alpha=0.5):
        return PhysicalParams(nu=nu, alpha=alpha)

    def test_zero_field(self, basis2):
        out = drift(SpectralField.zeros(basis2), self.params())
        assert np.all(out.coeffs == 0.0)

    def test_nonlinearity_does_no_alpha_energy_work(self, basis2):
        rng = np.random.default_rng(13)
        p = self.params()
        for _ in range(20):
            u = rand_field(basis2, rng)
            N = drift(u, p).coeffs + p.nu * basis2.eigenvalues * u.coeffs
            helm_u = (1 + p.alpha**2 * basis2.eigenvalues) * u.coeffs
            val = float(N @ helm_u)
            scale = np.linalg.norm(N) * np.linalg.norm(helm_u) + 1e-30
            assert abs(val) < 1e-11 * scale

    def test_alpha_zero_is_navier_stokes(self, basis2):
        # independent route: coefficient j of P(u.grad u) is b(u, u, e_j)
        rng = np.random.default_rng(14)
        p = self.params(alpha=0.0)
        u = rand_field(basis2, rng)
        d = drift(u, p).coeffs
        for j in range(basis2.mode_count):
            expected = -p.nu * basis2.eigenvalues[j] * u.coeffs[j] - b_form(
                u, u, SpectralField.unit(basis2, j)
            )
            assert d[j] == pytest.approx(expected, abs=1e-10 * (1 + abs(expected)))


def linearized_fd_error(basis, rng, delta, alpha=0.5):
    # linearized_nonlinear_coeffs against a central difference of
    # nonlinear_coeffs; the map is quadratic, so the O(delta^2) remainder
    # vanishes and only rounding is left
    u, h = rand_field(basis, rng).coeffs, rand_field(basis, rng).coeffs
    fd = (
        nonlinear_coeffs(basis, u + delta * h, alpha) - nonlinear_coeffs(basis, u - delta * h, alpha)
    ) / (2 * delta)
    lin = linearized_nonlinear_coeffs(basis, u, h, alpha)
    return np.abs(fd - lin).max() / (1 + np.abs(lin).max())


class TestLinearizedDrift:
    def test_zero_direction(self, basis2):
        u = rand_field(basis2, np.random.default_rng(15)).coeffs
        out = linearized_nonlinear_coeffs(basis2, u, np.zeros_like(u), 0.5)
        assert np.all(out == 0.0)

    def test_euler_identity_for_quadratic_map(self, basis2):
        # derivative of the quadratic term at u in direction u doubles it
        u = rand_field(basis2, np.random.default_rng(16)).coeffs
        lhs = linearized_nonlinear_coeffs(basis2, u, u, 0.5)
        rhs = 2.0 * nonlinear_coeffs(basis2, u, 0.5)
        assert np.abs(lhs - rhs).max() < 1e-11 * (1 + np.abs(rhs).max())

    @pytest.mark.parametrize("delta", [1e-4, 1e-5])
    def test_central_difference(self, basis2, delta):
        assert linearized_fd_error(basis2, np.random.default_rng(17), delta) < 1e-7


class TestFFTCrossValidation:
    """Re-derive the full drift with numpy's FFT machinery.

    Completely independent route: complex Fourier transforms, multiplier
    operators, spectral Leray projection and Galerkin truncation on a
    fine grid.  Agreement to rounding rules out any systematic sign or
    normalization error in the trig-mode implementation.
    """

    @staticmethod
    def fft_drift_values(u, p, grid_M):
        basis = u.basis
        L, N = basis.L, basis.cutoff
        from lans_alpha import eval_field

        vals = eval_field(u, basis.grid_points(grid_M)).reshape(grid_M, grid_M, 2)
        kint = np.fft.fftfreq(grid_M, d=1.0 / grid_M)  # signed integer frequencies
        KX, KY = np.meshgrid(kint, kint, indexing="ij")
        two_pi_L = 2 * np.pi / L
        ksq_phys = two_pi_L**2 * (KX**2 + KY**2)
        helm = 1.0 + p.alpha**2 * ksq_phys

        u1h, u2h = np.fft.fft2(vals[:, :, 0]), np.fft.fft2(vals[:, :, 1])
        # v = (I + a^2 A) u; on divergence-free fields A = -Laplacian
        v1h, v2h = helm * u1h, helm * u2h
        omega = np.real(np.fft.ifft2(1j * two_pi_L * (KX * v2h - KY * v1h)))
        # -(u x curl v) = (-omega*u2, +omega*u1)
        g1h = np.fft.fft2(-omega * vals[:, :, 1])
        g2h = np.fft.fft2(omega * vals[:, :, 0])
        # spectral Leray projection and Galerkin truncation |k|_inf <= N
        ksq_int = KX**2 + KY**2
        dot = (KX * g1h + KY * g2h) / np.where(ksq_int == 0, 1, ksq_int)
        p1h, p2h = g1h - KX * dot, g2h - KY * dot
        keep = (np.abs(KX) <= N) & (np.abs(KY) <= N) & (ksq_int > 0)
        p1h, p2h = p1h * keep, p2h * keep
        d1h = -p.nu * ksq_phys * u1h - p1h / helm
        d2h = -p.nu * ksq_phys * u2h - p2h / helm
        return np.stack(
            [np.real(np.fft.ifft2(d1h)), np.real(np.fft.ifft2(d2h))], axis=-1
        )

    def check_drift(self, basis, alpha, grid_M, rng, trials):
        from lans_alpha import eval_field

        p = PhysicalParams(nu=0.7, alpha=alpha)
        for _ in range(trials):
            u = rand_field(basis, rng)
            ours = eval_field(drift(u, p), basis.grid_points(grid_M)).reshape(grid_M, grid_M, 2)
            oracle = self.fft_drift_values(u, p, grid_M)
            scale = np.abs(oracle).max() + 1.0
            assert np.abs(ours - oracle).max() < 1e-12 * scale

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.3])
    def test_full_drift_matches_fft_route(self, basis2, alpha):
        # no aliasing: quadratic products reach |k| <= 2*cutoff < M/2
        self.check_drift(basis2, alpha, 16, np.random.default_rng(18), 5)

    @pytest.mark.parametrize("alpha", [0.0, 1.3])
    def test_pseudo_spectral_drift_matches_fft_route(self, basis8, alpha):
        self.check_drift(basis8, alpha, 40, np.random.default_rng(19), 2)


class TestPseudoSpectralRoute:
    """The production route above the crossover against the independent
    routes, and its agreement with the dense route on both sides of it."""

    @pytest.mark.parametrize("cutoff", [2, FFT_MIN_CUTOFF - 1, FFT_MIN_CUTOFF, 8])
    def test_routes_agree(self, cutoff):
        basis = build_basis(1.7, cutoff)
        rng = np.random.default_rng(20 + cutoff)
        cu, cv = rng.standard_normal((2, 5, basis.mode_count))
        dense = b_tilde_dense(basis, cu, cv)
        fft = b_tilde_fft(basis, (cu, cv))
        assert np.abs(dense - fft).max() < 1e-12 * np.abs(dense).max()
        # the linearization's fused call, forced onto this route by its data
        f = helmholtz_factor(basis, 0.5)
        dn = linearized_nonlinear_coeffs(basis, cu, cv, 0.5, route=f)
        ref = -(b_tilde_dense(basis, cv, cu * f) + b_tilde_dense(basis, cu, cv * f)) / f
        assert np.abs(dn - ref).max() < 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("cutoff", [1, 2, 8])
    def test_b_tilde_takes_the_fft_route_at_every_cutoff(self, cutoff):
        basis = build_basis(2 * np.pi, cutoff)
        rng = np.random.default_rng(24)
        u, v = rand_field(basis, rng), rand_field(basis, rng)
        expected = b_tilde_fft(basis, (u.coeffs, v.coeffs))
        assert b_tilde(u, v).coeffs.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", ["b_form", "b_tilde_matrix", "b_tilde_convolution"])
    def test_reference_routes_are_reexported(self, name):
        # the package exports them from oracles, their one import path
        assert getattr(lans_alpha, name) is getattr(oracles, name)
        assert not hasattr(operators, name)

    def test_stepping_path_builds_no_grid_tensors(self, basis8, monkeypatch):
        def refuse(*args):
            raise AssertionError("dense grid tensor built on the pseudo-spectral route")

        for attr in ("mode_values", "mode_curls", "mode_gradients"):
            monkeypatch.setattr(type(basis8), attr, refuse)
        c = rand_field(basis8, np.random.default_rng(25)).coeffs
        nonlinear_coeffs(basis8, c, 0.5)
        linearized_nonlinear_coeffs(basis8, c, c, 0.5)

    def test_matrix_route_agrees(self, basis8):
        rng = np.random.default_rng(26)
        for _ in range(3):
            u, v = rand_field(basis8, rng), rand_field(basis8, rng)
            a = b_tilde(u, v).coeffs
            b = b_tilde_matrix(u, v).coeffs
            assert np.abs(a - b).max() < 1e-11 * (1 + np.abs(a).max())

    def test_no_alpha_energy_work(self, basis8):
        # <Bt(u, (I+a^2 A)u), u> = 0 and <Bt(u, v), u> = 0
        rng = np.random.default_rng(27)
        p = PhysicalParams(nu=1.0, alpha=0.5)
        for _ in range(5):
            u, v = rand_field(basis8, rng), rand_field(basis8, rng)
            N = drift(u, p).coeffs + p.nu * basis8.eigenvalues * u.coeffs
            helm_u = (1 + p.alpha**2 * basis8.eigenvalues) * u.coeffs
            assert abs(N @ helm_u) < 1e-11 * np.linalg.norm(N) * np.linalg.norm(helm_u)
            val = inner_product(b_tilde(u, v), u)
            assert abs(val) < 1e-11 * vnorm(u) ** 2 * vnorm(v)

    @pytest.mark.parametrize("delta", [1e-4, 1e-5])
    def test_linearized_central_difference(self, basis8, delta):
        assert linearized_fd_error(basis8, np.random.default_rng(28), delta) < 1e-7

    def test_member_result_independent_of_batch(self, basis8):
        assert_members_independent_of_batch(basis8)


class TestTriadRoute:
    """The stepping path's route below the FFT cutoff against the dense
    route and the independent oracles."""

    CUTOFFS = [1, 2, 3, FFT_MIN_CUTOFF - 1]

    @staticmethod
    def via(route, u, alpha):
        # N(u) = -(I+a^2 A)^{-1} Bt(u, (I+a^2 A)u) through one b_tilde route
        f = helmholtz_factor(u.basis, alpha)
        return -route(u, SpectralField(u.basis, f * u.coeffs)).coeffs / f

    @pytest.mark.parametrize("cutoff, triads", [(1, 16), (2, 224), (3, 1056), (4, 3120)])
    def test_triad_counts(self, cutoff, triads):
        table = triad_table(build_basis(2 * np.pi, cutoff), 0.5)
        assert len(table.coeff) == triads
        assert np.all(table.k <= table.l)
        # the receiving modes are the leading ones, 0 .. J-1
        assert table.starts[0] == 0 and np.all(np.diff(table.starts) > 0)
        # every segment holds at least two triads (_segment_sums relies on it)
        assert np.all(np.diff(np.append(table.starts, len(table.k))) >= 2)

    def test_modes_without_triads_stay_zero(self, basis1):
        table = triad_table(basis1, 0.5)
        J = len(table.starts)
        assert J == 4
        idle = np.arange(J, basis1.mode_count)
        c = np.random.default_rng(30).standard_normal((3, basis1.mode_count))
        assert np.all(nonlinear_coeffs(basis1, c, 0.5)[:, idle] == 0.0)
        assert np.all(linearized_nonlinear_coeffs(basis1, c, c[::-1], 0.5)[:, idle] == 0.0)

    @pytest.mark.parametrize("cutoff", CUTOFFS)
    def test_agrees_with_every_route(self, cutoff):
        basis = build_basis(1.7, cutoff)
        rng = np.random.default_rng(31 + cutoff)
        alpha = 0.8

        def dense(u, v):
            return SpectralField(u.basis, b_tilde_dense(u.basis, u.coeffs, v.coeffs))

        for _ in range(2):
            u = rand_field(basis, rng)
            ours = nonlinear_coeffs(basis, u.coeffs, alpha)
            for route in (b_tilde_convolution, b_tilde_matrix, dense):
                ref = self.via(route, u, alpha)
                assert np.abs(ours - ref).max() < 1e-12 * np.abs(ref).max(), route
        # the first variation: Bt(eta, f u) + Bt(u, f eta)
        cu, ceta = rng.standard_normal((2, 3, basis.mode_count))
        f = helmholtz_factor(basis, alpha)
        ref = -(b_tilde_dense(basis, ceta, f * cu) + b_tilde_dense(basis, cu, f * ceta)) / f
        lin = linearized_nonlinear_coeffs(basis, cu, ceta, alpha)
        assert np.abs(lin - ref).max() < 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("cutoff", CUTOFFS)
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.3])
    def test_no_alpha_energy_work(self, cutoff, alpha):
        # <N(c), (I+a^2 A) c> = 0
        basis = build_basis(2 * np.pi, cutoff)
        c = np.random.default_rng(35).standard_normal((4, basis.mode_count))
        helm_c = helmholtz_factor(basis, alpha) * c
        N = nonlinear_coeffs(basis, c, alpha)
        work = np.sum(N * helm_c, axis=-1)
        scale = np.linalg.norm(N, axis=-1) * np.linalg.norm(helm_c, axis=-1)
        assert np.all(np.abs(work) < 1e-12 * scale)

    @pytest.mark.parametrize("cutoff", CUTOFFS)
    def test_linearized_central_difference(self, cutoff):
        basis = build_basis(2 * np.pi, cutoff)
        u, h = np.random.default_rng(36).standard_normal((2, basis.mode_count))
        delta = 1e-4
        fd = (
            nonlinear_coeffs(basis, u + delta * h, 0.5) - nonlinear_coeffs(basis, u - delta * h, 0.5)
        ) / (2 * delta)
        lin = linearized_nonlinear_coeffs(basis, u, h, 0.5)
        # quadratic map: the difference quotient is exact up to rounding
        assert np.abs(fd - lin).max() < 1e-9 * (1 + np.abs(lin).max())

    @pytest.mark.parametrize("cutoff", CUTOFFS)
    def test_member_result_independent_of_batch(self, cutoff):
        assert_members_independent_of_batch(build_basis(2 * np.pi, cutoff))

    def test_thread_split_is_bit_identical(self, basis2, monkeypatch):
        p = PhysicalParams(nu=1.0, alpha=0.5)
        spec, _ = make_noise(1.5, 0.5, basis2, seed=37)
        cfg = IntegratorConfig(dt=1e-3, t_end=0.02, record_every=2)
        x0 = rand_field(basis2, np.random.default_rng(38), scale=0.5).coeffs
        h = SpectralField.unit(basis2, 0).coeffs
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.delenv("LANS_THREADS", raising=False)
        serial = run_ensemble(x0, p, spec, cfg, 5, eta0_coeffs=h, collect_be=True)
        monkeypatch.setenv("LANS_THREADS", "2")
        threaded = run_ensemble(x0, p, spec, cfg, 5, eta0_coeffs=h, collect_be=True)
        for name in ("final_coeffs", "F", "dissipation", "martingale", "eta_final", "be_accumulator"):
            assert getattr(serial, name).tobytes() == getattr(threaded, name).tobytes(), name

    @pytest.mark.parametrize("cutoff", CUTOFFS)
    def test_stepping_path_skips_the_dense_route(self, cutoff, monkeypatch):
        basis = build_basis(2 * np.pi, cutoff)
        p = PhysicalParams(nu=1.0, alpha=0.5)
        spec, _ = make_noise(1.5, 0.5, basis, seed=39)
        triad_table(basis, p.alpha)  # the one-off build uses the dense route

        def refuse(*args):
            raise AssertionError("dense route called while stepping")

        monkeypatch.setattr(operators, "b_tilde_dense", refuse)
        monkeypatch.setattr(oracles, "b_tilde_dense", refuse)
        x0 = rand_field(basis, np.random.default_rng(40), scale=0.3).coeffs
        h = SpectralField.unit(basis, 0).coeffs
        cfg = IntegratorConfig(dt=1e-3, t_end=0.005)
        paths = run_ensemble(x0, p, spec, cfg, 3, eta0_coeffs=h)
        assert np.all(np.isfinite(paths.eta_final))


class TestNonlinearRoute:
    """nonlinear_route alone picks the route, and a bound route is the default."""

    def test_route_switches_at_fft_cutoff(self):
        below = build_basis(2 * np.pi, FFT_MIN_CUTOFF - 1)
        at = build_basis(2 * np.pi, FFT_MIN_CUTOFF)
        assert nonlinear_route(below, 0.5) is triad_table(below, 0.5)
        assert nonlinear_route(at, 0.5) is helmholtz_factor(at, 0.5)

    @pytest.mark.parametrize("cutoff", [1, FFT_MIN_CUTOFF])
    def test_bound_route_gives_the_default_bytes(self, cutoff):
        basis = build_basis(2 * np.pi, cutoff)
        route = nonlinear_route(basis, 0.5)
        cu, ceta = np.random.default_rng(41).standard_normal((2, 3, basis.mode_count))
        for bound, default in [
            (nonlinear_coeffs(basis, cu, 0.5, route=route), nonlinear_coeffs(basis, cu, 0.5)),
            (
                linearized_nonlinear_coeffs(basis, cu, ceta, 0.5, route=route),
                linearized_nonlinear_coeffs(basis, cu, ceta, 0.5, route=None),
            ),
        ]:
            assert bound.tobytes() == default.tobytes()

    @pytest.mark.parametrize("cutoff", [1, FFT_MIN_CUTOFF])
    @pytest.mark.parametrize("nonlinearity", [True, False])
    def test_step_kernel_binds_the_route(self, cutoff, nonlinearity):
        basis = build_basis(2 * np.pi, cutoff)
        spec, _ = make_noise(1.5, 0.5, basis, seed=42)
        cfg = IntegratorConfig(nonlinearity=nonlinearity)
        kernel = StepKernel(PhysicalParams(nu=1.0, alpha=0.5), cfg, spec)
        assert kernel.route is (nonlinear_route(basis, 0.5) if nonlinearity else None)


def signed_rows(rng, n, M):
    # normals over many magnitudes, with zeros of both signs and one member
    # column of -0.0 only, whose sum keeps or drops its sign by the order
    X = rng.standard_normal((n, M)) * 10.0 ** rng.integers(-3, 4, (n, M))
    X[rng.random((n, M)) < 0.1] = 0.0
    X[rng.random((n, M)) < 0.1] = -0.0
    X[:, -1] = -0.0
    return X


class TestExactOrder:
    """The mode-major row operations against the numpy reductions whose bits
    they reproduce, byte for byte (so signed zeros count)."""

    @pytest.mark.parametrize("n", [8, 24, 48, 80, 200])
    @pytest.mark.parametrize("M", [1, 2, 3, 64, 5000])
    def test_pairwise_rows_is_numpy_reduce(self, n, M):
        X = signed_rows(np.random.default_rng(n + M), n, M)
        want = np.add.reduce(np.ascontiguousarray(X.T), axis=-1)
        got = np.add(0.0, operators._pairwise_rows(X.copy()))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("cutoff", [1, 2, 3, 4])
    @pytest.mark.parametrize("M", [1, 2, 3, 64, 5000])
    def test_segment_sums_are_numpy_reduceat(self, cutoff, M):
        table = triad_table(build_basis(2 * np.pi, cutoff), 0.5)
        P = signed_rows(np.random.default_rng(cutoff * M), len(table.k), M)
        want = np.add.reduceat(P, table.starts, axis=0)
        J = len(table.starts)
        out = np.full((J, M), np.nan)
        operators._segment_sums(P.copy(), table.starts, out)
        assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("cutoff", [1, 2, 3, 4])
    @pytest.mark.parametrize("M", [1, 2, 3, 64])
    def test_scratch_route_equals_plain_route(self, cutoff, M):
        basis = build_basis(2 * np.pi, cutoff)
        n, table = basis.mode_count, triad_table(basis, 0.5)
        c = np.empty((n, M)).T  # mode-major storage
        c[...] = np.random.default_rng(M).standard_normal((M, n))
        c[0, : n // 2] = 0.0
        out = np.full((n, M), np.nan).T
        work = np.empty((2, len(table.k), M))
        got = nonlinear_coeffs(basis, c, 0.5, out=out, work=work)
        assert got is out
        assert got.tobytes() == nonlinear_coeffs(basis, np.ascontiguousarray(c), 0.5).tobytes()

    @pytest.mark.parametrize("cutoff", [1, 4, FFT_MIN_CUTOFF])
    @pytest.mark.parametrize("M", [1, 2, 3, 64])
    def test_mode_major_energy_equals_row_sums(self, cutoff, M):
        basis = build_basis(2 * np.pi, cutoff)
        n = basis.mode_count
        c = np.random.default_rng(M).standard_normal((M, n))
        want = alpha_energy(c, basis, 0.5)
        got = np.empty(M)
        alpha_energy(c, basis, 0.5, out=got, work=np.empty((n, M)).T)
        assert got.tobytes() == want.tobytes()


def plain_triad_sum(table, *pairs):
    # the triad formula written out: per pair (a, b) the products
    # a.take(k) * b.take(l) over (n, M) views, the pairs' terms added, times
    # the coefficients, one np.add.reduceat down each member's column, and
    # zeros for the modes from J on
    n = pairs[0][0].shape[-1]
    terms = [
        a.reshape(-1, n).T.take(table.k, axis=0) * b.reshape(-1, n).T.take(table.l, axis=0)
        for a, b in pairs
    ]
    prod = terms[0] if len(terms) == 1 else terms[0] + terms[1]
    prod = prod * table.coeff[:, None]
    sums = np.zeros((n, prod.shape[1]))
    sums[: len(table.starts)] = np.add.reduceat(prod, table.starts, axis=0)
    return np.ascontiguousarray(sums.T).reshape(pairs[0][0].shape)


class TestNarrowTriadBits:
    """The member-major triad route (each operand gathered once, no scratch)
    against the plain formula, byte for byte (so signed zeros count)."""

    @pytest.mark.parametrize("cutoff", [1, 2, 3, 4])
    @pytest.mark.parametrize("M", [1, 2, 3])
    @pytest.mark.parametrize("lead", ["n", "M, n", "k, M, n"])
    def test_equals_plain_formula(self, cutoff, M, lead):
        basis = build_basis(2 * np.pi, cutoff)
        table, n = triad_table(basis, 0.5), basis.mode_count
        shape = {"n": (n,), "M, n": (M, n), "k, M, n": (2, M, n)}[lead]
        rng = np.random.default_rng(10 * cutoff + M)
        cu, ceta = rng.standard_normal((2,) + shape) * 10.0 ** rng.integers(-3, 4, (2,) + shape)
        cu[rng.random(shape) < 0.2] = -0.0
        ceta[rng.random(shape) < 0.2] = 0.0
        cases = [
            (plain_triad_sum(table, (cu, cu)), operators._triad_sum, (table, cu)),
            (plain_triad_sum(table, (cu, cu)), nonlinear_coeffs, (basis, cu, 0.5)),
            (
                plain_triad_sum(table, (cu, ceta), (ceta, cu)),
                operators._triad_sum, (table, cu, ceta),
            ),
            (
                plain_triad_sum(table, (cu, ceta), (ceta, cu)),
                linearized_nonlinear_coeffs, (basis, cu, ceta, 0.5),
            ),
        ]
        for want, f, args in cases:
            assert f(*args).tobytes() == want.tobytes(), f.__name__
            if f is not linearized_nonlinear_coeffs:  # which takes no `out`
                out = np.full(shape, np.nan)
                assert f(*args, out=out) is out
                assert out.tobytes() == want.tobytes(), f.__name__


def plain_fft_route(basis, *pairs):
    # the pseudo-spectral formula written out with the full 2-D transforms:
    # per pair, zeroed (N, N // 2 + 1) half-spectra of u_1, u_2 and curl v
    # holding each wavevector's scaled amplitude at [k2 mod N, k1] and, for
    # k1 = 0, its conjugate at -k; irfft2; the integrand 0.0 plus each
    # pair's (-w*u2, w*u1); rfft2, read at the slots and projected
    lay = basis.fft_layout
    N, W = lay.size, lay.size // 2 + 1
    k = basis.wavevectors[0::2]
    slots = (k[:, 1] % N) * W + k[:, 0]
    line = k[:, 0] == 0
    mirror = (-k[line, 1] % N) * W
    integrand = 0.0
    for cu, cv in pairs:
        yu = np.ascontiguousarray(cu).view(np.complex128)
        yv = np.ascontiguousarray(cv).view(np.complex128)
        batch = np.broadcast_shapes(yu.shape[:-1], yv.shape[:-1])
        spec = np.zeros(batch + (3, N * W), dtype=np.complex128)
        spec[..., :2, slots] = lay.velocity_scale * yu[..., None, :]
        spec[..., 2, slots] = lay.curl_scale * yv
        spec[..., mirror] = np.conj(spec[..., slots[line]])
        fields = np.fft.irfft2(spec.reshape(batch + (3, N, W)), s=(N, N), norm="forward")
        u1, u2, w = fields[..., 0, :, :], fields[..., 1, :, :], fields[..., 2, :, :]
        integrand = integrand + np.stack([-w * u2, w * u1], axis=-3)
    g = np.fft.rfft2(integrand).reshape(integrand.shape[:-2] + (-1,))[..., slots]
    proj = lay.project_scale[0] * g[..., 0, :] + lay.project_scale[1] * g[..., 1, :]
    return np.ascontiguousarray(proj).view(np.float64)


def signed_operands(rng, shape):
    # normals over six decades, with zeros of both signs
    cu, ceta = rng.standard_normal((2,) + shape) * 10.0 ** rng.integers(-3, 4, (2,) + shape)
    cu[rng.random(shape) < 0.2] = -0.0
    ceta[rng.random(shape) < 0.2] = 0.0
    ceta[rng.random(shape) < 0.1] = -0.0
    return cu, ceta


class TestPseudoSpectralBits:
    """The pseudo-spectral route (the columns k1 <= cutoff transformed, one
    flat scatter with the mirror, buffers from fft_work) against the
    full-transform formula, byte for byte (so signed zeros count)."""

    @staticmethod
    def expected(basis, cu, ceta, alpha):
        f = helmholtz_factor(basis, alpha)
        return (
            plain_fft_route(basis, (cu, ceta)),
            -plain_fft_route(basis, (cu, cu * f)) / f,
            -plain_fft_route(basis, (ceta, cu * f), (cu, ceta * f)) / f,
        )

    @pytest.mark.parametrize("cutoff", [5, 6, 8, 9, 12])
    @pytest.mark.parametrize("M", [1, 2, 3])
    @pytest.mark.parametrize("lead", ["n", "M, n", "k, M, n"])
    def test_equals_full_transforms(self, cutoff, M, lead):
        basis = build_basis(2 * np.pi, cutoff)
        n = basis.mode_count
        shape = {"n": (n,), "M, n": (M, n), "k, M, n": (2, M, n)}[lead]
        cu, ceta = signed_operands(np.random.default_rng(10 * cutoff + M), shape)
        for alpha in (0.0, 0.5):
            want_b, want_n, want_dn = self.expected(basis, cu, ceta, alpha)
            for work in (None, fft_work(basis, shape[:-1])):
                got = b_tilde_fft(basis, (cu, ceta), work=work)
                assert got.tobytes() == want_b.tobytes()
                got = nonlinear_coeffs(basis, cu, alpha, work=work)
                assert got.tobytes() == want_n.tobytes()
                got = linearized_nonlinear_coeffs(basis, cu, ceta, alpha, work=work)
                assert got.tobytes() == want_dn.tobytes()
                out = np.full(shape, np.nan)
                assert nonlinear_coeffs(basis, cu, alpha, out=out, work=work) is out
                assert out.tobytes() == want_n.tobytes()

    @pytest.mark.parametrize("cutoff", [5, 8])
    @pytest.mark.parametrize("M", [1, 3])
    def test_mode_major_views(self, cutoff, M):
        # a wide block hands the maps (M, n) views of (n, M) storage
        basis = build_basis(2 * np.pi, cutoff)
        n = basis.mode_count
        cu, ceta = (np.empty((n, M)).T for _ in range(2))
        cu[...], ceta[...] = signed_operands(np.random.default_rng(cutoff + M), (M, n))
        want_b, want_n, want_dn = self.expected(basis, cu, ceta, 0.5)
        work = fft_work(basis, (M,))
        out = np.full((n, M), np.nan).T
        assert nonlinear_coeffs(basis, cu, 0.5, out=out, work=work) is out
        assert out.tobytes() == want_n.tobytes()
        got = linearized_nonlinear_coeffs(basis, cu, ceta, 0.5, work=work)
        assert got.tobytes() == want_dn.tobytes()

    @pytest.mark.parametrize("cutoff", [5, 9])
    def test_workspace_reuse(self, cutoff):
        # only the slots are rewritten, so nothing of an earlier call, on
        # another state or with the other map, may reach a later one
        basis = build_basis(2 * np.pi, cutoff)
        n, M = basis.mode_count, 2
        rng = np.random.default_rng(cutoff)
        states = [signed_operands(rng, (M, n)) for _ in range(3)]
        work = fft_work(basis, (M,))
        for alpha in (0.0, 0.5):
            for cu, ceta in states + states[::-1]:
                _, want_n, want_dn = self.expected(basis, cu, ceta, alpha)
                got = linearized_nonlinear_coeffs(basis, cu, ceta, alpha, work=work)
                assert got.tobytes() == want_dn.tobytes()
                assert nonlinear_coeffs(basis, cu, alpha, work=work).tobytes() == want_n.tobytes()
        # a one-pair workspace, as a block without the variation holds
        one = fft_work(basis, (M,), pairs=1)
        for cu, _ in states:
            _, want_n, _ = self.expected(basis, cu, cu, 0.5)
            assert nonlinear_coeffs(basis, cu, 0.5, work=one).tobytes() == want_n.tobytes()

    @pytest.mark.parametrize("cutoff", [5, 8, 12])
    @pytest.mark.parametrize("lead", ["n", "M, n", "k, M, n", "mode-major"])
    def test_held_state_equals_full_transforms(self, cutoff, lead):
        # DN then N on one workspace, as a step runs them: N is the one the
        # fused call held, and each result has its own call's bytes
        basis = build_basis(2 * np.pi, cutoff)
        n, M = basis.mode_count, 2
        shape = {"n": (n,), "M, n": (M, n), "k, M, n": (2, M, n), "mode-major": (M, n)}[lead]
        cu, ceta = signed_operands(np.random.default_rng(cutoff), shape)
        if lead == "mode-major":
            cu, ceta = (np.array(x.T).T for x in (cu, ceta))
        work = fft_work(basis, shape[:-1])
        for alpha in (0.0, 0.5):
            _, want_n, want_dn = self.expected(basis, cu, ceta, alpha)
            dn = linearized_nonlinear_coeffs(basis, cu, ceta, alpha, work=work)
            assert dn.tobytes() == want_dn.tobytes()
            assert work.held.route is helmholtz_factor(basis, alpha)
            buffers = (*work[:-1], work.held.value, work.held.state)
            assert not any(np.may_share_memory(dn, buf) for buf in buffers)
            got = nonlinear_coeffs(basis, cu, alpha, work=work)
            assert got.tobytes() == want_n.tobytes()
            assert not np.may_share_memory(got, work.held.value)
            out = np.full(shape, np.nan)
            assert nonlinear_coeffs(basis, cu, alpha, out=out, work=work) is out
            assert out.tobytes() == want_n.tobytes()

    @staticmethod
    def poisoned(work, cu):
        # what a hit on work would return: NaN in place of N(cu)
        work.held.value[...] = np.nan
        work.held.state[...] = cu
        return work

    @pytest.mark.parametrize("cutoff", [5, 8])
    def test_held_n_misses(self, cutoff):
        basis = build_basis(2 * np.pi, cutoff)
        n, M = basis.mode_count, 2
        cu, ceta = signed_operands(np.random.default_rng(cutoff), (M, n))
        zeros = np.flatnonzero(np.signbit(cu) & (cu == 0.0))
        assert len(zeros) > 0
        ulp, flipped = cu.copy(), cu.copy()
        ulp.flat[0] = np.nextafter(ulp.flat[0], np.inf)
        flipped.flat[zeros[0]] = 0.0

        def n_of(state, work):
            return nonlinear_coeffs(basis, state, 0.5, work=work).tobytes()

        def want(state):
            return self.expected(basis, state, state, 0.5)[1].tobytes()

        # the poisoned held N is returned on a hit, so the tests below are live
        work = fft_work(basis, (M,))
        linearized_nonlinear_coeffs(basis, cu, ceta, 0.5, work=work)
        self.poisoned(work, cu)
        assert np.isnan(nonlinear_coeffs(basis, cu, 0.5, work=work)).all()
        # a state one ulp away, or with the sign of one zero flipped
        for state in (ulp, flipped):
            assert n_of(state, work) == want(state)
        # a workspace that ran no fused call
        work = fft_work(basis, (M,))
        nonlinear_coeffs(basis, cu, 0.5, work=work)
        assert n_of(cu, self.poisoned(work, cu)) == want(cu)
        # a one-pair workspace holds nothing
        one = fft_work(basis, (M,), pairs=1)
        assert one.held is None
        assert n_of(cu, one) == want(cu)
        # the fused call at alpha = 0, then N at alpha = 0.5
        work = fft_work(basis, (M,))
        linearized_nonlinear_coeffs(basis, cu, ceta, 0.0, work=work)
        assert work.held.route is helmholtz_factor(basis, 0.0)
        assert n_of(cu, self.poisoned(work, cu)) == want(cu)

    @pytest.mark.parametrize("cutoff", [5, 8])
    def test_held_n_on_a_wider_workspace(self, cutoff):
        # a fused call on a workspace for three pairs uses its first two and
        # holds N where it projected it, not in the unused third pair
        basis = build_basis(2 * np.pi, cutoff)
        n, M = basis.mode_count, 2
        cu, ceta = signed_operands(np.random.default_rng(cutoff), (M, n))
        work = fft_work(basis, (M,), pairs=3)
        work.gathered[...] = np.nan
        _, want_n, want_dn = self.expected(basis, cu, ceta, 0.5)
        got = linearized_nonlinear_coeffs(basis, cu, ceta, 0.5, work=work)
        assert got.tobytes() == want_dn.tobytes()
        assert nonlinear_coeffs(basis, cu, 0.5, work=work).tobytes() == want_n.tobytes()


class TestJacobianTrace:
    """tr DN(c) = 0: the Galerkin nonlinearity has no phase-space divergence.

    The Jacobian is assembled from linearized_nonlinear_coeffs on the unit
    directions.  On the triad route every diagonal coefficient vanishes, so
    the trace is exactly 0.0.  On the pseudo-spectral route each diagonal
    entry is rounding, and the trace is bounded by n * eps * max|J|: n
    terms, each measured below eps * max|J| (the largest ratio |tr| / max|J|
    at cutoffs 5 and 6 over 20 states was 6.7e-16, against n * eps >= 2.7e-14).
    """

    @pytest.mark.parametrize("cutoff", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_trace_vanishes(self, cutoff, alpha):
        basis = build_basis(2 * np.pi, cutoff)
        n = basis.mode_count
        rng = np.random.default_rng(cutoff)
        for _ in range(3):
            c = rng.standard_normal(n)
            # row j is DN(c) e_j
            J = linearized_nonlinear_coeffs(basis, np.tile(c, (n, 1)), np.eye(n), alpha)
            trace = np.trace(J)
            if cutoff < FFT_MIN_CUTOFF:
                assert trace == 0.0
            else:
                assert abs(trace) <= n * np.finfo(float).eps * np.abs(J).max()


class TestPhysicalParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            PhysicalParams(nu=-1.0, alpha=0.0)
        with pytest.raises(ValueError):
            PhysicalParams(nu=1.0, alpha=-0.1)
        PhysicalParams(nu=0.0, alpha=0.0)  # conservation runs allowed
