import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lans_alpha import (
    ConfigError,
    SpectralField,
    build_basis,
    dump_snapshot,
    eval_field,
    inner_product,
    leray_project,
    load_snapshot,
    sobolev_norms,
)
from conftest import rand_field


def reference_mode_table(cutoff):
    """The mode table by brute force: enumerate the half-space, then sort."""
    modes = []
    for k1 in range(0, cutoff + 1):
        for k2 in range(-cutoff, cutoff + 1):
            if k1 > 0 or (k1 == 0 and k2 > 0):
                modes.append((k1, k2, 0))
                modes.append((k1, k2, 1))
    modes.sort(key=lambda m: (m[0] ** 2 + m[1] ** 2, m[0], m[1], m[2]))
    wavevectors = np.array([[k1, k2] for k1, k2, _ in modes], dtype=np.int64)
    parities = np.array([par for _, _, par in modes], dtype=np.int64)
    return wavevectors, parities


class TestBuildBasis:
    @pytest.mark.parametrize("cutoff", range(1, 13))
    def test_mode_table_matches_brute_force(self, cutoff):
        basis = build_basis(2 * np.pi, cutoff)
        wavevectors, parities = reference_mode_table(cutoff)
        assert basis.wavevectors.dtype == wavevectors.dtype
        assert basis.parities.dtype == parities.dtype
        assert np.array_equal(basis.wavevectors, wavevectors)
        assert np.array_equal(basis.parities, parities)

    def test_cutoff1_mode_set(self, basis1):
        reps = set(map(tuple, basis1.wavevectors.tolist()))
        assert reps == {(1, 0), (0, 1), (1, 1), (1, -1)}
        assert basis1.mode_count == 8
        assert sorted(basis1.eigenvalues) == pytest.approx([1, 1, 1, 1, 2, 2, 2, 2])

    def test_cutoff2_counts(self, basis2):
        # lattice points with max-norm <= 2, k != 0, half-space kept
        assert basis2.mode_count == 24
        assert len(set(map(tuple, basis2.wavevectors.tolist()))) == 12

    def test_lambda_min_unit_box(self):
        b = build_basis(1.0, 1)
        assert b.lambda_min() == pytest.approx(4 * np.pi**2, rel=1e-15)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            build_basis(2 * np.pi, 0)
        with pytest.raises(ValueError):
            build_basis(-1.0, 2)
        with pytest.raises(ValueError):
            build_basis(0.0, 1)

    def test_polarization_orthogonal_to_wavevector(self, basis2):
        # k . polarization = 0 exactly; check in integer arithmetic after scaling
        for j, (k1, k2) in enumerate(basis2.wavevectors.tolist()):
            knorm = np.hypot(k1, k2)
            scaled = np.rint(basis2.polarizations[j] * knorm).astype(int)
            assert k1 * scaled[0] + k2 * scaled[1] == 0

    def test_ordering_deterministic(self, basis2):
        modes = zip(basis2.wavevectors.tolist(), basis2.parities.tolist())
        keys = [(k1**2 + k2**2, k1, k2, par) for (k1, k2), par in modes]
        assert keys == sorted(keys)

    @pytest.mark.parametrize(
        "cutoff, size", [(1, 4), (2, 8), (4, 15), (5, 16), (8, 25), (12, 40), (22, 72)]
    )
    def test_fft_grid_is_smallest_five_smooth_size(self, cutoff, size):
        # smallest 2^a 3^b 5^c >= 3*cutoff + 1 (the 3/2 rule)
        layout = build_basis(1.0, cutoff).fft_layout
        assert layout.size == size
        assert len(set(layout.slots.tolist())) == len(layout.slots)

    @pytest.mark.parametrize(
        "name", ["grid_mode_values", "grid_mode_curls", "grid_mode_gradients", "fft_layout"]
    )
    def test_cached_arrays_are_shared_and_read_only(self, name):
        basis = build_basis(1.0, 2)
        first = getattr(basis, name)
        assert getattr(basis, name) is first
        arrays = first[1:] if name == "fft_layout" else (first,)
        for arr in arrays:
            assert isinstance(arr, np.ndarray) and not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0

    @settings(max_examples=20, deadline=None)
    @given(
        L=st.floats(min_value=0.5, max_value=10.0, allow_nan=False),
        cutoff=st.integers(min_value=1, max_value=3),
    )
    def test_gram_matrix_is_identity(self, L, cutoff):
        b = build_basis(L, cutoff)
        E = b.grid_mode_values
        gram = b.quad_weight() * np.einsum("igm,jgm->ij", E, E)
        assert np.abs(gram - np.eye(b.mode_count)).max() < 1e-10


class TestEvalField:
    def test_zero_field(self, basis1):
        u = SpectralField.zeros(basis1)
        out = eval_field(u, [[0.1, 0.2], [1.0, 2.0]])
        assert np.all(out == 0.0)

    def test_cos_mode_at_origin(self, basis1):
        modes = zip(basis1.wavevectors.tolist(), basis1.parities.tolist())
        j = next(i for i, (k, par) in enumerate(modes) if k == [1, 0] and par == 0)
        out = eval_field(SpectralField.unit(basis1, j), [[0.0, 0.0]])
        amp = np.sqrt(2 / (2 * np.pi) ** 2)
        assert out[0] == pytest.approx([0.0, amp], abs=1e-15)

    def test_grid_mean_is_zero(self, basis2):
        u = rand_field(basis2, np.random.default_rng(0))
        M = 2 * basis2.cutoff + 2
        out = eval_field(u, basis2.grid_points(M))
        assert np.abs(out.mean(axis=0)).max() < 1e-12

    def test_points_outside_box_rejected(self, basis1):
        u = SpectralField.zeros(basis1)
        with pytest.raises(ValueError):
            eval_field(u, [[-1.0, 0.0]])


class TestInnerProduct:
    def test_orthonormality(self, basis2):
        for j in (0, 5, 23):
            ej = SpectralField.unit(basis2, j)
            assert inner_product(ej, ej) == 1.0
        e0, e7 = SpectralField.unit(basis2, 0), SpectralField.unit(basis2, 7)
        assert inner_product(e0, e7) == 0.0

    def test_matches_grid_quadrature(self, basis2):
        rng = np.random.default_rng(1)
        u, v = rand_field(basis2, rng), rand_field(basis2, rng)
        ug = eval_field(u, basis2.grid_points())
        vg = eval_field(v, basis2.grid_points())
        quad = basis2.quad_weight() * np.sum(ug * vg)
        assert inner_product(u, v) == pytest.approx(quad, rel=1e-10)

    def test_basis_mismatch(self, basis1, basis2):
        with pytest.raises(ValueError):
            inner_product(SpectralField.zeros(basis1), SpectralField.zeros(basis2))

    @pytest.mark.parametrize("j", [-1, 8, 99])
    def test_unit_mode_out_of_range(self, basis1, j):
        # a caller's bug, like a basis mismatch: -1 would set the last mode
        with pytest.raises(ValueError, match=f"mode index {j} out of range 0..7") as caught:
            SpectralField.unit(basis1, j)
        assert not isinstance(caught.value, ConfigError)


class TestSobolevNorms:
    def test_unit_eigenvalue_mode(self, basis1):
        j = int(np.argmin(basis1.eigenvalues))
        assert sobolev_norms(SpectralField.unit(basis1, j)) == pytest.approx((1, 1, 1))

    def test_scaling_with_eigenvalue_two(self, basis1):
        j = int(np.argmax(basis1.eigenvalues))
        norms = sobolev_norms(SpectralField.unit(basis1, j, 3.0))
        assert norms == pytest.approx((3.0, 3.0 * np.sqrt(2), 6.0))

    def test_poincare_chain(self, basis2):
        rng = np.random.default_rng(2)
        lam_min = basis2.lambda_min()
        for _ in range(1000):
            l2, grad, stokes = sobolev_norms(rand_field(basis2, rng))
            assert l2 <= grad / np.sqrt(lam_min) * (1 + 1e-12)
            assert grad / np.sqrt(lam_min) <= stokes / lam_min * (1 + 1e-12)

    def test_agrees_with_grid_quadrature(self, basis2):
        u = rand_field(basis2, np.random.default_rng(3))
        ug = eval_field(u, basis2.grid_points())
        l2_quad = np.sqrt(basis2.quad_weight() * np.sum(ug**2))
        assert sobolev_norms(u)[0] == pytest.approx(l2_quad, rel=1e-10)


class TestLerayProject:
    def grid_samples(self, basis, fn):
        pts = basis.grid_points()
        M = basis.grid_size
        return fn(pts).reshape(M, M, 2)

    def test_recovers_basis_mode(self, basis2):
        e5 = SpectralField.unit(basis2, 5)
        samples = self.grid_samples(basis2, lambda pts: eval_field(e5, pts))
        out = leray_project(samples, basis2)
        expected = np.zeros(basis2.mode_count)
        expected[5] = 1.0
        assert np.abs(out.coeffs - expected).max() < 1e-12

    def test_annihilates_gradient_field(self, basis2):
        L = basis2.L

        def grad_p(pts):
            g = np.zeros_like(pts)
            g[:, 0] = -(2 * np.pi / L) * np.sin(2 * np.pi * pts[:, 0] / L)
            return g

        out = leray_project(self.grid_samples(basis2, grad_p), basis2)
        assert np.abs(out.coeffs).max() < 1e-12

    def test_idempotence(self, basis2):
        rng = np.random.default_rng(4)
        pts = basis2.grid_points()
        M = basis2.grid_size
        raw = rng.standard_normal((M, M, 2))
        once = leray_project(raw, basis2)
        again = leray_project(eval_field(once, pts).reshape(M, M, 2), basis2)
        assert np.abs(once.coeffs - again.coeffs).max() < 1e-12

    def test_coarse_grid_rejected(self, basis2):
        M = 4 * basis2.cutoff - 1
        with pytest.raises(ValueError):
            leray_project(np.zeros((M, M, 2)), basis2)


class TestSnapshot:
    def test_roundtrip(self, basis2, tmp_path):
        u = rand_field(basis2, np.random.default_rng(5))
        text = dump_snapshot(u)
        assert text.startswith("lans-alpha-snapshot v1\n")
        v = load_snapshot(text)
        assert v.basis == basis2
        assert np.array_equal(v.coeffs, u.coeffs)
        path = tmp_path / "state.snap"
        path.write_text(text)
        w = load_snapshot(str(path))
        assert np.array_equal(w.coeffs, u.coeffs)

    @pytest.mark.parametrize(
        "text, match",
        [
            ("something else\nL=1 cutoff=1 n=8\n", "not a snapshot"),
            ("lans-alpha-snapshot v1\n", "snapshot header '': L= is missing"),
            ("lans-alpha-snapshot v1", "snapshot header '': L= is missing"),
            ("lans-alpha-snapshot v1\nL=1 n=8\n", "'L=1 n=8': cutoff= is missing"),
            ("lans-alpha-snapshot v1\nL=1 cutoff=1 n=8 x\n", "'x' is not key=value"),
            ("lans-alpha-snapshot v1\nL=one cutoff=1 n=8\n", "L= is missing or not float"),
        ],
        ids=["first line", "header line only", "header without newline", "no cutoff",
             "token without =", "L not numeric"],
    )
    def test_bad_header_rejected(self, text, match):
        # every malformed header is a ValueError naming the line and the key
        with pytest.raises(ValueError, match=match) as caught:
            load_snapshot(text)
        assert type(caught.value) is ValueError

    @pytest.mark.parametrize(
        "line, match",
        [
            ("0 1 cos", "is not 'k1 k2 cos|sin coefficient'"),
            ("0 1 cos 0.5 7", "is not 'k1 k2 cos|sin coefficient'"),
            ("0 one cos 0.5", "is not 'k1 k2 cos|sin coefficient'"),
            ("0 1 cos half", "is not 'k1 k2 cos|sin coefficient'"),
            ("0 1 cos nan", "has a non-finite coefficient"),
            ("0 1 cos -inf", "has a non-finite coefficient"),
            ("0 2 cos 0.5", "does not match canonical ordering"),
        ],
        ids=["three tokens", "five tokens", "wavevector not int", "coefficient not float",
             "nan coefficient", "infinite coefficient", "wrong wavevector"],
    )
    def test_bad_mode_line_rejected(self, basis1, line, match):
        # every malformed mode line is a ValueError naming the line
        lines = dump_snapshot(SpectralField.zeros(basis1)).splitlines()
        assert lines[2].startswith("0 1 cos ")
        lines[2] = line
        with pytest.raises(ValueError, match=match) as caught:
            load_snapshot("\n".join(lines) + "\n")
        assert type(caught.value) is ValueError
        assert str(caught.value).startswith("mode line 0 ") and repr(line) in str(caught.value)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=8,
            max_size=8,
        )
    )
    def test_roundtrip_is_exact_for_any_finite_floats(self, coeffs):
        # 17 significant digits round-trip doubles bit-exactly
        basis = build_basis(2 * np.pi, 1)
        u = SpectralField(basis, np.array(coeffs))
        v = load_snapshot(dump_snapshot(u))
        assert np.array_equal(v.coeffs, u.coeffs)
