import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from syncsub import opcore

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
H4 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_hermitian(rng, n):
    g = random_complex(rng, (n, n))
    return (g + g.conj().T) / 2.0


finite_entries = st.floats(min_value=-10.0, max_value=10.0,
                           allow_nan=False, allow_infinity=False)


def matrices(dim):
    return st.lists(finite_entries, min_size=2 * dim * dim, max_size=2 * dim * dim).map(
        lambda xs: np.asarray(xs[:dim * dim]).reshape(dim, dim)
        + 1j * np.asarray(xs[dim * dim:]).reshape(dim, dim))


class TestValidation:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            opcore.as_complex_matrix(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            opcore.as_complex_matrix([[np.nan, 0], [0, 1]])

    def test_require_hermitian_rejects(self):
        with pytest.raises(ValueError, match="Hermitian"):
            opcore.require_hermitian([[0, 1], [0, 0]])

    def test_require_unitary_rejects(self):
        with pytest.raises(ValueError, match="unitary"):
            opcore.require_unitary(np.diag([1.0, 0.999]))


class TestTensorProduct:
    """The Kronecker convention of kron_apply, the library's one tensor product."""

    def test_identity(self):
        np.testing.assert_array_equal(opcore.kron_apply(np.eye(2), np.eye(2), np.eye(4)), np.eye(4))

    def test_sigma_z_with_identity(self):
        np.testing.assert_allclose(opcore.kron_apply(SIGMA_Z, np.eye(2), np.eye(4)),
                                   np.diag([1.0, 1.0, -1.0, -1.0]), atol=0)

    def test_action_on_product_vectors(self):
        # oracle: direct matrix-vector multiplication on each factor
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = random_complex(rng, (2, 2))
            b = random_complex(rng, (3, 3))
            u = random_complex(rng, 2)
            v = random_complex(rng, 3)
            lhs = opcore.kron_apply(a, b, np.kron(u, v))
            rhs = np.kron(a @ u, b @ v)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_index_convention(self):
        # block (i, j) of A (x) B equals A[i, j] * B
        rng = np.random.default_rng(1)
        a = random_complex(rng, (3, 3))
        b = random_complex(rng, (2, 2))
        t = opcore.kron_apply(a, b, np.eye(6))
        for i in range(3):
            for j in range(3):
                np.testing.assert_allclose(t[2 * i:2 * i + 2, 2 * j:2 * j + 2], a[i, j] * b,
                                           rtol=0, atol=1e-14)

    def test_associativity(self):
        # (A (x) B) (x) C and A (x) (B (x) C) split the same rows differently;
        # integer entries make every product exact, floats regroup within ulps
        rng = np.random.default_rng(2)
        a, b, c = (rng.integers(-5, 6, size=(2, 2)).astype(complex) for _ in range(3))
        x = rng.integers(-5, 6, size=(8, 3)).astype(complex)
        left = opcore.kron_apply(np.kron(a, b), c, x)
        right = opcore.kron_apply(a, np.kron(b, c), x)
        assert np.array_equal(left, right)
        a, b, c = (random_complex(rng, (2, 2)) for _ in range(3))
        x = random_complex(rng, (8, 3))
        left = opcore.kron_apply(np.kron(a, b), c, x)
        right = opcore.kron_apply(a, np.kron(b, c), x)
        assert opcore.operator_norm(left - right) <= 1e-14 * 8 * opcore.operator_norm(left)

    @settings(max_examples=25, deadline=None)
    @given(a=matrices(2), b=matrices(2), c=matrices(2), x=finite_entries, y=finite_entries)
    def test_bilinearity(self, a, b, c, x, y):
        v = np.arange(4.0) + 1j * np.arange(4.0)[::-1]
        lhs = opcore.kron_apply(x * a + y * b, c, v)
        rhs = x * opcore.kron_apply(a, c, v) + y * opcore.kron_apply(b, c, v)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


class TestKronDifference:
    def test_matches_tensor_products(self):
        rng = np.random.default_rng(12)
        a, b = random_hermitian(rng, 2), random_hermitian(rng, 3)
        expected = np.kron(a, np.eye(3)) - np.kron(np.eye(2), b)
        np.testing.assert_array_equal(oracles.kron_difference(a, b), expected)


class TestKronApply:
    """kron_apply against the dense Kronecker product."""

    @pytest.mark.parametrize("d_a, d_b, m", [(3, 5, 4), (5, 3, 15), (1, 4, 2), (4, 1, 3),
                                             (1, 1, 1), (2, 3, 0), (3, 2, None)])
    def test_matches_dense_kron(self, d_a, d_b, m):
        rng = np.random.default_rng(d_a * 10 + d_b)
        a, b = random_complex(rng, (d_a, d_a)), random_complex(rng, (d_b, d_b))
        x = random_complex(rng, (d_a * d_b,) if m is None else (d_a * d_b, m))
        got = opcore.kron_apply(a, b, x)
        want = np.kron(a, b) @ x
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * max(1.0, np.abs(want).max(initial=0)))

    def test_right_product_through_transposes(self):
        rng = np.random.default_rng(4)
        a, b, x = random_complex(rng, (3, 3)), random_complex(rng, (2, 2)), random_complex(rng, (6, 6))
        np.testing.assert_allclose(opcore.kron_apply(a.T, b.T, x.T).T, x @ np.kron(a, b),
                                   rtol=0, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match the 6-dim product space"):
            opcore.kron_apply(np.eye(2), np.eye(3), np.ones((5, 2)))


def fix_phases_loop(v):
    """The per-column loop _fix_phases replaced, kept as its oracle."""
    v = np.array(v, dtype=np.complex128, copy=True)
    for j in range(v.shape[1]):
        col = v[:, j]
        k = int(np.argmax(np.abs(col)))
        piv = col[k]
        if abs(piv) > 0.0:
            v[:, j] = col * (piv.conjugate() / abs(piv))
    return v


class TestFixPhases:
    def test_bit_identical_to_column_loop(self):
        """Columns with tied moduli (first index wins), all-zero columns, and
        scales from 1e-300 to 1e300. One-row inputs are left out: numpy's
        complex multiply on a length-1 array may round its last bit otherwise,
        and a one-row eigenvector or range basis is exactly 1 anyway."""
        rng = np.random.default_rng(21)
        ties = zeros = 0
        for trial in range(400):
            n, m = int(rng.integers(2, 12)), int(rng.integers(0, 12))
            v = random_complex(rng, (n, m)) * 10.0 ** rng.uniform(-300, 300)
            if m:
                v[:, int(rng.integers(0, m))] = 0.0
                zeros += 1
            if m > 1:
                v[0, 1] *= 1e3
                v[n - 1, 1] = 1j * v[0, 1]            # ties the top entry's modulus
                ties += 1
            got, want = opcore._fix_phases(v), fix_phases_loop(v)
            assert np.array_equal(got.view(np.float64), want.view(np.float64)), trial
        assert ties > 100 and zeros > 100

    def test_tie_takes_first_index_and_zero_column_is_kept(self):
        v = np.array([[1j, 0.0], [-1.0, 0.0], [1j, 0.0]])
        got = opcore._fix_phases(v)
        np.testing.assert_array_equal(got[:, 0], [1.0, 1j, 1.0])
        np.testing.assert_array_equal(got[:, 1], [0.0, 0.0, 0.0])


class TestCommutator:
    def test_self_commutator_is_zero(self):
        t = np.diag([0.0, 1.0, 2.0]).astype(complex)
        assert np.array_equal(oracles.commutator(t, t), np.zeros((3, 3)))

    def test_disjoint_supports_commute(self):
        zi = np.kron(SIGMA_Z, np.eye(2))
        iz = np.kron(np.eye(2), SIGMA_Z)
        np.testing.assert_allclose(oracles.commutator(zi, iz), np.zeros((4, 4)), atol=0)

    def test_three_level_example(self):
        # oracle: 3x3 products done by hand
        t = np.diag([0.0, 1.0, 2.0]).astype(complex)
        expected = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]], dtype=complex)
        np.testing.assert_allclose(oracles.commutator(H4, t), expected, atol=0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            oracles.commutator(np.eye(2), np.eye(3))

    @settings(max_examples=25, deadline=None)
    @given(a=matrices(3), b=matrices(3))
    def test_antisymmetry_exact(self, a, b):
        assert np.array_equal(oracles.commutator(a, b), -oracles.commutator(b, a))


class TestOperatorNorm:
    def test_identity(self):
        for d in (1, 2, 5):
            assert opcore.operator_norm(np.eye(d)) == pytest.approx(1.0, abs=1e-14)

    def test_diagonal(self):
        assert opcore.operator_norm(np.diag([0.0, 1.0, 2.0])) == pytest.approx(2.0, abs=1e-14)

    def test_three_level_commutator(self):
        # oracle: SVD of the antisymmetric 2x2 block [[0,1],[-1,0]] has both
        # singular values 1
        t = np.diag([0.0, 1.0, 2.0]).astype(complex)
        assert opcore.operator_norm(oracles.commutator(H4, t)) == pytest.approx(1.0, abs=1e-14)

    def test_zero_matrix_takes_no_svd(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "norm", None)   # any SVD call would fail
        assert opcore.operator_norm(np.zeros((4, 4), dtype=complex)) == 0.0
        assert opcore.operator_norm(np.zeros((0, 0))) == 0.0

    def test_submultiplicative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = random_complex(rng, (4, 4))
            b = random_complex(rng, (4, 4))
            assert opcore.operator_norm(a @ b) <= \
                opcore.operator_norm(a) * opcore.operator_norm(b) + 1e-12


U = np.finfo(np.float64).eps / 2   # unit roundoff


class TestKronSumNorm:
    def test_matches_dense_norm(self):
        """kron_sum_norm(X, Y) against np.linalg.norm(X (x) I + I (x) Y, 2), for
        1-6 dims per side, scales 2^-40 to 2^40 and one side zero.

        Both are the norm of S = X (x) I + I (x) Y up to rounding. The dense sum
        rounds only entries where both terms are nonzero, by at most u ||S||_F,
        and ||S||_F <= F = sqrt(d_B) ||X||_F + sqrt(d_A) ||Y||_F. By Weyl's
        inequality a computed singular value or eigenvalue is within the
        backward error of its factorization, which LAPACK bounds by p(m) u ||A||
        for an m x m matrix, p a modest polynomial. Taking p(m) = 2 m^2 for the
        n x n SVD (n = d_A d_B) and for both eigvalsh calls, with
        d_A^2 + d_B^2 <= n^2 + 1, the two values differ by at most
        (3 + 4 n^2) u F. The largest difference seen is 0.36 n^2 u F.
        """
        rng = np.random.default_rng(23)
        worst = 0.0
        for trial in range(300):
            d_a, d_b = (int(d) for d in rng.integers(1, 7, size=2))
            x = random_hermitian(rng, d_a) * 2.0 ** rng.uniform(-40, 40)
            y = random_hermitian(rng, d_b) * 2.0 ** rng.uniform(-40, 40)
            if trial % 10 == 0:
                y = np.zeros_like(y)
            dense = np.linalg.norm(np.kron(x, np.eye(d_b)) + np.kron(np.eye(d_a), y), 2)
            f = np.sqrt(d_b) * np.linalg.norm(x) + np.sqrt(d_a) * np.linalg.norm(y)
            n = d_a * d_b
            gap = abs(opcore.kron_sum_norm(x, y) - dense) / ((3 + 4 * n * n) * U * f)
            assert gap <= 1.0, trial
            worst = max(worst, gap)
        assert worst > 0.0   # the two paths round differently: the bound is exercised

    def test_spectrum_is_sums_of_factor_eigenvalues(self):
        # X = diag(1, -3), Y = diag(2, -0.5): sums 3, 0.5, -1, -3.5, norm 3.5
        assert opcore.kron_sum_norm(np.diag([1.0, -3.0]), np.diag([2.0, -0.5])) == 3.5

    def test_overflowing_norm_is_inf_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert opcore.kron_sum_norm(np.diag([1.5e308]), np.diag([1e308])) == np.inf


class TestHermitianNorm:
    def test_matches_dense_norm(self):
        """hermitian_norm(M) against np.linalg.norm(M, 2) within the docstring's
        4 n^2 u ||M||, for 1-12 dims, scales 2^-40 to 2^40, on random Hermitian
        M, on i[H, diag(d)] and on rank-deficient M = B diag(w) B^dag with some
        w zero. The rank-deficient M is Hermitized after forming, as every
        caller does, since eigvalsh reads one triangle. The largest difference
        seen is 0.83 n^2 u ||M||."""
        rng = np.random.default_rng(31)
        seen = {"random": 0, "commutator": 0, "rank_deficient": 0}
        worst = 0.0
        for trial in range(300):
            n = int(rng.integers(1, 13))
            scale = 2.0 ** rng.uniform(-40, 40)
            kind = ("random", "commutator", "rank_deficient")[trial % 3]
            if kind == "random":
                m = random_hermitian(rng, n) * scale
            elif kind == "commutator":
                d = rng.normal(size=n) * scale
                m = 1j * oracles.commutator(random_hermitian(rng, n), np.diag(d))
            else:
                q, _ = np.linalg.qr(random_complex(rng, (n, n)))
                w = rng.normal(size=n) * scale
                w[rng.random(n) < 0.5] = 0.0
                m = (q * w) @ q.conj().T
                m = (m + m.conj().T) / 2.0
            seen[kind] += 1
            dense = np.linalg.norm(m, 2)
            gap = abs(opcore.hermitian_norm(m) - dense)
            assert gap <= 4 * n * n * U * dense, (trial, kind)
            if dense:
                worst = max(worst, gap / (n * n * U * dense))
        assert min(seen.values()) == 100
        assert worst > 0.0   # the two paths round differently: the bound is exercised

    def test_zero_matrix_takes_no_eigvalsh(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvalsh", None)   # any call would fail
        assert opcore.hermitian_norm(np.zeros((4, 4), dtype=complex)) == 0.0
        assert opcore.hermitian_norm(np.zeros((0, 0))) == 0.0

    def test_extreme_eigenvalue_of_either_sign(self):
        assert opcore.hermitian_norm(np.diag([-3.0, 1.0, 2.0])) == 3.0
        assert opcore.hermitian_norm(np.diag([-1.0, 0.0, 2.5])) == 2.5
        assert opcore.hermitian_norm(SIGMA_X) == pytest.approx(1.0, abs=4 * U)


class TestHermitianEig:
    def test_diagonal(self):
        evals, evecs = oracles.hermitian_eig(np.diag([0.0, 1.0, 2.0]))
        np.testing.assert_allclose(evals, [0.0, 1.0, 2.0], atol=1e-14)
        np.testing.assert_allclose(np.abs(evecs), np.eye(3), atol=1e-14)

    def test_sigma_x(self):
        # oracle: characteristic polynomial lambda^2 - 1 = 0
        evals, evecs = oracles.hermitian_eig(SIGMA_X)
        np.testing.assert_allclose(evals, [-1.0, 1.0], atol=1e-14)

    def test_reconstruction(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            m = random_hermitian(rng, 5)
            evals, evecs = oracles.hermitian_eig(m)
            recon = (evecs * evals) @ evecs.conj().T
            assert opcore.operator_norm(recon - m) <= 1e-12 * opcore.operator_norm(m)
            assert np.all(np.diff(evals) >= 0)
            assert oracles.unitarity_residual(evecs) <= 1e-12 * 5

    def test_phase_is_deterministic(self):
        rng = np.random.default_rng(5)
        m = random_hermitian(rng, 4)
        a = oracles.hermitian_eig(m)
        b = oracles.hermitian_eig(m.copy())
        assert np.array_equal(a[1], b[1])
        for j in range(4):
            col = a[1][:, j]
            piv = col[int(np.argmax(np.abs(col)))]
            assert piv.imag == pytest.approx(0.0, abs=1e-15)
            assert piv.real > 0

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            oracles.hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("factor, raises", [(1.01, True), (0.99, False)])
    def test_reconstruction_threshold_scales_with_spectrum(self, monkeypatch, factor, raises):
        # eigenvalues up to 1e6, so the threshold RECON_TOL * max|lambda| is 1e-6;
        # shifting the smallest eigenvalue by delta makes the reconstruction error delta
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(random_complex(rng, (4, 4)))
        m = (q * np.array([-1e6, 0.5, 3.0, 2e5])) @ q.conj().T
        m = (m + m.conj().T) / 2.0
        threshold = opcore.RECON_TOL * 1e6
        eigh = np.linalg.eigh

        def perturbed_eigh(a):
            w, v = eigh(a)
            w = w.copy()
            w[1] += factor * threshold    # 0.5, the smallest in magnitude
            return w, v

        monkeypatch.setattr(np.linalg, "eigh", perturbed_eigh)
        if raises:
            with pytest.raises(opcore.NumericalError, match="reconstruction"):
                oracles.hermitian_eig(m)
        else:
            oracles.hermitian_eig(m)


class TestEvolve:
    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(6)
        h = random_hermitian(rng, 4)
        np.testing.assert_allclose(oracles.evolve(h, 0.0), np.eye(4), atol=1e-14)

    def test_group_law(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            h = random_hermitian(rng, 3)
            t, s = rng.normal(size=2)
            lhs = oracles.evolve(h, t + s)
            rhs = oracles.evolve(h, t) @ oracles.evolve(h, s)
            assert opcore.operator_norm(lhs - rhs) <= 1e-10

    def test_inverse(self):
        rng = np.random.default_rng(8)
        h = random_hermitian(rng, 4)
        t = 2.7
        u = oracles.evolve(h, t) @ oracles.evolve(h, -t)
        assert opcore.operator_norm(u - np.eye(4)) <= 1e-10

    def test_diagonal_pi_phases(self):
        # oracle: scalar exponentials e^{-i pi} = e^{i pi} = -1
        u = oracles.evolve(np.diag([np.pi, -np.pi, 0.0]), 1.0)
        np.testing.assert_allclose(u, np.diag([-1.0, -1.0, 1.0]), atol=1e-14)

    def test_spectral_stability_under_commuting_evolution(self):
        # [H, K] = 0 built from a shared eigenbasis; the evolved operator must
        # keep K's spectrum (sorted eigenvalue match)
        rng = np.random.default_rng(9)
        for _ in range(10):
            basis = np.linalg.qr(random_complex(rng, (5, 5)))[0]
            k = (basis * rng.normal(size=5)) @ basis.conj().T
            h = (basis * rng.normal(size=5)) @ basis.conj().T
            u = oracles.evolve(h, 1.7)
            evolved = u.conj().T @ k @ u
            before = np.sort(np.linalg.eigvalsh((k + k.conj().T) / 2))
            after = np.sort(np.linalg.eigvalsh((evolved + evolved.conj().T) / 2))
            np.testing.assert_allclose(after, before, atol=1e-10)


def kernel_oracle(a, tol=opcore.KERNEL_TOL):
    """Independent kernel basis: eigenvectors of A^dag A with eigenvalue <= tol^2.

    eigh resolves eigenvalues only to eps * lam_max absolute, so the relative
    tol^2 cutoff is floored at dim * eps to keep the oracle well-posed.
    """
    gram = a.conj().T @ a
    w, v = np.linalg.eigh((gram + gram.conj().T) / 2)
    lam_max = max(float(w[-1]), 0.0)
    rel_cut = max(tol ** 2, gram.shape[0] * np.finfo(float).eps)
    keep = w <= rel_cut * lam_max if lam_max > 0 else np.ones_like(w, dtype=bool)
    return v[:, keep]


def max_principal_angle_sin(b1, b2):
    """sin of the largest principal angle between equal-dimension subspaces."""
    assert b1.shape == b2.shape
    if b1.shape[1] == 0:
        return 0.0
    residual = b2 - b1 @ (b1.conj().T @ b2)
    return float(np.linalg.norm(residual, 2))


class TestNullSpace:
    def test_zero_matrix_gives_full_space(self):
        sub = oracles.null_space(np.zeros((4, 4)))
        assert sub.dim == 4
        np.testing.assert_allclose(opcore.projector(sub), np.eye(4), atol=1e-14)

    def test_sync_operator_kernel(self):
        k = np.kron(SIGMA_Z, np.eye(2)) - np.kron(np.eye(2), SIGMA_Z)
        sub = oracles.null_space(k)
        assert sub.dim == 2
        np.testing.assert_allclose(opcore.projector(sub),
                                   np.diag([1.0, 0.0, 0.0, 1.0]), atol=1e-12)

    def test_rank_deficient_product(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            a = random_complex(rng, (6, 4)) @ random_complex(rng, (4, 6))
            sub = oracles.null_space(a)
            assert sub.dim == 2
            assert opcore.operator_norm(a @ sub.basis) <= 1e-9

    def test_matches_gram_eigendecomposition_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(30):
            n = int(rng.integers(2, 9))
            r = int(rng.integers(1, n + 1))
            a = random_complex(rng, (n, r)) @ random_complex(rng, (r, n))
            sub = oracles.null_space(a)
            oracle = kernel_oracle(a)
            assert sub.dim == oracle.shape[1]
            assert max_principal_angle_sin(sub.basis, oracle) <= 1e-8

    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            oracles.null_space(np.eye(2), tol=0.0)

    def test_records_cutoff(self):
        a = np.diag([1.0, 1e-14])
        sub = oracles.null_space(a, tol=1e-10)
        assert sub.tol_used == pytest.approx(1e-10, rel=1e-12)
        assert sub.dim == 1

    def test_roundoff_sized_matrix_gives_full_space(self):
        # sigma_max = 2e-16 is above the zero-matrix test, so the relative
        # cutoff alone would keep it as rank; the absolute floor drops it
        sub = oracles.null_space(np.full((2, 2), 1e-16))
        assert sub.dim == 2
        assert sub.tol_used == opcore.KERNEL_ABS_FLOOR


class TestProjector:
    def test_full_space(self):
        sub = oracles.null_space(np.zeros((3, 3)))
        np.testing.assert_allclose(opcore.projector(sub), np.eye(3), atol=1e-14)

    def test_idempotent_hermitian_trace(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, n + 1))
            basis = np.linalg.qr(random_complex(rng, (n, k)))[0]
            sub = opcore.Subspace(ambient_dim=n, basis=basis, tol_used=0.0)
            p = opcore.projector(sub)
            assert opcore.operator_norm(p @ p - p) <= 1e-10
            assert oracles.hermiticity_residual(p) <= 1e-10
            assert np.trace(p).real == pytest.approx(k, abs=1e-10)

    def test_subspace_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            opcore.Subspace(ambient_dim=2, basis=np.array([[1.0], [1.0]]), tol_used=0.0)
