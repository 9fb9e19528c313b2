import numpy as np
import pytest

from syncsub import clocks, opcore

H4 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)


def random_hermitian(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (g + g.conj().T) / 2.0


class TestMakeClock:
    def test_three_level(self):
        t = clocks.make_clock([0, 1, 2])
        np.testing.assert_array_equal(t.matrix(), np.diag([0.0, 1.0, 2.0]))
        assert t.non_degenerate

    def test_pauli_z(self):
        t = clocks.make_clock([1, -1])
        np.testing.assert_array_equal(t.matrix(), np.diag([1.0, -1.0]))
        assert t.non_degenerate

    def test_degenerate_flag(self):
        assert not clocks.make_clock([1, 1, 2]).non_degenerate

    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(ValueError):
            clocks.make_clock([])
        with pytest.raises(ValueError):
            clocks.make_clock([0.0, np.inf])

    def test_custom_basis(self):
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        t = clocks.make_clock([1, -1], basis=h)
        # H diag(1,-1) H^dag = sigma_x
        np.testing.assert_allclose(t.matrix(), [[0, 1], [1, 0]], atol=1e-14)

    def test_rejects_non_unitary_basis(self):
        with pytest.raises(ValueError):
            clocks.make_clock([1, -1], basis=np.diag([1.0, 0.5]))


class TestCompatibilityResidual:
    def test_diagonal_hamiltonians_commute(self):
        t = clocks.make_clock([0, 1, 2])
        h2 = np.diag([np.pi, -np.pi, 0.0]).astype(complex)
        assert clocks.compatibility_residual(h2, t) <= 1e-12

    def test_off_diagonal_coupling(self):
        # oracle: 3x3 products by hand give ||[H4, T]|| = 1
        t = clocks.make_clock([0, 1, 2])
        assert clocks.compatibility_residual(H4, t) == pytest.approx(1.0, abs=1e-12)

    def test_clock_with_itself(self):
        t = clocks.make_clock([0, 1, 2])
        assert clocks.compatibility_residual(t.matrix(), t) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            clocks.compatibility_residual(np.eye(2), clocks.make_clock([0, 1, 2]))


class TestBlockStructure:
    def test_non_degenerate_gives_singletons(self):
        blocks = clocks.block_structure(clocks.make_clock([0, 1, 2])).blocks
        assert [b.dim for b in blocks] == [1, 1, 1]
        assert [b.eigenvalue for b in blocks] == [0.0, 1.0, 2.0]

    def test_degenerate_grouping(self):
        blocks = clocks.block_structure(clocks.make_clock([1, 1, 2])).blocks
        assert sorted(b.dim for b in blocks) == [1, 2]

    def test_identity_clock_single_block(self):
        blocks = clocks.block_structure(clocks.make_clock([1.0] * 4)).blocks
        assert len(blocks) == 1
        assert blocks[0].dim == 4
        np.testing.assert_allclose(blocks[0].projector, np.eye(4), atol=1e-14)

    def test_projectors_orthogonal_and_complete(self):
        rng = np.random.default_rng(0)
        basis = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))[0]
        t = clocks.make_clock([0, 0, 1, 2, 2], basis=basis)
        blocks = clocks.block_structure(t).blocks
        total = sum(b.projector for b in blocks)
        np.testing.assert_allclose(total, np.eye(5), atol=1e-10)
        for i, a in enumerate(blocks):
            for b in blocks[i + 1:]:
                assert opcore.operator_norm(a.projector @ b.projector) <= 1e-10


class TestClassifyCompatibility:
    def test_diagonal_example(self):
        t = clocks.make_clock([0, 1, 2])
        v = clocks.classify_compatibility(np.diag([0.0, np.sqrt(2), -1.0]), t)
        assert v.kind == "diagonal"
        assert v.residual <= 1e-12

    def test_incompatible_example(self):
        t = clocks.make_clock([0, 1, 2])
        v = clocks.classify_compatibility(H4, t)
        assert v.kind == "incompatible"
        assert v.off_block_mass == pytest.approx(1.0, abs=1e-12)

    def test_block_diagonal_on_degenerate_eigenspace(self):
        rng = np.random.default_rng(1)
        t = clocks.make_clock([1, 1, 2])
        p1 = np.diag([1.0, 1.0, 0.0]).astype(complex)
        h = p1 @ random_hermitian(rng, 3) @ p1
        v = clocks.classify_compatibility(h, t)
        assert v.kind == "block_diagonal"
        assert v.residual <= 1e-12

    @pytest.mark.parametrize("coupling, kind", [(1e-8, "diagonal"), (1e-3, "block_diagonal")])
    def test_off_diagonal_limit_scales_with_norm(self, coupling, kind):
        # the coupling stays inside the degenerate block, so [H, T] = 0; its
        # norm is compared with compat_tol * ||H|| = 1e-4, not with compat_tol
        h = np.diag([1e6, 0.0, 0.5])
        h[0, 1] = h[1, 0] = coupling
        v = clocks.classify_compatibility(h, clocks.make_clock([0, 0, 1]))
        assert v.kind == kind
        assert v.residual <= 1e-12 and v.off_block_mass <= 1e-12

    def test_commutant_closure(self):
        # functions of T commute with each other and classify as diagonal
        rng = np.random.default_rng(2)
        basis = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        t = clocks.make_clock([0, 1, 2, 3], basis=basis)
        f = (basis * rng.normal(size=4)) @ basis.conj().T
        g = (basis * rng.normal(size=4)) @ basis.conj().T
        assert opcore.operator_norm(f @ g - g @ f) <= 1e-12 * (
            opcore.operator_norm(f) * opcore.operator_norm(g))
        for h in (f, g):
            assert clocks.classify_compatibility((h + h.conj().T) / 2, t).kind == "diagonal"

    def test_block_reconstruction(self):
        rng = np.random.default_rng(3)
        t = clocks.make_clock([0, 0, 1, 1, 2])
        for seed in range(10):
            h = clocks.random_compatible(t, seed)
            v = clocks.classify_compatibility(h, t)
            assert v.kind != "incompatible"
            assert v.off_block_mass <= clocks.COMPAT_TOL * max(1.0, opcore.operator_norm(h))

    def test_non_degenerate_never_block_diagonal(self):
        t = clocks.make_clock([0.0, 0.5, 1.5, 4.0])
        for seed in range(20):
            h = clocks.random_compatible(t, seed)
            v = clocks.classify_compatibility(h, t)
            assert v.residual <= 1e-12 * max(1.0, opcore.operator_norm(h) * 4.0)
            assert v.kind == "diagonal"


class TestRandomCompatible:
    def test_non_degenerate_gives_diagonal(self):
        t = clocks.make_clock([0, 1, 2])
        h = clocks.random_compatible(t, 17)
        off = h - np.diag(np.diag(h))
        assert opcore.operator_norm(off) <= 1e-12

    def test_identity_clock_is_unconstrained(self):
        t = clocks.make_clock([1.0, 1.0, 1.0])
        h = clocks.random_compatible(t, 5)
        assert opcore.hermiticity_residual(h) <= 1e-12
        # generic sample has off-diagonal mass
        assert opcore.operator_norm(h - np.diag(np.diag(h))) > 0.1

    def test_deterministic_per_seed(self):
        t = clocks.make_clock([0, 1, 1, 3])
        assert np.array_equal(clocks.random_compatible(t, 9), clocks.random_compatible(t, 9))
        assert not np.array_equal(clocks.random_compatible(t, 9), clocks.random_compatible(t, 10))

    def test_soundness_across_seeds(self):
        rng = np.random.default_rng(4)
        for trial in range(100):
            dim = int(rng.integers(2, 9))
            labels = rng.integers(0, 4, size=dim).astype(float)
            t = clocks.make_clock(labels)
            for seed in range(10):
                h = clocks.random_compatible(t, 1000 * trial + seed)
                res = clocks.compatibility_residual(h, t)
                bound = 1e-11 * max(1.0, opcore.operator_norm(h)
                                    * opcore.operator_norm(t.matrix()))
                assert res <= bound


class TestClockFromHamiltonian:
    def test_clusters_degenerate_spectrum(self):
        t = clocks.clock_from_hamiltonian(np.diag([5.0, 5.0, 7.0]), gap_tol=1e-6)
        np.testing.assert_array_equal(t.labels, [0.0, 0.0, 1.0])
        np.testing.assert_allclose(np.abs(t.basis), np.eye(3), atol=1e-12)
        assert not t.is_trivial

    def test_scalar_hamiltonian_is_trivial(self):
        t = clocks.clock_from_hamiltonian(3.0 * np.eye(4), gap_tol=1e-6)
        assert t.is_trivial
        np.testing.assert_array_equal(t.labels, np.zeros(4))

    def test_gap_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            clocks.clock_from_hamiltonian(np.eye(2), gap_tol=0.0)

    def test_round_trip_with_compatible_sample(self):
        t = clocks.make_clock([0.0, 1.0, 2.0, 3.0])
        for seed in range(20):
            h = clocks.random_compatible(t, seed)
            w = np.linalg.eigvalsh(h)
            if np.min(np.diff(np.sort(w))) < 1e-5:
                continue  # clustering needs distinct block eigenvalues
            t2 = clocks.clock_from_hamiltonian(h, gap_tol=1e-6)
            res = opcore.operator_norm(opcore.commutator(t2.matrix(), t.matrix()))
            assert res <= 1e-9

    def test_commutes_with_source(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            h = random_hermitian(rng, 6)
            t = clocks.clock_from_hamiltonian(h, gap_tol=1e-8)
            res = clocks.compatibility_residual(h, t)
            assert res <= 1e-10 * max(1.0, opcore.operator_norm(h)
                                      * opcore.operator_norm(t.matrix()))
