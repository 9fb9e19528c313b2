import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from syncsub import clocks, opcore
from test_norm_screen import call_sites
from test_sync_oracle import random_unitary

H4 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)


def random_hermitian(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (g + g.conj().T) / 2.0


INT_LABELS = st.lists(st.integers(0, 3), min_size=1, max_size=8)   # degenerate ones too
SEEDS = st.integers(0, 2**32 - 1)
U = np.finfo(np.float64).eps
ORACLE_C = 16   # worst measured: 9.6 (off_block_mass), 2.8 (residual) on 30000 inputs


class TestMakeClock:
    def test_three_level(self):
        t = clocks.make_clock([0, 1, 2])
        np.testing.assert_array_equal(oracles.clock_matrix(t), np.diag([0.0, 1.0, 2.0]))
        assert len(oracles.block_structure(t).blocks) == t.dim

    def test_pauli_z(self):
        t = clocks.make_clock([1, -1])
        np.testing.assert_array_equal(oracles.clock_matrix(t), np.diag([1.0, -1.0]))
        assert len(oracles.block_structure(t).blocks) == t.dim

    def test_degenerate_flag(self):
        t = clocks.make_clock([1, 1, 2])
        assert len(oracles.block_structure(t).blocks) < t.dim

    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(ValueError):
            clocks.make_clock([])
        with pytest.raises(ValueError):
            clocks.make_clock([0.0, np.inf])

    def test_custom_basis(self):
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        t = clocks.make_clock([1, -1], basis=h)
        # H diag(1,-1) H^dag = sigma_x
        np.testing.assert_allclose(oracles.clock_matrix(t), [[0, 1], [1, 0]], atol=1e-14)

    def test_rejects_non_unitary_basis(self):
        with pytest.raises(ValueError):
            clocks.make_clock([1, -1], basis=np.diag([1.0, 0.5]))


class TestCompatibilityResidual:
    """classify_compatibility's residual ||[H, T]||, taken in the clock basis."""

    def test_diagonal_hamiltonians_commute(self):
        t = clocks.make_clock([0, 1, 2])
        h2 = np.diag([np.pi, -np.pi, 0.0]).astype(complex)
        assert clocks.classify_compatibility(h2, t)["residual"] <= 1e-12

    def test_off_diagonal_coupling(self):
        # oracle: 3x3 products by hand give ||[H4, T]|| = 1
        t = clocks.make_clock([0, 1, 2])
        assert clocks.classify_compatibility(H4, t)["residual"] == pytest.approx(1.0, abs=1e-12)

    def test_clock_with_itself(self):
        t = clocks.make_clock([0, 1, 2])
        assert clocks.classify_compatibility(oracles.clock_matrix(t), t)["residual"] == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match clock dim"):
            clocks.classify_compatibility(np.eye(2), clocks.make_clock([0, 1, 2]))


class TestBlockStructure:
    """The clock's blocks as classify_compatibility sees them: off_block_mass
    is the norm of H' = B^dag H B on the label pairs outside the kernel rule."""

    def test_non_degenerate_gives_singletons(self):
        h = random_hermitian(np.random.default_rng(5), 3)
        v = clocks.classify_compatibility(h, clocks.make_clock([0, 1, 2]))
        assert v["off_block_mass"] == pytest.approx(
            opcore.operator_norm(h - np.diag(np.diag(h))), rel=1e-14)

    def test_degenerate_grouping(self):
        t = clocks.make_clock([1, 1, 2])
        inside, across = np.diag([0.5, 0.2, -0.3]), np.diag([0.5, 0.2, -0.3])
        inside[0, 1] = inside[1, 0] = 0.25
        across[0, 2] = across[2, 0] = 0.25
        assert clocks.classify_compatibility(inside, t)["off_block_mass"] == 0.0
        assert clocks.classify_compatibility(across, t)["off_block_mass"] == 0.25

    def test_identity_clock_single_block(self):
        h = random_hermitian(np.random.default_rng(6), 4)
        v = clocks.classify_compatibility(h, clocks.make_clock([1.0] * 4))
        assert (v["residual"], v["off_block_mass"], v["class"]) == (0.0, 0.0, "block_diagonal")

    def test_projectors_orthogonal_and_complete(self):
        # the dense oracle's projectors, which random_compatible builds from
        rng = np.random.default_rng(0)
        basis = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))[0]
        t = clocks.make_clock([0, 0, 1, 2, 2], basis=basis)
        blocks = oracles.block_structure(t).blocks
        total = sum(b.projector for b in blocks)
        np.testing.assert_allclose(total, np.eye(5), atol=1e-10)
        for i, a in enumerate(blocks):
            for b in blocks[i + 1:]:
                assert opcore.operator_norm(a.projector @ b.projector) <= 1e-10


class TestClassifyCompatibility:
    def test_diagonal_example(self):
        t = clocks.make_clock([0, 1, 2])
        v = clocks.classify_compatibility(np.diag([0.0, np.sqrt(2), -1.0]), t)
        assert v["class"] == "diagonal"
        assert v["residual"] <= 1e-12

    def test_incompatible_example(self):
        t = clocks.make_clock([0, 1, 2])
        v = clocks.classify_compatibility(H4, t)
        assert v["class"] == "incompatible"
        assert v["off_block_mass"] == pytest.approx(1.0, abs=1e-12)

    def test_block_diagonal_on_degenerate_eigenspace(self):
        rng = np.random.default_rng(1)
        t = clocks.make_clock([1, 1, 2])
        p1 = np.diag([1.0, 1.0, 0.0]).astype(complex)
        h = p1 @ random_hermitian(rng, 3) @ p1
        v = clocks.classify_compatibility(h, t)
        assert v["class"] == "block_diagonal"
        assert v["residual"] <= 1e-12

    @pytest.mark.parametrize("coupling, kind", [(1e-8, "diagonal"), (1e-3, "block_diagonal")])
    def test_off_diagonal_limit_scales_with_norm(self, coupling, kind):
        # the coupling stays inside the degenerate block, so [H, T] = 0; its
        # norm is compared with compat_tol * ||H|| = 1e-4, not with compat_tol
        h = np.diag([1e6, 0.0, 0.5])
        h[0, 1] = h[1, 0] = coupling
        v = clocks.classify_compatibility(h, clocks.make_clock([0, 0, 1]))
        assert v["class"] == kind
        assert v["residual"] <= 1e-12 and v["off_block_mass"] <= 1e-12

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
            assert clocks.classify_compatibility((h + h.conj().T) / 2, t)["class"] == "diagonal"

    def test_block_reconstruction(self):
        rng = np.random.default_rng(3)
        t = clocks.make_clock([0, 0, 1, 1, 2])
        for seed in range(10):
            h = oracles.random_compatible(t, seed)
            v = clocks.classify_compatibility(h, t)
            assert v["class"] != "incompatible"
            assert v["off_block_mass"] <= clocks.COMPAT_TOL * max(1.0, opcore.operator_norm(h))

    def test_non_degenerate_never_block_diagonal(self):
        t = clocks.make_clock([0.0, 0.5, 1.5, 4.0])
        for seed in range(20):
            h = oracles.random_compatible(t, seed)
            v = clocks.classify_compatibility(h, t)
            assert v["residual"] <= 1e-12 * max(1.0, opcore.operator_norm(h) * 4.0)
            assert v["class"] == "diagonal"


def sample_hamiltonian(family, t, seed):
    """A Hermitian of one of four families against clock t."""
    rng = np.random.default_rng(seed)
    if family == "random":
        return random_hermitian(rng, t.dim)
    if family == "function":                   # f(T), diagonal in the clock basis
        h = (t.basis * rng.normal(size=t.dim)) @ t.basis.conj().T
        return (h + h.conj().T) / 2.0
    h = oracles.random_compatible(t, seed)      # block-diagonal in the clock basis
    if family == "perturbed":
        h = h + 1e-6 * random_hermitian(rng, t.dim)
    return h


class TestAgainstDenseOracle:
    """The clock-basis classifier against the dense oracles.classify_compatibility,
    which forms T, [H, T] and one P H P per block of LABEL_SEP groups. Labels
    0..3 scaled by 1e-3, 1 or 1e3 are at least 1e-3 apart, where LABEL_SEP and
    the kernel rule group them alike."""

    @settings(max_examples=300, deadline=None)
    @given(ints=INT_LABELS, scale=st.sampled_from([1e-3, 1.0, 1e3]), rotated=st.booleans(),
           family=st.sampled_from(["random", "compatible", "function", "perturbed"]),
           seed=SEEDS)
    @example(ints=[0, 0, 1, 1, 2], scale=1.0, rotated=True, family="compatible", seed=3)
    @example(ints=[0, 1, 2], scale=1e3, rotated=False, family="random", seed=4)
    def test_kind_and_values_match(self, ints, scale, rotated, family, seed):
        labels = np.asarray(ints, dtype=float) * scale
        basis = random_unitary(np.random.default_rng(seed), len(ints)) if rotated else None
        t = clocks.make_clock(labels, basis)
        h = sample_hamiltonian(family, t, seed)
        got = clocks.classify_compatibility(h, t)
        want = oracles.classify_compatibility(h, t)
        assert got["class"] == want["class"]
        # c d u ||H|| max(1, ||T||): the roundoff of the dense products both sides form
        limit = ORACLE_C * t.dim * U * opcore.operator_norm(h) * max(1.0, np.max(np.abs(labels)))
        assert abs(got["residual"] - want["residual"]) <= limit
        assert abs(got["off_block_mass"] - want["off_block_mass"]) <= limit

    @settings(max_examples=30, deadline=None)
    @given(ints=INT_LABELS, rotated=st.booleans(), seed=SEEDS)
    @example(ints=[0, 1, 2, 3], rotated=False, seed=0)
    @example(ints=[3, 0, 0, 2, 1], rotated=True, seed=1)
    def test_off_block_mass_is_scale_invariant(self, ints, rotated, seed):
        """Labels times 2^k are exact and the kernel rule is relative, so the
        blocks, and off_block_mass bit for bit, do not move for k in -35..35.
        The dense oracle's absolute LABEL_SEP merges every label for k <= -30."""
        rng = np.random.default_rng(seed)
        basis = random_unitary(rng, len(ints)) if rotated else None
        h = random_hermitian(rng, len(ints))
        want = clocks.classify_compatibility(h, clocks.make_clock(ints, basis))["off_block_mass"]
        for k in range(-35, 36):
            t = clocks.make_clock(np.ldexp(np.asarray(ints, dtype=float), k), basis)
            assert clocks.classify_compatibility(h, t)["off_block_mass"] == want, k


class TestRandomCompatible:
    def test_non_degenerate_gives_diagonal(self):
        t = clocks.make_clock([0, 1, 2])
        h = oracles.random_compatible(t, 17)
        off = h - np.diag(np.diag(h))
        assert opcore.operator_norm(off) <= 1e-12

    def test_identity_clock_is_unconstrained(self):
        t = clocks.make_clock([1.0, 1.0, 1.0])
        h = oracles.random_compatible(t, 5)
        assert oracles.hermiticity_residual(h) <= 1e-12
        # generic sample has off-diagonal mass
        assert opcore.operator_norm(h - np.diag(np.diag(h))) > 0.1

    def test_deterministic_per_seed(self):
        t = clocks.make_clock([0, 1, 1, 3])
        assert np.array_equal(oracles.random_compatible(t, 9), oracles.random_compatible(t, 9))
        assert not np.array_equal(oracles.random_compatible(t, 9), oracles.random_compatible(t, 10))

    def test_soundness_across_seeds(self):
        rng = np.random.default_rng(4)
        for trial in range(100):
            dim = int(rng.integers(2, 9))
            labels = rng.integers(0, 4, size=dim).astype(float)
            t = clocks.make_clock(labels)
            for seed in range(10):
                h = oracles.random_compatible(t, 1000 * trial + seed)
                res = oracles.compatibility_residual(h, t)
                bound = 1e-11 * max(1.0, opcore.operator_norm(h)
                                    * opcore.operator_norm(oracles.clock_matrix(t)))
                assert res <= bound


def test_label_rules_live_in_label_gaps():
    """Label differences and the equal-labels cutoff are computed in one
    function, which the compat, kernel, drift and group kinds all call."""
    assert call_sites("subtract.outer", "kernel_cutoff") == ["clocks.label_gaps"] * 2
