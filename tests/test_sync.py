import numpy as np
import pytest

import oracles
from syncsub import clocks, opcore, sync

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def pauli_z_system(h):
    za = clocks.make_clock([1, -1])
    zb = clocks.make_clock([1, -1])
    return sync.make_system(za, zb, h)


def perturbed_system(dim, target_eps, seed):
    """Locally compatible base plus a perturbation scaled to realized epsilon."""
    ta = clocks.make_clock(np.arange(dim, dtype=float))
    tb = clocks.make_clock(np.arange(dim, dtype=float))
    base = oracles.local_hamiltonian(oracles.random_compatible(ta, seed),
                                     oracles.random_compatible(tb, seed + 1))
    k = oracles.sync_operator(ta, tb)
    rng = np.random.Generator(np.random.Philox(key=seed + 2))
    g = rng.normal(size=(dim * dim,) * 2) + 1j * rng.normal(size=(dim * dim,) * 2)
    v = (g + g.conj().T) / 2.0
    scale = target_eps / opcore.operator_norm(oracles.commutator(v, k))
    return sync.make_system(ta, tb, base + scale * v)


class TestSyncOperator:
    def test_pauli_z_both_sides(self):
        # oracle: eigenvalue differences t_j - t_k
        k = oracles.sync_operator(clocks.make_clock([1, -1]), clocks.make_clock([1, -1]))
        np.testing.assert_array_equal(k, np.diag([0.0, 2.0, -2.0, 0.0]))

    def test_identity_clocks(self):
        k = oracles.sync_operator(clocks.make_clock([1.0, 1.0]), clocks.make_clock([1.0, 1.0]))
        np.testing.assert_array_equal(k, np.zeros((4, 4)))

    def test_three_level_label_pairs(self):
        t = clocks.make_clock([0, 1, 2])
        k = oracles.sync_operator(t, t)
        diffs = sorted(set(np.round(np.diag(k).real, 12)))
        assert diffs == [-2.0, -1.0, 0.0, 1.0, 2.0]
        assert oracles.null_space(k).dim == 3

    def test_unequal_dims_allowed(self):
        k = oracles.sync_operator(clocks.make_clock([0, 1]), clocks.make_clock([5, 6, 7]))
        assert k.shape == (6, 6)
        assert oracles.null_space(k).dim == 0  # no shared labels


class TestSyncBundle:
    def test_pauli_z_with_local_z_hamiltonian(self):
        h = 0.8 * np.kron(SIGMA_Z, np.eye(2)) + 0.3 * np.kron(np.eye(2), SIGMA_Z)
        system = pauli_z_system(h)
        bundle = sync.sync_bundle(system)
        k = oracles.sync_operator(system.clock_a, system.clock_b)
        assert bundle.kernel.dim == 2
        assert bundle.epsilon <= 1e-12
        np.testing.assert_allclose(opcore.projector(bundle.kernel), np.diag([1.0, 0, 0, 1.0]),
                                   atol=1e-12)
        kernel_res = opcore.operator_norm(k @ bundle.kernel.basis)
        assert kernel_res <= opcore.KERNEL_TOL * max(1.0, opcore.operator_norm(k))

    def test_epsilon_for_transverse_field(self):
        # oracle: [X (x) I, K] = -2i (Y (x) I), spectral norm 2
        h = np.kron(SIGMA_X, np.eye(2))
        bundle = sync.sync_bundle(pauli_z_system(h))
        assert bundle.epsilon == pytest.approx(2.0, abs=1e-12)

    def test_roundoff_gap_kernel_keeps_the_absolute_floor(self):
        """Clocks [0, 1e-13] and [0]: ||K|| = 1e-13, so tol * ||K|| = 1e-23 would
        keep only the exact match, while null_space's rank rule counts the
        1e-13 singular value as zero under its absolute floor."""
        system = sync.make_system(clocks.make_clock([0.0, 1e-13]), clocks.make_clock([0.0]),
                                  np.zeros((2, 2)))
        bundle = sync.sync_bundle(system)
        dense = oracles.null_space(oracles.sync_operator(system.clock_a, system.clock_b))
        assert bundle.kernel.dim == dense.dim == 2
        assert bundle.kernel.tol_used == dense.tol_used == opcore.KERNEL_ABS_FLOOR

    def test_k_norm_matches_dense_operator_norm(self):
        """||K|| = max |a_i - b_j| over the labels, for clocks in random bases."""
        rng = np.random.default_rng(12)
        for d_a, d_b in ((1, 3), (4, 2), (5, 5)):
            for _ in range(10):
                clock_a, clock_b = (clocks.make_clock(
                    rng.normal(size=d) * 10.0 ** rng.uniform(-2, 2),
                    np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0])
                    for d in (d_a, d_b))
                system = sync.make_system(clock_a, clock_b, np.zeros((d_a * d_b,) * 2))
                dense = opcore.operator_norm(oracles.sync_operator(clock_a, clock_b))
                assert sync.sync_bundle(system).k_norm == pytest.approx(dense, rel=1e-13)

    def test_canonical_kernel_basis(self):
        # matching pairs (0,1), (1,0), (2,1) give e_1, e_2, e_5 in product-index order
        system = sync.make_system(clocks.make_clock([0, 1, 0]), clocks.make_clock([1, 0]),
                                  np.zeros((6, 6)))
        bundle = sync.sync_bundle(system)
        np.testing.assert_array_equal(bundle.kernel.basis, np.eye(6)[:, [1, 2, 5]])

    def test_identity_clocks_trivial_operator(self):
        ta = clocks.make_clock([1.0, 1.0])
        rng = np.random.default_rng(0)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        system = sync.make_system(ta, ta, (g + g.conj().T) / 2)
        bundle = sync.sync_bundle(system)
        assert bundle.kernel.dim == 4
        assert bundle.epsilon == 0.0


class TestLocalSystem:
    def test_local_terms_commute(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            da, db = rng.integers(2, 5, size=2)
            ta = clocks.make_clock(rng.integers(0, 3, size=da).astype(float))
            tb = clocks.make_clock(rng.integers(0, 3, size=db).astype(float))
            ha = oracles.random_compatible(ta, int(rng.integers(0, 1000)))
            hb = oracles.random_compatible(tb, int(rng.integers(0, 1000)))
            system = sync.make_system(ta, tb, oracles.local_hamiltonian(ha, hb))
            k = oracles.sync_operator(ta, tb)
            res = opcore.operator_norm(oracles.commutator(k, system.hamiltonian))
            assert res <= 1e-11 * max(1.0, opcore.operator_norm(k)
                                      * opcore.operator_norm(system.hamiltonian))

    def test_dimension_validation(self):
        ta = clocks.make_clock([0, 1])
        with pytest.raises(ValueError):
            sync.make_system(ta, ta, np.eye(5))


class TestPreservationResidual:
    def test_compatible_diagonal_hamiltonian(self):
        system = pauli_z_system(np.kron(SIGMA_Z, SIGMA_Z))
        bundle = sync.sync_bundle(system)
        assert oracles.preservation_residual(system, bundle, [0, 1, 10]) <= 1e-10

    def test_zero_time_exact(self):
        system = pauli_z_system(np.kron(SIGMA_X, np.eye(2)))
        bundle = sync.sync_bundle(system)
        assert oracles.preservation_residual(system, bundle, [0.0]) <= 1e-15

    def test_transverse_field_leaks(self):
        # oracle: closed-form Rabi rotation leaks sin(pi/4) from the kernel
        system = pauli_z_system(np.kron(SIGMA_X, np.eye(2)))
        bundle = sync.sync_bundle(system)
        assert oracles.preservation_residual(system, bundle, [np.pi / 4]) > 0.5

    def test_kernel_invariance_long_times(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            da, db = rng.integers(2, 5, size=2)
            ta = clocks.make_clock(rng.integers(0, 3, size=da).astype(float))
            tb = clocks.make_clock(rng.integers(0, 3, size=db).astype(float))
            system = sync.make_system(ta, tb, oracles.local_hamiltonian(
                oracles.random_compatible(ta, trial), oracles.random_compatible(tb, trial + 500)))
            bundle = sync.sync_bundle(system)
            if bundle.epsilon <= 1e-11:
                assert oracles.preservation_residual(system, bundle, [0.1, 1, 10, 100]) <= 1e-10

    def test_spectral_stability(self):
        # [H, T_A (x) I] = 0: evolved T_A (x) I keeps its sorted spectrum
        rng = np.random.default_rng(3)
        for trial in range(10):
            ta = clocks.make_clock(rng.integers(0, 3, size=3).astype(float))
            tb = clocks.make_clock(rng.integers(0, 3, size=3).astype(float))
            system = sync.make_system(ta, tb, oracles.local_hamiltonian(
                oracles.random_compatible(ta, trial), oracles.random_compatible(tb, trial + 77)))
            ta_full = np.kron(oracles.clock_matrix(ta), np.eye(3))
            assert opcore.operator_norm(
                oracles.commutator(system.hamiltonian, ta_full)) <= 1e-11
            u = oracles.evolve(system.hamiltonian, 1.3)
            evolved = u.conj().T @ ta_full @ u
            before = np.sort(np.linalg.eigvalsh(ta_full))
            after = np.sort(np.linalg.eigvalsh((evolved + evolved.conj().T) / 2))
            np.testing.assert_allclose(after, before, atol=1e-10)


class TestDriftTrace:
    def test_compatible_case_is_flat(self):
        h = np.kron(SIGMA_Z, np.eye(2)) + np.kron(np.eye(2), SIGMA_Z)
        system = pauli_z_system(h)
        bundle = sync.sync_bundle(system)
        psi0 = sync.sample_kernel_state(bundle, 0)
        report = sync.drift_trace(system, psi0, np.linspace(-30, 30, 21), bundle=bundle)
        assert report["epsilon"] <= 1e-12
        assert max(report["drift"]) <= 1e-10
        assert min(report["fidelity"]) >= 1 - 1e-10
        assert report["drift_bound_ok"] and report["fidelity_bound_ok"]

    def test_linear_drift_bound(self):
        system = perturbed_system(3, 0.05, seed=10)
        bundle = sync.sync_bundle(system)
        assert bundle.epsilon == pytest.approx(0.05, rel=1e-10)
        psi0 = sync.sample_kernel_state(bundle, 1)
        times = np.linspace(0, 20, 41)
        report = sync.drift_trace(system, psi0, times, bundle=bundle)
        assert report["drift_bound_ok"]
        drift, fidelity = np.asarray(report["drift"]), np.asarray(report["fidelity"])
        assert np.all(drift <= 0.05 * times + 1e-9)
        assert np.all(drift >= 0)
        assert np.all(fidelity >= 0) and np.all(fidelity <= 1 + 1e-12)

    def test_negative_times(self):
        system = perturbed_system(2, 0.1, seed=20)
        bundle = sync.sync_bundle(system)
        psi0 = sync.sample_kernel_state(bundle, 2)
        report = sync.drift_trace(system, psi0, [-5.0, -1.0, -0.1], bundle=bundle)
        assert report["drift_bound_ok"]
        assert np.all(report["drift"] <= bundle.epsilon * np.array([5.0, 1.0, 0.1]) + 1e-9)

    def test_fidelity_decomposition(self):
        # F(t) + ||(I - Pi) psi(t)||^2 = 1 exactly up to roundoff
        system = perturbed_system(3, 0.1, seed=30)
        bundle = sync.sync_bundle(system)
        psi0 = sync.sample_kernel_state(bundle, 3)
        eye = np.eye(system.dim)
        projector = opcore.projector(bundle.kernel)
        evals, evecs = oracles.hermitian_eig(system.hamiltonian)
        for t in (0.0, 0.7, 5.0, 19.0):
            u = (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T
            psi_t = u @ psi0
            fid = np.linalg.norm(projector @ psi_t) ** 2
            leak = np.linalg.norm((eye - projector) @ psi_t) ** 2
            assert fid + leak == pytest.approx(1.0, abs=1e-10)

    def test_rejects_unnormalized_state(self):
        system = pauli_z_system(np.kron(SIGMA_Z, np.eye(2)))
        bundle = sync.sync_bundle(system)
        bad = np.array([1.0, 0, 0, 1.0])
        with pytest.raises(ValueError, match="normalized"):
            sync.drift_trace(system, bad, [0.0, 1.0], bundle=bundle)

    def test_rejects_state_outside_kernel(self):
        system = pauli_z_system(np.kron(SIGMA_Z, np.eye(2)))
        bundle = sync.sync_bundle(system)
        bad = np.array([0, 1.0, 0, 0], dtype=complex)  # K eigenvalue 2
        with pytest.raises(ValueError, match="kernel"):
            sync.drift_trace(system, bad, [0.0], bundle=bundle)

    def test_bound_slack_is_configurable(self):
        system = perturbed_system(2, 0.05, seed=40)
        bundle = sync.sync_bundle(system)
        psi0 = sync.sample_kernel_state(bundle, 4)
        rigged = sync.drift_trace(system, psi0, [1.0, 5.0], bundle=bundle, bound_slack=-1.0)
        assert not rigged["drift_bound_ok"]


class TestStabilityWindow:
    def test_simulation_cross_check(self):
        system = perturbed_system(3, 0.02, seed=60)
        bundle = sync.sync_bundle(system)
        delta = 0.1
        t = 0.9 * delta / bundle.epsilon
        psi0 = sync.sample_kernel_state(bundle, 5)
        report = sync.drift_trace(system, psi0, [t], bundle=bundle)
        assert report["drift"][0] <= delta + 1e-9


class TestSampleKernelState:
    def test_supported_on_kernel_basis(self):
        system = pauli_z_system(np.kron(SIGMA_Z, np.eye(2)))
        bundle = sync.sync_bundle(system)
        psi = sync.sample_kernel_state(bundle, 0)
        assert abs(psi[1]) <= 1e-12 and abs(psi[2]) <= 1e-12
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)

    def test_seed_repeatability(self):
        bundle = sync.sync_bundle(pauli_z_system(np.kron(SIGMA_Z, np.eye(2))))
        assert np.array_equal(sync.sample_kernel_state(bundle, 8),
                              sync.sample_kernel_state(bundle, 8))

    def test_kernel_residual_over_seeds(self):
        t = clocks.make_clock([0, 1, 2])
        system = sync.make_system(t, t, oracles.local_hamiltonian(
            oracles.random_compatible(t, 0), oracles.random_compatible(t, 1)))
        bundle = sync.sync_bundle(system)
        k = oracles.sync_operator(t, t)
        for seed in range(100):
            psi = sync.sample_kernel_state(bundle, seed)
            assert np.linalg.norm(k @ psi) <= 1e-10

    def test_trivial_kernel_raises(self):
        ta = clocks.make_clock([0.0, 1.0])
        tb = clocks.make_clock([5.0, 6.0])
        system = sync.make_system(ta, tb, np.zeros((4, 4)))
        bundle = sync.sync_bundle(system)
        with pytest.raises(ValueError, match="trivial"):
            sync.sample_kernel_state(bundle, 0)
