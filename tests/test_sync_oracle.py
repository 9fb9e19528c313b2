"""The label-matched kernel and the single-eigendecomposition evolution of
``sync`` against the dense path they replaced: the SVD null space of K and
one n x n unitary per time sample, which live on here as the oracle.
"""

import numpy as np
import pytest

import oracles
from syncsub import clocks, opcore, sync

TOL = 1e-10   # every compared quantity agrees with the oracle to this, absolutely


def dense_projector(system, kernel_tol=opcore.KERNEL_TOL):
    """Kernel projector of K from the SVD rank rule of oracles.null_space.

    When every label agrees K is exactly zero, and its dense form in a rotated
    basis keeps only roundoff, which null_space's absolute floor counts as zero.
    """
    k = oracles.sync_operator(system.clock_a, system.clock_b)
    return opcore.projector(oracles.null_space(k, tol=kernel_tol))


def dense_unitary(spec, t):
    return (spec.eigenvectors * np.exp(-1j * spec.eigenvalues * t)) @ spec.eigenvectors.conj().T


def dense_series(system, psi0, times, projector):
    """Drift ||K psi(t)|| and fidelity ||Pi psi(t)||^2, one unitary per time."""
    k = oracles.sync_operator(system.clock_a, system.clock_b)
    spec = oracles.hermitian_eig(system.hamiltonian)
    drift, fidelity = [], []
    for t in times:
        psi_t = dense_unitary(spec, t) @ psi0
        drift.append(np.linalg.norm(k @ psi_t))
        fidelity.append(np.linalg.norm(projector @ psi_t) ** 2)
    return np.array(drift), np.array(fidelity)


def dense_preservation_residual(system, projector, times):
    spec = oracles.hermitian_eig(system.hamiltonian)
    eye = np.eye(system.dim)
    return max(opcore.operator_norm((eye - projector) @ dense_unitary(spec, t) @ projector)
               for t in times)


def random_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_system(rng, trial):
    """Degenerate label pools, unequal sides, rotated bases, some zero kernels."""
    d_a, d_b = (int(d) for d in rng.integers(1, 6, size=2))
    pool = rng.normal(size=3) * 10.0 ** rng.uniform(-1, 1)
    labels_a = rng.choice(pool, size=d_a)
    labels_b = rng.choice(pool, size=d_b)
    if trial % 4 == 3:
        labels_b = labels_b + 0.5 * np.ptp(pool) + 0.25   # off every label of A
    rotated = trial % 2 == 0
    ta = clocks.make_clock(labels_a, random_unitary(rng, d_a) if rotated else None)
    tb = clocks.make_clock(labels_b, random_unitary(rng, d_b) if rotated else None)
    base = oracles.local_hamiltonian(oracles.random_compatible(ta, 2 * trial),
                                     oracles.random_compatible(tb, 2 * trial + 1))
    dim = base.shape[0]
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    strength = 0.0 if trial % 5 == 0 else 10.0 ** rng.uniform(-3, 0)
    h = base + strength * (g + g.conj().T) / 2.0
    return sync.make_system(ta, tb, h), rotated


def test_label_matching_matches_dense_oracle():
    failures = []
    seen = {"rotated": 0, "unequal": 0, "zero_kernel": 0, "degenerate": 0, "series": 0}
    rng = np.random.default_rng(11)
    for trial in range(120):
        system, rotated = random_system(rng, trial)
        bundle = sync.sync_bundle(system)
        projector = dense_projector(system)
        kernel_dim = round(float(np.trace(projector).real))
        seen["rotated"] += rotated
        seen["unequal"] += system.dim_a != system.dim_b
        seen["zero_kernel"] += kernel_dim == 0
        seen["degenerate"] += any(len(oracles.block_structure(c).blocks) < c.dim
                                  for c in (system.clock_a, system.clock_b))
        if bundle.kernel.dim != kernel_dim:
            failures.append(f"trial {trial}: kernel dim {bundle.kernel.dim} vs {kernel_dim}")
            continue
        gaps = {
            "projector": opcore.operator_norm(opcore.projector(bundle.kernel) - projector),
            "epsilon": abs(bundle.epsilon - opcore.operator_norm(oracles.commutator(
                system.hamiltonian, oracles.sync_operator(system.clock_a, system.clock_b)))),
        }
        times = np.concatenate([[0.0], rng.uniform(-15.0, 15.0, size=6)])
        gaps["preservation_residual"] = abs(
            oracles.preservation_residual(system, bundle, times)
            - dense_preservation_residual(system, projector, times))
        if kernel_dim:
            seen["series"] += 1
            psi0 = sync.sample_kernel_state(bundle, trial)
            report = sync.drift_trace(system, psi0, times, bundle=bundle)
            drift, fidelity = dense_series(system, psi0, times, projector)
            gaps["drift"] = float(np.max(np.abs(report.drift - drift)))
            gaps["fidelity"] = float(np.max(np.abs(report.fidelity - fidelity)))
        failures += [f"trial {trial}: {name} differs by {gap:.3e}"
                     for name, gap in gaps.items() if not gap <= TOL]
    assert not failures, failures[:5]
    assert seen["rotated"] >= 50 and seen["unequal"] >= 50, seen
    assert seen["zero_kernel"] >= 20 and seen["degenerate"] >= 50 and seen["series"] >= 50, seen


@pytest.mark.parametrize("rotated", [False, True])
def test_gaps_around_the_cutoff(rotated):
    # gap_in and gap_out sit at kernel_tol * max|a - b| * (1 -+ 1e-3); the SVD
    # resolves their singular vectors only to roundoff / (gap_out - gap_in), so
    # the projectors are compared in the standard basis, where K is diagonal
    tol = opcore.KERNEL_TOL
    big = 10.0
    gap_out = big * tol * (1 + 1e-3) / (1 - tol * (1 + 1e-3))
    gap_in = (big + gap_out) * tol * (1 - 1e-3)
    rng = np.random.default_rng(5)
    basis = (lambda d: random_unitary(rng, d)) if rotated else (lambda d: None)
    ta = clocks.make_clock([0.0, big], basis(2))
    tb = clocks.make_clock([gap_in, big + gap_out], basis(2))
    bundle = sync.sync_bundle(sync.make_system(ta, tb, np.zeros((4, 4))))
    kernel = oracles.null_space(oracles.sync_operator(ta, tb))
    assert bundle.kernel.dim == kernel.dim == 1
    assert bundle.kernel.tol_used == pytest.approx(kernel.tol_used, rel=1e-12)
    if not rotated:
        assert opcore.operator_norm(
            opcore.projector(bundle.kernel) - opcore.projector(kernel)) <= TOL


def test_standard_basis_reproduces_dense_k_bit_for_bit():
    """In the standard basis U = I, K = diag(a_i - b_j) applied in the clock
    basis rounds each entry as the dense product with K does: epsilon and the
    drift series equal the dense K's values exactly, not just to roundoff."""
    rng = np.random.default_rng(17)
    for trial in range(40):
        d_a, d_b = (int(d) for d in rng.integers(1, 7, size=2))
        pool = rng.normal(size=3) * 10.0 ** rng.uniform(-1, 1)
        ta = clocks.make_clock(rng.choice(pool, size=d_a))
        tb = clocks.make_clock(rng.choice(pool, size=d_b))
        g = rng.normal(size=(d_a * d_b,) * 2) + 1j * rng.normal(size=(d_a * d_b,) * 2)
        system = sync.make_system(ta, tb, (g + g.conj().T) / 2.0)
        bundle = sync.sync_bundle(system)
        k = oracles.sync_operator(ta, tb)
        assert bundle.epsilon == opcore.operator_norm(
            oracles.commutator(system.hamiltonian, k)), trial
        if bundle.kernel.dim:
            psi0 = sync.sample_kernel_state(bundle, trial)
            times = np.linspace(0.0, 10.0, 5)
            spec = opcore.spectrum(system.hamiltonian)
            phi = np.exp(-1j * np.outer(spec.eigenvalues, times)) \
                * (spec.eigenvectors.conj().T @ psi0)[:, None]
            dense = np.linalg.norm((k @ spec.eigenvectors) @ phi, axis=0)
            report = sync.drift_trace(system, psi0, times, bundle=bundle)
            assert np.array_equal(report.drift, dense), trial
