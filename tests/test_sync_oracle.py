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
    return oracles.span_projector(oracles.null_space(k, tol=kernel_tol)[0])


def dense_unitary(spec, t):
    w, v = spec
    return (v * np.exp(-1j * w * t)) @ v.conj().T


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
        k = bundle.kernel_index.size
        if k != kernel_dim:
            failures.append(f"trial {trial}: kernel dim {k} vs {kernel_dim}")
            continue
        gaps = {
            "projector": opcore.operator_norm(
                oracles.span_projector(sync.kernel_basis(bundle)) - projector),
            "epsilon": abs(bundle.epsilon - opcore.operator_norm(oracles.commutator(
                system.hamiltonian, oracles.sync_operator(system.clock_a, system.clock_b)))),
        }
        times = np.concatenate([[0.0], rng.uniform(-15.0, 15.0, size=6)])
        gaps["preservation_residual"] = abs(
            oracles.preservation_residual(bundle, times)
            - dense_preservation_residual(system, projector, times))
        if kernel_dim:
            seen["series"] += 1
            psi0 = sync.sample_kernel_state(bundle, trial)
            report = sync.drift_trace(bundle, psi0, times)
            drift, fidelity = dense_series(system, psi0, times, projector)
            gaps["drift"] = float(np.max(np.abs(report["drift"] - drift)))
            gaps["fidelity"] = float(np.max(np.abs(report["fidelity"] - fidelity)))
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
    kernel, cutoff = oracles.null_space(oracles.sync_operator(ta, tb))
    assert bundle.kernel_index.size == kernel.shape[1] == 1
    assert bundle.cutoff == pytest.approx(cutoff, rel=1e-12)
    if not rotated:
        assert opcore.operator_norm(oracles.span_projector(sync.kernel_basis(bundle))
                                    - oracles.span_projector(kernel)) <= TOL


def test_standard_basis_reproduces_dense_k_bit_for_bit():
    """In the standard basis U = I, K = diag(a_i - b_j) applied in the clock
    basis rounds each entry as the dense product with K does: epsilon, the
    Hermitian norm of i[H, K], and the drift series equal the dense K's values
    exactly, not just to roundoff."""
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
        assert bundle.epsilon == opcore.hermitian_norm(
            1j * oracles.commutator(system.hamiltonian, k)), trial
        if bundle.kernel_index.size:
            psi0 = sync.sample_kernel_state(bundle, trial)
            times = np.linspace(0.0, 10.0, 5)
            w, v = opcore.spectrum(system.hamiltonian)
            phi = np.exp(-1j * np.outer(w, times)) * (v.conj().T @ psi0)[:, None]
            dense = np.linalg.norm((k @ v) @ phi, axis=0)
            report = sync.drift_trace(bundle, psi0, times)
            assert np.array_equal(report["drift"], dense), trial


U = np.finfo(np.float64).eps / 2   # unit roundoff


def random_local_system(rng, trial):
    """H = H_A (x) I + I (x) H_B kept factored, for 1-6 dims per side, rotated
    bases on even trials, labels drawn from a small pool (so repeated), label
    spreads from 2^-40 to 2^40, on some trials a common offset up to 2^20
    spreads, and a gap placed at kernel_tol's cutoff or at its 1e-12 floor."""
    d_a, d_b = (int(d) for d in rng.integers(1, 7, size=2))
    spread = 2.0 ** rng.uniform(-40, 40)
    pool = rng.uniform(-1, 1, size=3) * spread
    labels_a, labels_b = rng.choice(pool, size=d_a), rng.choice(pool, size=d_b)
    if trial % 3 == 1:
        offset = spread * 2.0 ** rng.uniform(0, 20)
        labels_a, labels_b = labels_a + offset, labels_b + offset
    if trial % 4 == 2 and d_a > 1:
        # a_1 - b_0 at the cutoff kernel_tol * max|a - b|, or at its floor
        big = np.max(np.abs(np.subtract.outer(labels_a, labels_b)))
        labels_a[1] = labels_b[0] + max(opcore.KERNEL_TOL * big, opcore.KERNEL_ABS_FLOOR)
    rotated = trial % 2 == 0
    ta = clocks.make_clock(labels_a, random_unitary(rng, d_a) if rotated else None)
    tb = clocks.make_clock(labels_b, random_unitary(rng, d_b) if rotated else None)
    h_a, h_b = (oracles._random_hermitian(rng, d) * 2.0 ** rng.uniform(-3, 3) for d in (d_a, d_b))
    return sync.make_system(ta, tb, (h_a, h_b))


def test_factored_epsilon_matches_dense_oracle():
    """epsilon read off the local factors against ||[H, K]|| of the dense H and K.

    Let n = d_A d_B, L = max|a| + max|b| and F = sqrt(d_B) ||H_A||_F +
    sqrt(d_A) ||H_B||_F >= ||H||_F. The oracle forms T = B diag(l) B^dag,
    whose rounding scales with L, not with the gaps, then K, two n-term
    products and their difference: each within gamma_n ~ n u in Frobenius
    norm, so its commutator is within about 8 n^(3/2) u F L of [H, K]. The
    factored path forms B^dag H_X B (2 d^2 u ||H_X||_F), the shifted labels
    (u L) and two-term commutator entries, within about (4 d^2 + 8) u
    ||H_X||_F L per side. Each norm is within its factorization's backward
    error, taken as 2 m^2 u ||.|| for an m x m matrix (as in test_opcore), at
    most 4 n^2 u F L. Summed, |epsilon - oracle| <= 24 n^2 u F L.
    """
    rng = np.random.default_rng(29)
    seen = {"rotated": 0, "repeated": 0, "offset": 0, "at_cutoff": 0, "at_floor": 0}
    for trial in range(200):
        system = random_local_system(rng, trial)
        a, b = system.clock_a.labels, system.clock_b.labels
        bundle = sync.sync_bundle(system)
        want = opcore.operator_norm(oracles.commutator(
            system.hamiltonian, oracles.sync_operator(system.clock_a, system.clock_b)))
        h_a, h_b = system.local
        n = system.dim
        f = np.sqrt(system.dim_b) * np.linalg.norm(h_a) + np.sqrt(system.dim_a) * np.linalg.norm(h_b)
        scale = np.max(np.abs(a)) + np.max(np.abs(b))
        assert abs(bundle.epsilon - want) <= 24 * n * n * U * f * scale, trial
        gaps = np.abs(np.subtract.outer(a, b))
        seen["rotated"] += trial % 2 == 0
        seen["repeated"] += len(set(a)) < a.size or len(set(b)) < b.size
        seen["offset"] += trial % 3 == 1
        at_cutoff = bool(np.any(np.isclose(gaps, bundle.cutoff, rtol=1e-2, atol=0)))
        floor = bundle.cutoff == opcore.KERNEL_ABS_FLOOR
        seen["at_cutoff"] += at_cutoff and not floor
        seen["at_floor"] += at_cutoff and floor
    assert min(seen.values()) >= 5, seen


def test_clock_basis_series_match_dense_oracle():
    """drift_trace evolves in the product clock basis, with one eigh of H' =
    U^dag H U, the kernel's label-match rows of V' and K = G = diag(a_i - b_j);
    dense_series forms K and one unitary per time in the standard basis.

    Systems: 1-6 dims per side, rotated bases on even trials, label spreads
    2^-40 to 2^40 with common offsets and gaps at the kernel cutoff or its
    floor (random_local_system); on two trials in five H gets a dense coupling
    on top, so H' comes from the bundle, and otherwise drift_trace forms H'
    from the local system. init_tol is off: a kernel pair at the cutoff of a
    2^40 spread leaves psi0 far above the absolute init_tol.

    Bound: both paths evolve psi0 with the exact dynamics of H + E, ||E|| <=
    2 n^2 u ||H|| (the eigendecomposition's backward error, as in test_opcore),
    on eigenvectors orthonormal to 2 n^2 u, and round each phase, entry and
    norm a few times more, so with tau = 1 + ||H|| max|t| each psi(t) is
    within about 2 (n + 1)^2 u tau of the exact one. The oracle's K rounds at
    the scale L = max|a| + max|b|, not at ||K||, so the drifts differ by at
    most 8 (n + 1)^2 u L tau and the fidelities by at most 8 (n + 1)^2 u tau.
    The largest differences seen are 0.06 of the drift's bound and 0.22 of
    the fidelity's, at n = 1.
    """
    rng = np.random.default_rng(37)
    seen = {"rotated": 0, "unequal": 0, "local": 0, "dense": 0, "at_cutoff": 0}
    worst = {"drift": 0.0, "fidelity": 0.0}
    for trial in range(160):
        system = random_local_system(rng, trial)
        if trial % 5 < 2:
            h_a = system.local[0]
            coupling = oracles._random_hermitian(rng, system.dim) * np.linalg.norm(h_a, 2)
            system = sync.make_system(system.clock_a, system.clock_b,
                                      system.hamiltonian + 0.1 * coupling)
        bundle = sync.sync_bundle(system)
        if not bundle.kernel_index.size:
            continue
        assert (bundle.clock_hamiltonian is None) is (system.local is not None)
        psi0 = sync.sample_kernel_state(bundle, trial)
        times = np.concatenate([[0.0], rng.uniform(-15.0, 15.0, size=6)])
        report = sync.drift_trace(bundle, psi0, times, init_tol=np.inf)
        drift, fidelity = dense_series(system, psi0, times,
                                       oracles.span_projector(sync.kernel_basis(bundle)))
        n = system.dim
        a, b = system.clock_a.labels, system.clock_b.labels
        tau = 1.0 + opcore.operator_norm(system.hamiltonian) * np.max(np.abs(times))
        scale = {"drift": 8 * (n + 1) ** 2 * U * (np.max(np.abs(a)) + np.max(np.abs(b))) * tau,
                 "fidelity": 8 * (n + 1) ** 2 * U * tau}
        for name, got, want in (("drift", report["drift"], drift),
                                ("fidelity", report["fidelity"], fidelity)):
            gap = float(np.max(np.abs(got - want))) / scale[name]
            assert gap <= 1.0, (trial, name, gap)
            worst[name] = max(worst[name], gap)
        seen["rotated"] += trial % 2 == 0
        seen["unequal"] += system.dim_a != system.dim_b
        seen["local" if system.local is not None else "dense"] += 1
        seen["at_cutoff"] += bool(np.any(np.isclose(
            np.abs(bundle.k_diagonal[bundle.kernel_index]), bundle.cutoff,
            rtol=1e-2, atol=0)))
    assert min(seen.values()) >= 10, seen
    assert min(worst.values()) > 0.0, worst
