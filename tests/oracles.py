"""Dense references and fixtures the tests compare the library against.

The library never forms K = T_A (x) I - I (x) T_B or the joint action
g -> rho_A(g) (x) rho_B(g), never factors K by SVD, never builds a unitary per
time sample and never samples Hamiltonians; these functions do, the plain
dense way, so that the tests can check the structured paths against them.
None of them is reached from a scenario.
"""

import numpy as np

from syncsub import grouprep, opcore
from syncsub.clocks import ClockObservable, _philox, _random_hermitian, block_structure
from syncsub.opcore import NumericalError, Spectrum, Subspace

# ---------------------------------------------------------------------------
# operators


def hermiticity_residual(m) -> float:
    m = np.asarray(m, dtype=np.complex128)
    return opcore.operator_norm(m - m.conj().T)


def unitarity_residual(u) -> float:
    u = np.asarray(u, dtype=np.complex128)
    return opcore.operator_norm(u.conj().T @ u - np.eye(u.shape[1]))


def kron_difference(a, b) -> np.ndarray:
    """A (x) I - I (x) B, the shape of every synchronization operator K, as a dense matrix.

    The library never forms K; it works in the product clock basis, where K is
    diagonal. This dense form is the reference the tests compare against.
    """
    a, b = opcore.as_complex_matrix(a), opcore.as_complex_matrix(b)
    return np.kron(a, np.eye(b.shape[0])) - np.kron(np.eye(a.shape[0]), b)


def hermitian_eig(m) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix with deterministic output."""
    return opcore.spectrum(opcore.require_hermitian(m))


def null_space(a, tol: float = opcore.KERNEL_TOL) -> Subspace:
    """Kernel of a 2-d array via SVD.

    Keeps right-singular vectors with singular value <= tol * sigma_max, and
    counts every singular value at or below KERNEL_ABS_FLOOR as zero, so a
    matrix that is zero up to roundoff has the full space as its kernel.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {a.shape}")
    n = a.shape[1]
    _, s, vh = np.linalg.svd(a)
    cutoff = opcore.kernel_cutoff(float(s[0]) if s.size else 0.0, tol)
    rank = int(np.count_nonzero(s > cutoff))
    basis = opcore._fix_phases(vh[rank:].conj().T)
    return Subspace(ambient_dim=n, basis=basis, tol_used=cutoff)


def evolve(h, t: float) -> np.ndarray:
    """Unitary e^{-iHt} computed through the eigendecomposition of H.

    Exactly unitary up to roundoff for Hermitian H; no series truncation.
    """
    spec = hermitian_eig(h)
    phases = np.exp(-1j * spec.eigenvalues * float(t))
    u = (spec.eigenvectors * phases) @ spec.eigenvectors.conj().T
    limit = opcore.UNITARY_TOL * u.shape[0]
    res = opcore.screened_norm(u.conj().T @ u - np.eye(u.shape[0]), limit)
    if res > limit:
        raise NumericalError(f"evolution lost unitarity: residual {res:.3e}")
    return u


# ---------------------------------------------------------------------------
# clocks and synchronization


def random_compatible(t: ClockObservable, seed: int) -> np.ndarray:
    """Random Hermitian drawn from the clock's commutant, one block at a time.

    Deterministic per seed; the result commutes with T to roundoff because it
    is assembled from independent Hermitian blocks on each eigenspace.
    """
    rng = _philox(seed)
    h = np.zeros((t.dim, t.dim), dtype=np.complex128)
    for block in block_structure(t).blocks:
        r = _random_hermitian(rng, block.dim)
        cols = t.basis[:, list(block.indices)]
        h += cols @ r @ cols.conj().T
    return (h + h.conj().T) / 2.0


def local_hamiltonian(h_a, h_b) -> np.ndarray:
    """H_A (x) I + I (x) H_B, the Hamiltonian of two uncoupled local terms."""
    h_a, h_b = opcore.as_complex_matrix(h_a), opcore.as_complex_matrix(h_b)
    return np.kron(h_a, np.eye(h_b.shape[0])) + np.kron(np.eye(h_a.shape[0]), h_b)


def sync_operator(clock_a: ClockObservable, clock_b: ClockObservable) -> np.ndarray:
    """K = T_A (x) I - I (x) T_B on the dim_a * dim_b product space, as a dense matrix.

    The library never forms K: it works in the product clock basis, where K is
    diagonal. This dense form is the reference the tests compare against.
    """
    return kron_difference(clock_a.matrix(), clock_b.matrix())


def preservation_residual(system, bundle, times) -> float:
    """Worst leakage ||(I - Pi) U(t) Pi|| = ||(I - Pi) U(t) B||, B the kernel basis."""
    times = np.asarray(times, dtype=np.float64)
    if not np.all(np.isfinite(times)):
        raise ValueError("evolution times must be finite")
    spec = opcore.spectrum(system.hamiltonian)
    basis = bundle.kernel.basis
    coeffs = spec.eigenvectors.conj().T @ basis
    worst = 0.0
    for phases in np.exp(-1j * np.outer(spec.eigenvalues, times)).T:
        moved = spec.eigenvectors @ (phases[:, None] * coeffs)
        worst = max(worst, opcore.operator_norm(moved - basis @ (basis.conj().T @ moved)))
    return worst


# ---------------------------------------------------------------------------
# group representations


def trivial_representation(group, dim: int = 1):
    mats = np.broadcast_to(np.eye(dim, dtype=np.complex128), (group.order, dim, dim)).copy()
    return grouprep.make_representation(group, mats)


def regular_representation(group):
    """Left regular representation: rho(g)|h> = |gh> as permutation matrices."""
    n = group.order
    mats = np.zeros((n, n, n), dtype=np.complex128)
    for g in range(n):
        mats[g, group.mult_table[g, :], np.arange(n)] = 1.0
    return grouprep.make_representation(group, mats)


def random_equivariant_observable(rho, seed: int) -> np.ndarray:
    """Hermitian observable commuting with the whole group action (group twirl)."""
    r = _random_hermitian(_philox(seed), rho.dim)
    avg = sum(rho[i] @ r @ rho[i].conj().T for i in range(rho.group.order)) / rho.group.order
    return (avg + avg.conj().T) / 2.0


def tensor_representation(rho_a, rho_b):
    """Joint diagonal action g -> rho_A(g) (x) rho_B(g), built from the factors.

    The factors were validated, so the joint matrices are not checked again:
    (A (x) B)^dag (A (x) B) - I = A^dag A (x) B^dag B - I has norm at most
    delta_A + delta_B + delta_A * delta_B, which fits under
    UNITARY_TOL * d_A * d_B whenever both dims are >= 2 and not both 2.
    """
    grouprep._require_same_group(rho_a.group, rho_b.group)
    mats = np.stack([np.kron(rho_a[g], rho_b[g]) for g in range(rho_a.group.order)])
    return grouprep.Representation(group=rho_a.group, matrices=mats,
                                   perm=grouprep._joint_perm(rho_a, rho_b))


def diagonal_isotypic_subspace(rho_a, rho_b, chars) -> Subspace:
    """Direct sum over shared irreps of V_l^A (x) V_l^B inside the product space,
    for any multiplicities; the returned subspace is invariant under the joint
    action (verified before returning).
    """
    grouprep._require_same_group(rho_a.group, rho_b.group)
    dec_a = grouprep.isotypic_projectors(rho_a, chars)
    dec_b = grouprep.isotypic_projectors(rho_b, chars)
    pieces = [np.kron(comp_a.basis, comp_b.basis)
              for comp_a, comp_b in zip(dec_a.components, dec_b.components)
              if comp_a.multiplicity and comp_b.multiplicity]
    ambient = rho_a.dim * rho_b.dim
    if pieces:
        basis = np.hstack(pieces)
    else:
        basis = np.zeros((ambient, 0), dtype=np.complex128)
    subspace = Subspace(ambient_dim=ambient, basis=basis, tol_used=0.0)

    if subspace.dim:
        pi = opcore.projector(subspace)
        eye = np.eye(ambient)
        joint = tensor_representation(rho_a, rho_b)
        for g in range(joint.group.order):
            leak = opcore.screened_norm((eye - pi) @ joint[g] @ pi, 1e-10)
            if leak > 1e-10:
                raise NumericalError(
                    f"diagonal isotypic subspace is not invariant under "
                    f"{joint.group.elements[g]!r} (leakage {leak:.3e})")
    return subspace
