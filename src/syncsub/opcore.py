"""Dense complex linear algebra for operator computations.

Operators are plain square numpy arrays of complex128. Helpers here validate
structural invariants (Hermiticity, unitarity, orthonormality) against
explicit tolerances rather than wrapping arrays in classes; downstream
modules build their domain objects on top of these primitives.

All functions are pure and hold no global state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERM_TOL = 1e-12        # relative to max(1, ||M||)
UNITARY_TOL = 1e-12     # scaled by dimension
RECON_TOL = 1e-12       # eigendecomposition reconstruction, relative
ORTHO_TOL = 1e-10       # subspace basis orthonormality
KERNEL_TOL = 1e-10      # kernel cutoff, relative to the largest singular value
KERNEL_ABS_FLOOR = 1e-12   # absolute cutoff for numerically zero matrices
_SIGMA_ZERO = 1e-300


class NumericalError(RuntimeError):
    """A numeric invariant failed beyond its tolerance mid-computation."""


def as_complex_matrix(entries) -> np.ndarray:
    """Validate and return a square, finite complex128 matrix."""
    m = np.asarray(entries, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return m


def operator_norm(a) -> float:
    """Spectral norm (largest singular value)."""
    a = np.asarray(a, dtype=np.complex128)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def screened_norm(r, limit: float) -> float:
    """Spectral norm of ``r`` as far as the check ``||R|| <= limit`` needs it.

    Returns ||R||_F when that is at most ``limit``, which settles the check
    because ||R|| <= ||R||_F, and the exact ||R|| otherwise, so a failing
    check reports the spectral norm. For residuals that are only compared
    with a tolerance; a reported value takes operator_norm.
    """
    fro = float(np.linalg.norm(r))
    return fro if fro <= limit else operator_norm(r)


def hermiticity_residual(m) -> float:
    m = np.asarray(m, dtype=np.complex128)
    return operator_norm(m - m.conj().T)


def require_hermitian(m) -> np.ndarray:
    """Return ``m`` as a complex matrix, raising if it is not Hermitian.

    The test is ||M - M^dag|| <= HERM_TOL * max(1, ||M||). The residual is
    screened against HERM_TOL, the smallest that limit can be, so ||M|| is
    taken only when the exact residual exceeds HERM_TOL.
    """
    m = as_complex_matrix(m)
    res = screened_norm(m - m.conj().T, HERM_TOL)
    if res > HERM_TOL and res > HERM_TOL * max(1.0, operator_norm(m)):
        raise ValueError(f"matrix is not Hermitian: residual {res:.3e} exceeds tolerance")
    return m


def unitarity_residual(u) -> float:
    u = np.asarray(u, dtype=np.complex128)
    return operator_norm(u.conj().T @ u - np.eye(u.shape[1]))


def require_unitary(u) -> np.ndarray:
    """Return ``u`` as a complex matrix, raising unless ||U^dag U - I|| <= UNITARY_TOL * dim."""
    u = as_complex_matrix(u)
    limit = UNITARY_TOL * u.shape[0]
    res = screened_norm(u.conj().T @ u - np.eye(u.shape[0]), limit)
    if res > limit:
        raise ValueError(f"matrix is not unitary: residual {res:.3e} exceeds tolerance")
    return u


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product; row index convention r = i_a * dim(b) + i_b."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    return np.kron(a, b)


def kron_difference(a, b) -> np.ndarray:
    """A (x) I - I (x) B, the shape of every synchronization operator K."""
    a, b = as_complex_matrix(a), as_complex_matrix(b)
    return np.kron(a, np.eye(b.shape[0])) - np.kron(np.eye(a.shape[0]), b)


def commutator(a, b) -> np.ndarray:
    """AB - BA; raises on dimension mismatch."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"commutator dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return a @ b - b @ a


def _fix_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive."""
    v = np.array(v, dtype=np.complex128, copy=True)
    for j in range(v.shape[1]):
        col = v[:, j]
        k = int(np.argmax(np.abs(col)))
        piv = col[k]
        if abs(piv) > 0.0:
            v[:, j] = col * (piv.conjugate() / abs(piv))
    return v


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigendecomposition of a Hermitian operator.

    ``eigenvalues`` are real and ascending; the columns of ``eigenvectors``
    are the matching orthonormal eigenbasis with a deterministic phase
    (largest-magnitude component real positive).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.shape[0])


def spectrum(m: np.ndarray) -> Spectrum:
    """Eigendecomposition of a complex matrix that has passed require_hermitian.

    The reconstruction error is checked against RECON_TOL * max(1, max|lambda|),
    where max|lambda| is ||M|| read off the computed spectrum; its Frobenius
    norm settles a pass, and the SVD runs only above that limit.
    """
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    v = _fix_phases(v)
    limit = RECON_TOL * max(1.0, float(np.max(np.abs(w))))
    err = screened_norm((v * w) @ v.conj().T - m, limit)
    if err > limit:
        raise NumericalError(f"eigendecomposition reconstruction error {err:.3e}")
    return Spectrum(eigenvalues=w, eigenvectors=v)


def hermitian_eig(m) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix with deterministic output."""
    return spectrum(require_hermitian(m))


def evolve(h, t: float) -> np.ndarray:
    """Unitary e^{-iHt} computed through the eigendecomposition of H.

    Exactly unitary up to roundoff for Hermitian H; no series truncation.
    """
    spec = hermitian_eig(h)
    phases = np.exp(-1j * spec.eigenvalues * float(t))
    u = (spec.eigenvectors * phases) @ spec.eigenvectors.conj().T
    limit = UNITARY_TOL * u.shape[0]
    res = screened_norm(u.conj().T @ u - np.eye(u.shape[0]), limit)
    if res > limit:
        raise NumericalError(f"evolution lost unitarity: residual {res:.3e}")
    return u


@dataclass(frozen=True, eq=False)
class Subspace:
    """Orthonormal-column basis of a subspace of C^ambient_dim.

    ``tol_used`` records the absolute singular-value cutoff that produced the
    basis (0 for exactly constructed subspaces).
    """

    ambient_dim: int
    basis: np.ndarray
    tol_used: float

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=np.complex128)
        if b.ndim != 2 or b.shape[0] != self.ambient_dim:
            raise ValueError(f"basis shape {b.shape} does not match ambient dim {self.ambient_dim}")
        k = b.shape[1]
        if k:
            res = screened_norm(b.conj().T @ b - np.eye(k), ORTHO_TOL)
            if res > ORTHO_TOL:
                raise ValueError(f"basis columns not orthonormal: residual {res:.3e}")
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return int(self.basis.shape[1])


def kernel_cutoff(sigma_max: float, tol: float) -> float:
    """Absolute singular-value cutoff: tol * sigma_max, or the floor for a zero matrix."""
    if tol <= 0:
        raise ValueError("kernel tolerance must be positive")
    return KERNEL_ABS_FLOOR if sigma_max < _SIGMA_ZERO else tol * sigma_max


def null_space(a, tol: float = KERNEL_TOL) -> Subspace:
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
    cutoff = max(kernel_cutoff(float(s[0]) if s.size else 0.0, tol), KERNEL_ABS_FLOOR)
    rank = int(np.count_nonzero(s > cutoff))
    basis = _fix_phases(vh[rank:].conj().T)
    return Subspace(ambient_dim=n, basis=basis, tol_used=cutoff)


def projector(s: Subspace) -> np.ndarray:
    """Orthogonal projector B B^dag onto the subspace."""
    return s.basis @ s.basis.conj().T
