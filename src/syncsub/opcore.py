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
    """Spectral norm (largest singular value); 0.0 without an SVD when every entry is 0.

    LAPACK returns exactly 0 for a zero matrix, so the shortcut changes no value.
    """
    a = np.asarray(a, dtype=np.complex128)
    if not a.any():
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


def require_unitary(u) -> np.ndarray:
    """Return ``u`` as a complex matrix, raising unless ||U^dag U - I|| <= UNITARY_TOL * dim."""
    u = as_complex_matrix(u)
    limit = UNITARY_TOL * u.shape[0]
    res = screened_norm(u.conj().T @ u - np.eye(u.shape[0]), limit)
    if res > limit:
        raise ValueError(f"matrix is not unitary: residual {res:.3e} exceeds tolerance")
    return u


def _factor_indices(x: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """X (d_A * d_B rows, or one such vector) as (d_A, d_B, m): row r = i_a * d_B + i_b."""
    if x.ndim not in (1, 2) or x.shape[0] != d_a * d_b:
        raise ValueError(f"operand shape {x.shape} does not match the {d_a * d_b}-dim product space")
    return x.reshape(d_a, d_b, x.size // (d_a * d_b))


def kron_apply(a, b, x) -> np.ndarray:
    """(A (x) B) X without forming the Kronecker product.

    A acts on the first factor index of X's rows and B on the second:
    n^2 (d_A + d_B) products for an n x n X instead of n^3. Right products
    follow from transposes: X M = (M^T X^T)^T.
    """
    a, b = as_complex_matrix(a), as_complex_matrix(b)
    x = np.asarray(x, dtype=np.complex128)
    y = _factor_indices(x, a.shape[0], b.shape[0])
    return (b @ np.tensordot(a, y, axes=1)).reshape(x.shape)


def _fix_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry (the first, on ties) is real positive.

    All-zero columns are left as they are. The pivot's modulus is taken with
    np.hypot, which rounds as scalar abs does; np.abs on an array may differ in
    the last bit.
    """
    v = np.array(v, dtype=np.complex128, copy=True)
    piv = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    mag = np.hypot(piv.real, piv.imag)
    live = mag > 0.0
    v[:, live] *= piv[live].conj() / mag[live]
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
    """Absolute singular-value cutoff: tol * sigma_max, floored at KERNEL_ABS_FLOOR,
    so that a matrix that is zero up to roundoff has the full space as its kernel."""
    if tol <= 0:
        raise ValueError("kernel tolerance must be positive")
    return max(tol * sigma_max, KERNEL_ABS_FLOOR)


def projector(s: Subspace) -> np.ndarray:
    """Orthogonal projector B B^dag onto the subspace."""
    return s.basis @ s.basis.conj().T
