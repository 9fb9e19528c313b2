"""Clock observables and the algebra of Hamiltonians compatible with them.

A clock is a Hermitian operator whose eigenvalues are discrete time labels.
This module builds clocks, measures how far a Hamiltonian is from commuting
with one, and classifies the commuting ones by their block structure on the
clock's eigenspaces, all in the clock's own basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import opcore

COMPAT_TOL = 1e-10     # relative threshold for compatibility decisions


def _philox(seed: int) -> np.random.Generator:
    """Counter-based generator shared by all seeded sampling."""
    return np.random.Generator(np.random.Philox(key=int(seed)))


def _random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    """(G + G^dag)/2 for a complex Gaussian G; real parts are drawn first."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2.0


@dataclass(frozen=True, eq=False)
class ClockObservable:
    """Time labels plus the unitary basis whose columns are the clock states."""

    labels: np.ndarray
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.labels.shape[0])


def make_clock(labels, basis=None) -> ClockObservable:
    """Clock observable from real time labels, by default in the standard basis.

    T = B diag(labels) B^dag is Hermitian for any B when the labels are real,
    so checking the labels and the basis checks the clock; T is never formed.
    """
    arr = np.asarray(labels, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("clock labels must be a nonempty 1-d real sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError("clock labels must be finite")
    if basis is None:
        b = np.eye(arr.size, dtype=np.complex128)
    else:
        b = opcore.require_unitary(basis)
        if b.shape[0] != arr.size:
            raise ValueError(f"basis dimension {b.shape[0]} does not match {arr.size} labels")
    return ClockObservable(labels=arr, basis=b)


@dataclass(frozen=True)
class CompatibilityVerdict:
    """Outcome of testing a Hamiltonian against a clock.

    ``kind`` is "diagonal", "block_diagonal", or "incompatible"; ``residual``
    is ||[H,T]|| and ``off_block_mass`` is ||H - sum_l P_l H P_l||, P_l the
    projectors onto T's eigenspaces.
    """

    residual: float
    kind: str
    off_block_mass: float


def label_gaps(a, b, kernel_tol: float) -> tuple:
    """The diagonal a_i - b_j of K = diag(a) (x) I - I (x) diag(b) in product-index
    order, and opcore.kernel_cutoff(||K||, kernel_tol): pair (i, j) is in ker K,
    its labels equal, when |a_i - b_j| is within that cutoff."""
    with np.errstate(over="ignore"):
        g = np.subtract.outer(a, b).reshape(-1)
    if not np.all(np.isfinite(g)):
        raise opcore.NumericalError("clock label differences overflow")
    return g, opcore.kernel_cutoff(float(np.max(np.abs(g))), kernel_tol)


def diagonal_commutator(h: np.ndarray, d: np.ndarray) -> np.ndarray:
    """[H, diag(d)], whose entries are h_ij d_j - d_i h_ij; raises when one overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        comm = h * d
        comm -= d[:, None] * h
    if not np.all(np.isfinite(comm)):
        raise opcore.NumericalError("clock-basis commutator overflows")
    return comm


def classify_compatibility(h, t: ClockObservable, compat_tol: float = COMPAT_TOL,
                           kernel_tol: float = opcore.KERNEL_TOL) -> CompatibilityVerdict:
    """Classify H against T in the clock basis, where T = diag(l) and H' = B^dag H B.

    ||[H, T]|| = ||[H', diag(l)]||. Labels i and j share an eigenspace when
    (i, j) is in the kernel of T (x) I - I (x) T, so off_block_mass is the norm
    of H' on the other pairs, and no T or projector is formed.
    """
    h = opcore.require_hermitian(h)
    if h.shape[0] != t.dim:
        raise ValueError(f"Hamiltonian dim {h.shape[0]} does not match clock dim {t.dim}")
    g, cutoff = label_gaps(t.labels, t.labels, kernel_tol)
    h_in_basis = t.basis.conj().T @ h @ t.basis
    residual = opcore.operator_norm(diagonal_commutator(h_in_basis, t.labels))
    off_block = np.abs(g).reshape(t.dim, t.dim) > cutoff
    off_block_mass = opcore.operator_norm(np.where(off_block, h_in_basis, 0.0))

    t_norm = float(np.max(np.abs(t.labels)))   # ||T||, read off its spectrum
    if not opcore.within(residual, compat_tol, lambda: opcore.operator_norm(h) * t_norm):
        kind = "incompatible"
    else:
        off_diag = opcore.screened_norm(h_in_basis - np.diag(np.diag(h_in_basis)), compat_tol)
        diagonal = opcore.within(off_diag, compat_tol, lambda: opcore.operator_norm(h))
        kind = "diagonal" if diagonal else "block_diagonal"
    return CompatibilityVerdict(residual=residual, kind=kind, off_block_mass=off_block_mass)
