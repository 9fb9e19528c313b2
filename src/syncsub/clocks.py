"""Clock observables and the algebra of Hamiltonians compatible with them.

A clock is a Hermitian operator whose eigenvalues are discrete time labels.
This module builds clocks, measures how far a Hamiltonian is from commuting
with one, classifies the commuting ones by their block structure on the
clock's eigenspaces, samples from that commutant, and solves the inverse
problem of reading a canonical clock off a Hamiltonian's spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import opcore
from .opcore import NumericalError

LABEL_SEP = 1e-9       # absolute gap below which time labels merge
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

    @property
    def non_degenerate(self) -> bool:
        """True when all labels are pairwise more than LABEL_SEP apart."""
        if self.dim < 2:
            return True
        gaps = np.diff(np.sort(self.labels))
        return bool(np.min(gaps) > LABEL_SEP)

    @property
    def is_trivial(self) -> bool:
        """True when every label coincides (the clock resolves no time)."""
        return bool(np.max(self.labels) - np.min(self.labels) <= LABEL_SEP)

    def matrix(self) -> np.ndarray:
        """Hermitian matrix form T = B diag(labels) B^dag."""
        return (self.basis * self.labels) @ self.basis.conj().T


def make_clock(labels, basis=None) -> ClockObservable:
    """Clock observable from real time labels, by default in the standard basis."""
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
    clock = ClockObservable(labels=arr, basis=b)
    opcore.require_hermitian(clock.matrix())
    return clock


def compatibility_residual(h, t: ClockObservable) -> float:
    """||[H, T]|| in spectral norm; zero exactly when H preserves the clock."""
    h = opcore.as_complex_matrix(h)
    if h.shape[0] != t.dim:
        raise ValueError(f"Hamiltonian dim {h.shape[0]} does not match clock dim {t.dim}")
    return opcore.operator_norm(opcore.commutator(h, t.matrix()))


@dataclass(frozen=True, eq=False)
class Block:
    eigenvalue: float
    projector: np.ndarray
    dim: int
    indices: tuple


@dataclass(frozen=True, eq=False)
class BlockStructure:
    """Spectral blocks of a clock: one orthogonal projector per distinct label."""

    blocks: tuple


def _label_groups(labels: np.ndarray) -> list:
    """Indices grouped by label, chain-merging gaps <= LABEL_SEP, ascending."""
    order = np.argsort(labels, kind="stable")
    groups = [[int(order[0])]]
    for idx in order[1:]:
        if labels[idx] - labels[groups[-1][-1]] <= LABEL_SEP:
            groups[-1].append(int(idx))
        else:
            groups.append([int(idx)])
    return groups


def block_structure(t: ClockObservable) -> BlockStructure:
    blocks = []
    for group in _label_groups(t.labels):
        cols = t.basis[:, group]
        blocks.append(Block(
            eigenvalue=float(np.mean(t.labels[group])),
            projector=cols @ cols.conj().T,
            dim=len(group),
            indices=tuple(group),
        ))
    return BlockStructure(blocks=tuple(blocks))


@dataclass(frozen=True)
class CompatibilityVerdict:
    """Outcome of testing a Hamiltonian against a clock.

    ``kind`` is "diagonal", "block_diagonal", or "incompatible"; ``residual``
    is ||[H,T]|| and ``off_block_mass`` is ||H - sum_l P_l H P_l||.
    """

    residual: float
    kind: str
    off_block_mass: float


def classify_compatibility(h, t: ClockObservable,
                           compat_tol: float = COMPAT_TOL) -> CompatibilityVerdict:
    h = opcore.require_hermitian(h)
    residual = compatibility_residual(h, t)
    h_norm = opcore.operator_norm(h)

    blocks = block_structure(t)
    h_block = sum(b.projector @ h @ b.projector for b in blocks.blocks)
    off_block_mass = opcore.operator_norm(h - h_block)

    t_norm = float(np.max(np.abs(t.labels)))   # ||T||, read off its spectrum
    if residual > compat_tol * max(1.0, h_norm * t_norm):
        kind = "incompatible"
    else:
        h_in_basis = t.basis.conj().T @ h @ t.basis
        off_diag = opcore.operator_norm(h_in_basis - np.diag(np.diag(h_in_basis)))
        if off_diag <= compat_tol * max(1.0, h_norm):
            kind = "diagonal"
        else:
            kind = "block_diagonal"
    return CompatibilityVerdict(residual=residual, kind=kind, off_block_mass=off_block_mass)


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


def clock_from_hamiltonian(h, gap_tol: float) -> ClockObservable:
    """Canonical clock commuting with H, from clustering H's spectrum.

    Eigenvalues with consecutive gaps <= gap_tol share a cluster; the k-th
    cluster's eigenspace gets integer label k. A scalar H collapses to a
    single cluster, yielding the trivial clock (see ClockObservable.is_trivial).
    """
    if gap_tol <= 0:
        raise ValueError("gap_tol must be positive")
    spec = opcore.hermitian_eig(h)
    labels = np.zeros(spec.dim, dtype=np.float64)
    cluster = 0
    for i in range(1, spec.dim):
        if spec.eigenvalues[i] - spec.eigenvalues[i - 1] > gap_tol:
            cluster += 1
        labels[i] = float(cluster)
    clock = ClockObservable(labels=labels, basis=spec.eigenvectors)
    res = compatibility_residual(h, clock)
    bound = 1e-10 * float(np.max(np.abs(spec.eigenvalues))) * cluster   # ||H|| * ||T||
    if res > max(bound, 1e-14):
        raise NumericalError(f"constructed clock fails to commute: residual {res:.3e}")
    return clock
