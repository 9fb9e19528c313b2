"""Clock observables and the algebra of Hamiltonians compatible with them.

A clock is a Hermitian operator whose eigenvalues are discrete time labels.
This module builds clocks, measures how far a Hamiltonian is from commuting
with one, and classifies the commuting ones by their block structure on the
clock's eigenspaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import opcore

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

    blocks = block_structure(t)
    h_block = sum(b.projector @ h @ b.projector for b in blocks.blocks)
    off_block_mass = opcore.operator_norm(h - h_block)

    # Both limits are compat_tol * max(1, .) >= compat_tol, so ||H|| is taken
    # only for a value above compat_tol, as in opcore.require_hermitian.
    t_norm = float(np.max(np.abs(t.labels)))   # ||T||, read off its spectrum
    if residual > compat_tol and residual > compat_tol * max(
            1.0, opcore.operator_norm(h) * t_norm):
        kind = "incompatible"
    else:
        h_in_basis = t.basis.conj().T @ h @ t.basis
        off_diag = opcore.screened_norm(h_in_basis - np.diag(np.diag(h_in_basis)), compat_tol)
        diagonal = off_diag <= compat_tol or off_diag <= compat_tol * max(
            1.0, opcore.operator_norm(h))
        kind = "diagonal" if diagonal else "block_diagonal"
    return CompatibilityVerdict(residual=residual, kind=kind, off_block_mass=off_block_mass)
