"""Synchronization operator, its kernel, and drift under near-compatible dynamics.

The bipartite synchronization operator is K = T_A (x) I - I (x) T_B; its
kernel holds the perfectly time-correlated states. For Hamiltonians whose
commutator with K has norm epsilon, states started in the kernel drift away
at most linearly, ||K psi(t)|| <= epsilon |t|, and their kernel fidelity
stays above 1 - epsilon^2 t^2. The trace routines here measure both series
and check them against those bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import opcore
from .clocks import ClockObservable, _philox
from .opcore import NumericalError, Subspace

BOUND_SLACK = 1e-9   # absolute roundoff allowance on top of the proven bounds
INIT_TOL = 1e-8      # how far psi(0) may sit from ker(K)


@dataclass(frozen=True, eq=False)
class SyncSystem:
    """Two local clocks plus a joint Hamiltonian on the tensor product space.

    Built by make_system, so ``hamiltonian`` has passed
    opcore.require_hermitian; nothing downstream checks it again.
    """

    clock_a: ClockObservable
    clock_b: ClockObservable
    hamiltonian: np.ndarray

    @property
    def dim_a(self) -> int:
        return self.clock_a.dim

    @property
    def dim_b(self) -> int:
        return self.clock_b.dim

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b


def make_system(clock_a: ClockObservable, clock_b: ClockObservable, hamiltonian) -> SyncSystem:
    h = opcore.require_hermitian(hamiltonian)
    if h.shape[0] != clock_a.dim * clock_b.dim:
        raise ValueError(
            f"Hamiltonian dim {h.shape[0]} does not match "
            f"{clock_a.dim}x{clock_b.dim} bipartite space")
    return SyncSystem(clock_a=clock_a, clock_b=clock_b, hamiltonian=h)


def _k_diagonal(system: SyncSystem) -> np.ndarray:
    """K's diagonal a_i - b_j in the product clock basis, in product-index order."""
    return np.subtract.outer(system.clock_a.labels, system.clock_b.labels).reshape(-1)


def _to_clock_basis(system: SyncSystem, x) -> np.ndarray:
    """U^dag X for the product clock basis U = B_A (x) B_B, applied through its factors."""
    return opcore.kron_apply(system.clock_a.basis.conj().T, system.clock_b.basis.conj().T, x)


@dataclass(frozen=True, eq=False)
class SyncOperatorBundle:
    """The kernel of K, epsilon = ||[H,K]|| and ||K|| = max |a_i - b_j|."""

    kernel: Subspace
    epsilon: float
    k_norm: float


def sync_bundle(system: SyncSystem, kernel_tol: float = opcore.KERNEL_TOL) -> SyncOperatorBundle:
    """K's kernel, epsilon = ||[H,K]|| and ||K||.

    K = U G U^dag with U = B_A (x) B_B and G = diag(a_i - b_j), whose singular
    values are the label gaps |a_i - b_j|. The kernel keeps b_A,i (x) b_B,j for
    the gaps within opcore.kernel_cutoff(||K||, kernel_tol), the SVD rank rule
    with its absolute floor, in product-index order; ``kernel.tol_used`` is that
    cutoff. Since K (b_A,i (x) b_B,j) = (a_i - b_j) b_A,i (x) b_B,j, a kept
    column's kernel residual is its gap, at most the cutoff by construction, so
    the basis needs no residual check. ||[H,K]|| = ||[H', G]|| with
    H' = U^dag H U, whose entries are h'_rs g_s - g_r h'_rs. In the standard
    basis these are the dense products' own roundings.
    """
    with np.errstate(over="ignore"):
        g = _k_diagonal(system)
    gaps = np.abs(g)
    if not np.all(np.isfinite(gaps)):
        raise NumericalError("clock label differences overflow")
    k_norm = float(gaps.max())   # ||K||, its largest singular value
    cutoff = opcore.kernel_cutoff(k_norm, kernel_tol)
    i, j = np.divmod(np.flatnonzero(gaps <= cutoff), system.dim_b)
    basis = system.clock_a.basis[:, None, i] * system.clock_b.basis[None, :, j]
    kernel = Subspace(system.dim, basis.reshape(system.dim, i.size), tol_used=cutoff)
    h = _to_clock_basis(system, system.hamiltonian)                              # U^dag H
    h = opcore.kron_apply(system.clock_a.basis.T, system.clock_b.basis.T, h.T).T  # (U^dag H) U
    comm = h * g
    comm -= g[:, None] * h
    return SyncOperatorBundle(kernel=kernel, epsilon=opcore.operator_norm(comm), k_norm=k_norm)


@dataclass(frozen=True, eq=False)
class DriftReport:
    """Time series of kernel drift ||K psi(t)|| and fidelity ||Pi psi(t)||^2.

    ``drift_bound_ok`` checks drift <= epsilon |t| + slack at every sample,
    ``fidelity_bound_ok`` checks fidelity >= 1 - epsilon^2 t^2 - slack.
    ``max_bound_slack`` is the largest signed margin by which any sample
    approached either theoretical bound (negative means comfortably inside).
    """

    times: np.ndarray
    drift: np.ndarray
    fidelity: np.ndarray
    epsilon: float
    drift_bound_ok: bool
    fidelity_bound_ok: bool
    max_bound_slack: float
    bound_slack: float

    def drift_bound(self) -> np.ndarray:
        return self.epsilon * np.abs(self.times)

    def fidelity_bound(self) -> np.ndarray:
        return 1.0 - (self.epsilon * self.times) ** 2


def drift_trace(system: SyncSystem, psi0, times, bundle: SyncOperatorBundle,
                bound_slack: float = BOUND_SLACK,
                init_tol: float = INIT_TOL) -> DriftReport:
    """Evolve psi0 and record drift/fidelity with bound verdicts.

    psi0 must be normalized and lie in ker(K) within init_tol; the tested
    bounds use the realized epsilon = ||[H,K]||, never a configured value.
    """
    psi0 = np.asarray(psi0, dtype=np.complex128).reshape(-1)
    if psi0.shape[0] != system.dim:
        raise ValueError(f"state dim {psi0.shape[0]} does not match system dim {system.dim}")
    norm = float(np.linalg.norm(psi0))
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"initial state is not normalized: ||psi0|| = {norm!r}")
    g = _k_diagonal(system)   # ||K x|| = ||G U^dag x||
    k_res = float(np.linalg.norm(g * _to_clock_basis(system, psi0)))
    if k_res > init_tol:
        raise ValueError(
            f"initial state lies outside the kernel: ||K psi0|| = {k_res:.3e} > {init_tol:.1e}")

    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or times.size == 0 or not np.all(np.isfinite(times)):
        raise ValueError("times must be a nonempty finite 1-d sequence")

    spec = opcore.spectrum(system.hamiltonian)
    v = spec.eigenvectors
    phi = np.exp(-1j * np.outer(spec.eigenvalues, times)) * (v.conj().T @ psi0)[:, None]
    drift = np.linalg.norm((g[:, None] * _to_clock_basis(system, v)) @ phi, axis=0)
    fidelity = np.linalg.norm((bundle.kernel.basis.conj().T @ v) @ phi, axis=0) ** 2
    eps = bundle.epsilon
    drift_excess = drift - eps * np.abs(times)
    fid_excess = (1.0 - (eps * times) ** 2) - fidelity
    return DriftReport(
        times=times,
        drift=drift,
        fidelity=fidelity,
        epsilon=eps,
        drift_bound_ok=bool(np.all(drift_excess <= bound_slack)),
        fidelity_bound_ok=bool(np.all(fid_excess <= bound_slack)),
        max_bound_slack=float(max(np.max(drift_excess), np.max(fid_excess))),
        bound_slack=bound_slack,
    )


def sample_kernel_state(bundle: SyncOperatorBundle, seed: int) -> np.ndarray:
    """Deterministic unit vector in the synchronization kernel."""
    k = bundle.kernel.dim
    if k == 0:
        raise ValueError("kernel is trivial; no state to sample")
    rng = _philox(seed)
    coeffs = rng.normal(size=k) + 1j * rng.normal(size=k)
    vec = bundle.kernel.basis @ coeffs
    return vec / np.linalg.norm(vec)
