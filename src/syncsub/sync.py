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
_EPS_FLOOR = 1e-15   # below this, epsilon counts as exactly compatible


@dataclass(frozen=True, eq=False)
class SyncSystem:
    """Two local clocks plus a joint Hamiltonian on the tensor product space.

    Built by make_system (local_system goes through it), so ``hamiltonian`` has
    passed opcore.require_hermitian; nothing downstream checks it again.
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


def local_system(clock_a: ClockObservable, clock_b: ClockObservable, h_a, h_b) -> SyncSystem:
    """System with H = H_A (x) I + I (x) H_B assembled from local pieces.

    The two terms commute by construction: each entry of either product is the
    one product a_ij * b_kl (every other term is an exact zero), so their
    commutator is roundoff and is not checked.
    """
    h_a = opcore.require_hermitian(h_a)
    h_b = opcore.require_hermitian(h_b)
    if h_a.shape[0] != clock_a.dim or h_b.shape[0] != clock_b.dim:
        raise ValueError("local Hamiltonian dims do not match the clocks")
    h = np.kron(h_a, np.eye(clock_b.dim)) + np.kron(np.eye(clock_a.dim), h_b)
    return make_system(clock_a, clock_b, h)


def sync_operator(clock_a: ClockObservable, clock_b: ClockObservable) -> np.ndarray:
    """K = T_A (x) I - I (x) T_B on the dim_a * dim_b product space."""
    return opcore.kron_difference(clock_a.matrix(), clock_b.matrix())


@dataclass(frozen=True, eq=False)
class SyncOperatorBundle:
    """K together with its kernel, the kernel projector, and epsilon = ||[H,K]||."""

    operator: np.ndarray
    kernel: Subspace
    projector: np.ndarray
    epsilon: float


def sync_bundle(system: SyncSystem, kernel_tol: float = opcore.KERNEL_TOL) -> SyncOperatorBundle:
    """K, its kernel, the kernel projector, and epsilon = ||[H,K]||.

    K = diag(a_i - b_j) in the product clock basis, so null_space's rank rule on K
    keeps b_A,i (x) b_B,j for the label gaps within its cutoff, in product-index order.
    """
    with np.errstate(over="ignore"):
        gaps = np.abs(np.subtract.outer(system.clock_a.labels, system.clock_b.labels))
    if not np.all(np.isfinite(gaps)):
        raise NumericalError("clock label differences overflow")
    k_norm = float(gaps.max())   # ||K||, its largest singular value
    cutoff = opcore.kernel_cutoff(k_norm, kernel_tol)
    i, j = np.nonzero(gaps <= cutoff)
    basis = system.clock_a.basis[:, None, i] * system.clock_b.basis[None, :, j]
    kernel = Subspace(system.dim, basis.reshape(system.dim, i.size), tol_used=cutoff)
    k = sync_operator(system.clock_a, system.clock_b)
    if kernel.dim:
        limit = 10.0 * kernel_tol * max(1.0, k_norm)
        res = opcore.screened_norm(k @ kernel.basis, limit)
        if res > limit:
            raise NumericalError(f"kernel basis residual {res:.3e} exceeds tolerance")
    epsilon = opcore.operator_norm(opcore.commutator(system.hamiltonian, k))
    return SyncOperatorBundle(
        operator=k,
        kernel=kernel,
        projector=opcore.projector(kernel),
        epsilon=epsilon,
    )


def preservation_residual(system: SyncSystem, bundle: SyncOperatorBundle, times) -> float:
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
    k_res = float(np.linalg.norm(bundle.operator @ psi0))
    if k_res > init_tol:
        raise ValueError(
            f"initial state lies outside the kernel: ||K psi0|| = {k_res:.3e} > {init_tol:.1e}")

    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or times.size == 0 or not np.all(np.isfinite(times)):
        raise ValueError("times must be a nonempty finite 1-d sequence")

    spec = opcore.spectrum(system.hamiltonian)
    v = spec.eigenvectors
    phi = np.exp(-1j * np.outer(spec.eigenvalues, times)) * (v.conj().T @ psi0)[:, None]
    drift = np.linalg.norm((bundle.operator @ v) @ phi, axis=0)
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


def stability_window(bundle: SyncOperatorBundle, delta: float) -> float:
    """Largest |t| with guaranteed drift <= delta; infinite when epsilon ~ 0."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    if bundle.epsilon <= _EPS_FLOOR:
        return float("inf")
    return delta / bundle.epsilon


def sample_kernel_state(bundle: SyncOperatorBundle, seed: int) -> np.ndarray:
    """Deterministic unit vector in the synchronization kernel."""
    k = bundle.kernel.dim
    if k == 0:
        raise ValueError("kernel is trivial; no state to sample")
    rng = _philox(seed)
    coeffs = rng.normal(size=k) + 1j * rng.normal(size=k)
    vec = bundle.kernel.basis @ coeffs
    return vec / np.linalg.norm(vec)
