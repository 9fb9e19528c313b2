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
from .clocks import ClockObservable, _philox, diagonal_commutator, label_gaps
from .opcore import Subspace

BOUND_SLACK = 1e-9   # absolute roundoff allowance on top of the proven bounds
INIT_TOL = 1e-8      # how far psi(0) may sit from ker(K)
NORM_TOL = 1e-12     # how far ||psi(0)|| may sit from 1


@dataclass(frozen=True, eq=False)
class SyncSystem:
    """Two local clocks plus a joint Hamiltonian on the tensor product space, held
    in the form given to make_system, which checked it; nothing downstream checks
    it again. ``local`` is (H_A, H_B) for H = H_A (x) I + I (x) H_B, whose
    commutator norms are read off the factors, and None for an n x n H."""

    clock_a: ClockObservable
    clock_b: ClockObservable
    local: tuple | None
    _matrix: np.ndarray | None

    @property
    def hamiltonian(self) -> np.ndarray:
        """The n x n H; for a local H, opcore.kron_sum of its factors, formed on first read."""
        if self._matrix is None:
            object.__setattr__(self, "_matrix", opcore.kron_sum(*self.local))
        return self._matrix

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
    """The system of two clocks and H, an n x n matrix or the tuple (H_A, H_B) of local
    terms of H = H_A (x) I + I (x) H_B; each matrix given must pass require_hermitian."""
    if isinstance(hamiltonian, tuple):
        h_a, h_b = map(opcore.require_hermitian, hamiltonian)
        if (h_a.shape[0], h_b.shape[0]) != (clock_a.dim, clock_b.dim):
            raise ValueError(f"local terms {h_a.shape}, {h_b.shape} do not match "
                             f"the {clock_a.dim}x{clock_b.dim} clocks")
        return SyncSystem(clock_a, clock_b, (h_a, h_b), None)
    h = opcore.require_hermitian(hamiltonian)
    if h.shape[0] != clock_a.dim * clock_b.dim:
        raise ValueError(f"Hamiltonian dim {h.shape[0]} does not match "
                         f"{clock_a.dim}x{clock_b.dim} bipartite space")
    return SyncSystem(clock_a, clock_b, None, h)


def _to_clock_basis(system: SyncSystem, x) -> np.ndarray:
    """U^dag X for the product clock basis U = B_A (x) B_B, applied through its factors."""
    return opcore.kron_apply(system.clock_a.basis.conj().T, system.clock_b.basis.conj().T, x)


def clock_hamiltonian(system: SyncSystem) -> np.ndarray:
    """H' = U^dag H U in the product clock basis, Hermitized once, (H' + H'^dag)/2.

    eigvalsh and eigh read one triangle of it, so it is Hermitian bit for bit.
    """
    h = _to_clock_basis(system, system.hamiltonian)                              # U^dag H
    h = opcore.kron_apply(system.clock_a.basis.T, system.clock_b.basis.T, h.T).T  # (U^dag H) U
    return (h + h.conj().T) / 2.0


@dataclass(frozen=True, eq=False)
class SyncOperatorBundle:
    """The kernel of K, epsilon = ||[H,K]||, ||K|| = max |a_i - b_j| and K's
    diagonal a_i - b_j in the product clock basis.

    ``kernel_index`` holds the product indices i * d_B + j of the kernel's
    columns b_A,i (x) b_B,j, ascending: in the clock basis the kernel is
    spanned by those coordinate vectors. ``clock_hamiltonian`` is the H' that
    epsilon was taken from, or None when epsilon came from local factors.
    """

    kernel: Subspace
    epsilon: float
    k_norm: float
    k_diagonal: np.ndarray
    kernel_index: np.ndarray
    clock_hamiltonian: np.ndarray | None = None


def sync_bundle(system: SyncSystem, kernel_tol: float = opcore.KERNEL_TOL) -> SyncOperatorBundle:
    """K's kernel, epsilon = ||[H,K]|| and ||K||.

    K = U G U^dag with U = B_A (x) B_B and G = diag(a_i - b_j) from
    clocks.label_gaps. The kernel keeps b_A,i (x) b_B,j for the gaps within
    label_gaps' cutoff, in product-index order; ``kernel.tol_used`` is that
    cutoff. Since K (b_A,i (x) b_B,j) = (a_i - b_j) b_A,i (x) b_B,j, a kept
    column's kernel residual is its gap, at most the cutoff by construction, so
    the basis needs no residual check. ||[H,K]|| = ||[H', G]|| with H' =
    clock_hamiltonian(system); i[H', G] is then Hermitian bit for bit, and
    epsilon is its opcore.hermitian_norm.

    For a local H' = H_A' (x) I + I (x) H_B', with H_X' = B_X^dag H_X B_X,
    [H', G] = [H_A', diag(a - b_0)] (x) I + I (x) [H_B', diag(a_0 - b)], as a
    common shift of one side's labels commutes with its term, and epsilon is
    the opcore.kron_sum_norm of the two factors times i. The shifted labels are
    G's first column and row, so the factored path overflows only where the
    dense [H', G] would.
    """
    g, cutoff = label_gaps(system.clock_a.labels, system.clock_b.labels, kernel_tol)
    gaps = np.abs(g)
    index = np.flatnonzero(gaps <= cutoff)
    i, j = np.divmod(index, system.dim_b)
    basis = system.clock_a.basis[:, None, i] * system.clock_b.basis[None, :, j]
    kernel = Subspace(system.dim, basis.reshape(system.dim, i.size), tol_used=cutoff)
    h = None
    if system.local is not None:
        (h_a, h_b), b_a, b_b = system.local, system.clock_a.basis, system.clock_b.basis
        grid = g.reshape(system.dim_a, system.dim_b)
        x = diagonal_commutator(b_a.conj().T @ h_a @ b_a, grid[:, 0])
        y = diagonal_commutator(b_b.conj().T @ h_b @ b_b, grid[0])
        epsilon = opcore.kron_sum_norm(1j * x, 1j * y)
    else:
        h = clock_hamiltonian(system)
        comm = diagonal_commutator(h, g)
        comm *= 1j
        epsilon = opcore.hermitian_norm(comm)
    return SyncOperatorBundle(kernel=kernel, epsilon=epsilon, k_norm=float(gaps.max()),
                              k_diagonal=g, kernel_index=index, clock_hamiltonian=h)


def drift_trace(system: SyncSystem, psi0, times, bundle: SyncOperatorBundle,
                bound_slack: float = BOUND_SLACK,
                init_tol: float = INIT_TOL) -> dict:
    """Evolve psi0 and record drift/fidelity with bound verdicts.

    Returns the series kinds' report fields: ``times``, ``drift`` ||K psi(t)||,
    ``fidelity`` ||Pi psi(t)||^2, their bounds ``bound_drift`` epsilon |t| and
    ``bound_fidelity`` 1 - epsilon^2 t^2 as lists, ``epsilon``, the verdicts
    ``drift_bound_ok`` (drift <= bound + slack at every sample) and
    ``fidelity_bound_ok`` (fidelity >= bound - slack), and ``max_bound_slack``,
    the largest signed margin by which a sample approached either bound
    (negative means inside).

    psi0 must be normalized and lie in ker(K) within init_tol; the tested
    bounds use the realized epsilon = ||[H,K]||, never a configured value.
    Raises NumericalError when a drift value, epsilon |t| or (epsilon t)^2 is
    not finite, as with label gaps near the float range.

    The evolution runs in the product clock basis: one eigendecomposition
    H' = V' diag(lambda) V'^dag of the bundle's clock_hamiltonian (formed here
    for a local system), psi0' = U^dag psi0 and phi(t) = exp(-i lambda t) V'^dag
    psi0'. There K is G = diag(a_i - b_j) and the kernel projector keeps the
    coordinates of ``bundle.kernel_index``, so drift(t) = ||G V' phi(t)|| and
    fidelity(t) = ||V'[kernel_index] phi(t)||^2.
    """
    psi0 = np.asarray(psi0, dtype=np.complex128).reshape(-1)
    if psi0.shape[0] != system.dim:
        raise ValueError(f"state dim {psi0.shape[0]} does not match system dim {system.dim}")
    norm = float(np.linalg.norm(psi0))
    if not opcore.check(abs(norm - 1.0), NORM_TOL)[1]:
        raise ValueError(f"initial state is not normalized: ||psi0|| = {norm!r}")
    g = bundle.k_diagonal   # ||K x|| = ||G U^dag x||
    psi0 = _to_clock_basis(system, psi0)   # psi0' from here on
    k_res, in_kernel = opcore.check(_scaled_norm(g * psi0), init_tol)
    if not in_kernel:
        raise ValueError(
            f"initial state lies outside the kernel: ||K psi0|| = {k_res:.3e} > {init_tol:.1e}")

    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or times.size == 0 or not np.all(np.isfinite(times)):
        raise ValueError("times must be a nonempty finite 1-d sequence")

    h = bundle.clock_hamiltonian
    w, v = opcore.spectrum(clock_hamiltonian(system) if h is None else h)
    phi = np.exp(-1j * np.outer(w, times)) * (v.conj().T @ psi0)[:, None]
    fidelity = np.linalg.norm(v[bundle.kernel_index] @ phi, axis=0) ** 2
    eps = bundle.epsilon
    with np.errstate(over="ignore", invalid="ignore"):
        drift = np.linalg.norm((g[:, None] * v) @ phi, axis=0)
        bound_drift = eps * np.abs(times)
        bound_fidelity = 1.0 - (eps * times) ** 2
        drift_excess = drift - bound_drift
        fid_excess = bound_fidelity - fidelity
    # an overflowing drift or bound makes an excess inf or nan: no verdict can be read
    if not (np.all(np.isfinite(drift_excess)) and np.all(np.isfinite(fid_excess))):
        raise opcore.NumericalError("drift series or its bounds overflow")
    drift_excess, fid_excess = float(np.max(drift_excess)), float(np.max(fid_excess))
    return {
        "times": times.tolist(),
        "drift": drift.tolist(),
        "fidelity": fidelity.tolist(),
        "bound_drift": bound_drift.tolist(),
        "bound_fidelity": bound_fidelity.tolist(),
        "epsilon": eps,
        "drift_bound_ok": opcore.check(drift_excess, bound_slack)[1],
        "fidelity_bound_ok": opcore.check(fid_excess, bound_slack)[1],
        "max_bound_slack": max(drift_excess, fid_excess),
    }


def _scaled_norm(x: np.ndarray) -> float:
    """||x||_2 of a finite vector whose squares may overflow. When an entry
    reaches 2^500, the vector is first scaled by a power of two, which is exact,
    so its squares stay in range; any other vector takes the plain norm, bit
    for bit."""
    top = float(max(np.max(np.abs(x.real)), np.max(np.abs(x.imag))))
    if top < 2.0 ** 500:
        return float(np.linalg.norm(x))
    exponent = int(np.frexp(top)[1])
    with np.errstate(over="ignore"):
        return float(np.ldexp(np.linalg.norm(x * 2.0 ** -exponent), exponent))


def sample_kernel_state(bundle: SyncOperatorBundle, seed: int) -> np.ndarray:
    """Deterministic unit vector in the synchronization kernel."""
    k = bundle.kernel.dim
    if k == 0:
        raise ValueError("kernel is trivial; no state to sample")
    rng = _philox(seed)
    coeffs = rng.normal(size=k) + 1j * rng.normal(size=k)
    vec = bundle.kernel.basis @ coeffs
    return vec / np.linalg.norm(vec)
