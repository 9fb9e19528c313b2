"""Dense references and fixtures the tests compare the library against.

The library never forms a clock T = B diag(l) B^dag, K = T_A (x) I - I (x) T_B
or the joint action g -> rho_A(g) (x) rho_B(g), never factors K by SVD, never
builds a unitary per time sample and never samples Hamiltonians; these
functions do, the plain dense way, so that the tests can check the structured
paths against them. None of them is reached from a scenario.
"""

import io
import json
import math
from dataclasses import dataclass

import numpy as np

from syncsub import grouprep, opcore, sync
from syncsub.clocks import COMPAT_TOL, ClockObservable, _philox, _random_hermitian
from syncsub.opcore import NumericalError

LABEL_SEP = 1e-9       # absolute gap below which the dense classifier merges labels

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


def commutator(a, b) -> np.ndarray:
    """AB - BA; raises on dimension mismatch."""
    a = opcore.as_complex_matrix(a)
    b = opcore.as_complex_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"commutator dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return a @ b - b @ a


def hermitian_eig(m) -> tuple:
    """Eigendecomposition of a Hermitian matrix with deterministic output: the
    Hermitian part (M + M^dag)/2 of a matrix that passes require_hermitian."""
    m = opcore.require_hermitian(m)
    return opcore.spectrum((m + m.conj().T) / 2.0)


def span_projector(basis) -> np.ndarray:
    """Orthogonal projector B B^dag onto the span of orthonormal columns B."""
    return basis @ basis.conj().T


def matrix_to_literal(m) -> dict:
    """The scenario matrix literal {"dim", "entries"} of a square matrix, row-major."""
    m = np.asarray(m, dtype=np.complex128)
    return {
        "dim": int(m.shape[0]),
        "entries": [[float(v.real), float(v.imag)] for v in m.reshape(-1)],
    }


def null_space(a, tol: float = opcore.KERNEL_TOL) -> tuple:
    """Kernel of a 2-d array via SVD: (orthonormal basis columns, absolute cutoff).

    Keeps right-singular vectors with singular value <= tol * sigma_max, and
    counts every singular value at or below KERNEL_ABS_FLOOR as zero, so a
    matrix that is zero up to roundoff has the full space as its kernel.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {a.shape}")
    _, s, vh = np.linalg.svd(a)
    cutoff = opcore.kernel_cutoff(float(s[0]) if s.size else 0.0, tol)
    rank = int(np.count_nonzero(s > cutoff))
    return opcore._fix_phases(vh[rank:].conj().T), cutoff


def evolve(h, t: float) -> np.ndarray:
    """Unitary e^{-iHt} computed through the eigendecomposition of H.

    Exactly unitary up to roundoff for Hermitian H; no series truncation.
    """
    w, v = hermitian_eig(h)
    u = (v * np.exp(-1j * w * float(t))) @ v.conj().T
    res, ok = opcore.check(u.conj().T @ u - np.eye(u.shape[0]), opcore.UNITARY_TOL * u.shape[0])
    if not ok:
        raise NumericalError(f"evolution lost unitarity: residual {res:.3e}")
    return u


# ---------------------------------------------------------------------------
# clocks and synchronization


def clock_matrix(t: ClockObservable) -> np.ndarray:
    """Hermitian matrix form T = B diag(labels) B^dag."""
    return (t.basis * t.labels) @ t.basis.conj().T


def compatibility_residual(h, t: ClockObservable) -> float:
    """||[H, T]|| in spectral norm; zero exactly when H preserves the clock."""
    h = opcore.as_complex_matrix(h)
    if h.shape[0] != t.dim:
        raise ValueError(f"Hamiltonian dim {h.shape[0]} does not match clock dim {t.dim}")
    return opcore.operator_norm(commutator(h, clock_matrix(t)))


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


def classify_compatibility(h, t: ClockObservable,
                           compat_tol: float = COMPAT_TOL) -> dict:
    """The dense classifier: ||[H, T]|| from T itself, the blocks from LABEL_SEP
    and off_block_mass = ||H - sum_l P_l H P_l|| from one projector per block."""
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
    return {"class": kind, "residual": residual, "off_block_mass": off_block_mass}


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
    return kron_difference(clock_matrix(clock_a), clock_matrix(clock_b))


def preservation_residual(bundle, times) -> float:
    """Worst leakage ||(I - Pi) U(t) Pi|| = ||(I - Pi) U(t) B||, B the kernel basis,
    under the bundle's system."""
    times = np.asarray(times, dtype=np.float64)
    if not np.all(np.isfinite(times)):
        raise ValueError("evolution times must be finite")
    w, v = hermitian_eig(bundle.system.hamiltonian)
    basis = sync.kernel_basis(bundle)
    coeffs = v.conj().T @ basis
    worst = 0.0
    for phases in np.exp(-1j * np.outer(w, times)).T:
        moved = v @ (phases[:, None] * coeffs)
        worst = max(worst, opcore.operator_norm(moved - basis @ (basis.conj().T @ moved)))
    return worst


# ---------------------------------------------------------------------------
# group representations


def conjugacy_classes(table, inverse, identity: int) -> tuple:
    """Classes by one orbit {h g h^-1 : h} per unvisited g, in a Python loop:
    the identity's class first, the rest by least element."""
    n = table.shape[0]
    seen = set()
    classes = []
    for g in range(n):
        if g in seen:
            continue
        orbit = sorted({int(table[table[h, g], inverse[h]]) for h in range(n)})
        classes.append(tuple(orbit))
        seen.update(orbit)
    classes.sort(key=lambda c: (0 if identity in c else 1, c[0]))
    return tuple(classes)


def element_order(table, e: int, g: int) -> int:
    """The least k >= 1 with x_k = e for x_1 = g, x_{k+1} = x_k g, one product at a time."""
    k, x = 1, g
    while x != e:
        x, k = int(table[x, g]), k + 1
    return k


def character_gram(group, chars) -> np.ndarray:
    """(1/|G|) sum_c |c| chi_i(c) chi_j(c)^*, one Gram row at a time, each entry
    summed over the classes in their order."""
    sizes = np.asarray(group.class_sizes, dtype=np.float64)
    chars = np.asarray(chars, dtype=np.complex128)
    conj = chars.conj()
    return np.array([np.sum(row * conj, axis=-1) for row in sizes * chars]) / group.order


def cyclic_characters(n: int) -> np.ndarray:
    """chi_k(g_j) = omega ** (k j), omega = e^{2 pi i / n}, one power at a time."""
    omega = np.exp(2j * np.pi / n)
    return np.array([[omega ** (k * j) for j in range(n)] for k in range(n)])


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
    return grouprep.Representation(group=rho_a.group, matrices=mats)


def isotypic_components(rho, chars) -> tuple:
    """grouprep.isotypic_projectors on the multiplicities counted on ``rho``, as
    the group kind decomposes each distinct representation."""
    return grouprep.isotypic_projectors(rho, chars, grouprep.multiplicities(rho, chars))


def schur_clock(t, rho, comps) -> tuple:
    """grouprep.isotypic_clock of any T, with its equivariance residual taken on ``rho``."""
    return grouprep.isotypic_clock(t, grouprep.equivariance_residual(rho, t), comps)


def diagonal_isotypic_subspace(rho_a, rho_b, chars) -> np.ndarray:
    """Orthonormal basis columns of the direct sum over shared irreps of
    V_l^A (x) V_l^B inside the product space, for any multiplicities; the
    subspace is invariant under the joint action (verified before returning).
    """
    grouprep._require_same_group(rho_a.group, rho_b.group)
    pieces = [np.kron(comp_a.basis, comp_b.basis)
              for comp_a, comp_b in zip(isotypic_components(rho_a, chars),
                                        isotypic_components(rho_b, chars))
              if comp_a.multiplicity and comp_b.multiplicity]
    ambient = rho_a.dim * rho_b.dim
    if pieces:
        basis = np.hstack(pieces)
    else:
        basis = np.zeros((ambient, 0), dtype=np.complex128)
    if basis.shape[1]:
        pi = span_projector(basis)
        eye = np.eye(ambient)
        joint = tensor_representation(rho_a, rho_b)
        for g in range(joint.group.order):
            leak, ok = opcore.check((eye - pi) @ joint[g] @ pi, 1e-10)
            if not ok:
                raise NumericalError(
                    f"diagonal isotypic subspace is not invariant under "
                    f"{joint.group.elements[g]!r} (leakage {leak:.3e})")
    return basis


# ---------------------------------------------------------------------------
# reports


def dumps_report(payload) -> str:
    """The report emitter as first written: one stream write per token, with
    separators tracked by hand. scenario.dumps_report must give the same text."""
    out = io.StringIO()
    _write_json(payload, out, 0)
    out.write("\n")
    return out.getvalue()


def _format_float(x: float) -> str:
    if math.isnan(x):
        raise NumericalError("cannot serialize NaN")
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def _write_json(obj, out: io.StringIO, indent: int) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.write("{}")
            return
        out.write("{\n")
        items = sorted(obj.items())
        for i, (key, value) in enumerate(items):
            out.write(f'{pad}  {json.dumps(str(key))}: ')
            _write_json(value, out, indent + 1)
            out.write(",\n" if i + 1 < len(items) else "\n")
        out.write(pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.write("[]")
            return
        out.write("[")
        for i, value in enumerate(seq):
            _write_json(value, out, indent)
            if i + 1 < len(seq):
                out.write(", ")
        out.write("]")
    elif isinstance(obj, bool) or obj is None:
        out.write(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.write(_format_float(float(obj)))
    elif isinstance(obj, str):
        out.write(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
