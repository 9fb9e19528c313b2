"""Finite-group representation machinery for symmetry-protected synchronization.

Covers: validated group tables and character tables for a few built-in
groups, unitary representations given extensionally (one matrix per
element), character-theoretic isotypic projectors and multiplicities, the
diagonal isotypic subspace sitting inside a bipartite tensor product, Schur
scalars of equivariant observables, membership in the algebra of
synchronization-preserving Hamiltonians, and the kernel-containment check
that ties irrep-label alignment to the synchronization kernel.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import opcore
from .clocks import _philox, _random_hermitian
from .opcore import NumericalError, Subspace

EQUIVAR_TOL = 1e-10
MATCH_TOL = 1e-9            # scalar agreement |alpha - beta| for kernel membership
MULT_ROUND_TOL = 1e-6
SCHUR_TOL = 1e-9
KERNEL_RESIDUAL_TOL = 1e-9  # ||K b|| allowance on matched components
HOMOMORPHISM_TOL = 1e-10
_IDEMPOTENT_TOL = 1e-8
_ASSOC_CHECK_MAX_ORDER = 64
_EXHAUSTIVE_PAIRS_MAX_ORDER = 24
_SAMPLED_PAIRS = 500
_STACK_ENTRIES = 1 << 20   # matrix entries per stacked batch (16 MB complex)


# ---------------------------------------------------------------------------
# groups

@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Finite group as a validated multiplication table over opaque labels."""

    name: str
    elements: tuple
    mult_table: np.ndarray
    identity_index: int
    inverse_table: np.ndarray
    conjugacy_classes: tuple

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def class_sizes(self) -> tuple:
        return tuple(len(c) for c in self.conjugacy_classes)

    def class_of(self, index: int) -> int:
        """Conjugacy-class index of an element index."""
        for ci, cls in enumerate(self.conjugacy_classes):
            if index in cls:
                return ci
        raise ValueError(f"element index {index} out of range")

    def index_of(self, label) -> int:
        try:
            return self.elements.index(label)
        except ValueError:
            raise ValueError(f"unknown group element {label!r}") from None


def _conjugacy_classes(table: np.ndarray, inverse: np.ndarray, identity: int) -> tuple:
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


def make_group(elements, mult_table, classes=None, name: str = "group") -> FiniteGroup:
    """Validate a multiplication table into a FiniteGroup.

    Checks: Latin square, unique identity, inverses, associativity on all
    triples (orders <= 64), and that any supplied classes are closed under
    conjugation and partition the elements.
    """
    elements = tuple(str(e) for e in elements)
    n = len(elements)
    if n == 0 or len(set(elements)) != n:
        raise ValueError("group elements must be nonempty and distinct")
    table = np.asarray(mult_table, dtype=np.int64)
    if table.shape != (n, n):
        raise ValueError(f"multiplication table shape {table.shape} does not match order {n}")
    if table.min() < 0 or table.max() >= n:
        raise ValueError("multiplication table indices out of range")
    want = np.arange(n)
    for i in range(n):
        if not np.array_equal(np.sort(table[i]), want) or not np.array_equal(np.sort(table[:, i]), want):
            raise ValueError(f"multiplication table is not a Latin square at row/col {i}")

    ids = [e for e in range(n)
           if np.array_equal(table[e], want) and np.array_equal(table[:, e], want)]
    if len(ids) != 1:
        raise ValueError("group must have exactly one identity element")
    identity = ids[0]

    inverse = np.full(n, -1, dtype=np.int64)
    for g in range(n):
        hits = np.nonzero(table[g] == identity)[0]
        if hits.size != 1 or table[hits[0], g] != identity:
            raise ValueError(f"element {elements[g]!r} lacks a two-sided inverse")
        inverse[g] = hits[0]

    if n <= _ASSOC_CHECK_MAX_ORDER:
        left = table[table, :]          # left[a,b,c] = (ab)c
        right = table[:, table]         # right[a,b,c] = a(bc)
        if not np.array_equal(left, right):
            raise ValueError("multiplication table is not associative")

    computed = _conjugacy_classes(table, inverse, identity)
    if classes is not None:
        supplied = tuple(tuple(sorted(int(i) for i in c)) for c in classes)
        if sorted(i for c in supplied for i in c) != list(range(n)):
            raise ValueError("conjugacy classes must partition the elements")
        if set(supplied) != set(computed):
            raise ValueError("supplied conjugacy classes are not closed under conjugation")
        # keep the canonical deterministic order regardless of input order
    return FiniteGroup(name=name, elements=elements, mult_table=table,
                       identity_index=identity, inverse_table=inverse,
                       conjugacy_classes=computed)


def _perm_group(name: str, labels, perms) -> FiniteGroup:
    """Group from permutation tuples; composition (p*q)(x) = p(q(x))."""
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    table = np.zeros((n, n), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i, j] = index[tuple(p[q[x]] for x in range(len(p)))]
    return make_group(labels, table, name=name)


@dataclass(frozen=True)
class GeneratorTree:
    """A generating set S and a tree of forward words over it.

    Each element h outside S appears once in ``edges`` as (h, p, s) with
    h = p*s, s in S and p earlier in the tree (an element of S or an earlier
    h). ``depth`` is the most products on any path from S, 15 for Z16.
    """

    generators: tuple
    edges: tuple
    depth: int


def _forward_words(table: np.ndarray, gens) -> tuple:
    """BFS over h = p*s from ``gens``: ({element: depth}, edges in BFS order).

    In a finite group the forward words over a set reach exactly the subgroup
    it generates, identity included.
    """
    depth = dict.fromkeys(gens, 0)
    edges, frontier = [], list(gens)
    while frontier:
        nxt = []
        for p in frontier:
            for s in gens:
                h = int(table[p, s])
                if h not in depth:
                    depth[h] = depth[p] + 1
                    edges.append((h, p, s))
                    nxt.append(h)
        frontier = nxt
    return depth, edges


def generator_tree(group: FiniteGroup) -> GeneratorTree:
    """Greedy generating set S of ``group`` and its forward-word tree.

    Elements are taken by descending element order, then index, each one not
    yet in the subgroup generated so far, until S generates the group: Zn
    gives {g1}, Z2xZ2, S3 and D4 two generators. The trivial group has an
    empty generating set and uses S = {e}, so that rho(e) is still checked.
    """
    table, e = group.mult_table, group.identity_index

    def element_order(g):
        k, x = 1, g
        while x != e:
            x, k = int(table[x, g]), k + 1
        return k

    gens, span = [], {e}
    for g in sorted(range(group.order), key=lambda g: (-element_order(g), g)):
        if len(span) == group.order:
            break
        if g not in span:
            gens.append(g)
            span = _forward_words(table, gens)[0]
    gens = gens or [e]
    depth, edges = _forward_words(table, gens)
    return GeneratorTree(generators=tuple(gens), edges=tuple(edges), depth=max(depth.values()))


# ---------------------------------------------------------------------------
# character tables

@dataclass(frozen=True, eq=False)
class Irrep:
    name: str
    dim: int
    characters: np.ndarray   # one complex value per conjugacy class


@dataclass(frozen=True, eq=False)
class CharacterTable:
    irreps: tuple

    def __iter__(self):
        return iter(self.irreps)

    def __len__(self):
        return len(self.irreps)


def make_character_table(group: FiniteGroup, rows) -> CharacterTable:
    """Validate (name, dim, chars-per-class) rows against the group."""
    n_classes = len(group.conjugacy_classes)
    irreps = []
    for name, dim, chars in rows:
        chars = np.asarray(chars, dtype=np.complex128)
        if chars.shape != (n_classes,):
            raise ValueError(f"irrep {name!r} needs one character per class ({n_classes})")
        irreps.append(Irrep(name=str(name), dim=int(dim), characters=chars))
    if sum(ir.dim ** 2 for ir in irreps) != group.order:
        raise ValueError("sum of squared irrep dimensions must equal the group order")
    sizes = np.asarray(group.class_sizes, dtype=np.float64)
    for i, a in enumerate(irreps):
        for j, b in enumerate(irreps):
            inner = np.sum(sizes * a.characters * b.characters.conj()) / group.order
            if abs(inner - (1.0 if i == j else 0.0)) > 1e-10:
                raise ValueError(
                    f"character rows {a.name!r}, {b.name!r} violate orthogonality "
                    f"(inner product {inner:.3e})")
    return CharacterTable(irreps=tuple(irreps))


def _cyclic_group(n: int):
    table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    group = make_group([f"g{i}" for i in range(n)], table, name=f"Z{n}")
    omega = np.exp(2j * np.pi / n)
    rows = [(f"chi{k}", 1, [omega ** (k * j) for j in range(n)]) for k in range(n)]
    return group, make_character_table(group, rows)


def _klein_group():
    table = np.bitwise_xor(np.arange(4)[:, None], np.arange(4)[None, :])
    group = make_group(["e", "a", "b", "ab"], table, name="Z2xZ2")
    rows = [
        ("triv", 1, [1, 1, 1, 1]),
        ("chi10", 1, [1, -1, 1, -1]),
        ("chi01", 1, [1, 1, -1, -1]),
        ("chi11", 1, [1, -1, -1, 1]),
    ]
    return group, make_character_table(group, rows)


def _s3_group():
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (2, 1, 0), (0, 2, 1)]
    group = _perm_group("S3", ["e", "r", "rr", "s", "rs", "rrs"], perms)
    # class order: [e], [r, rr], [s, rs, rrs]
    rows = [
        ("triv", 1, [1, 1, 1]),
        ("sign", 1, [1, 1, -1]),
        ("std", 2, [2, -1, 0]),
    ]
    return group, make_character_table(group, rows)


def _d4_group():
    r = (1, 2, 3, 0)
    s = (0, 3, 2, 1)

    def compose(p, q):
        return tuple(p[q[x]] for x in range(4))

    powers = [(0, 1, 2, 3)]
    for _ in range(3):
        powers.append(compose(r, powers[-1]))
    perms = powers + [compose(p, s) for p in powers]
    group = _perm_group("D4", ["e", "r", "rr", "rrr", "s", "rs", "rrs", "rrrs"], perms)
    # class order: [e], [r, rrr], [rr], [s, rrs], [rs, rrrs]
    rows = [
        ("A1", 1, [1, 1, 1, 1, 1]),
        ("A2", 1, [1, 1, 1, -1, -1]),
        ("B1", 1, [1, -1, 1, 1, -1]),
        ("B2", 1, [1, -1, 1, -1, 1]),
        ("E", 2, [2, 0, -2, 0, 0]),
    ]
    return group, make_character_table(group, rows)


def builtin_group(name: str):
    """Built-in (group, character table) pairs: Zn, Z2xZ2, S3, D4."""
    if name == "Z2xZ2":
        return _klein_group()
    if name == "S3":
        return _s3_group()
    if name == "D4":
        return _d4_group()
    m = re.fullmatch(r"Z(\d+)", name)
    if m:
        n = int(m.group(1))
        if n < 1:
            raise ValueError("cyclic group order must be >= 1")
        return _cyclic_group(n)
    raise ValueError(f"unknown builtin group {name!r}")


# ---------------------------------------------------------------------------
# representations

@dataclass(frozen=True, eq=False)
class Representation:
    """Unitary representation given extensionally: one matrix per element."""

    group: FiniteGroup
    matrices: np.ndarray   # (order, dim, dim)

    @property
    def dim(self) -> int:
        return int(self.matrices.shape[1])

    def __getitem__(self, index: int) -> np.ndarray:
        return self.matrices[index]


def make_representation(group: FiniteGroup, matrices) -> Representation:
    mats = np.asarray(matrices, dtype=np.complex128)
    if mats.ndim != 3 or mats.shape[0] != group.order or mats.shape[1] != mats.shape[2]:
        raise ValueError(f"expected {group.order} square matrices, got shape {mats.shape}")
    dim = mats.shape[1]
    eye = np.eye(dim)
    ident_res = opcore.screened_norm(mats[group.identity_index] - eye, 1e-12 * dim)
    if ident_res > 1e-12 * dim:
        raise ValueError(f"identity element must map to I (residual {ident_res:.3e})")
    limit = opcore.UNITARY_TOL * dim
    for i in range(group.order):
        res = opcore.screened_norm(mats[i].conj().T @ mats[i] - eye, limit)
        if res > limit:
            raise ValueError(
                f"matrix for element {group.elements[i]!r} is not unitary (residual {res:.3e})")
    return Representation(group=group, matrices=mats)


def trivial_representation(group: FiniteGroup, dim: int = 1) -> Representation:
    mats = np.broadcast_to(np.eye(dim, dtype=np.complex128), (group.order, dim, dim)).copy()
    return make_representation(group, mats)


def regular_representation(group: FiniteGroup) -> Representation:
    """Left regular representation: rho(g)|h> = |gh> as permutation matrices."""
    n = group.order
    mats = np.zeros((n, n, n), dtype=np.complex128)
    for g in range(n):
        mats[g, group.mult_table[g, :], np.arange(n)] = 1.0
    return make_representation(group, mats)


def representation_from_generators(group: FiniteGroup, generators: dict) -> Representation:
    """Expand generator matrices to all elements via the multiplication table."""
    if not generators:
        raise ValueError("at least one generator is required")
    gen_items = [(group.index_of(label), opcore.as_complex_matrix(m))
                 for label, m in generators.items()]
    dim = gen_items[0][1].shape[0]
    if any(m.shape[0] != dim for _, m in gen_items):
        raise ValueError("generator matrices must share one dimension")
    known: dict = {group.identity_index: np.eye(dim, dtype=np.complex128)}
    frontier = [group.identity_index]
    while frontier:
        nxt = []
        for g in frontier:
            for gi, gm in gen_items:
                h = int(group.mult_table[g, gi])
                if h not in known:
                    known[h] = known[g] @ gm
                    nxt.append(h)
        frontier = nxt
    if len(known) != group.order:
        missing = [group.elements[i] for i in range(group.order) if i not in known]
        raise ValueError(f"generators do not generate the group; missing {missing}")
    mats = np.stack([known[i] for i in range(group.order)])
    return make_representation(group, mats)


def tensor_representation(rho_a: Representation, rho_b: Representation) -> Representation:
    """Joint diagonal action g -> rho_A(g) (x) rho_B(g), built from the factors.

    The factors were validated, so the joint matrices are not checked again:
    (A (x) B)^dag (A (x) B) - I = A^dag A (x) B^dag B - I has norm at most
    delta_A + delta_B + delta_A * delta_B, which fits under
    UNITARY_TOL * d_A * d_B whenever both dims are >= 2 and not both 2.
    """
    _require_same_group(rho_a.group, rho_b.group)
    mats = np.stack([np.kron(rho_a[g], rho_b[g]) for g in range(rho_a.group.order)])
    return Representation(group=rho_a.group, matrices=mats)


def random_equivariant_observable(rho: Representation, seed: int) -> np.ndarray:
    """Hermitian observable commuting with the whole group action (group twirl)."""
    r = _random_hermitian(_philox(seed), rho.dim)
    avg = sum(rho[i] @ r @ rho[i].conj().T for i in range(rho.group.order)) / rho.group.order
    return (avg + avg.conj().T) / 2.0


def _require_same_group(group_a: FiniteGroup, group_b: FiniteGroup) -> None:
    if group_a is group_b:
        return
    if not np.array_equal(group_a.mult_table, group_b.mult_table):
        raise ValueError("representations must share one group")


@dataclass(frozen=True)
class RepresentationValidation:
    max_homomorphism_residual: float
    max_unitarity_residual: float
    identity_residual: float
    pairs_checked: int
    exhaustive: bool
    passed: bool


def validate_representation(rho: Representation) -> RepresentationValidation:
    """Report homomorphism/unitarity residuals; exhaustive pairs for small groups.

    Larger groups check _SAMPLED_PAIRS pairs drawn from a fixed Philox seed.
    Each kind of residual is one stacked spectral norm over its matrices.
    """
    group = rho.group
    n = group.order
    mats = rho.matrices
    eye = np.eye(rho.dim)
    unit_res = _max_spectral_norm(
        lambda sl: mats[sl].conj().swapaxes(-1, -2) @ mats[sl] - eye, n, rho.dim)
    ident_res = opcore.operator_norm(rho[group.identity_index] - eye)

    if n <= _EXHAUSTIVE_PAIRS_MAX_ORDER:
        pairs = [(g, h) for g in range(n) for h in range(n)]
        exhaustive = True
    else:
        rng = _philox(0)
        pairs = [(int(g), int(h)) for g, h in rng.integers(0, n, size=(_SAMPLED_PAIRS, 2))]
        exhaustive = False
    gs, hs = np.array(pairs).T
    ghs = group.mult_table[gs, hs]
    hom_res = _max_spectral_norm(
        lambda sl: mats[gs[sl]] @ mats[hs[sl]] - mats[ghs[sl]], len(pairs), rho.dim)

    passed = (hom_res <= HOMOMORPHISM_TOL
              and unit_res <= opcore.UNITARY_TOL * rho.dim
              and ident_res <= 1e-12 * rho.dim)
    return RepresentationValidation(
        max_homomorphism_residual=hom_res,
        max_unitarity_residual=unit_res,
        identity_residual=ident_res,
        pairs_checked=len(pairs),
        exhaustive=exhaustive,
        passed=passed,
    )


def _max_spectral_norm(stack, count: int, dim: int) -> float:
    """Largest spectral norm among ``stack(slice)`` over indices 0..count-1.

    The matrices are built and factored in batches of at most _STACK_ENTRIES
    entries, so memory stays bounded for large groups or dimensions.
    """
    step = max(1, _STACK_ENTRIES // (dim * dim))
    return max(float(np.max(np.linalg.norm(stack(slice(i, i + step)), 2, axis=(1, 2))))
               for i in range(0, count, step))


# ---------------------------------------------------------------------------
# isotypic structure

def _element_characters(group: FiniteGroup, irrep: Irrep) -> np.ndarray:
    """Character value per element index (characters are class functions)."""
    if irrep.characters.shape != (len(group.conjugacy_classes),):
        raise ValueError(
            f"irrep {irrep.name!r} carries {irrep.characters.shape[0]} character values "
            f"but the group has {len(group.conjugacy_classes)} conjugacy classes")
    chars = np.empty(group.order, dtype=np.complex128)
    for ci, cls in enumerate(group.conjugacy_classes):
        chars[list(cls)] = irrep.characters[ci]
    return chars


def multiplicities(rho: Representation, chars: CharacterTable) -> list:
    """Irrep multiplicities m = (1/|G|) sum_g tr rho(g) chi(g)*, rounded.

    Raises when the rounding error exceeds MULT_ROUND_TOL (bad table or rep)
    or when the multiplicities fail to add up to the representation dimension.
    """
    group = rho.group
    traces = np.einsum("gii->g", rho.matrices)
    items = []
    for irrep in chars:
        raw = np.sum(traces * _element_characters(group, irrep).conj()) / group.order
        m = int(round(raw.real))
        if abs(raw - m) > MULT_ROUND_TOL or m < 0:
            raise ValueError(
                f"multiplicity of {irrep.name!r} is {raw:.6g}, not a nonnegative integer "
                f"within {MULT_ROUND_TOL:g}")
        items.append((irrep.name, m))
    total = sum(m * irrep.dim for (_, m), irrep in zip(items, chars))
    if total != rho.dim:
        raise ValueError(f"multiplicities account for dim {total}, expected {rho.dim}")
    return items


@dataclass(frozen=True, eq=False)
class IsotypicComponent:
    irrep: str
    irrep_dim: int
    multiplicity: int
    projector: np.ndarray
    basis: np.ndarray    # orthonormal columns spanning ran(P), isotypic_dim of them

    @property
    def isotypic_dim(self) -> int:
        return self.irrep_dim * self.multiplicity


@dataclass(frozen=True, eq=False)
class IsotypicDecomposition:
    components: tuple
    group: FiniteGroup

    def component(self, name: str) -> IsotypicComponent:
        for c in self.components:
            if c.irrep == name:
                return c
        raise KeyError(name)


def isotypic_projectors(rho: Representation, chars: CharacterTable) -> IsotypicDecomposition:
    """Character projectors P = (d/|G|) sum_g chi(g)* rho(g), one per irrep.

    One eigh of each P checks its rank (eigenvalues > 0.5) and gives its range basis.
    """
    group = rho.group
    mults = multiplicities(rho, chars)
    components = []
    for irrep, (_, m) in zip(chars, mults):
        weights = _element_characters(group, irrep).conj() * (irrep.dim / group.order)
        p = np.einsum("g,gij->ij", weights, rho.matrices)
        idem = opcore.screened_norm(p @ p - p, _IDEMPOTENT_TOL)
        if idem > _IDEMPOTENT_TOL:
            raise NumericalError(
                f"isotypic projector for {irrep.name!r} fails idempotence ({idem:.3e}); "
                "representation and character table are inconsistent")
        w, v = np.linalg.eigh((p + p.conj().T) / 2.0)
        in_range = w > 0.5
        rank = int(np.count_nonzero(in_range))
        if rank != m * irrep.dim:
            raise NumericalError(
                f"isotypic projector for {irrep.name!r} has rank {rank}, "
                f"expected {m * irrep.dim}")
        components.append(IsotypicComponent(
            irrep=irrep.name, irrep_dim=irrep.dim, multiplicity=m, projector=p,
            basis=opcore._fix_phases(v[:, in_range])))
    return IsotypicDecomposition(components=tuple(components), group=group)


def _diagonal_blocks(dec_a: IsotypicDecomposition, dec_b: IsotypicDecomposition) -> list:
    """(component A, component B, basis of V_l^A (x) V_l^B) per shared irrep l.

    The diagonal blocks are only defined for multiplicity-free content on
    both sides; anything else raises.
    """
    for dec, side in ((dec_a, "A"), (dec_b, "B")):
        bad = [c.irrep for c in dec.components if c.multiplicity > 1]
        if bad:
            raise ValueError(f"representation {side} is not multiplicity-free ({bad})")
    return [(comp_a, comp_b, np.kron(comp_a.basis, comp_b.basis))
            for comp_a, comp_b in zip(dec_a.components, dec_b.components)
            if comp_a.multiplicity == 1 and comp_b.multiplicity == 1]


def diagonal_isotypic_subspace(rho_a: Representation, rho_b: Representation,
                               chars: CharacterTable) -> Subspace:
    """Direct sum over shared irreps of V_l^A (x) V_l^B inside the product space.

    Requires multiplicity-free content on both sides; the returned subspace is
    invariant under the joint action (verified before returning).
    """
    _require_same_group(rho_a.group, rho_b.group)
    blocks = _diagonal_blocks(isotypic_projectors(rho_a, chars),
                              isotypic_projectors(rho_b, chars))
    pieces = [basis for _, _, basis in blocks]
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


# ---------------------------------------------------------------------------
# Schur scalars and synchronization structure

def equivariance_residual(rho: Representation, t) -> float:
    t = opcore.as_complex_matrix(t)
    if t.shape[0] != rho.dim:
        raise ValueError(f"operator dim {t.shape[0]} does not match representation dim {rho.dim}")
    return max(opcore.operator_norm(opcore.commutator(rho[g], t))
               for g in range(rho.group.order))


def _equivariance_bound(t: np.ndarray, factors: tuple, tree: GeneratorTree) -> tuple:
    """(r_S, B): the exact max ||[J(s), T]|| over s in S, and B >= max over all g.

    J(g) is ``factors[0][g]``, or the Kronecker product ``A_g (x) B_g`` of two
    factor stacks, built as tensor_representation builds it. For h = p*s,
    [T, J(p)J(s)] = [T, J(p)]J(s) + J(p)[T, J(s)], so along the tree
    R_h = nu (R_p + r_s) + 2 ||T||_F eta_h with R_s = r_s, where
    nu = prod over factors of max_g sqrt(1 + ||M_g^dag M_g - I||_F) >= ||J(g)||
    and eta_h >= ||J(h) - J(p)J(s)||, with A_h (x) B_h - X (x) Y =
    (A_h - X) (x) B_h + X (x) (B_h - Y) for X = A_p A_s, Y = B_p B_s. Both are
    Frobenius norms of factor-size matrices; a permutation representation
    has nu = 1 and eta = 0.
    """
    def joint(g):
        return factors[0][g] if len(factors) == 1 else np.kron(factors[0][g], factors[1][g])

    r = {s: opcore.operator_norm(opcore.commutator(joint(s), t)) for s in tree.generators}
    r_s = max(r.values())
    if not tree.edges:
        return r_s, r_s
    hs, ps, ss = (list(c) for c in zip(*tree.edges))
    def fro(stack):
        return np.linalg.norm(stack, axis=(1, 2))

    nu, eta, lead = 1.0, 0.0, 1.0
    for m in factors:
        nu *= np.sqrt(1.0 + np.max(fro(m.conj().swapaxes(-1, -2) @ m - np.eye(m.shape[1]))))
        x = m[ps] @ m[ss]
        eta = eta * fro(m[hs]) + lead * fro(m[hs] - x)
        lead = lead * fro(x)
    slack = 2.0 * np.linalg.norm(t) * eta
    bound = dict(r)
    for (h, p, s), extra in zip(tree.edges, slack):
        bound[h] = nu * (bound[p] + r[s]) + extra
    return r_s, float(max(bound.values()))


@dataclass(frozen=True, eq=False)
class SchurEntry:
    irrep: str
    multiplicity: int
    scalar: complex | None
    residual: float | None
    block: np.ndarray | None


@dataclass(frozen=True, eq=False)
class SchurReport:
    entries: tuple
    equivariance_residual: float
    decomposition: IsotypicDecomposition

    def scalar(self, name: str) -> complex:
        for e in self.entries:
            if e.irrep == name and e.scalar is not None:
                return e.scalar
        raise KeyError(name)


def schur_scalars(t, rho: Representation, decomp: IsotypicDecomposition,
                  equivar_tol: float = EQUIVAR_TOL) -> SchurReport:
    """Per-irrep scalars of an equivariant observable.

    Multiplicity-one components carry a scalar and the residual
    ||T P - scalar P||; higher-multiplicity components report the compressed
    block P T P without a scalar claim.
    """
    t = opcore.as_complex_matrix(t)
    eq_res = equivariance_residual(rho, t)
    if eq_res > equivar_tol:
        raise ValueError(
            f"operator is not equivariant: max ||[rho(g), T]|| = {eq_res:.3e} > {equivar_tol:g}")
    entries = []
    for comp in decomp.components:
        if comp.multiplicity == 0:
            continue
        p = comp.projector
        if comp.multiplicity == 1:
            scalar = complex(np.trace(t @ p) / comp.isotypic_dim)
            residual = opcore.operator_norm(t @ p - scalar * p)
            entries.append(SchurEntry(comp.irrep, 1, scalar, residual, None))
        else:
            entries.append(SchurEntry(comp.irrep, comp.multiplicity, None, None, p @ t @ p))
    return SchurReport(entries=tuple(entries), equivariance_residual=eq_res,
                       decomposition=decomp)


def observable_from_class_function(values, rho: Representation) -> np.ndarray:
    """Central observable T = sum_g f(g) rho(g) from one real value per class.

    Hermiticity needs f(class of g) = f(class of g^-1); violated pairs raise.
    """
    group = rho.group
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (len(group.conjugacy_classes),):
        raise ValueError(
            f"need one value per conjugacy class ({len(group.conjugacy_classes)})")
    if not np.all(np.isfinite(values)):
        raise ValueError("class function values must be finite")
    for ci, cls in enumerate(group.conjugacy_classes):
        inv_class = group.class_of(int(group.inverse_table[cls[0]]))
        if values[ci] != values[inv_class]:
            raise ValueError(
                f"class function must agree on inverse classes: classes {ci} and "
                f"{inv_class} carry {float(values[ci])!r} vs {float(values[inv_class])!r}")
    per_element = np.empty(group.order)
    for ci, cls in enumerate(group.conjugacy_classes):
        per_element[list(cls)] = values[ci]
    t = np.einsum("g,gij->ij", per_element.astype(np.complex128), rho.matrices)
    herm = opcore.screened_norm(t - t.conj().T, 1e-10)
    if herm > 1e-10:
        raise NumericalError(f"class-function observable is not Hermitian ({herm:.3e})")
    # The generator bound settles the usual case; the message keeps the full max.
    if _equivariance_bound(t, (rho.matrices,), generator_tree(group))[1] > 1e-10:
        eq = equivariance_residual(rho, t)
        if eq > 1e-10:
            raise NumericalError(f"class-function observable is not equivariant ({eq:.3e})")
    return t


@dataclass(frozen=True)
class HsyncVerdict:
    """Membership in the synchronization-preserving algebra.

    Member iff H commutes with the whole joint action and with K. Equivariance
    is checked on the generating set S: ``generator_residual`` is
    r_S = max_{s in S} ||[J(s), H]||, and ``equivariance_bound`` is the tree
    bound B >= max_g ||[J(g), H]||, or that exact max when neither r_S nor B
    settled the verdict.
    """

    generators: list
    word_length: int
    generator_residual: float
    equivariance_bound: float
    kernel_commutation_residual: float
    member: bool


def hsync_membership(h, rho_a: Representation, rho_b: Representation, k,
                     equivar_tol: float = EQUIVAR_TOL,
                     compat_tol: float = 1e-10) -> HsyncVerdict:
    """Whether H lies in the commutant of g -> rho_A(g) (x) rho_B(g) and commutes with K.

    B <= equivar_tol proves equivariance and r_S > equivar_tol refutes it
    (max_g ||[J(g), H]|| >= r_S); otherwise the exact max over the group is
    computed from the joint matrices.
    """
    _require_same_group(rho_a.group, rho_b.group)
    h = opcore.as_complex_matrix(h)
    k = opcore.as_complex_matrix(k)
    dim = rho_a.dim * rho_b.dim
    if h.shape[0] != dim:
        raise ValueError(f"operator dim {h.shape[0]} does not match representation dim {dim}")
    group = rho_a.group
    tree = generator_tree(group)
    r_s, bound = _equivariance_bound(h, (rho_a.matrices, rho_b.matrices), tree)
    if r_s <= equivar_tol < bound:
        bound = equivariance_residual(tensor_representation(rho_a, rho_b), h)
    kern_res = opcore.operator_norm(opcore.commutator(h, k))
    # ||H|| and ||K|| only decide the verdict when kern_res exceeds compat_tol
    # (compat_tol * max(1, m) >= compat_tol), so their SVDs run only then.
    member = bound <= equivar_tol and (
        kern_res <= compat_tol
        or kern_res <= compat_tol * max(1.0, opcore.operator_norm(h) * opcore.operator_norm(k)))
    return HsyncVerdict(
        generators=[group.elements[g] for g in tree.generators],
        word_length=tree.depth,
        generator_residual=r_s,
        equivariance_bound=bound,
        kernel_commutation_residual=kern_res,
        member=bool(member),
    )


@dataclass(frozen=True)
class ContainmentEntry:
    irrep: str
    alpha: float
    beta: float
    matched: bool
    max_kernel_norm: float
    max_deviation: float
    ok: bool


@dataclass(frozen=True, eq=False)
class ContainmentReport:
    """Per-irrep fate of the diagonal isotypic subspace under K.

    Matched irreps (|alpha - beta| <= match_tol) must be annihilated by K;
    mismatched ones must be scaled by exactly |alpha - beta|. ``contained``
    refers to the matched part only.
    """

    entries: list
    contained: bool
    all_matched: bool
    passed: bool


def verify_kernel_containment(schur_a: SchurReport, schur_b: SchurReport, k,
                              match_tol: float = MATCH_TOL) -> ContainmentReport:
    """Fate of each diagonal block under K = T_A (x) I - I (x) T_B.

    ``schur_a`` and ``schur_b`` are the Schur reports of T_A and T_B, each
    carrying the decomposition it was computed on.
    """
    dec_a, dec_b = schur_a.decomposition, schur_b.decomposition
    _require_same_group(dec_a.group, dec_b.group)
    entries = []
    for comp_a, comp_b, basis in _diagonal_blocks(dec_a, dec_b):
        alpha = schur_a.scalar(comp_a.irrep).real
        beta = schur_b.scalar(comp_b.irrep).real
        gap = abs(alpha - beta)
        norms = np.linalg.norm(k @ basis, axis=0)
        matched = gap <= match_tol
        if matched:
            ok = bool(np.max(norms) <= KERNEL_RESIDUAL_TOL)
            deviation = float(np.max(norms))
        else:
            deviation = float(np.max(np.abs(norms - gap)))
            ok = deviation <= KERNEL_RESIDUAL_TOL
        entries.append(ContainmentEntry(
            irrep=comp_a.irrep, alpha=alpha, beta=beta, matched=matched,
            max_kernel_norm=float(np.max(norms)), max_deviation=deviation, ok=ok))
    contained = all(e.ok for e in entries if e.matched)
    return ContainmentReport(
        entries=entries,
        contained=contained,
        all_matched=all(e.matched for e in entries),
        passed=all(e.ok for e in entries),
    )


def commutant_dimension(rho: Representation) -> int:
    """dim{M : [M, rho(g)] = 0 for all g} = (1/|G|) sum_g |tr rho(g)|^2, rounded.

    Raises when the value misses an integer by more than MULT_ROUND_TOL, as
    it does when rho is not a unitary representation.
    """
    traces = np.einsum("gii->g", rho.matrices)
    raw = float(np.sum(np.abs(traces) ** 2)) / rho.group.order
    dim = round(raw)
    if abs(raw - dim) > MULT_ROUND_TOL:
        raise ValueError(
            f"commutant dimension {raw:.6g} is not an integer within {MULT_ROUND_TOL:g}")
    return dim
