"""Finite-group representation machinery for symmetry-protected synchronization.

Covers: validated group tables and character tables for a few built-in
groups, unitary representations given extensionally (one matrix per
element), character-theoretic isotypic projectors and multiplicities, Schur
scalars and isotypic clocks of equivariant observables, membership in the
algebra of synchronization-preserving Hamiltonians, and the kernel-containment
check that ties irrep-label alignment to the synchronization kernel.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import opcore
from .clocks import COMPAT_TOL, make_clock
from .opcore import NumericalError
from .sync import SyncOperatorBundle

EQUIVAR_TOL = 1e-10
MULT_ROUND_TOL = 1e-6
SCHUR_TOL = 1e-9
KERNEL_RESIDUAL_TOL = 1e-9  # allowance on ||K|_block - (alpha - beta) I||
HOMOMORPHISM_TOL = 1e-10
OBSERVABLE_HERM_TOL = 1e-10  # ||T - T^dag|| allowance for a clock observable
CHARACTER_TOL = 1e-10   # entrywise allowance on the character Gram matrix minus I
IDENTITY_TOL = 1e-12    # ||rho(e) - I|| allowance, times the dimension
_IDEMPOTENT_TOL = 1e-8
_STACK_ENTRIES = 1 << 20   # matrix entries per stacked batch (16 MB complex)


# ---------------------------------------------------------------------------
# groups

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


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Finite group as a validated multiplication table over opaque labels."""

    name: str
    elements: tuple
    mult_table: np.ndarray
    identity_index: int
    inverse_table: np.ndarray
    conjugacy_classes: tuple
    class_index: np.ndarray   # conjugacy-class index of each element index
    tree: GeneratorTree       # generating set and forward-word tree (_word_tree)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def class_sizes(self) -> tuple:
        return tuple(len(c) for c in self.conjugacy_classes)

    def index_of(self, label) -> int:
        try:
            return self.elements.index(label)
        except ValueError:
            raise ValueError(f"unknown group element {label!r}") from None


def _conjugacy_classes(table: np.ndarray, inverse: np.ndarray, identity: int) -> tuple:
    """Classes as sorted index tuples: the identity's first, the rest by least element.

    Column g of the orbit table T[T[h, g], inv[h]] holds h g h^-1 for every h,
    the class of g, so its column minimum names that class by its least element.
    """
    least = table[table, inverse[:, None]].min(axis=0)
    order = np.argsort(least, kind="stable")
    starts = np.flatnonzero(np.diff(least[order], prepend=-1))
    classes = [tuple(c.tolist()) for c in np.split(order, starts[1:])]
    classes.sort(key=lambda c: (0 if identity in c else 1, c[0]))
    return tuple(classes)


def make_group(elements, mult_table, classes=None, name: str = "group") -> FiniteGroup:
    """Validate a multiplication table into a FiniteGroup.

    Checks: Latin square, unique identity, inverses, associativity, and that
    supplied classes partition the elements and are closed under conjugation.
    They keep their order, in which characters and class functions are read;
    without them the identity's class is first, the rest by least element.
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
    latin = ((np.sort(table, axis=1) == want).all(axis=1)
             & (np.sort(table, axis=0) == want[:, None]).all(axis=0))
    if not latin.all():
        raise ValueError(f"multiplication table is not a Latin square at row/col {np.argmin(latin)}")

    ids = np.flatnonzero((table == want).all(axis=1) & (table == want[:, None]).all(axis=0))
    if len(ids) != 1:
        raise ValueError("group must have exactly one identity element")
    identity = int(ids[0])

    # row g of a Latin square holds the identity once, at g's right inverse
    inverse = np.argmax(table == identity, axis=1)
    two_sided = table[inverse, want] == identity
    if not two_sided.all():
        raise ValueError(f"element {elements[np.argmin(two_sided)]!r} lacks a two-sided inverse")

    # Light's test: the s with (xs)y = x(sy) for all x, y are closed under
    # products, so checking every s in a generating set checks all triples.
    tree = _word_tree(table, identity)
    gens = list(tree.generators)
    if not np.array_equal(table[table[:, gens]], table[:, table[gens]]):
        raise ValueError("multiplication table is not associative")

    computed = _conjugacy_classes(table, inverse, identity)
    if classes is not None:
        supplied = tuple(tuple(sorted(int(i) for i in c)) for c in classes)
        if sorted(i for c in supplied for i in c) != list(range(n)):
            raise ValueError("conjugacy classes must partition the elements")
        if set(supplied) != set(computed):
            raise ValueError("supplied conjugacy classes are not closed under conjugation")
        computed = supplied
    class_index = np.empty(n, dtype=np.int64)
    for ci, cls in enumerate(computed):
        class_index[list(cls)] = ci
    return FiniteGroup(name=name, elements=elements, mult_table=table,
                       identity_index=identity, inverse_table=inverse,
                       conjugacy_classes=computed, class_index=class_index, tree=tree)


def _perm_group(name: str, labels, perms) -> FiniteGroup:
    """Group from permutation tuples; composition (p*q)(x) = p(q(x))."""
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    table = np.zeros((n, n), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i, j] = index[tuple(p[q[x]] for x in range(len(p)))]
    return make_group(labels, table, name=name)


def _forward_words(table: np.ndarray, gens, start) -> tuple:
    """BFS over h = p*s, s in ``gens``, from ``start``: ({element: depth}, edges in BFS order).

    In a finite group the forward words over a set reach exactly the subgroup
    it generates, identity included, from the set itself or from {e}.
    """
    depth = dict.fromkeys(start, 0)
    edges, frontier = [], list(start)
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


def _element_orders(table: np.ndarray, e: int) -> np.ndarray:
    """The least k >= 1 with x_k = e, for x_1 = g and x_{k+1} = x_k g, of every g at once.

    Right multiplication by g permutes the elements of a Latin square and takes
    e to g, so x_k returns to e within n steps even before associativity is known.
    """
    n = table.shape[0]
    gs, x = np.arange(n), np.arange(n)
    orders = np.zeros(n, dtype=np.int64)
    for k in range(1, n + 1):
        orders[(x == e) & (orders == 0)] = k
        if orders.all():
            break
        x = table[x, gs]
    return orders


def _word_tree(table: np.ndarray, e: int) -> GeneratorTree:
    """Greedy generating set S of a Latin square with identity e, and its forward-word tree.

    Elements are taken by descending element order (_element_orders), then
    index, each one not yet among the forward words over S, until those reach
    every element: Zn gives {g1}, Z2xZ2, S3 and D4 two generators. The trivial
    group takes S = {e}, so that rho(e) is still checked.
    """
    n = table.shape[0]
    gens, depth, edges = [], {e: 0}, []
    for g in np.lexsort((np.arange(n), -_element_orders(table, e))).tolist():
        if len(depth) == n:
            break
        if g not in depth:
            gens.append(g)
            depth, edges = _forward_words(table, gens, gens)
    return GeneratorTree(generators=tuple(gens or [e]), edges=tuple(edges),
                         depth=max(depth.values()))


# ---------------------------------------------------------------------------
# character tables

@dataclass(frozen=True, eq=False)
class Irrep:
    name: str
    dim: int
    characters: np.ndarray   # one complex value per conjugacy class


def make_character_table(group: FiniteGroup, rows) -> tuple:
    """The character table, one Irrep per row, from (name, dim, chars-per-class)
    rows validated against the group."""
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
    chars = np.array([ir.characters for ir in irreps]).reshape(len(irreps), n_classes)
    gram = (sizes * chars) @ chars.conj().T / group.order
    dev = np.abs(gram - np.eye(len(irreps)))
    if not opcore.check(float(np.max(dev)), CHARACTER_TOL)[1]:
        i, j = next(ij for ij, d in np.ndenumerate(dev) if not opcore.check(d, CHARACTER_TOL)[1])
        # the reported pair is summed on its own, so the message does not hang on BLAS blocking
        inner = np.sum(sizes * chars[i] * chars[j].conj()) / group.order
        raise ValueError(
            f"character rows {irreps[i].name!r}, {irreps[j].name!r} violate orthogonality "
            f"(inner product {inner:.3e})")
    return tuple(irreps)


def _cyclic_group(n: int):
    table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    group = make_group([f"g{i}" for i in range(n)], table, name=f"Z{n}")
    # chi_k(g_j) = omega ** (k j), with omega ** m taken once per distinct exponent m
    kj = np.outer(np.arange(n), np.arange(n))
    used = np.zeros(kj[-1, -1] + 1, dtype=bool)
    used[kj] = True
    chars = (np.exp(2j * np.pi / n) ** np.flatnonzero(used))[np.cumsum(used)[kj] - 1]
    rows = [(f"chi{k}", 1, chars[k]) for k in range(n)]
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
    """Unitary representation given extensionally: one matrix per element, checked
    densely (exactly, on permutation matrices). Its unitarity residual
    e = max_g ||rho(g)^dag rho(g) - I||, at most UNITARY_TOL * d after
    make_representation, sets the band of hsync_membership's factored norms."""

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
    ident_res, ok = opcore.check(mats[group.identity_index] - eye, IDENTITY_TOL * dim)
    if not ok:
        raise ValueError(f"identity element must map to I (residual {ident_res:.3e})")
    gram = mats.conj().swapaxes(-1, -2) @ mats
    for i in range(group.order):
        res, ok = opcore.check(gram[i] - eye, opcore.UNITARY_TOL * dim)
        if not ok:
            raise ValueError(
                f"matrix for element {group.elements[i]!r} is not unitary (residual {res:.3e})")
    return Representation(group=group, matrices=mats)


def representation_from_generators(group: FiniteGroup, generators: dict) -> Representation:
    """Expand generator matrices to all elements via the multiplication table."""
    if not generators:
        raise ValueError("at least one generator is required")
    gens = {group.index_of(k): opcore.as_complex_matrix(m) for k, m in generators.items()}
    dim = next(iter(gens.values())).shape[0]
    if any(m.shape[0] != dim for m in gens.values()):
        raise ValueError("generator matrices must share one dimension")
    known = {group.identity_index: np.eye(dim, dtype=np.complex128)}
    for h, p, s in _forward_words(group.mult_table, list(gens), [group.identity_index])[1]:
        known[h] = known[p] @ gens[s]
    if len(known) != group.order:
        missing = [group.elements[i] for i in range(group.order) if i not in known]
        raise ValueError(f"generators do not generate the group; missing {missing}")
    mats = np.stack([known[i] for i in range(group.order)])
    return make_representation(group, mats)


def _require_same_group(group_a: FiniteGroup, group_b: FiniteGroup) -> None:
    if group_a is group_b:
        return
    if not np.array_equal(group_a.mult_table, group_b.mult_table):
        raise ValueError("representations must share one group")


def validate_representation(rho: Representation) -> dict:
    """Unitarity, rho(e) = I, and the homomorphism on G x S carried to G x G.

    Returns the residuals, max_unitarity_residual, identity_residual,
    max_homomorphism_residual r_S (the max over G x S) and homomorphism_bound
    B (>= the max over G x G, or that max), with pairs_checked, |G| |S| or
    |G|^2 when the max over G x G was taken, and the verdict ``passed``; on a
    fail, ``failed`` lists each failed check with its residual and limit.

    rho(g) rho(s) = rho(gs) for every g and each s in the generating set S
    implies a homomorphism by induction along the group's forward-word tree
    (Light's argument, as in make_group). With E(x, y) = rho(x) rho(y) - rho(xy),
    E(g, ps) = E(gp, s) + E(g, p) rho(s) - rho(g) E(p, s), so along the tree
    R_h = nu (R_p + r_s) + r_s bounds max_g ||E(g, h)||, for r_s = max_g ||E(g, s)||
    and nu = sqrt(1 + max_unitarity_residual) >= max_g ||rho(g)||. As in
    hsync_membership, r_S > HOMOMORPHISM_TOL refutes, B <= HOMOMORPHISM_TOL
    proves, and only in between is the exact max over G x G taken. On
    permutation matrices the products are exact, so r_S = B = 0 without an
    SVD. max_unitarity_residual is the e that sets hsync_membership's band.
    """
    group, n, mats = rho.group, rho.group.order, rho.matrices
    eye = np.eye(rho.dim)
    unit_res = _max_spectral_norm(
        lambda sl: mats[sl].conj().swapaxes(-1, -2) @ mats[sl] - eye, n, rho.dim)
    ident_res = opcore.operator_norm(rho[group.identity_index] - eye)

    r = {s: _homomorphism_residual(rho, np.arange(n), np.full(n, s))
         for s in group.tree.generators}
    r_s, pairs = max(r.values()), n * len(r)
    bound = _tree_bound(group.tree, r, np.sqrt(1.0 + unit_res),
                        [r[s] for _, _, s in group.tree.edges])
    if opcore.check(r_s, HOMOMORPHISM_TOL)[1] and not opcore.check(bound, HOMOMORPHISM_TOL)[1]:
        bound, pairs = _homomorphism_residual(rho, *np.divmod(np.arange(n * n), n)), n * n
    report = {"max_homomorphism_residual": r_s, "homomorphism_bound": bound, "pairs_checked": pairs,
              "max_unitarity_residual": unit_res, "identity_residual": ident_res}
    limits = {"homomorphism_bound": HOMOMORPHISM_TOL, "max_unitarity_residual":
              opcore.UNITARY_TOL * rho.dim, "identity_residual": IDENTITY_TOL * rho.dim}
    failed = [{"check": key, "residual": report[key], "limit": limit}
              for key, limit in limits.items() if not opcore.check(report[key], limit)[1]]
    return {**report, **({"failed": failed} if failed else {}), "passed": not failed}


def _homomorphism_residual(rho: Representation, gs: np.ndarray, hs: np.ndarray) -> float:
    """Exact max ||rho(g) rho(h) - rho(gh)|| over the pairs (gs[k], hs[k]), one
    stacked spectral norm; exactly 0 without an SVD for permutation matrices
    that compose as the table says."""
    mats = rho.matrices
    ghs = rho.group.mult_table[gs, hs]
    return _max_spectral_norm(
        lambda sl: mats[gs[sl]] @ mats[hs[sl]] - mats[ghs[sl]], len(gs), rho.dim)


def _max_spectral_norm(stack, count: int, dim: int) -> float:
    """Largest spectral norm among ``stack(slice)`` over indices 0..count-1.

    The matrices are built and factored in batches of at most _STACK_ENTRIES
    entries, so memory stays bounded for large groups or dimensions. An
    exactly zero matrix has norm 0 and takes no SVD.
    """
    def batch_max(mats):
        live = mats[mats.any(axis=(1, 2))]
        return float(np.max(np.linalg.norm(live, 2, axis=(1, 2)))) if len(live) else 0.0

    step = max(1, _STACK_ENTRIES // (dim * dim))
    return max(batch_max(stack(slice(i, i + step))) for i in range(0, count, step))


# ---------------------------------------------------------------------------
# isotypic structure

def _element_characters(group: FiniteGroup, chars: tuple) -> np.ndarray:
    """Character value per irrep and element index (characters are class functions)."""
    for irrep in chars:
        if irrep.characters.shape != (len(group.conjugacy_classes),):
            raise ValueError(
                f"irrep {irrep.name!r} carries {irrep.characters.shape[0]} character values "
                f"but the group has {len(group.conjugacy_classes)} conjugacy classes")
    table = np.array([irrep.characters for irrep in chars])
    return table.reshape(len(chars), len(group.conjugacy_classes))[:, group.class_index]


def multiplicities(rho: Representation, chars: tuple) -> list:
    """Irrep multiplicities m = (1/|G|) sum_g tr rho(g) chi(g)*, rounded.

    Raises when the rounding error exceeds MULT_ROUND_TOL (bad table or rep)
    or when the multiplicities fail to add up to the representation dimension.
    """
    group = rho.group
    traces = np.einsum("gii->g", rho.matrices)
    raws = np.sum(traces * _element_characters(group, chars).conj(), axis=1) / group.order
    items = []
    for irrep, raw in zip(chars, raws):
        m = int(round(raw.real))
        if not opcore.check(abs(raw - m), MULT_ROUND_TOL)[1] or m < 0:
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


def isotypic_projectors(rho: Representation, chars: tuple, mults: list) -> tuple:
    """Character projectors P = (d/|G|) sum_g chi(g)* rho(g), one IsotypicComponent
    per irrep, for the (name, m) ``mults`` that multiplicities counted on ``rho``.

    The stacked P (einsum sums over g in order, as for one irrep; a BLAS tensordot
    may not) and one stacked eigh give each rank (eigenvalues > 0.5) and range basis.
    """
    group = rho.group
    dims = np.array([irrep.dim for irrep in chars])
    weights = _element_characters(group, chars).conj() * (dims[:, None] / group.order)
    projectors = np.einsum("lg,gij->lij", weights, rho.matrices)
    squares = projectors @ projectors
    ws, vs = np.linalg.eigh((projectors + projectors.conj().swapaxes(-1, -2)) / 2.0)
    components = []
    for irrep, (_, m), p, p2, w, v in zip(chars, mults, projectors, squares, ws, vs):
        idem, ok = opcore.check(p2 - p, _IDEMPOTENT_TOL)
        if not ok:
            raise NumericalError(
                f"isotypic projector for {irrep.name!r} fails idempotence ({idem:.3e}); "
                "representation and character table are inconsistent")
        in_range = w > 0.5
        rank = int(np.count_nonzero(in_range))
        if rank != m * irrep.dim:
            raise NumericalError(
                f"isotypic projector for {irrep.name!r} has rank {rank}, "
                f"expected {m * irrep.dim}")
        components.append(IsotypicComponent(
            irrep=irrep.name, irrep_dim=irrep.dim, multiplicity=m, projector=p,
            basis=opcore._fix_phases(v[:, in_range])))
    return tuple(components)


# ---------------------------------------------------------------------------
# Schur scalars and synchronization structure

def equivariance_residual(rho: Representation, t) -> float:
    """Exact max_g ||rho(g) T - T rho(g)|| from one stacked commutator."""
    t = opcore.as_complex_matrix(t)
    if t.shape[0] != rho.dim:
        raise ValueError(f"operator dim {t.shape[0]} does not match representation dim {rho.dim}")
    mats = rho.matrices
    return _max_spectral_norm(lambda sl: mats[sl] @ t - t @ mats[sl], rho.group.order, rho.dim)


def _joint_commutators(t: np.ndarray, rho_a: Representation, rho_b: Representation,
                       gs) -> np.ndarray:
    """Stack of [J(g), T] for g in ``gs``, J(g) = np.kron(rho_A(g), rho_B(g)),
    formed for the elements of ``gs`` only."""
    joint = np.stack([np.kron(rho_a[g], rho_b[g]) for g in gs])
    return joint @ t - t @ joint


def _local_commutator_norms(h_a: np.ndarray, h_b: np.ndarray, rho_a: Representation,
                            rho_b: Representation) -> np.ndarray:
    """||[J(g), H]|| for every g and H = H_A (x) I + I (x) H_B, from the factors in
    batches of at most _STACK_ENTRIES entries; no n x n matrix is formed.

    With A = rho_A(g), X_A = A^dag (A H_A - H_A A), E_A = A^dag A - I and their
    B twins, J^dag [J, H] = X_A (x) I + I (x) X_B + E_A (x) X_B + X_A (x) E_B,
    so each norm is the opcore.kron_sum_norm of the Hermitized X_A and X_B up
    to the unitarity residuals e (Representation): Hermitizing moves X_A by at
    most e_A ||H_A||, the E terms add e_A ||X_B|| + e_B ||X_A||, and J^dag
    scales the norm by 1 +- (e_A + e_B), so the value lies within
    4 (e_A + e_B) (||H_A|| + ||H_B||) of ||[J(g), H]||, to first order in e.
    """
    def hermitized(mats, h):
        x = mats.conj().swapaxes(-1, -2) @ (mats @ h - h @ mats)
        return (x + x.conj().swapaxes(-1, -2)) / 2.0

    order, step = rho_a.group.order, max(1, _STACK_ENTRIES // max(rho_a.dim, rho_b.dim) ** 2)
    return np.concatenate([opcore.kron_sum_norm(hermitized(rho_a.matrices[i:i + step], h_a),
                                                hermitized(rho_b.matrices[i:i + step], h_b))
                           for i in range(0, order, step)])


def _equivariance_bound(h: np.ndarray, rho_a: Representation, rho_b: Representation,
                        tree: GeneratorTree) -> tuple:
    """(r_S, B) for an n x n H: the exact max ||[J(s), H]|| over s in S, from one
    SVD each, and B >= max over all g.

    For h = p*s, [H, J(p)J(s)] = [H, J(p)]J(s) + J(p)[H, J(s)], so along the tree
    R_h = nu (R_p + r_s) + 2 ||H||_F eta_h with R_s = r_s, where
    nu = prod over factors of max_g sqrt(1 + ||M_g^dag M_g - I||_F) >= ||J(g)||
    and eta_h >= ||J(h) - J(p)J(s)||, with A_h (x) B_h - X (x) Y =
    (A_h - X) (x) B_h + X (x) (B_h - Y) for X = A_p A_s, Y = B_p B_s. Both are
    Frobenius norms of factor-size matrices; a permutation representation
    that composes as the table says has nu = 1 and eta = 0, and then ||H||_F
    is not taken.
    """
    gens = list(tree.generators)
    r = dict(zip(gens, map(opcore.operator_norm, _joint_commutators(h, rho_a, rho_b, gens))))
    r_s = max(r.values())
    hs, ps, ss = np.array(tree.edges, dtype=np.int64).reshape(-1, 3).T
    def fro(stack):
        return np.linalg.norm(stack, axis=(1, 2))

    nu, eta, lead = 1.0, 0.0, 1.0
    for m in (rho_a.matrices, rho_b.matrices):
        nu *= np.sqrt(1.0 + np.max(fro(m.conj().swapaxes(-1, -2) @ m - np.eye(m.shape[1]))))
        x = m[ps] @ m[ss]
        eta = eta * fro(m[hs]) + lead * fro(m[hs] - x)
        lead = lead * fro(x)
    extra = 2.0 * np.linalg.norm(h) * eta if eta.any() else eta
    return r_s, _tree_bound(tree, r, nu, extra)


def _tree_bound(tree: GeneratorTree, r: dict, nu: float, extra) -> float:
    """max_h R_h for R_s = r[s] on S and R_h = nu (R_p + r[s]) + extra[k] on edge k, (h, p, s)."""
    bound = dict(r)
    for (h, p, s), x in zip(tree.edges, extra):
        bound[h] = nu * (bound[p] + r[s]) + x
    return float(max(bound.values()))


def isotypic_clock(t, equivariance: float, components: tuple) -> tuple:
    """(schur, clock) of an observable T on the isotypic ``components`` of a
    representation rho, where ``equivariance`` is max_g ||[rho(g), T]||, already
    gated by the caller (observable_from_class_function).

    ``schur`` is the report's object: that equivariance_residual and one
    entry {irrep, multiplicity, scalar: [re, im], residual} per component present,
    with alpha = tr(T P) / k, k = isotypic_dim, and the residual ||T B - alpha B||
    on its orthonormal basis B. A central T is alpha I on every isotypic
    component, whatever the multiplicity; a T that is only equivariant is so on
    the multiplicity-one components, and the residual measures how far it is
    elsewhere. ``clock`` is T in its isotypic basis: label Re(alpha_l) on each of
    the k basis columns of every component l present; make_clock checks that the
    stacked bases form a unitary. Residuals: one stacked SVD per basis width.
    """
    t = opcore.as_complex_matrix(t)
    present = [c for c in components if c.multiplicity]
    k = np.array([c.isotypic_dim for c in present])
    scalars = np.trace(t @ np.stack([c.projector for c in present]), axis1=1, axis2=2) / k
    residuals = np.empty(len(present))
    for width in set(k.tolist()):
        at = np.flatnonzero(k == width)
        b = np.stack([present[i].basis for i in at])
        residuals[at] = np.linalg.svd(t @ b - scalars[at, None, None] * b, compute_uv=False)[:, 0]
    entries = [{"irrep": c.irrep, "multiplicity": c.multiplicity, "scalar": [a.real, a.imag],
                "residual": r} for c, a, r in zip(present, scalars.tolist(), residuals.tolist())]
    labels = np.repeat([e["scalar"][0] for e in entries], k)
    clock = make_clock(labels, np.hstack([c.basis for c in present]))
    return {"equivariance_residual": equivariance, "entries": entries}, clock


def observable_from_class_function(values, rho: Representation,
                                   equivar_tol: float = EQUIVAR_TOL) -> tuple:
    """Central observable T = sum_g f(g) rho(g) from one real value per class,
    and its equivariance residual max_g ||[rho(g), T]||, as the pair (T, residual).

    Hermiticity needs f(class of g) = f(class of g^-1); violated pairs raise, and
    so does a residual above ``equivar_tol``.
    """
    group = rho.group
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (len(group.conjugacy_classes),):
        raise ValueError(
            f"need one value per conjugacy class ({len(group.conjugacy_classes)})")
    if not np.all(np.isfinite(values)):
        raise ValueError("class function values must be finite")
    inverse_class = group.class_index[group.inverse_table[[c[0] for c in group.conjugacy_classes]]]
    bad = np.flatnonzero(values != values[inverse_class])
    if bad.size:
        ci, cj = int(bad[0]), int(inverse_class[bad[0]])
        raise ValueError(
            f"class function must agree on inverse classes: classes {ci} and "
            f"{cj} carry {float(values[ci])!r} vs {float(values[cj])!r}")
    per_element = values[group.class_index]
    t = np.einsum("g,gij->ij", per_element.astype(np.complex128), rho.matrices)
    herm, ok = opcore.check(t - t.conj().T, OBSERVABLE_HERM_TOL)
    if not ok:
        raise NumericalError(f"class-function observable is not Hermitian ({herm:.3e})")
    eq, ok = opcore.check(equivariance_residual(rho, t), equivar_tol)
    if not ok:
        raise NumericalError(f"class-function observable is not equivariant ({eq:.3e})")
    return t, eq


def hsync_membership(bundle: SyncOperatorBundle, rho_a: Representation, rho_b: Representation,
                     equivar_tol: float = EQUIVAR_TOL,
                     compat_tol: float = COMPAT_TOL) -> dict:
    """Whether the H of the bundle's system lies in the commutant of
    g -> rho_A(g) (x) rho_B(g) and commutes with its K: the verdict ``member``,
    with the generating set S as ``generators``, the tree's ``word_length``,
    ``generator_residual`` r_S = max_{s in S} ||[J(s), H]||,
    ``equivariance_bound`` B >= max_g ||[J(g), H]|| (that max itself for a
    local H, or when neither r_S nor B settled the verdict) and
    ``kernel_commutation_residual`` ||[H, K]||, the bundle's epsilon.

    A local H = H_A (x) I + I (x) H_B is read off its factors only, with
    ||H|| = opcore.kron_sum_norm(H_A, H_B): r_S and B are the max over S and
    over G of _local_commutator_norms, which lie within a band of
    4 (e_A + e_B) (||H_A|| + ||H_B||) of the SVD's, e the unitarity residuals
    (0 for permutation matrices). For an n x n H, r_S is exact and B the tree
    bound of _equivariance_bound: B <= equivar_tol proves equivariance and
    r_S > equivar_tol refutes it (max_g ||[J(g), H]|| >= r_S); otherwise the
    exact max over the group is taken from the joint commutators.
    """
    _require_same_group(rho_a.group, rho_b.group)
    system = bundle.system
    if (system.dim_a, system.dim_b) != (rho_a.dim, rho_b.dim):
        raise ValueError(f"clock dims {system.dim_a}x{system.dim_b} do not match "
                         f"representation dims {rho_a.dim}x{rho_b.dim}")
    group, tree = rho_a.group, rho_a.group.tree
    if system.local is not None:
        norms = _local_commutator_norms(*system.local, rho_a, rho_b)
        r_s, bound = float(np.max(norms[list(tree.generators)])), float(np.max(norms))
    else:
        h = system.hamiltonian
        r_s, bound = _equivariance_bound(h, rho_a, rho_b, tree)
        if opcore.check(r_s, equivar_tol)[1] and not opcore.check(bound, equivar_tol)[1]:
            gs = np.arange(group.order)
            bound = _max_spectral_norm(lambda sl: _joint_commutators(h, rho_a, rho_b, gs[sl]),
                                       group.order, system.dim)

    def scale():
        h_norm = (opcore.operator_norm(system.hamiltonian) if system.local is None
                  else opcore.kron_sum_norm(*system.local))
        return h_norm * bundle.k_norm

    kern_res = bundle.epsilon
    member = opcore.check(bound, equivar_tol)[1] and opcore.check(kern_res, compat_tol, scale)[1]
    return {"generators": [group.elements[g] for g in tree.generators],
            "word_length": tree.depth, "generator_residual": r_s, "equivariance_bound": bound,
            "kernel_commutation_residual": kern_res, "member": member}


def verify_kernel_containment(schur_a: dict, schur_b: dict, chars: tuple,
                              bundle: SyncOperatorBundle) -> dict:
    """Fate of each diagonal block V_l^A (x) V_l^B under K = T_A (x) I - I (x) T_B.

    Returns one entry per irrep present on both sides, {irrep, alpha, beta,
    matched, max_deviation, ok}. Irrep l is matched when |alpha_l - beta_l| is
    within the kernel's cutoff, the rule that puts a label pair in ker K, and
    max_deviation bounds ||K|_block - (alpha_l - beta_l) I|| on its block; ok
    is max_deviation within KERNEL_RESIDUAL_TOL. ``contained`` refers to the
    matched part only, ``passed`` to every entry. ``kernel_dim`` is dim ker K
    and ``diagonal_dim`` the dimension of the matched blocks, which ker K
    contains; it is larger when labels of different irreps agree. Neither
    gates ``passed``.

    ``schur_a`` and ``schur_b`` are isotypic_clock's ``schur`` objects of T_A
    and T_B, ``chars`` the character table that gives each irrep's dimension,
    and ``bundle`` is sync_bundle's for their isotypic clocks. Let B_A, B_B be
    the orthonormal bases of irrep l's components, alpha and beta the Schur
    scalars (the entry reports their real parts, the clock labels) and
    R = T B - alpha B, so ||R|| is the Schur residual. Then

        K (B_A (x) B_B) = (T_A B_A) (x) B_B - B_A (x) (T_B B_B)
                        = (alpha - beta) B_A (x) B_B + R_A (x) B_B - B_A (x) R_B,

    and ||X (x) Y|| = ||X|| ||Y|| with ||B_A|| = ||B_B|| = 1, so
    ||K (B_A (x) B_B) - (alpha - beta) B_A (x) B_B|| <= res_A + res_B, the
    entry's ``max_deviation``. So for every unit vector b of the block,
    ||K b|| lies within max_deviation + |Im(alpha - beta)| (roundoff for
    Hermitian T) of |Re(alpha - beta)|, the label gap, which is within the
    kernel cutoff on a matched block. This holds for any multiplicities.
    """
    dims = {irrep.name: irrep.dim for irrep in chars}
    side_b = {e["irrep"]: e for e in schur_b["entries"]}
    entries, diagonal_dim = [], 0
    for e_a in schur_a["entries"]:
        e_b = side_b.get(e_a["irrep"])
        if e_b is None:
            continue
        alpha, beta = e_a["scalar"][0], e_b["scalar"][0]
        matched = abs(alpha - beta) <= bundle.cutoff
        if matched:
            diagonal_dim += dims[e_a["irrep"]] ** 2 * e_a["multiplicity"] * e_b["multiplicity"]
        deviation = e_a["residual"] + e_b["residual"]
        entries.append({"irrep": e_a["irrep"], "alpha": alpha, "beta": beta, "matched": matched,
                        "max_deviation": deviation,
                        "ok": opcore.check(deviation, KERNEL_RESIDUAL_TOL)[1]})
    return {"entries": entries, "contained": all(e["ok"] for e in entries if e["matched"]),
            "all_matched": all(e["matched"] for e in entries),
            "kernel_dim": bundle.kernel_index.size, "diagonal_dim": diagonal_dim,
            "passed": all(e["ok"] for e in entries)}


def commutant_dimension(rho: Representation) -> int:
    """dim{M : [M, rho(g)] = 0 for all g} = (1/|G|) sum_g |tr rho(g)|^2, rounded.

    Raises when the value misses an integer by more than MULT_ROUND_TOL, as
    it does when rho is not a unitary representation.
    """
    traces = np.einsum("gii->g", rho.matrices)
    raw = float(np.sum(np.abs(traces) ** 2)) / rho.group.order
    dim = round(raw)
    if not opcore.check(abs(raw - dim), MULT_ROUND_TOL)[1]:
        raise ValueError(
            f"commutant dimension {raw:.6g} is not an integer within {MULT_ROUND_TOL:g}")
    return dim
