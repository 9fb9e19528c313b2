"""Generator-set membership of ``grouprep.hsync_membership`` against the
full-group test it replaced: one joint matrix, one commutator and one SVD per
group element, which lives on here as the oracle.

The cases cover every builtin group with regular, trivial and
generator-built representations, their random unitary conjugates (so that
nu > 1 and eta > 0), element lists perturbed off the generating set to about
0.9 * UNITARY_TOL * d, and similarity conjugates that are far from unitary,
where the bound's nu term carries weight. Hamiltonians are members,
non-members and near-threshold perturbations with r_S between 0.3 and 0.9 of
the tolerance, where the exact fallback has to decide.
"""

import dataclasses

import numpy as np
import pytest

import oracles
from syncsub import clocks, grouprep, opcore, sync
from test_sync_oracle import random_unitary

GROUPS = ("Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "Z2xZ2", "S3", "D4")
TOL = grouprep.EQUIVAR_TOL
NEAR = (0.3, 0.6, 0.9)   # r_S / TOL of the near-threshold Hamiltonians


def oracle_membership(h, rho_a, rho_b, t_a, t_b, equivar_tol=TOL, compat_tol=1e-10):
    """(max_g ||[J(g), H]||, member) from every joint matrix and the dense K."""
    joint = oracles.tensor_representation(rho_a, rho_b)
    k = oracles.kron_difference(t_a, t_b)
    eq_res = max(opcore.operator_norm(oracles.commutator(joint[g], h))
                 for g in range(joint.group.order))
    kern_res = opcore.operator_norm(oracles.commutator(h, k))
    member = eq_res <= equivar_tol and (
        kern_res <= compat_tol
        or kern_res <= compat_tol * max(1.0, opcore.operator_norm(h) * opcore.operator_norm(k)))
    return eq_res, member


def generator_built(group):
    """A 3-dim representation from generator matrices on every builtin group."""
    c, s = np.cos(2 * np.pi / 3), np.sin(2 * np.pi / 3)
    if group.name == "Z2xZ2":
        gens = {"a": np.diag([1.0, -1.0, 1.0]), "b": np.diag([1.0, 1.0, -1.0])}
    elif group.name == "S3":
        gens = {"r": np.array([[1, 0, 0], [0, c, -s], [0, s, c]]),
                "s": np.diag([1.0, 1.0, -1.0])}
    elif group.name == "D4":
        gens = {"r": np.array([[1, 0, 0], [0, 0, -1], [0, 1, 0]]),
                "s": np.diag([-1.0, 1.0, -1.0])}
    elif group.order == 1:
        gens = {"g0": np.eye(3)}
    else:
        gens = {"g1": np.diag(np.exp(2j * np.pi * np.arange(3) / group.order))}
    rho = grouprep.representation_from_generators(group, gens)
    assert grouprep.validate_representation(rho)["passed"]
    return rho


def perturbed_off_generators(rho, rng):
    """Element list with every matrix outside S moved to ~0.9 * UNITARY_TOL * d."""
    d = rho.dim
    gens = set(rho.group.tree.generators)
    mats = []
    for g in range(rho.group.order):
        m = rho[g]
        if g not in gens:
            h = clocks._random_hermitian(rng, d)
            c = 0.45 * opcore.UNITARY_TOL * d * rng.uniform(0.9, 1.0) / opcore.operator_norm(h)
            m = m @ (np.eye(d) + c * h)
        mats.append(m)
    return grouprep.make_representation(rho.group, mats)


def representation_pairs(name, rng):
    """(label, rho_a, rho_b) for one builtin group."""
    group, _ = grouprep.builtin_group(name)
    reg = oracles.regular_representation(group)
    triv = oracles.trivial_representation(group, 2)
    gen = generator_built(group)
    pairs = [("reg(x)reg", reg, reg), ("reg(x)triv", reg, triv), ("gen(x)gen", gen, gen),
             ("triv(x)triv", triv, triv), ("gen(x)reg", gen, reg)]
    out = []
    for label, a, b in pairs:
        out.append((label, a, b))
        conj = [grouprep.make_representation(r.group, v @ r.matrices @ v.conj().T)
                for r, v in ((a, random_unitary(rng, a.dim)), (b, random_unitary(rng, b.dim)))]
        out.append((label + " conjugated", *conj))
        out.append((label + " perturbed", perturbed_off_generators(a, rng),
                    perturbed_off_generators(b, rng)))
    return out


def generator_residual(h, rho_a, rho_b):
    tree = rho_a.group.tree
    return max(opcore.operator_norm(oracles.commutator(np.kron(rho_a[s], rho_b[s]), h))
               for s in tree.generators)


def membership(h, rho_a, rho_b, clock_a, clock_b, **kwargs):
    """hsync_membership on the system of the two clocks and H, with its bundle."""
    system = sync.make_system(clock_a, clock_b, h)
    return grouprep.hsync_membership(sync.sync_bundle(system), rho_a, rho_b, **kwargs)


def class_clock(rho, rng):
    """The isotypic clock of a random central observable on ``rho``, as the group kind builds it."""
    _, chars = grouprep.builtin_group(rho.group.name)
    t, equivariance = grouprep.observable_from_class_function(
        real_class_function(rho.group, rng), rho)
    return grouprep.isotypic_clock(t, equivariance, oracles.isotypic_components(rho, chars))[1]


def real_class_function(group, rng):
    """Random class function with f(c) = f(c^-1), so that sum_g f(g) rho(g) is Hermitian."""
    values = rng.uniform(-1, 1, len(group.conjugacy_classes))
    for ci, cls in enumerate(group.conjugacy_classes):
        values[ci] = values[min(ci, int(group.class_index[group.inverse_table[cls[0]]]))]
    return values


def hamiltonians(rho_a, rho_b, rng):
    """(kind, H, (clock_A, clock_B), compat_tol): a member, a non-member and near-threshold H.

    The clocks are isotypic clocks of central observables. The member is local
    and central, so it commutes with the joint action and with K. Near-threshold
    H adds a random direction scaled to r_S = x * TOL and uses a loose
    compat_tol, so that equivariance alone decides membership.
    """
    factors = (class_clock(rho_a, rng), class_clock(rho_b, rng))
    t = [grouprep.observable_from_class_function(real_class_function(r.group, rng), r)[0]
         for r in (rho_a, rho_b)]
    eye_a, eye_b = np.eye(rho_a.dim), np.eye(rho_b.dim)
    h0 = np.kron(t[0], eye_b) + np.kron(eye_a, t[1])
    # t is Hermitian to OBSERVABLE_HERM_TOL; make_system checks H to HERM_TOL
    h0 = (h0 + h0.conj().T) / 2.0
    v = clocks._random_hermitian(rng, rho_a.dim * rho_b.dim)
    v /= opcore.operator_norm(v)
    cases = [("member", h0, factors, 1e-10), ("non-member", h0 + v, factors, 1e-10)]
    r_v = generator_residual(v, rho_a, rho_b)
    if r_v > 1e-6:   # a trivial joint action commutes with every H
        cases += [(f"near {x}", h0 + (x * TOL / r_v) * v, factors, 1.0) for x in NEAR]
    return cases


def on_zero_clocks(h, rho_a, rho_b):
    """The system of H, a matrix or a local pair, on zero clocks of the representations' dims."""
    return sync.make_system(*(clocks.make_clock(np.zeros(r.dim)) for r in (rho_a, rho_b)), h)


def tree_bound(h, rho_a, rho_b):
    tree = rho_a.group.tree
    return grouprep._equivariance_bound(on_zero_clocks(h, rho_a, rho_b), rho_a, rho_b, tree)[1]


def check_against_oracle(h, rho_a, rho_b, factors, compat_tol, monkeypatch, where):
    """Verdict equals the oracle's, r_S <= exact max <= B, and the exact max
    over the group is computed exactly when r_S <= TOL < B. ``factors`` is
    (clock_A, clock_B). Returns the verdict and whether it was."""
    system = sync.make_system(*factors, h)
    bundle = sync.sync_bundle(system)
    exact_calls = []
    real = grouprep._max_spectral_norm

    def counted(*args):
        exact_calls.append(args)
        return real(*args)

    monkeypatch.setattr(grouprep, "_max_spectral_norm", counted)
    verdict = grouprep.hsync_membership(bundle, rho_a, rho_b, compat_tol=compat_tol)
    monkeypatch.setattr(grouprep, "_max_spectral_norm", real)
    exact, member = oracle_membership(h, rho_a, rho_b, *(oracles.clock_matrix(c) for c in factors),
                                      compat_tol=compat_tol)
    bound = tree_bound(h, rho_a, rho_b)
    r_s = verdict["generator_residual"]
    assert verdict["member"] == member, where
    assert r_s == generator_residual(h, rho_a, rho_b), where
    assert r_s <= exact <= bound, where
    fallback = r_s <= TOL < bound
    assert len(exact_calls) == int(fallback), where
    assert verdict["equivariance_bound"] == (exact if fallback else bound), where
    return verdict, fallback


@pytest.mark.parametrize("name", GROUPS)
def test_membership_matches_full_group_oracle(name, monkeypatch):
    rng = np.random.default_rng(sum(map(ord, name)))
    verdicts, fallbacks = [], 0
    for label, rho_a, rho_b in representation_pairs(name, rng):
        for kind, h, factors, compat_tol in hamiltonians(rho_a, rho_b, rng):
            where = (name, label, kind)
            verdict, fallback = check_against_oracle(h, rho_a, rho_b, factors, compat_tol,
                                                     monkeypatch, where)
            verdicts.append(verdict["member"])
            fallbacks += fallback
    assert any(verdicts), name
    if name != "Z1":   # the one element of Z1 acts as I: every H is a member
        assert fallbacks and not all(verdicts), name


def test_fallback_decides_both_ways(monkeypatch):
    """Near-threshold H on Z8 reg(x)reg, where r_S <= TOL < B: the exact max
    admits x = 0.3 and rejects x = 0.6 and 0.9. H = c * diag(cos(2 pi j / 8)) (x) I
    has ||[H, J(g^k)]|| = max_j c |cos(2 pi j / 8) - cos(2 pi (j - k) / 8)|: 0.71c at
    k = 1 and 2c at k = 4, 2.8 times r_S."""
    group, _ = grouprep.builtin_group("Z8")
    reg = oracles.regular_representation(group)
    v = np.kron(np.diag(np.cos(2 * np.pi * np.arange(8) / 8)), np.eye(8))
    factors = (clocks.make_clock(np.zeros(8)), clocks.make_clock(np.zeros(8)))
    r_v = generator_residual(v, reg, reg)
    verdicts = []
    for x in NEAR:
        h = (x * TOL / r_v) * v
        verdict, fallback = check_against_oracle(h, reg, reg, factors, 1e-10, monkeypatch, x)
        assert fallback
        verdicts.append(verdict["member"])
    assert verdicts == [True, False, False]


@pytest.mark.parametrize("name", ("Z8", "Z16", "S3", "D4"))
def test_permutation_path_equals_dense_path(name):
    """reg (x) reg with and without the index arrays: the same verdict, value for
    value, for a member, a non-member and a near-threshold H, whose exact
    fallback runs, and the same exact maximum over the joint action."""
    rng = np.random.default_rng(len(name) + 100)
    group, _ = grouprep.builtin_group(name)
    reg = oracles.regular_representation(group)
    dense = dataclasses.replace(reg, perm=None)
    joint, dense_joint = (oracles.tensor_representation(r, r) for r in (reg, dense))
    assert joint.perm is not None and dense_joint.perm is None
    fallbacks, verdicts = 0, set()
    for kind, h, factors, compat_tol in hamiltonians(reg, reg, rng):
        if kind not in ("member", "non-member", "near 0.6"):
            continue
        verdict = membership(h, reg, reg, *factors, compat_tol=compat_tol)
        assert verdict == membership(h, dense, dense, *factors, compat_tol=compat_tol), kind
        fallback = verdict["generator_residual"] <= TOL < tree_bound(h, dense, dense)
        if not fallback:
            exact = grouprep.equivariance_residual(joint, h)
            assert exact == grouprep.equivariance_residual(dense_joint, h), kind
        fallbacks += fallback
        verdicts.add(verdict["member"])
    assert fallbacks and verdicts == {True, False}


U = np.finfo(np.float64).eps / 2   # unit roundoff


@pytest.mark.parametrize("name, side_b", [
    ("Z8", "regular"), ("Z16", "regular"), ("S3", "regular"), ("D4", "regular"),
    ("Z8", "trivial"), ("S3", "trivial"), ("D4", "trivial"),
])
def test_factored_generator_residuals_match_dense_gather(name, side_b):
    """r_s of a local H read off its factors against the gathered n x n
    commutator, on regular (x) regular and regular (x) trivial, for members
    (twirled factors, r_s at roundoff) and random non-members.

    Let n = d_A d_B and F = sqrt(d_B) ||H_A||_F + sqrt(d_A) ||H_B||_F >= ||H||_F.
    The gathers are exact. The dense H rounds its diagonal-block sums once
    (u F) and the gathered difference once more (2 u F); the factored
    differences round once (2 u F). Each norm is within its factorization's
    backward error, taken as 2 m^2 u ||.|| for an m x m matrix (as in
    test_opcore): 4 n^2 u F for the SVD, 4 (d_A^2 + d_B^2) u F <= 4 (n^2 + 1) u F
    for the two eigvalsh calls. Summed, |factored - dense| <= (9 + 8 n^2) u F.
    """
    rng = np.random.default_rng(sum(map(ord, name + side_b)))
    group, _ = grouprep.builtin_group(name)
    rho_a = oracles.regular_representation(group)
    rho_b = rho_a if side_b == "regular" else oracles.trivial_representation(group)
    assert rho_a.perm is not None and rho_b.perm is not None
    gens = list(group.tree.generators)
    n = rho_a.dim * rho_b.dim
    members = 0
    for trial in range(8):
        if trial % 2:
            h_a, h_b = (clocks._random_hermitian(rng, r.dim) for r in (rho_a, rho_b))
        else:
            h_a, h_b = (oracles.random_equivariant_observable(r, 10 * trial + k)
                        for k, r in enumerate((rho_a, rho_b)))
        h_a, h_b = h_a * 2.0 ** rng.uniform(-20, 20), h_b * 2.0 ** rng.uniform(-20, 20)
        h = oracles.local_hamiltonian(h_a, h_b)
        got = grouprep._generator_residuals(on_zero_clocks((h_a, h_b), rho_a, rho_b),
                                            rho_a, rho_b, gens)
        want = grouprep._generator_residuals(on_zero_clocks(h, rho_a, rho_b), rho_a, rho_b, gens)
        f = np.sqrt(rho_b.dim) * np.linalg.norm(h_a) + np.sqrt(rho_a.dim) * np.linalg.norm(h_b)
        for x, y in zip(got, want):
            assert abs(x - y) <= (9 + 8 * n * n) * U * f, (trial, x, y)
        members += max(want) <= 1e-12 * f
    assert members == 4


def test_permutations_off_the_table_keep_the_tree_slack(monkeypatch):
    """Z3 regular with rho(g2) replaced by the transposition (1 2): every matrix
    permutes, but rho(g1)^2 != rho(g2), so eta > 0 on the tree edge to g2. With
    H = C (x) I, C = I + iP - iP^2 for the cyclic shift P, [J(g1), H] = 0 while
    [J(g2), H] != 0: r_S = 0 must not settle membership, and the verdict equals
    the dense path's and the full-group oracle's."""
    group, _ = grouprep.builtin_group("Z3")
    mats = oracles.regular_representation(group).matrices.copy()
    mats[2] = np.eye(3)[:, [0, 2, 1]]
    rho = grouprep.make_representation(group, mats)
    assert rho.perm is not None
    shift = mats[1]
    c = np.eye(3) + 1j * shift - 1j * shift @ shift
    h = np.kron(c, np.eye(3))
    factors = (clocks.make_clock(np.ones(3)), clocks.make_clock(np.ones(3)))
    verdict, fallback = check_against_oracle(h, rho, rho, factors, 1e-10, monkeypatch, "Z3")
    assert fallback and verdict["generator_residual"] == 0.0
    assert not verdict["member"] and verdict["equivariance_bound"] > TOL
    dense = dataclasses.replace(rho, perm=None)
    assert verdict == membership(h, dense, dense, *factors)


def test_fallback_gathers_on_permutation_pairs(monkeypatch):
    """Z16 reg (x) reg with near-threshold H, where r_S <= TOL < B: the exact
    fallback gathers every joint commutator from the index array and forms no
    Kronecker product (the dense joint action is a 16 x 256 x 256 stack), and
    its maximum equals the full-group oracle's bit for bit."""
    rng = np.random.default_rng(16)
    group, _ = grouprep.builtin_group("Z16")
    reg = oracles.regular_representation(group)
    near = [case for case in hamiltonians(reg, reg, rng) if case[0].startswith("near")]
    assert len(near) == len(NEAR)
    for kind, h, factors, compat_tol in near:
        exact, _ = oracle_membership(h, reg, reg, *(oracles.clock_matrix(c) for c in factors),
                                     compat_tol=compat_tol)
        system = sync.make_system(*factors, h)
        bundle = sync.sync_bundle(system)
        with monkeypatch.context() as m:
            m.setattr(np, "kron", lambda *args: pytest.fail("Kronecker product formed"))
            verdict = grouprep.hsync_membership(bundle, reg, reg, compat_tol=compat_tol)
        assert verdict["generator_residual"] <= TOL < tree_bound(h, reg, reg), kind
        assert verdict["equivariance_bound"] == exact, kind


@pytest.mark.parametrize("name", GROUPS)
def test_perturbed_isotypic_bases_pass_make_clock(name):
    """Element lists moved off the generating set to ~0.9 * UNITARY_TOL * d
    still give isotypic bases whose stack passes make_clock's unitarity check,
    ||B^dag B - I|| <= UNITARY_TOL * d, with no further allowance: the largest
    ratio over these groups is ~0.36 of that limit."""
    rng = np.random.default_rng(sum(map(ord, name)))
    group, chars = grouprep.builtin_group(name)
    for rho in (oracles.regular_representation(group), generator_built(group)):
        perturbed = perturbed_off_generators(rho, rng)
        t, equivariance = grouprep.observable_from_class_function(
            real_class_function(group, rng), perturbed)
        dec = oracles.isotypic_components(perturbed, chars)
        clock = grouprep.isotypic_clock(t, equivariance, dec)[1]
        b = clock.basis
        assert opcore.operator_norm(b.conj().T @ b - np.eye(b.shape[0])) \
            <= 0.5 * opcore.UNITARY_TOL * perturbed.dim, name


def similarity_conjugate(rho, rng, cond):
    """g -> V rho(g) V^-1 with ||V|| ||V^-1|| = cond: a homomorphism, far from unitary."""
    d = rho.dim
    v = random_unitary(rng, d) @ np.diag(np.geomspace(1.0, cond, d)) @ random_unitary(rng, d)
    return grouprep.Representation(group=rho.group, matrices=v @ rho.matrices @ np.linalg.inv(v))


@pytest.mark.parametrize("name", ("Z3", "Z5", "Z8", "S3", "D4"))
def test_bound_holds_without_unitarity(name):
    """r_S <= max_g ||[J(g), H]|| <= B holds for any matrices. With ||J(g)|| up
    to 10^4, the nu factor carries the bound: without it B falls below the
    exact max for most of these groups."""
    rng = np.random.default_rng(len(name))
    group, _ = grouprep.builtin_group(name)
    rho = generator_built(group)
    for _ in range(10):
        a = similarity_conjugate(rho, rng, 100.0)
        b = similarity_conjugate(rho, rng, 100.0)
        h = clocks._random_hermitian(rng, a.dim * b.dim)
        exact, _ = oracle_membership(h, a, b, np.zeros((a.dim, a.dim)), np.zeros((b.dim, b.dim)))
        assert generator_residual(h, a, b) <= exact <= tree_bound(h, a, b), name


class TestGeneratorTree:
    @pytest.mark.parametrize("name, gens", [
        ("Z1", ("g0",)), ("Z2", ("g1",)), ("Z8", ("g1",)), ("Z16", ("g1",)),
        ("Z2xZ2", ("a", "b")), ("S3", ("r", "s")), ("D4", ("r", "s")),
    ])
    def test_generators(self, name, gens):
        group, _ = grouprep.builtin_group(name)
        tree = group.tree
        assert tuple(group.elements[g] for g in tree.generators) == gens

    @pytest.mark.parametrize("name", GROUPS + ("Z16",))
    def test_tree_reaches_every_element_by_forward_products(self, name):
        group, _ = grouprep.builtin_group(name)
        tree = group.tree
        depth = dict.fromkeys(tree.generators, 0)
        for h, p, s in tree.edges:
            assert s in tree.generators and p in depth and h not in depth
            assert group.mult_table[p, s] == h
            depth[h] = depth[p] + 1
        assert sorted(depth) == list(range(group.order))
        assert tree.depth == max(depth.values())

    def test_cyclic_depth(self):
        for n in (2, 8, 16):
            group, _ = grouprep.builtin_group(f"Z{n}")
            assert group.tree.depth == n - 1
