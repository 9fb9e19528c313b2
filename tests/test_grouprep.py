import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from syncsub import clocks, grouprep, literals, opcore, scenario, sync
from test_membership_oracle import (
    GROUPS,
    generator_built,
    membership,
    perturbed_off_generators,
    real_class_function,
)
from test_norm_screen import call_sites
from test_sync_oracle import random_unitary

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
Z_CLOCK = clocks.make_clock([1.0, -1.0])   # the clock whose matrix is SIGMA_Z


def block_diag(*blocks):
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=complex)
    i = 0
    for b in blocks:
        out[i:i + b.shape[0], i:i + b.shape[0]] = b
        i += b.shape[0]
    return out


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


BUILTIN_NAMES = ("Z1", "Z2", "Z3", "Z5", "Z2xZ2", "S3", "D4")


def containment(side_a, side_b, chars):
    """verify_kernel_containment with the bundle of the two isotypic clocks,
    each side the (schur, clock) pair of isotypic_clock."""
    (schur_a, clock_a), (schur_b, clock_b) = side_a, side_b
    system = sync.make_system(clock_a, clock_b, np.zeros((clock_a.dim * clock_b.dim,) * 2))
    return grouprep.verify_kernel_containment(schur_a, schur_b, chars, sync.sync_bundle(system))


def class_clock(f, rho, chars):
    """(T, its isotypic clock) for the class function ``f`` on ``rho``."""
    t, equivariance = grouprep.observable_from_class_function(f, rho)
    comps = oracles.isotypic_components(rho, chars)
    return t, grouprep.isotypic_clock(t, equivariance, comps)[1]


def components(comps):
    """The isotypic components by irrep name."""
    return {c.irrep: c for c in comps}


def conjugated(rho, v):
    """The representation g -> V rho(g) V^dag."""
    return grouprep.make_representation(rho.group, v @ rho.matrices @ v.conj().T)


def random_loop(rng, n):
    """A random Latin square on 0..n-1 with identity 0, filled cell by cell with backtracking."""
    t = np.full((n, n), -1)
    t[0] = t[:, 0] = np.arange(n)
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        for v in rng.permutation(n):
            if v not in t[i] and v not in t[:, j]:
                t[i, j] = v
                if fill(k + 1):
                    return True
        t[i, j] = -1
        return False

    assert fill(0)
    return t


@pytest.fixture(scope="module")
def z2():
    return grouprep.builtin_group("Z2")


@pytest.fixture(scope="module")
def s3():
    return grouprep.builtin_group("S3")


@pytest.fixture(scope="module")
def klein():
    return grouprep.builtin_group("Z2xZ2")


@pytest.fixture(scope="module")
def s3_multiplicity_free(s3):
    """triv + sign + std, each once, on C^4."""
    group, _ = s3
    r = block_diag(np.eye(1), np.eye(1), rotation(2 * np.pi / 3))
    s = block_diag(np.eye(1), -np.eye(1), np.diag([1.0, -1.0]))
    return grouprep.representation_from_generators(group, {"r": r, "s": s})


@pytest.fixture(scope="module")
def pauli_z_pair(klein):
    """Ex-7.4-style setup: both generators act as Z on each qubit."""
    group, chars = klein
    rho = grouprep.representation_from_generators(group, {"a": SIGMA_Z, "b": SIGMA_Z})
    return group, chars, rho


class TestBuiltinGroups:
    def test_klein_four(self, klein):
        group, chars = klein
        assert group.order == 4
        assert len(chars) == 4
        assert all(ir.dim == 1 for ir in chars)

    def test_s3(self, s3):
        group, chars = s3
        assert group.order == 6
        assert sorted(ir.dim for ir in chars) == [1, 1, 2]
        assert sum(ir.dim ** 2 for ir in chars) == 6
        assert group.class_sizes == (1, 2, 3)

    def test_trivial_group(self):
        group, chars = grouprep.builtin_group("Z1")
        assert group.order == 1
        assert len(chars) == 1

    def test_cyclic(self):
        group, chars = grouprep.builtin_group("Z5")
        assert group.order == 5
        assert len(chars) == 5

    def test_d4(self):
        group, chars = grouprep.builtin_group("D4")
        assert group.order == 8
        assert sorted(ir.dim for ir in chars) == [1, 1, 1, 1, 2]

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown"):
            grouprep.builtin_group("Q8")

    def test_row_orthogonality(self):
        for name in ("Z2", "Z6", "Z2xZ2", "S3", "D4"):
            group, chars = grouprep.builtin_group(name)
            sizes = np.asarray(group.class_sizes, dtype=float)
            for i, a in enumerate(chars):
                for j, b in enumerate(chars):
                    inner = np.sum(sizes * a.characters * b.characters.conj()) / group.order
                    assert abs(inner - (1.0 if i == j else 0.0)) <= 1e-10


class TestMakeGroup:
    def test_rejects_non_latin_square(self):
        with pytest.raises(ValueError, match="Latin"):
            grouprep.make_group(["e", "a"], [[0, 0], [1, 1]])

    def test_rejects_non_associative(self):
        # Latin squares with two-sided identity that are not groups: an order-5
        # loop, whose rows/cols are permutations but associativity fails, and
        # its direct product with Z13, of order 65
        loop = np.array([[0, 1, 2, 3, 4],
                         [1, 0, 3, 4, 2],
                         [2, 4, 0, 1, 3],
                         [3, 2, 4, 0, 1],
                         [4, 3, 1, 2, 0]])
        z13 = (np.arange(13)[:, None] + np.arange(13)) % 13
        product = np.add.outer(13 * loop, z13).transpose(0, 2, 1, 3).reshape(65, 65)
        for table in (loop, product):
            with pytest.raises(ValueError, match="associative"):
                grouprep.make_group([f"g{i}" for i in range(len(table))], table)

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
    def test_accepts_exactly_the_associative_loops(self, n, seed):
        """make_group checks associativity on a generating set only (Light's
        test); it accepts a Latin square with identity iff all n^3 triples
        associate. Random loops of order 5 to 7 are mostly not groups."""
        t = random_loop(np.random.default_rng(seed), n)
        try:
            grouprep.make_group([f"g{i}" for i in range(n)], t)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == np.array_equal(t[t, :], t[:, t])

    def test_rejects_wrong_classes(self, s3):
        group, _ = s3
        classes = [[0, 1], [2], [3, 4, 5]]  # not closed under conjugation
        with pytest.raises(ValueError, match="conjugation"):
            grouprep.make_group(group.elements, group.mult_table, classes=classes)

    def test_inverse_table(self, s3):
        group, _ = s3
        for g in range(group.order):
            assert group.mult_table[g, group.inverse_table[g]] == group.identity_index


class TestValidateRepresentation:
    def test_trivial_rep_passes(self, s3):
        group, _ = s3
        report = grouprep.validate_representation(oracles.trivial_representation(group, 3))
        assert report["passed"]
        assert report["pairs_checked"] == 12   # |G| |S|, S = {r, s}

    def test_sigma_x_on_z2(self, z2):
        group, _ = z2
        rho = grouprep.representation_from_generators(group, {"g1": SIGMA_X})
        assert grouprep.validate_representation(rho)["passed"]

    def test_non_unitary_rejected(self, z2):
        group, _ = z2
        with pytest.raises(ValueError, match="unitary"):
            grouprep.make_representation(group, [np.eye(2), np.diag([1.0, 0.999])])

    def test_non_homomorphism_reported(self, z2):
        group, _ = z2
        # diag(1, i) is unitary but has order 4, not 2
        rho = grouprep.Representation(group=group,
                                      matrices=np.stack([np.eye(2), np.diag([1.0, 1j])]))
        report = grouprep.validate_representation(rho)
        assert not report["passed"]
        assert report["max_homomorphism_residual"] > 1e-3

    def test_failed_checks_named_with_residual_and_limit(self, z2):
        """rho(e) = 2I fails all three checks, named in order; the text report
        gives them on one line for the side."""
        group, _ = z2
        rho = grouprep.Representation(group=group,
                                      matrices=np.stack([2.0 * np.eye(2), np.eye(2)]) + 0j)
        report = grouprep.validate_representation(rho)
        assert report["failed"] == [
            {"check": "homomorphism_bound", "residual": report["homomorphism_bound"],
             "limit": grouprep.HOMOMORPHISM_TOL},
            {"check": "max_unitarity_residual", "residual": 3.0, "limit": 2 * opcore.UNITARY_TOL},
            {"check": "identity_residual", "residual": 1.0, "limit": 2 * grouprep.IDENTITY_TOL}]
        assert not report["passed"]
        payload = {"scenario": "z2", "kind": "group", "passed": False, "tolerances": {},
                   "seed_override": None, "group": {"name": "Z2", "order": 2},
                   "validation": {"rep_a": report, "rep_b": {"passed": True}}}
        assert scenario.emit_report(payload, "text").decode().splitlines()[-1] == (
            f"rep_a failed validation: homomorphism_bound "
            f"{format(report['homomorphism_bound'], '.17g')} > 1e-10, "
            f"max_unitarity_residual 3 > {format(2e-12, '.17g')}, "
            f"identity_residual 1 > {format(2e-12, '.17g')}")
        assert "failed" not in grouprep.validate_representation(
            oracles.regular_representation(group))

    def test_generators_must_generate(self, klein):
        group, _ = klein
        with pytest.raises(ValueError, match="generate"):
            grouprep.representation_from_generators(group, {"a": SIGMA_Z})

    def test_regular_representation_is_valid(self):
        for name in ("Z2", "Z2xZ2", "S3", "D4"):
            group, _ = grouprep.builtin_group(name)
            assert grouprep.validate_representation(
                oracles.regular_representation(group))["passed"]


def per_pair_residuals(rho, pairs=None):
    """Oracle: (homomorphism, unitarity) residual maxima, one SVD per matrix, over
    ``pairs`` (g, h), by default every pair of G x G."""
    group = rho.group
    n = group.order
    unit_res = max(oracles.unitarity_residual(rho[i]) for i in range(n))
    if pairs is None:
        pairs = [(g, h) for g in range(n) for h in range(n)]
    hom_res = 0.0
    for g, h in pairs:
        gh = int(group.mult_table[g, h])
        hom_res = max(hom_res, opcore.operator_norm(rho[g] @ rho[h] - rho[gh]))
    return hom_res, unit_res


def generator_pairs(group):
    """G x S, the pairs (g, s) that validate_representation checks first."""
    return [(g, s) for g in range(group.order) for s in group.tree.generators]


def assert_validation_matches_oracle(rho):
    """r_S and the unitarity residual equal the per-pair loops bit for bit,
    r_S <= max over G x G <= B, the exact max is taken exactly when
    r_S <= HOMOMORPHISM_TOL < B, and the verdict is the all-pairs one.
    Returns (passed, whether the exact max was taken)."""
    group, tol = rho.group, grouprep.HOMOMORPHISM_TOL
    report = grouprep.validate_representation(rho)
    r_s, unit_res = per_pair_residuals(rho, generator_pairs(group))
    exact, _ = per_pair_residuals(rho)
    assert (report["max_homomorphism_residual"], report["max_unitarity_residual"]) == (r_s, unit_res)
    bound = grouprep._tree_bound(group.tree, *tree_inputs(rho, unit_res))
    assert r_s <= exact <= bound
    fallback = r_s <= tol < bound
    assert report["homomorphism_bound"] == (exact if fallback else bound)
    assert report["pairs_checked"] == group.order * (group.order if fallback
                                                  else len(group.tree.generators))
    ident_res = opcore.operator_norm(rho[group.identity_index] - np.eye(rho.dim))
    assert report["passed"] == (exact <= tol and unit_res <= opcore.UNITARY_TOL * rho.dim
                             and ident_res <= 1e-12 * rho.dim)
    return report["passed"], fallback


def tree_inputs(rho, unit_res):
    """(r, nu, extra) of the validation tree bound, from the per-pair loop."""
    r = {s: per_pair_residuals(rho, [(g, s) for g in range(rho.group.order)])[0]
         for s in rho.group.tree.generators}
    return r, np.sqrt(1.0 + unit_res), [r[s] for _, _, s in rho.group.tree.edges]


class TestStackedValidation:
    @pytest.mark.parametrize("stack_entries", [grouprep._STACK_ENTRIES, 64])
    def test_stacked_residuals_equal_per_pair_loop(self, monkeypatch, stack_entries):
        """Bit-identical maxima, also when the stack is split into batches."""
        monkeypatch.setattr(grouprep, "_STACK_ENTRIES", stack_entries)
        rng = np.random.default_rng(16)
        cases = []
        for name in ("Z16", "S3", "D4", "Z2xZ2", "Z7", "Z25"):
            group, _ = grouprep.builtin_group(name)
            reg = oracles.regular_representation(group)
            cases += [reg, conjugated(reg, random_unitary(rng, reg.dim))]
        group, _ = grouprep.builtin_group("Z2")
        cases.append(grouprep.Representation(
            group=group, matrices=np.stack([np.eye(2), np.diag([1.0, 1j])])))
        for rho in cases:
            assert_validation_matches_oracle(rho)


class TestMaxSpectralNorm:
    @staticmethod
    def factored_counts(monkeypatch):
        """Matrices passed to each spectral-norm call of np.linalg.norm."""
        counts, real = [], np.linalg.norm

        def counted(x, ord=None, axis=None, keepdims=False):
            if ord == 2:
                counts.append(1 if np.ndim(x) == 2 else len(x))
            return real(x, ord, axis, keepdims)

        monkeypatch.setattr(np.linalg, "norm", counted)
        return counts

    def test_zero_stack_takes_no_svd(self, monkeypatch):
        counts = self.factored_counts(monkeypatch)
        mats = np.zeros((50, 4, 4), dtype=complex)
        assert grouprep._max_spectral_norm(lambda sl: mats[sl], 50, 4) == 0.0
        assert counts == []

    @pytest.mark.parametrize("stack_entries", [grouprep._STACK_ENTRIES, 40, 1])
    def test_only_nonzero_matrices_are_factored(self, monkeypatch, stack_entries):
        """The max over every batch, with the zero matrices left out of the SVDs."""
        monkeypatch.setattr(grouprep, "_STACK_ENTRIES", stack_entries)
        rng = np.random.default_rng(31)
        mats = rng.normal(size=(30, 4, 4)) + 1j * rng.normal(size=(30, 4, 4))
        mats[::3] = 0.0
        want = float(np.max(np.linalg.norm(mats, 2, axis=(1, 2))))
        counts = self.factored_counts(monkeypatch)
        assert grouprep._max_spectral_norm(lambda sl: mats[sl], 30, 4) == want
        assert sum(counts) == 20

    def test_equivariance_residual_equals_per_element_loop(self):
        rng = np.random.default_rng(9)
        for name in ("Z5", "S3", "D4"):
            group, _ = grouprep.builtin_group(name)
            reg = oracles.regular_representation(group)
            for rho in (reg, conjugated(reg, random_unitary(rng, reg.dim))):
                ts = [rng.normal(size=(rho.dim,) * 2) + 1j * rng.normal(size=(rho.dim,) * 2)
                      for _ in range(8)]
                for t in ts + [np.eye(rho.dim)]:
                    want = max(opcore.operator_norm(oracles.commutator(rho[g], t))
                               for g in range(group.order))
                    assert grouprep.equivariance_residual(rho, t) == want, name


PERMUTATION_GROUPS = ("Z8", "Z16", "S3", "D4", "Z25")


class TestPermutationRepresentations:
    """Permutation matrices take the one dense path, whose products on them are
    exact: a relation the table demands leaves an exactly zero residual."""

    @pytest.mark.parametrize("name", PERMUTATION_GROUPS)
    def test_validation_is_exact(self, name):
        reg = oracles.regular_representation(grouprep.builtin_group(name)[0])
        report = grouprep.validate_representation(reg)
        assert assert_validation_matches_oracle(reg) == (True, False)
        assert report["homomorphism_bound"] == report["max_unitarity_residual"] == 0.0
        assert report["pairs_checked"] == reg.group.order * len(reg.group.tree.generators)

    @pytest.mark.parametrize("name", PERMUTATION_GROUPS[:4])
    def test_equivariance_residual_is_zero_exactly_for_central_t(self, name):
        group, _ = grouprep.builtin_group(name)
        reg = oracles.regular_representation(group)
        rng = np.random.default_rng(len(name))
        # a class and its inverse class have the same size, as Hermiticity needs
        central, _ = grouprep.observable_from_class_function(group.class_sizes, reg)
        noise = rng.normal(size=(reg.dim,) * 2) + 1j * rng.normal(size=(reg.dim,) * 2)
        for t in (central, noise, central + 1e-12 * noise):
            got = grouprep.equivariance_residual(reg, t)
            assert got == max(opcore.operator_norm(oracles.commutator(reg[g], t))
                              for g in range(group.order)), name
            assert (got == 0.0) == (t is central), name

    @pytest.mark.parametrize("edit", [lambda x: -x, lambda x: 1j * x,
                                      lambda x: np.nextafter(x.real, 2.0)],
                             ids=["signed", "phase", "one-ulp"])
    def test_near_permutations_match_the_oracle(self, edit):
        """A signed permutation, a phase monomial and a matrix one ulp off a
        permutation are unitary, and their residuals are not zero."""
        group, _ = grouprep.builtin_group("Z4")
        mats = oracles.regular_representation(group).matrices.copy()
        mats[1, 1, 0] = edit(mats[1, 1, 0])
        rho = grouprep.make_representation(group, mats)
        assert_validation_matches_oracle(rho)
        assert grouprep.validate_representation(rho)["max_homomorphism_residual"] > 0.0

    def test_permutations_contradicting_the_table_report_their_residual(self):
        """rho(g2) = rho(g1) on Z3: each matrix permutes, but rho(g1)^2 != rho(g2)."""
        group, _ = grouprep.builtin_group("Z3")
        mats = oracles.regular_representation(group).matrices.copy()
        mats[2] = mats[1]
        rho = grouprep.make_representation(group, mats)
        report = grouprep.validate_representation(rho)
        assert report["max_homomorphism_residual"] == \
            per_pair_residuals(rho, generator_pairs(group))[0] > 1.0
        assert not report["passed"] and assert_validation_matches_oracle(rho) == (False, False)

    def test_z16_validation_forms_no_dense_products(self, monkeypatch):
        """Z16 regular: validation checks G x S with one homomorphism stack, and
        both it and the unitarity stack are exactly zero, so neither takes an SVD."""
        reg = oracles.regular_representation(grouprep.builtin_group("Z16")[0])
        calls = []
        norm = np.linalg.norm

        def counting_norm(x, ord=None, *args, **kwargs):
            if ord == 2:
                calls.append(("norm", np.shape(x)))
            return norm(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counting_norm)
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append("svd"))
        stacked = grouprep._max_spectral_norm

        def counting_stack(stack, count, dim):
            calls.append(("stack", count))
            return stacked(stack, count, dim)

        monkeypatch.setattr(grouprep, "_max_spectral_norm", counting_stack)
        report = grouprep.validate_representation(reg)
        assert calls == [("stack", 16), ("stack", 16)]   # unitarity, then G x {g1}
        assert report["passed"] and report["pairs_checked"] == 16


def word_lengths(group):
    """Length of each element as a word over S and its inverses, from e."""
    steps = list(group.tree.generators) + [int(group.inverse_table[s])
                                           for s in group.tree.generators]
    length, frontier = {group.identity_index: 0}, [group.identity_index]
    while frontier:
        nxt = []
        for p in frontier:
            for s in steps:
                h = int(group.mult_table[p, s])
                if h not in length:
                    length[h] = length[p] + 1
                    nxt.append(h)
        frontier = nxt
    return np.array([length[g] for g in range(group.order)])


def phase_twisted(rho, y):
    """g -> rho(g) exp(i c l(g)), l the word length over S and its inverses.

    The homomorphism residual of (g, h) is ~c (l(g) + l(h) - l(gh)): at most 2c
    on G x S, and 2c diam(G) for h = g^-1 at the largest length. c is set so
    that the max over G x G is ~y * HOMOMORPHISM_TOL, while r_S is 1/diam(G) of
    that: near the tolerance only the exact max decides.
    """
    lengths = word_lengths(rho.group)
    c = y * grouprep.HOMOMORPHISM_TOL / (2 * max(1, lengths.max()))
    return grouprep.make_representation(
        rho.group, rho.matrices * np.exp(1j * c * lengths)[:, None, None])


def validation_cases(name, rng):
    """Regular and generator-built representations of a builtin group, their
    unitary conjugates, element lists moved off S to ~0.9 * UNITARY_TOL * d,
    and phase twists whose max over G x G is 0.6 and 1.5 times the tolerance."""
    group, _ = grouprep.builtin_group(name)
    cases = []
    for rho in (oracles.regular_representation(group), generator_built(group)):
        cases += [rho, conjugated(rho, random_unitary(rng, rho.dim)),
                  perturbed_off_generators(rho, rng)]
        cases += [phase_twisted(rho, y) for y in (0.6, 1.5)]
    return cases


class TestGeneratorSetValidation:
    """validate_representation checks G x S and carries it to G x G along the
    tree, against the all-pairs loop it replaced (per_pair_residuals)."""

    @pytest.mark.parametrize("name", GROUPS)
    def test_verdict_equals_all_pairs_oracle(self, name):
        rng = np.random.default_rng(sum(map(ord, name)) + 19)
        for rho in validation_cases(name, rng):
            assert_validation_matches_oracle(rho)

    @pytest.mark.parametrize("name", ("Z5", "Z8", "D4"))
    def test_fallback_decides_both_ways(self, name):
        """Phase twists with r_S <= tol < B: the exact max over G x G admits
        the one at 0.6 * tol and rejects the one at 1.5 * tol. (On S3 and
        Z2xZ2 the tree has depth 1, and B proves the first one.)"""
        group, _ = grouprep.builtin_group(name)
        rho = oracles.regular_representation(group)
        got = [assert_validation_matches_oracle(phase_twisted(rho, y)) for y in (0.6, 1.5)]
        assert got == [(True, True), (False, True)]


def cyclic_action(group, m):
    """g_k -> c^k for the m-cycle c, a permutation representation of Zn when m | n."""
    return grouprep.make_representation(
        group, np.stack([np.roll(np.eye(m), k, axis=0) for k in range(group.order)]))


# Z2 is left out: its one non-identity element is determined by no other, and
# replacing rho(g1) = I by a swap gives another homomorphism, the sign one.
REPLACEMENT_CASES = [("Z3", None), ("Z4", None), ("Z4", 2), ("Z6", 3), ("Z6", 2),
                     ("Z8", 4), ("Z9", 3), ("Z2xZ2", None), ("S3", None), ("D4", None)]


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(REPLACEMENT_CASES), data=st.data())
def test_one_replaced_permutation_is_always_caught(case, data):
    """For |G| >= 3, a permutation representation with one element's matrix
    replaced by a different permutation matrix is never passed: the other
    elements determine it, rho(h) = rho(g) rho(g^-1 h) for any g other than
    e and h. For h = e make_representation raises; otherwise validation fails.
    ``case`` is a group and the points of its cyclic action, or None for the
    regular representation."""
    name, points = case
    group, _ = grouprep.builtin_group(name)
    rho = oracles.regular_representation(group) if points is None \
        else cyclic_action(group, points)
    g = data.draw(st.integers(0, group.order - 1), label="element")
    old = np.argmax(rho[g].real, axis=0).tolist()   # rho(g) e_j = e_old[j]
    new = data.draw(st.permutations(range(rho.dim)).filter(lambda p: list(p) != old),
                    label="image")
    mats = rho.matrices.copy()
    mats[g] = np.eye(rho.dim)[:, new]   # e_j -> e_new[j]
    if g == group.identity_index:
        with pytest.raises(ValueError, match="identity"):
            grouprep.make_representation(group, mats)
        return
    assert not grouprep.validate_representation(
        grouprep.make_representation(group, mats))["passed"]


def test_only_the_random_draws_sample():
    """Every _philox call in the library draws a random input: the perturbation
    direction of _read_hamiltonian and the kernel state of
    sample_kernel_state. A check that sampled instead would prove nothing."""
    assert sorted(call_sites("_philox")) == ["scenario._read_hamiltonian",
                                             "sync.sample_kernel_state"]


def orthogonality_message_loop(group, rows):
    """The per-pair loop make_character_table replaced: its first error message, or None."""
    sizes = np.asarray(group.class_sizes, dtype=np.float64)
    irreps = [(str(name), np.asarray(chars, dtype=np.complex128)) for name, _, chars in rows]
    for i, (name_a, a) in enumerate(irreps):
        for j, (name_b, b) in enumerate(irreps):
            inner = np.sum(sizes * a * b.conj()) / group.order
            if abs(inner - (1.0 if i == j else 0.0)) > 1e-10:
                return (f"character rows {name_a!r}, {name_b!r} violate orthogonality "
                        f"(inner product {inner:.3e})")
    return None


class TestCharacterTableOrthogonality:
    def test_first_violating_pair_in_row_major_order(self):
        # (0, 2) and (2, 0) break orthogonality and (1, 1) normalisation:
        # row-major order meets (0, 2) first, column-major would meet (2, 0)
        group, chars = grouprep.builtin_group("Z3")
        c0, c1, c2 = (ir.characters for ir in chars)
        rows = [("c0", 1, c0), ("c1", 1, 2 * c1), ("c2", 1, c2 + 0.5 * c0)]
        with pytest.raises(ValueError, match="rows 'c0', 'c2' violate") as err:
            grouprep.make_character_table(group, rows)
        assert str(err.value) == orthogonality_message_loop(group, rows)

    def test_messages_equal_pair_loop(self):
        rng = np.random.default_rng(6)
        seen = 0
        for name in ("Z2", "Z5", "Z2xZ2", "S3", "D4"):
            group, chars = grouprep.builtin_group(name)
            for _ in range(40):
                rows = [(ir.name, ir.dim, ir.characters.copy()) for ir in chars]
                for k in rng.integers(0, len(rows), size=int(rng.integers(0, 3))):
                    rows[k][2][rng.integers(0, len(rows[k][2]))] += \
                        10.0 ** rng.uniform(-12, 0) * (rng.normal() + 1j * rng.normal())
                want = orthogonality_message_loop(group, rows)
                if want is None:
                    grouprep.make_character_table(group, rows)
                    continue
                seen += 1
                with pytest.raises(ValueError) as err:
                    grouprep.make_character_table(group, rows)
                assert str(err.value) == want
        assert seen > 50

    def test_gram_check_memory_is_quadratic_in_the_order(self):
        # Z128 has 128 irreps and 128 classes: one (r, r, c) complex product
        # would take 33.5 MB; the one matmul's operands and Gram take 0.26 MB each
        tracemalloc.start()
        try:
            grouprep.builtin_group("Z128")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20


BUILTIN_GROUPS = ("Z1", "Z2", "Z5", "Z16", "Z128", "Z2xZ2", "S3", "D4")


def loop_classes(group):
    return oracles.conjugacy_classes(group.mult_table, group.inverse_table, group.identity_index)


class TestTablesMatchLoopOracles:
    """Classes from one orbit table, the Gram check in one matmul, the element
    orders stepped together and the cyclic characters taken once per distinct
    power, against the loops they replaced (tests/oracles.py). Classes, orders
    and characters are equal exactly: the arithmetic is unchanged."""

    @pytest.mark.parametrize("name", BUILTIN_GROUPS)
    def test_builtin_groups(self, name):
        group, chars = grouprep.builtin_group(name)
        assert group.conjugacy_classes == loop_classes(group)
        e = group.identity_index
        assert grouprep._element_orders(group.mult_table, e).tolist() == [
            oracles.element_order(group.mult_table, e, g) for g in range(group.order)]
        table = np.array([ir.characters for ir in chars])
        gram = oracles.character_gram(group, table)
        assert np.max(np.abs(gram - np.eye(len(chars)))) <= 1e-10
        if name[0] == "Z" and name[1:].isdigit():   # the cyclic groups
            assert np.array_equal(table.view(np.float64),
                                  oracles.cyclic_characters(group.order).view(np.float64))

    def test_custom_class_literal(self):
        """A D4 table literal listing the reflection classes swapped keeps that
        order; as a set it is the loop's partition, and its characters, given
        in that order, pass the loop's Gram check."""
        group, chars = grouprep.builtin_group("D4")
        order = [0, 1, 2, 4, 3]
        custom, _ = literals.group_from_literal({
            "elements": list(group.elements), "mult_table": group.mult_table.tolist(),
            "classes": [list(group.conjugacy_classes[c]) for c in order]})
        assert custom.conjugacy_classes == tuple(group.conjugacy_classes[c] for c in order)
        assert loop_classes(custom) == group.conjugacy_classes
        table = literals.character_table_from_literal(custom, {"irreps": [
            {"name": ir.name, "dim": ir.dim, "chars": [ir.characters[c].real for c in order]}
            for ir in chars]})
        gram = oracles.character_gram(custom, [ir.characters for ir in table])
        assert np.max(np.abs(gram - np.eye(len(chars)))) <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
    def test_element_orders_on_loops(self, n, seed):
        """On Latin squares with identity that need not be groups, too."""
        t = random_loop(np.random.default_rng(seed), n)
        assert grouprep._element_orders(t, 0).tolist() == [
            oracles.element_order(t, 0, g) for g in range(n)]


class TestMultiplicities:
    def test_regular_rep_of_s3(self, s3):
        group, chars = s3
        mult = dict(grouprep.multiplicities(oracles.regular_representation(group), chars))
        assert mult == {"triv": 1, "sign": 1, "std": 2}

    def test_trivial_rep_any_dim(self, s3):
        group, chars = s3
        mult = dict(grouprep.multiplicities(oracles.trivial_representation(group, 5), chars))
        assert mult == {"triv": 5, "sign": 0, "std": 0}

    def test_sigma_x_on_z2(self, z2):
        group, chars = z2
        rho = grouprep.representation_from_generators(group, {"g1": SIGMA_X})
        mult = dict(grouprep.multiplicities(rho, chars))
        assert mult == {"chi0": 1, "chi1": 1}

    def test_wrong_table_rejected(self, z2):
        group, _ = z2
        rho = oracles.trivial_representation(group, 1)
        bad = (grouprep.Irrep("x", 1, np.array([1.0, 1j])),
               grouprep.Irrep("y", 1, np.array([1.0, -1j])))
        with pytest.raises(ValueError, match="multiplicity"):
            grouprep.multiplicities(rho, bad)


class TestIsotypicProjectors:
    def test_trivial_rep_projects_fully(self, s3):
        group, chars = s3
        dec = oracles.isotypic_components(oracles.trivial_representation(group, 3), chars)
        np.testing.assert_allclose(components(dec)["triv"].projector, np.eye(3), atol=1e-12)
        assert components(dec)["std"].multiplicity == 0

    def test_sigma_x_on_z2(self, z2):
        group, chars = z2
        rho = grouprep.representation_from_generators(group, {"g1": SIGMA_X})
        dec = oracles.isotypic_components(rho, chars)
        # oracle: (1/2)(I +- sigma_x)
        np.testing.assert_allclose(components(dec)["chi0"].projector,
                                   np.array([[0.5, 0.5], [0.5, 0.5]]), atol=1e-12)
        np.testing.assert_allclose(components(dec)["chi1"].projector,
                                   np.array([[0.5, -0.5], [-0.5, 0.5]]), atol=1e-12)

    def test_s3_regular_ranks(self, s3):
        group, chars = s3
        dec = oracles.isotypic_components(oracles.regular_representation(group), chars)
        assert [c.isotypic_dim for c in dec] == [1, 1, 4]

    def test_completeness_orthogonality_equivariance(self):
        rng = np.random.default_rng(11)
        for name in ("Z2", "Z2xZ2", "S3", "D4"):
            group, chars = grouprep.builtin_group(name)
            regular = oracles.regular_representation(group)
            for rho in (regular, conjugated(regular, random_unitary(rng, group.order))):
                comps = oracles.isotypic_components(rho, chars)
                total = sum(c.projector for c in comps)
                assert opcore.operator_norm(total - np.eye(group.order)) <= 1e-10
                for i, a in enumerate(comps):
                    p, basis = a.projector, a.basis
                    assert opcore.operator_norm(p @ p - p) <= 1e-10
                    assert basis.shape == (group.order, a.isotypic_dim)
                    assert opcore.operator_norm(
                        basis.conj().T @ basis - np.eye(a.isotypic_dim)) <= 1e-10
                    assert opcore.operator_norm(p @ basis - basis) <= 1e-10
                    assert opcore.operator_norm(basis @ basis.conj().T - p) <= 1e-10
                    for b in comps[i + 1:]:
                        assert opcore.operator_norm(p @ b.projector) <= 1e-10
                    for g in range(group.order):
                        assert opcore.operator_norm(oracles.commutator(rho[g], p)) <= 1e-10

    def test_inconsistent_inputs_raise(self, s3, z2):
        group, _ = s3
        _, z2_chars = z2
        rho = oracles.trivial_representation(group, 2)
        with pytest.raises((ValueError, grouprep.NumericalError)):
            oracles.isotypic_components(rho, z2_chars)


class TestDiagonalIsotypicSubspace:
    def test_pauli_z_qubits(self, pauli_z_pair):
        _, chars, rho = pauli_z_pair
        basis = oracles.diagonal_isotypic_subspace(rho, rho, chars)
        assert basis.shape[1] == 2
        np.testing.assert_allclose(oracles.span_projector(basis),
                                   np.diag([1.0, 0.0, 0.0, 1.0]), atol=1e-12)

    def test_trivial_reps(self):
        group, chars = grouprep.builtin_group("Z1")
        rho = oracles.trivial_representation(group, 1)
        basis = oracles.diagonal_isotypic_subspace(rho, rho, chars)
        assert basis.shape[1] == 1

    def test_only_shared_irreps_contribute(self, z2):
        group, chars = z2
        rho_a = grouprep.representation_from_generators(group, {"g1": SIGMA_Z})  # triv + sign
        rho_b = grouprep.representation_from_generators(
            group, {"g1": -np.eye(1)})                                           # sign only
        basis = oracles.diagonal_isotypic_subspace(rho_a, rho_b, chars)
        assert basis.shape[1] == 1
        # invariance under the joint action
        joint = oracles.tensor_representation(rho_a, rho_b)
        pi = oracles.span_projector(basis)
        for g in range(group.order):
            assert opcore.operator_norm((np.eye(2) - pi) @ joint[g] @ pi) <= 1e-10

    def test_invariance_for_s3(self, s3, s3_multiplicity_free):
        group, chars = s3
        basis = oracles.diagonal_isotypic_subspace(
            s3_multiplicity_free, s3_multiplicity_free, chars)
        assert basis.shape[1] == 1 + 1 + 4
        joint = oracles.tensor_representation(s3_multiplicity_free, s3_multiplicity_free)
        pi = oracles.span_projector(basis)
        eye = np.eye(16)
        for g in range(group.order):
            assert opcore.operator_norm((eye - pi) @ joint[g] @ pi) <= 1e-10

    def test_regular_rep_with_multiplicity_two(self, s3):
        # std appears twice in the regular representation: its block is 4 x 4
        group, chars = s3
        reg = oracles.regular_representation(group)
        basis = oracles.diagonal_isotypic_subspace(reg, reg, chars)
        assert basis.shape[1] == 1 + 1 + 16


class TestSchurScalars:
    def test_scalar_observable(self, s3, s3_multiplicity_free):
        _, chars = s3
        dec = oracles.isotypic_components(s3_multiplicity_free, chars)
        report, _ = oracles.schur_clock(2.5 * np.eye(4), s3_multiplicity_free, dec)
        for entry in report["entries"]:
            assert complex(*entry["scalar"]) == pytest.approx(2.5, abs=1e-12)
            assert entry["residual"] <= 1e-12

    def test_sigma_z_with_diagonal_rep(self, z2):
        group, chars = z2
        rho = grouprep.representation_from_generators(group, {"g1": SIGMA_Z})
        dec = oracles.isotypic_components(rho, chars)
        entries = oracles.schur_clock(SIGMA_Z, rho, dec)[0]["entries"]
        by_name = {e["irrep"]: complex(*e["scalar"]) for e in entries}
        assert by_name["chi0"] == pytest.approx(1.0, abs=1e-12)
        assert by_name["chi1"] == pytest.approx(-1.0, abs=1e-12)

    def test_non_equivariant_observable_shows_in_its_residuals(self, z2):
        # the equivariance gate is observable_from_class_function's; the Schur
        # step reports the residual it is given, and sigma_z swaps the two
        # eigenvectors of sigma_x, so each Schur residual is 1
        group, chars = z2
        rho = grouprep.representation_from_generators(group, {"g1": SIGMA_X})
        dec = oracles.isotypic_components(rho, chars)
        report, _ = oracles.schur_clock(SIGMA_Z, rho, dec)
        assert report["equivariance_residual"] == pytest.approx(2.0, abs=1e-12)
        assert [e["residual"] for e in report["entries"]] == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_multiplicity_blocks_carry_scalar_and_residual(self, s3):
        # on std, multiplicity 2, an equivariant T need not be a scalar and a
        # central one is: the residual ||T B - alpha B|| tells them apart
        group, chars = s3
        reg = oracles.regular_representation(group)
        dec = oracles.isotypic_components(reg, chars)
        t = oracles.random_equivariant_observable(reg, 0)
        by_name = {e["irrep"]: e for e in oracles.schur_clock(t, reg, dec)[0]["entries"]}
        assert by_name["std"]["multiplicity"] == 2
        assert by_name["std"]["residual"] > 1e-3
        assert by_name["triv"]["residual"] <= 1e-9
        central, _ = grouprep.observable_from_class_function([0.4, -0.6, 0.9], reg)
        entries = oracles.schur_clock(central, reg, dec)[0]["entries"]
        assert all(e["residual"] <= 1e-9 for e in entries)
        # tr(T P) / k on std: chi_std(e) * 0.4 + chi_std(r) * 2 * (-0.6) over dim 2
        assert complex(*entries[2]["scalar"]) == pytest.approx((2 * 0.4 - 1 * 2 * -0.6) / 2,
                                                               abs=1e-12)

    def test_schur_dichotomy(self, s3, s3_multiplicity_free):
        _, chars = s3
        rho = s3_multiplicity_free
        dec = oracles.isotypic_components(rho, chars)
        rng = np.random.default_rng(0)
        for seed in range(100):
            t = oracles.random_equivariant_observable(rho, seed)
            entries = oracles.schur_clock(t, rho, dec)[0]["entries"]
            assert all(e["residual"] <= 1e-9 for e in entries)
            assert all(abs(e["scalar"][1]) <= 1e-10 for e in entries)
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            loose = (g + g.conj().T) / 2
            residual = grouprep.equivariance_residual(rho, loose)
            assert residual > 1e-3
            report = oracles.schur_clock(loose, rho, dec)[0]
            assert report["equivariance_residual"] == residual
            assert max(e["residual"] for e in report["entries"]) > 1e-3


class TestObservableFromClassFunction:
    def test_constant_function_gives_trivial_projector(self, s3, s3_multiplicity_free):
        _, chars = s3
        rho = s3_multiplicity_free
        t, _ = grouprep.observable_from_class_function([1.0, 1.0, 1.0], rho)
        dec = oracles.isotypic_components(rho, chars)
        # oracle: averaging operator equals |G| times the trivial projector
        np.testing.assert_allclose(t, 6.0 * components(dec)["triv"].projector, atol=1e-10)

    def test_identity_indicator_gives_identity(self, s3, s3_multiplicity_free):
        t, _ = grouprep.observable_from_class_function([1.0, 0.0, 0.0], s3_multiplicity_free)
        np.testing.assert_allclose(t, np.eye(4), atol=1e-12)

    def test_central_elements_have_zero_residuals(self, s3, s3_multiplicity_free):
        _, chars = s3
        rho = s3_multiplicity_free
        dec = oracles.isotypic_components(rho, chars)
        rng = np.random.default_rng(1)
        for _ in range(10):
            f = rng.uniform(-1, 1, size=3)
            t, equivariance = grouprep.observable_from_class_function(f, rho)
            report, _ = grouprep.isotypic_clock(t, equivariance, dec)
            assert all(e["residual"] <= 1e-9 for e in report["entries"])

    @pytest.mark.parametrize("name, values", [
        ("Z8", [0.5, 0.2, -0.1, 0.3, 0.7, 0.3, -0.1, 0.2]),
        ("S3", [0.4, -0.6, 0.9]),
        ("D4", [0.1, -0.2, 0.3, -0.4, 0.5]),
    ])
    def test_equivariance_check_factors_no_matrix_on_permutation_rep(self, monkeypatch,
                                                                      name, values):
        # central T commutes exactly with permutation matrices, so every
        # commutator is exactly zero and the exact max takes no SVD
        rho = oracles.regular_representation(grouprep.builtin_group(name)[0])
        factored = []
        norm = np.linalg.norm

        def counting_norm(x, ord=None, *args, **kwargs):
            if ord == 2:
                factored.append(np.shape(x))
            return norm(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counting_norm)
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: factored.append("svd"))
        t, equivariance = grouprep.observable_from_class_function(values, rho)
        assert factored == []
        assert equivariance == grouprep.equivariance_residual(rho, t) == 0.0

    def test_non_equivariant_message_keeps_full_max(self):
        # unitary, not a homomorphism: rho(g^2) = X does not commute with rho(g)
        group, _ = grouprep.builtin_group("Z4")
        a = np.diag([1.0, 1j])
        rho = grouprep.Representation(group=group,
                                      matrices=np.stack([np.eye(2), a, SIGMA_X, a.conj().T]))
        t = 0.5 * np.eye(2) + 0.3 * (a + a.conj().T) + 0.7 * SIGMA_X
        full = max(opcore.operator_norm(oracles.commutator(rho[g], t)) for g in range(4))
        with pytest.raises(grouprep.NumericalError, match=f"not equivariant \\({full:.3e}\\)"):
            grouprep.observable_from_class_function([0.5, 0.3, 0.7, 0.3], rho)

    def test_inverse_class_mismatch_rejected(self):
        group, _ = grouprep.builtin_group("Z3")
        rho = oracles.regular_representation(group)
        # classes {e}, {g}, {g^2}; g and g^2 are mutual inverses
        with pytest.raises(ValueError, match="inverse"):
            grouprep.observable_from_class_function([0.0, 1.0, 2.0], rho)


class TestHsyncMembership:
    def test_local_z_hamiltonians_are_members(self, pauli_z_pair):
        _, _, rho = pauli_z_pair
        for h in (np.kron(SIGMA_Z, np.eye(2)), np.kron(np.eye(2), SIGMA_Z),
                  0.3 * np.kron(SIGMA_Z, np.eye(2)) - 1.7 * np.kron(np.eye(2), SIGMA_Z)):
            verdict = membership(h, rho, rho, Z_CLOCK, Z_CLOCK)
            assert verdict["member"]
            assert verdict["kernel_commutation_residual"] <= 1e-12

    def test_xx_fails_kernel_commutation(self, pauli_z_pair):
        _, _, rho = pauli_z_pair
        verdict = membership(np.kron(SIGMA_X, SIGMA_X), rho, rho, Z_CLOCK, Z_CLOCK)
        assert not verdict["member"]
        assert verdict["kernel_commutation_residual"] > 1.0
        assert verdict["equivariance_bound"] <= 1e-12  # X(x)X does commute with Z(x)Z

    def test_identity_is_member(self, pauli_z_pair):
        _, _, rho = pauli_z_pair
        verdict = membership(np.eye(4), rho, rho, Z_CLOCK, Z_CLOCK)
        assert verdict["member"]
        assert verdict["equivariance_bound"] == 0.0
        assert verdict["kernel_commutation_residual"] == 0.0

    def test_scaled_threshold_admits_large_hamiltonian(self, pauli_z_pair):
        # ||[H,K]|| = 4e-8 exceeds compat_tol = 1e-10 but not compat_tol * ||H|| ||K||
        _, _, rho = pauli_z_pair
        h = 1e4 * np.kron(SIGMA_Z, np.eye(2)) + 1e-8 * np.kron(SIGMA_X, SIGMA_X)
        verdict = membership(h, rho, rho, Z_CLOCK, Z_CLOCK)
        assert verdict["kernel_commutation_residual"] == pytest.approx(4e-8, rel=1e-6)
        assert verdict["member"]

    def test_clock_dims_must_match_representations(self, pauli_z_pair):
        _, _, rho = pauli_z_pair
        three = clocks.make_clock([1.0, 0.0, -1.0])
        with pytest.raises(ValueError, match="clock dims 3x2 do not match representation dims 2x2"):
            membership(np.eye(6), rho, rho, three, Z_CLOCK)

    def test_members_preserve_diagonal_subspace(self, s3, s3_multiplicity_free):
        # dynamics preservation: e^{-iHt} keeps the diagonal isotypic subspace
        group, chars = s3
        rho = s3_multiplicity_free
        pi = oracles.span_projector(oracles.diagonal_isotypic_subspace(rho, rho, chars))
        eye = np.eye(16)
        rng = np.random.default_rng(2)
        for _ in range(5):
            f = rng.uniform(-1, 1, size=3)
            t_obs, clock = class_clock(f, rho, chars)
            h = np.kron(t_obs, np.eye(4)) + np.kron(np.eye(4), t_obs)
            assert membership(h, rho, rho, clock, clock)["member"]
            for t in (0.1, 1.0, 10.0):
                u = oracles.evolve(h, t)
                assert opcore.operator_norm((eye - pi) @ u @ pi) <= 1e-9


def block_kernel_norms(rho_a, rho_b, t_a, t_b, chars):
    """{irrep: ||K b|| for every column b of V_l^A (x) V_l^B}, K the dense oracle."""
    k = oracles.kron_difference(t_a, t_b)
    dec_a, dec_b = (oracles.isotypic_components(r, chars) for r in (rho_a, rho_b))
    return {ca.irrep: np.linalg.norm(k @ np.kron(ca.basis, cb.basis), axis=0)
            for ca, cb in zip(dec_a, dec_b)
            if ca.multiplicity and cb.multiplicity}


class TestKernelContainment:
    def test_same_class_function_contained(self, s3, s3_multiplicity_free):
        _, chars = s3
        rho = s3_multiplicity_free
        dec = oracles.isotypic_components(rho, chars)
        rng = np.random.default_rng(3)
        for _ in range(10):
            f = rng.uniform(-1, 1, size=3)
            side = grouprep.isotypic_clock(*grouprep.observable_from_class_function(f, rho), dec)
            report = containment(side, side, chars)
            assert report["all_matched"] and report["contained"] and report["passed"]
            assert report["kernel_dim"] >= report["diagonal_dim"] == 1 + 1 + 4

    def test_perturbed_class_function(self, s3, s3_multiplicity_free):
        group, chars = s3
        rho = s3_multiplicity_free
        f = np.array([0.4, -0.6, 0.9])
        t_a, eq_a = grouprep.observable_from_class_function(f, rho)
        # perturb the transposition class; chi_std vanishes there, so std stays
        g = f.copy()
        g[2] += 0.5
        t_b, eq_b = grouprep.observable_from_class_function(g, rho)
        dec = oracles.isotypic_components(rho, chars)
        report = containment(grouprep.isotypic_clock(t_a, eq_a, dec),
                             grouprep.isotypic_clock(t_b, eq_b, dec), chars)
        by_name = {e["irrep"]: e for e in report["entries"]}
        norms = block_kernel_norms(rho, rho, t_a, t_b, chars)
        assert by_name["std"]["matched"] and by_name["std"]["ok"]
        for name in ("triv", "sign"):
            entry = by_name[name]
            assert not entry["matched"]
            assert np.max(np.abs(norms[name] - abs(entry["alpha"] - entry["beta"]))) <= 1e-9
        assert report["passed"] and report["contained"] and not report["all_matched"]
        assert (report["kernel_dim"], report["diagonal_dim"]) == (4, 4)

    def test_zero_observables_trivially_contained(self, s3, s3_multiplicity_free):
        _, chars = s3
        rho = s3_multiplicity_free
        side = grouprep.isotypic_clock(
            *grouprep.observable_from_class_function([0.0, 0.0, 0.0], rho),
            oracles.isotypic_components(rho, chars))
        report = containment(side, side, chars)
        assert report["all_matched"] and report["contained"]
        assert (report["kernel_dim"], report["diagonal_dim"]) == (16, 1 + 1 + 4)

    def test_roundoff_label_gaps_match(self):
        """T = rho(e) on S3's regular representation and on a unitary conjugate
        of it: every Schur scalar is 1 up to roundoff, so ||K|| is roundoff
        too. The kernel cutoff, floored at KERNEL_ABS_FLOOR as null_space's is,
        matches every label pair; tol * ||K|| alone would match almost none."""
        rng = np.random.default_rng(14)
        group, chars = grouprep.builtin_group("S3")
        reg = oracles.regular_representation(group)
        conj = conjugated(reg, random_unitary(rng, reg.dim))
        side_a, side_b = (grouprep.isotypic_clock(
            *grouprep.observable_from_class_function([1.0, 0.0, 0.0], r),
            oracles.isotypic_components(r, chars)) for r in (reg, conj))
        gaps = [abs(a["scalar"][0] - b["scalar"][0])
                for a in side_a[0]["entries"] for b in side_b[0]["entries"]]
        assert 0.0 < max(gaps) <= 1e-14
        report = containment(side_a, side_b, chars)
        assert report["all_matched"] and report["passed"]
        assert (report["kernel_dim"], report["diagonal_dim"]) == (36, 1 + 1 + 16)


def stacked_commutant_dimension(rho):
    """Oracle: d^2 minus the rank of the stacked system rho(g) (x) I - I (x) rho(g)^T.

    The cutoff is floored at 1e-10 absolute: for a conjugated trivial
    representation the system is zero up to roundoff, and a purely relative
    cutoff would count that roundoff as rank.
    """
    d = rho.dim
    rows = [oracles.kron_difference(rho[g], rho[g].T) for g in range(rho.group.order)]
    s = np.linalg.svd(np.vstack(rows), compute_uv=False)
    return d * d - int(np.count_nonzero(s > 1e-10 * max(s[0], 1.0)))


class TestCommutantDimension:
    def test_character_identity_matches_stacked_svd(self):
        rng = np.random.default_rng(11)
        for name in BUILTIN_NAMES:
            group, _ = grouprep.builtin_group(name)
            reg = oracles.regular_representation(group)
            triv = oracles.trivial_representation(group, 2)
            cases = [reg, triv, oracles.tensor_representation(reg, triv)]
            if group.order <= 4:
                cases.append(oracles.tensor_representation(reg, reg))
            cases += [conjugated(rho, random_unitary(rng, rho.dim)) for rho in list(cases)]
            for rho in cases:
                assert grouprep.commutant_dimension(rho) == stacked_commutant_dimension(rho), name

    def test_non_homomorphism_rejected(self, z2):
        group, _ = z2
        # unitary with rho(e) = I, but not a homomorphism: (1/2) sum |tr|^2 = 3 + cos(1)
        rho = grouprep.make_representation(group, [np.eye(2), np.diag([1.0, np.exp(1j)])])
        with pytest.raises(ValueError, match="commutant"):
            grouprep.commutant_dimension(rho)

    def test_matches_sum_of_squared_multiplicities(self, z2, s3, s3_multiplicity_free):
        cases = []
        group2, chars2 = z2
        cases.append((grouprep.representation_from_generators(group2, {"g1": SIGMA_X}), chars2))
        group3, chars3 = s3
        cases.append((oracles.regular_representation(group3), chars3))
        cases.append((s3_multiplicity_free, chars3))
        cases.append((oracles.trivial_representation(group2, 3), chars2))
        for rho, chars in cases:
            mult = grouprep.multiplicities(rho, chars)
            expected = sum(m * m for _, m in mult)
            assert grouprep.commutant_dimension(rho) == expected


class TestTensorRepresentation:
    def test_joint_residual_within_factor_bound(self):
        """||(A (x) B)^dag (A (x) B) - I|| <= dA + dB + dA dB, with factors near their limit."""
        eps = np.finfo(float).eps
        rng = np.random.default_rng(12)

        def near_limit(rho):
            d = rho.dim
            v = random_unitary(rng, d)
            mats = []
            for g in range(rho.group.order):
                h = clocks._random_hermitian(rng, d)
                c = 0.45 * opcore.UNITARY_TOL * d * rng.uniform(0.9, 1.0) / opcore.operator_norm(h)
                mats.append(v @ rho[g] @ v.conj().T @ (np.eye(d) + c * h))
            return grouprep.make_representation(rho.group, mats)

        for name in BUILTIN_NAMES:
            group, _ = grouprep.builtin_group(name)
            reg = oracles.regular_representation(group)
            for rho_a, rho_b in ((reg, reg), (reg, oracles.trivial_representation(group, 3))):
                for fa, fb in ((conjugated(rho_a, random_unitary(rng, rho_a.dim)),
                                conjugated(rho_b, random_unitary(rng, rho_b.dim))),
                               (near_limit(rho_a), near_limit(rho_b))):
                    joint = oracles.tensor_representation(fa, fb)
                    n = joint.dim
                    for g in range(group.order):
                        da = oracles.unitarity_residual(fa[g])
                        db = oracles.unitarity_residual(fb[g])
                        res = oracles.unitarity_residual(joint[g])
                        assert res <= da + db + da * db + 64 * n * eps, (name, g)
                        if min(fa.dim, fb.dim) >= 2 and (fa.dim, fb.dim) != (2, 2):
                            assert res <= opcore.UNITARY_TOL * n, (name, g)


def class_function_pairs(group, rng):
    """(f_A, f_B): equal, then f_B redrawn on a random set of classes closed under inverses."""
    inverse = group.class_index[group.inverse_table[[c[0] for c in group.conjugacy_classes]]]
    pairs = []
    for _ in range(3):
        f = real_class_function(group, rng)
        redraw = rng.random(f.size) < 0.4
        redraw |= redraw[inverse]
        pairs += [(f, f), (f, np.where(redraw, real_class_function(group, rng), f))]
    return pairs


class TestIsotypicClock:
    """The group kind's K is the sync core's K of the two isotypic clocks,
    checked against the dense oracles on every builtin group."""

    @pytest.mark.parametrize("name", ("Z1", "Z2", "Z3", "Z5", "Z8", "Z2xZ2", "S3", "D4"))
    def test_containment_and_kernel_match_dense_oracles(self, name):
        """Regular (multiplicity 2 for S3's std and D4's E) and generator-built
        representations with random class functions: on each diagonal block,
        ||K b|| from the dense K = T_A (x) I - I (x) T_B lies within
        max_deviation + 8 eps d (||T_A|| + ||T_B||) of |alpha - beta|, the
        second term covering the rounding of the dense products; the bundle's
        kernel is null_space of the dense clock K, and it holds every matched block."""
        eps = np.finfo(float).eps
        rng = np.random.default_rng(sum(map(ord, name)) + 13)
        group, chars = grouprep.builtin_group(name)
        multiplicities = set()
        for rho in (oracles.regular_representation(group), generator_built(group)):
            dec = oracles.isotypic_components(rho, chars)
            multiplicities.update(c.multiplicity for c in dec)
            comps = components(dec)
            for f_a, f_b in class_function_pairs(group, rng):
                (t_a, eq_a), (t_b, eq_b) = (grouprep.observable_from_class_function(f, rho)
                                            for f in (f_a, f_b))
                schur_a, clock_a = grouprep.isotypic_clock(t_a, eq_a, dec)
                schur_b, clock_b = grouprep.isotypic_clock(t_b, eq_b, dec)
                system = sync.make_system(clock_a, clock_b, np.zeros((rho.dim ** 2,) * 2))
                bundle = sync.sync_bundle(system)
                report = grouprep.verify_kernel_containment(schur_a, schur_b, chars, bundle)

                k = oracles.kron_difference(t_a, t_b)
                norms = opcore.operator_norm(t_a) + opcore.operator_norm(t_b)
                roundoff = 8 * eps * rho.dim * norms
                kernel = sync.kernel_basis(bundle)
                for entry in report["entries"]:
                    block = np.kron(comps[entry["irrep"]].basis, comps[entry["irrep"]].basis)
                    kb = np.linalg.norm(k @ block, axis=0)
                    assert np.max(np.abs(kb - abs(entry["alpha"] - entry["beta"]))) \
                        <= entry["max_deviation"] + roundoff, (name, entry["irrep"])
                    if entry["matched"]:
                        leak = block - kernel @ (kernel.conj().T @ block)
                        assert opcore.operator_norm(leak) <= 1e-10, (name, entry["irrep"])

                dense, _ = oracles.null_space(oracles.sync_operator(clock_a, clock_b))
                assert dense.shape[1] == kernel.shape[1] >= report["diagonal_dim"], name
                assert opcore.operator_norm(oracles.span_projector(dense)
                                            - oracles.span_projector(kernel)) <= 1e-10, name
        if name in ("S3", "D4"):
            assert 2 in multiplicities

    def test_labels_and_basis(self, s3):
        # S3 regular: labels triv, sign, then std's scalar on its 4 columns
        group, chars = s3
        reg = oracles.regular_representation(group)
        t, equivariance = grouprep.observable_from_class_function([0.4, -0.6, 0.9], reg)
        schur, clock = grouprep.isotypic_clock(t, equivariance,
                                               oracles.isotypic_components(reg, chars))
        alpha = [e["scalar"][0] for e in schur["entries"]]
        np.testing.assert_array_equal(clock.labels, [alpha[0], alpha[1]] + [alpha[2]] * 4)
        assert opcore.operator_norm(oracles.clock_matrix(clock) - t) <= 1e-12
