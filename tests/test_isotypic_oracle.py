"""The group layer's stacked passes against their one-at-a-time references.

grouprep.multiplicities, isotypic_projectors and isotypic_clock treat every
irrep in one stacked operation; tests/oracles.py keeps the per-irrep loops
they replaced. Each stacked operation does per irrep what the loop did, so
the two must agree bit for bit (``tobytes``, which also tells -0.0 from 0.0),
and every error path must raise the same message on the same input. The
Latin-square, identity, inverse and unitarity searches of make_group and
make_representation are checked against the messages the per-element loops
gave, first offender included.
"""

import numpy as np
import pytest

import oracles
from syncsub import grouprep, literals
from syncsub.opcore import NumericalError


def rotated(rho, seed):
    """rho in the basis of a random real orthogonal Q: no permutation matrices,
    so every projector entry is a rounded sum over the group."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(rho.dim, rho.dim)))
    return grouprep.make_representation(rho.group, q @ rho.matrices @ q.T)


def relabeled(name, seed):
    """A builtin group and its characters read back from a mult_table literal
    with the elements in a random order."""
    group, chars = grouprep.builtin_group(name)
    perm = np.random.default_rng(seed).permutation(group.order)    # new index -> old
    old_to_new = np.argsort(perm)
    table = old_to_new[group.mult_table[np.ix_(perm, perm)]]
    lit = {"elements": [group.elements[i] for i in perm], "mult_table": table.tolist(),
           "classes": [sorted(old_to_new[list(c)].tolist()) for c in group.conjugacy_classes],
           "name": f"{name}-relabeled"}
    new_group, _ = literals.group_from_literal(lit)
    rows = {"irreps": [{"name": ir.name, "dim": ir.dim,
                        "chars": [[c.real, c.imag] for c in ir.characters.tolist()]}
                       for ir in chars]}
    return new_group, literals.character_table_from_literal(new_group, rows)


def s3_std_times_i2(with_trivial):
    """S3's 2-dim irrep tensored with I_2 (one component of width 4), optionally
    summed with the trivial irrep (widths 1 and 4)."""
    group, chars = grouprep.builtin_group("S3")
    r = np.array([[np.cos(2 * np.pi / 3), -np.sin(2 * np.pi / 3)],
                  [np.sin(2 * np.pi / 3), np.cos(2 * np.pi / 3)]])
    std = grouprep.representation_from_generators(group, {"r": r, "s": np.diag([1.0, -1.0])})
    mats = np.kron(std.matrices, np.eye(2))
    if with_trivial:
        mats = np.stack([np.block([[np.eye(1), np.zeros((1, 4))], [np.zeros((4, 1)), m]])
                         for m in mats])
    return grouprep.make_representation(group, mats), chars


def case(name):
    if name.startswith("reg-"):
        group, chars = grouprep.builtin_group(name[4:])
        return oracles.regular_representation(group), chars
    if name == "Z16-rotated":
        group, chars = grouprep.builtin_group("Z16")
        return rotated(oracles.regular_representation(group), 16), chars
    if name == "S3-std-x-I2":
        return s3_std_times_i2(with_trivial=False)
    if name == "S3-triv+std-x-I2-rotated":
        rho, chars = s3_std_times_i2(with_trivial=True)
        return rotated(rho, 3), chars
    group, chars = relabeled("D4", 4)
    rho = oracles.regular_representation(group)
    return (rotated(rho, 8) if name.endswith("rotated") else rho), chars


CASES = ["reg-Z2", "reg-Z3", "reg-Z16", "reg-Z2xZ2", "reg-S3", "reg-D4", "S3-std-x-I2",
         "S3-triv+std-x-I2-rotated", "Z16-rotated", "D4-literal", "D4-literal-rotated"]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", CASES)
def test_stacked_group_layer_equals_reference_bit_for_bit(name):
    rho, chars = case(name)
    mults = grouprep.multiplicities(rho, chars)
    assert mults == oracles.multiplicities(rho, chars)
    comps = grouprep.isotypic_projectors(rho, chars, mults)
    ref = oracles.isotypic_projectors(rho, chars, mults)
    assert [(c.irrep, c.irrep_dim, c.multiplicity) for c in comps] == \
           [(c.irrep, c.irrep_dim, c.multiplicity) for c in ref]
    for c, r in zip(comps, ref):
        assert same_bits(c.projector, r.projector), c.irrep
        assert same_bits(c.basis, r.basis), c.irrep
    # a central observable (residuals at roundoff) and one that is only
    # equivariant (residuals of order 1 on multiplicity > 1 components)
    classes = len(rho.group.conjugacy_classes)
    values = np.cos(np.arange(classes))
    inverse = rho.group.class_index[rho.group.inverse_table[
        [c[0] for c in rho.group.conjugacy_classes]]]
    central, eq = grouprep.observable_from_class_function((values + values[inverse]) / 2, rho)
    for t, equivariance in ((central, eq), (oracles.random_equivariant_observable(rho, 7), 0.0)):
        schur, clock = grouprep.isotypic_clock(t, equivariance, comps)
        ref_schur, ref_clock = oracles.isotypic_clock(t, equivariance, ref)
        assert repr(schur) == repr(ref_schur)
        assert same_bits(clock.labels, ref_clock.labels)
        assert same_bits(clock.basis, ref_clock.basis)


@pytest.mark.parametrize("name, widths", [("S3-std-x-I2", {4}), ("reg-S3", {1, 4}),
                                          ("S3-triv+std-x-I2-rotated", {1, 4})])
def test_cases_cover_one_and_mixed_basis_widths(name, widths):
    """isotypic_clock stacks the residuals of equal basis width: these cases
    give it one width, and two widths in one call."""
    rho, chars = case(name)
    comps = grouprep.isotypic_projectors(rho, chars, grouprep.multiplicities(rho, chars))
    assert {c.isotypic_dim for c in comps if c.multiplicity} == widths


def outcome(fn, *args):
    try:
        fn(*args)
    except (ValueError, NumericalError) as exc:
        return type(exc).__name__, str(exc)
    return "ok", None


def z2_idempotence_failure():
    # rho(g1) = -I + diag(0.5, ...): the trivial projector diag(0.25, ...) is not idempotent
    group, chars = grouprep.builtin_group("Z2")
    g1 = -np.eye(3) + np.diag([0.5, -0.5, 0.5])
    return grouprep.Representation(group, np.stack([np.eye(3), g1]) + 0j), chars


@pytest.mark.parametrize("trigger", ["idempotence", "rank", "multiplicity", "dimension",
                                     "character-count"])
def test_stacked_errors_equal_reference(trigger):
    """Each error path raises the reference's message on its trigger input."""
    if trigger == "idempotence":
        rho, chars = z2_idempotence_failure()
        mults = [(ir.name, 1) for ir in chars]
        calls = [(grouprep.isotypic_projectors, oracles.isotypic_projectors, (rho, chars, mults))]
        expect = "fails idempotence"
    elif trigger == "rank":
        # Z3's regular representation holds each irrep once; claiming chi0 twice
        # and chi1 not at all fails chi0's rank first, as the loop did
        group, chars = grouprep.builtin_group("Z3")
        rho = oracles.regular_representation(group)
        mults = [("chi0", 2), ("chi1", 0), ("chi2", 1)]
        calls = [(grouprep.isotypic_projectors, oracles.isotypic_projectors, (rho, chars, mults))]
        expect = "has rank 1, expected 2"
    elif trigger == "multiplicity":
        # rho(g1) = diag(1, i) is no representation of Z2: (2 + 1 + i) / 2 for chi0
        group, chars = grouprep.builtin_group("Z2")
        rho = grouprep.Representation(group, np.stack([np.eye(2), np.diag([1.0, 1j])]) + 0j)
        calls = [(grouprep.multiplicities, oracles.multiplicities, (rho, chars))]
        expect = "multiplicity of 'chi0' is 1.5+0.5j"
    elif trigger == "dimension":
        group, chars = grouprep.builtin_group("S3")
        rho = oracles.regular_representation(group)
        calls = [(grouprep.multiplicities, oracles.multiplicities, (rho, chars[:2]))]
        expect = "account for dim 2, expected 6"
    else:
        group, _ = grouprep.builtin_group("Z4")
        _, chars = grouprep.builtin_group("Z3")
        rho = oracles.regular_representation(group)
        mults = [(ir.name, 1) for ir in chars]
        calls = [(grouprep.multiplicities, oracles.multiplicities, (rho, chars)),
                 (grouprep.isotypic_projectors, oracles.isotypic_projectors, (rho, chars, mults))]
        expect = "carries 3 character values but the group has 4"
    for stacked, reference, args in calls:
        got = outcome(stacked, *args)
        assert got == outcome(reference, *args)
        assert got[0] != "ok" and expect in got[1]


LOOP_WITHOUT_INVERSES = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1],
                         [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]]


def broken_latin():
    """Z4's table with one entry of row 3 duplicated: row 3 and column 1 break,
    and the first offender is index 1, from the column."""
    t = (np.arange(4)[:, None] + np.arange(4)) % 4
    t[3, 1] = t[3, 2]
    return t


@pytest.mark.parametrize("table, message", [
    (broken_latin(), "multiplication table is not a Latin square at row/col 1"),
    ((np.arange(3)[:, None] - np.arange(3)) % 3, "group must have exactly one identity element"),
    ([[0, 0], [1, 1]], "multiplication table is not a Latin square at row/col 0"),
    (LOOP_WITHOUT_INVERSES, "element 'g2' lacks a two-sided inverse"),
], ids=["latin-column-first", "no-identity", "latin-row-0", "inverse-first-offender"])
def test_group_table_errors_name_the_first_offender(table, message):
    """The messages the per-element loops gave: g2, g3 and g4 of the loop all
    lack a two-sided inverse, and g2 is named."""
    n = len(table)
    with pytest.raises(ValueError) as err:
        grouprep.make_group([f"g{i}" for i in range(n)], table)
    assert str(err.value) == message


def test_non_unitary_element_names_the_first_offender():
    """g2 and g3 of Z4 are not unitary: g2 is named, with the spectral norm of
    rho(g2)^dag rho(g2) - I."""
    group, _ = grouprep.builtin_group("Z4")
    mats = np.stack([np.eye(2), np.eye(2), np.diag([1.0, 0.999]), np.diag([1.01, 1.0])]) + 0j
    with pytest.raises(ValueError) as err:
        grouprep.make_representation(group, mats)
    assert str(err.value) == (f"matrix for element 'g2' is not unitary "
                              f"(residual {oracles.unitarity_residual(mats[2]):.3e})")
