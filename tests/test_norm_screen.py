"""The library's one rule for gated comparisons, opcore.check, and its Frobenius
screen (opcore.screened_norm) against the exact rule it replaced.

Every comparison of a residual with a limit goes through opcore.check, and
every check that passes it a matrix must give the verdict and the error text
that the plain spectral norm gives. The exact rule is the screen with its
shortcut removed: opcore.screened_norm replaced by operator_norm.
The two can only disagree for a numerically rank-1 residual whose norm lies
within roundoff of the limit (there ||R||_F and the computed ||R||_2 round
differently), so the probes below build residuals with exactly known norms:
diagonal, where both norms are exact.
"""

import ast
import contextlib
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from syncsub import clocks, grouprep, opcore
from syncsub.opcore import NumericalError

SRC = Path(__file__).resolve().parent.parent / "src" / "syncsub"
ORACLES = Path(__file__).resolve().parent / "oracles.py"

RATIOS = st.floats(min_value=0.05, max_value=20.0)
RANKS = st.sampled_from(["one", "full"])
DIMS = st.integers(min_value=2, max_value=6)
SIGNS = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])


def diagonal_residual(n, c, rank):
    """Diagonal entries of a residual with spectral norm exactly c: one entry
    (rank 1, ||R||_F = ||R||_2) or n entries of modulus c (||R||_F = sqrt(n) c)."""
    values = SIGNS[:n] * c
    if rank == "one":
        values[1:] = 0.0
    return values


@contextlib.contextmanager
def patched(owner, name, value):
    saved = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, saved)


def outcome(run):
    try:
        return "ok", run()
    except (ValueError, NumericalError) as exc:
        return type(exc).__name__, str(exc)


def assert_same_as_exact_rule(run):
    """Verdict and error text of ``run`` with the screen and with the exact rule."""
    screened = outcome(run)
    with patched(opcore, "screened_norm", lambda r, limit: opcore.operator_norm(r)):
        exact = outcome(run)
    assert screened == exact
    return screened


# ---------------------------------------------------------------------------
# the helper itself

def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@settings(max_examples=200, deadline=None)
@given(n=DIMS, rank=RANKS, ratio=RATIOS, seed=st.integers(0, 2**32 - 1))
@example(n=4, rank="one", ratio=1.0, seed=0)       # rank 1 at the limit
@example(n=4, rank="full", ratio=0.9, seed=0)      # ||R|| <= limit < ||R||_F
@example(n=4, rank="full", ratio=10.0, seed=0)     # clear failure
def test_screened_norm_decides_like_the_spectral_norm(n, rank, ratio, seed):
    limit = 1e-10
    values = diagonal_residual(n, ratio * limit, rank)
    r = np.diag(values.astype(np.complex128))
    exact = opcore.operator_norm(r)
    got = opcore.screened_norm(r, limit)
    assert (got > limit) == (exact > limit)
    if got > limit or np.linalg.norm(r) > limit:
        assert got == exact                    # failures and fallbacks report ||R||_2
    # the same residual in a random basis, away from the limit by more than roundoff
    if abs(ratio - 1.0) > 1e-9:
        u = random_unitary(np.random.default_rng(seed), n)
        rotated = u @ r @ u.conj().T
        got = opcore.screened_norm(rotated, limit)
        assert (got > limit) == (ratio > 1.0)
        if got > limit:
            assert got == opcore.operator_norm(rotated)


def test_screened_norm_takes_no_svd_below_the_limit(monkeypatch):
    calls = []
    monkeypatch.setattr(opcore, "operator_norm", lambda a: calls.append(a) or 0.0)
    assert opcore.screened_norm(np.diag([1e-13, -1e-13]), 1e-12) == pytest.approx(np.sqrt(2) * 1e-13)
    assert calls == []
    opcore.screened_norm(np.diag([1e-12, -1e-12]), 1e-12)   # ||R||_F above the limit
    assert len(calls) == 1


def test_rule_screens_against_the_limit_it_checks(monkeypatch):
    """opcore.check settles a matrix residual whose Frobenius norm is within tol
    with no SVD and without calling its lazy scale, and opcore.spectrum screens
    against its full limit RECON_TOL * max|lambda|, not RECON_TOL."""
    calls = []
    monkeypatch.setattr(opcore, "operator_norm", lambda a: calls.append(a) or 0.0)
    r, ok = opcore.check(np.diag([1e-13, -1e-13]), 1e-12, lambda: calls.append("scale"))
    assert (r, ok) == (pytest.approx(np.sqrt(2) * 1e-13), True)
    # eigh reads only the real part of the diagonal, so the imaginary 1e-9 is the
    # reconstruction error: above RECON_TOL, within RECON_TOL * 1e6
    opcore.spectrum(np.diag([1e6, 0.5]) + 1e-9j * np.diag([1.0, 0.0]))
    assert calls == []


def test_rule_rejects_a_scale_that_is_not_finite():
    """A limit tol * inf would pass any residual; one within tol needs no scale."""
    with pytest.raises(NumericalError, match="tolerance scale is not finite"):
        opcore.check(1.0, 1e-10, lambda: float("inf"))
    assert opcore.check(1e-11, 1e-10, lambda: float("inf")) == (1e-11, True)


# ---------------------------------------------------------------------------
# every screened site of the library, and the oracles' own, against the exact rule

def probe_require_hermitian(n, c_ratio, rank):
    def run():
        for scale in (0.5, 4.0):       # the limit is HERM_TOL * max(1, ||M||)
            b = np.diag(np.linspace(-scale, scale, n))
            limit = opcore.HERM_TOL * max(1.0, scale)
            s = diagonal_residual(n, c_ratio * limit, rank)
            opcore.require_hermitian(b + 0.5j * np.diag(s))     # M - M^dag = i diag(s)
        return True
    return run


def probe_spectrum(n, c_ratio, rank):
    # eigh reads one triangle and only the real part of the diagonal, so an
    # imaginary diagonal part of M is exactly its reconstruction error
    b = np.diag(np.linspace(-0.5, 0.5, n))
    s = diagonal_residual(n, c_ratio * opcore.RECON_TOL, rank)
    return lambda: opcore.spectrum(b + 1j * np.diag(s))[0].shape


def probe_require_unitary(n, c_ratio, rank):
    e = diagonal_residual(n, c_ratio * opcore.UNITARY_TOL * n, rank)
    return lambda: opcore.require_unitary(np.diag(np.sqrt(1.0 + e))).shape


def probe_evolve(n, c_ratio, rank):
    # eigenvectors scaled by d give U^dag U - I = diag(|d|^4 - 1)
    e = diagonal_residual(n, c_ratio * opcore.UNITARY_TOL * n, rank)
    spec = (np.linspace(-1.0, 1.0, n), np.diag((1.0 + e) ** 0.25).astype(np.complex128))

    def run():
        with patched(oracles, "hermitian_eig", lambda h: spec):
            return oracles.evolve(np.eye(n), 0.7).shape
    return run


def probe_make_representation_identity(n, c_ratio, rank):
    # rho(e) = I + i diag(e) is unitary to O(e^2), far inside its own check
    group, _ = grouprep.builtin_group("Z2")
    e = diagonal_residual(n, c_ratio * 1e-12 * n, rank)
    mats = np.stack([np.eye(n) + 1j * np.diag(e), np.eye(n)])
    return lambda: grouprep.make_representation(group, mats).dim


def probe_make_representation_unitarity(n, c_ratio, rank):
    group, _ = grouprep.builtin_group("Z2")
    e = diagonal_residual(n, c_ratio * opcore.UNITARY_TOL * n, rank)
    mats = np.stack([np.eye(n), -np.diag(np.sqrt(1.0 + e))]).astype(np.complex128)
    return lambda: grouprep.make_representation(group, mats).dim


def idempotence_input(n, c_ratio, rank):
    # rho(g1) = -I + diag(delta): the trivial projector is diag(delta / 2), so
    # P^2 - P = diag(delta^2 / 4 - delta / 2); the alternating signs of delta
    # keep the multiplicities integral
    group, chars = grouprep.builtin_group("Z2")
    delta = diagonal_residual(n, 2.0 * c_ratio * grouprep._IDEMPOTENT_TOL, rank)
    rho = grouprep.Representation(group, np.stack([np.eye(n), -np.eye(n) + np.diag(delta)])
                                  .astype(np.complex128))
    return rho, chars


def probe_isotypic_idempotence(n, c_ratio, rank):
    rho, chars = idempotence_input(n, c_ratio, rank)
    return lambda: len(oracles.isotypic_components(rho, chars))


def probe_reference_isotypic_idempotence(n, c_ratio, rank):
    # the per-irrep reference of isotypic_projectors on the same input
    rho, chars = idempotence_input(n, c_ratio, rank)
    return lambda: len(oracles.isotypic_projectors(rho, chars, oracles.multiplicities(rho, chars)))


def probe_diagonal_isotypic_leakage(n, c_ratio, rank):
    # rho(g2) of the Z3 regular representation moved off rho(g1)^2 by diag(c),
    # which leaks the diagonal subspace out of itself: the leakage of J(g2) is
    # 1.6 c (||R||_F 1.9 c) for c on the full diagonal, half that for rank one
    group, chars = grouprep.builtin_group("Z3")
    mats = oracles.regular_representation(group).matrices.copy()
    mats[2] = mats[2] + np.diag(diagonal_residual(3, c_ratio * 1e-10 / 1.6, rank))
    rho = grouprep.Representation(group, mats)
    return lambda: oracles.diagonal_isotypic_subspace(rho, rho, chars).shape


def probe_class_function_hermiticity(n, c_ratio, rank):
    # T = 0.3 I + 0.5 rho(g1) with rho(g1) = diag(+-1) + 2i diag(s): T - T^dag = 2i diag(s)
    group, _ = grouprep.builtin_group("Z2")
    s = diagonal_residual(n, 0.5 * c_ratio * 1e-10, rank)
    g1 = np.diag(SIGNS[:n] + 2j * s)
    rho = grouprep.Representation(group, np.stack([np.eye(n), g1]).astype(np.complex128))
    return lambda: grouprep.observable_from_class_function([0.3, 0.5], rho)[0].shape


def probe_classify_off_diagonal(n, c_ratio, rank):
    # labels in pairs, H couples the members of one pair (rank two, equal
    # singular values) or of every pair by c; [H, T] = 0 either way
    pairs = max(1, n // 2)
    labels = np.repeat(np.arange(pairs, dtype=float), 2)
    h = np.diag(np.linspace(-0.5, 0.5, 2 * pairs))
    c = c_ratio * clocks.COMPAT_TOL
    for p in range(1 if rank == "one" else pairs):
        h[2 * p, 2 * p + 1] = h[2 * p + 1, 2 * p] = c
    return lambda: clocks.classify_compatibility(h, clocks.make_clock(labels))["class"]


# each library probe with the site it covers, as module.function
LIBRARY_PROBES = {
    probe_require_hermitian: "opcore.require_hermitian",
    probe_spectrum: "opcore.spectrum",
    probe_require_unitary: "opcore.require_unitary",
    probe_make_representation_identity: "grouprep.make_representation",
    probe_make_representation_unitarity: "grouprep.make_representation",
    probe_isotypic_idempotence: "grouprep.isotypic_projectors",
    probe_class_function_hermiticity: "grouprep.observable_from_class_function",
    probe_classify_off_diagonal: "clocks.classify_compatibility",
}
# the oracles' own screened checks, which the tests rely on as they do on the library's
ORACLE_PROBES = {
    probe_evolve: "oracles.evolve",
    probe_diagonal_isotypic_leakage: "oracles.diagonal_isotypic_subspace",
    probe_reference_isotypic_idempotence: "oracles.isotypic_projectors",
}


def _probe_id(probe):
    return probe.__name__[len("probe_"):]


def source_sites(match, paths=None) -> list:
    """(``module.function``, node) for every AST node in ``paths`` (the modules of
    src/syncsub by default) that ``match`` accepts, named by its enclosing
    function (and class)."""
    sites = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, module, scope + [child.name])
                continue
            if match(child):
                sites.append((".".join([module] + scope), child))
            visit(child, module, scope)

    for path in paths or sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, [])
    return sites


def call_sites(*names, where=lambda call: True, paths=None) -> list:
    """``module.function`` of every call in ``paths`` (src/syncsub by default) to
    one of ``names`` that ``where`` accepts, once per call. A name matches the
    tail of the called expression: "subtract.outer" matches np.subtract.outer."""
    def match(node):
        called = "." + ast.unparse(node.func) if isinstance(node, ast.Call) else ""
        return any(called.endswith("." + name) for name in names) and where(node)
    return [site for site, _ in source_sites(match, paths)]


def passes_a_matrix(call) -> bool:
    """A call of the rule screens a matrix when its residual is formed in the
    call, as an arithmetic expression of arrays; a number residual is passed as
    a name or the result of a call."""
    return bool(call.args) and isinstance(call.args[0], ast.BinOp)


def test_every_screened_site_has_one_library_probe():
    """Adding or removing a screened check in the library without its probe fails here."""
    assert Counter(call_sites("check", where=passes_a_matrix)) == Counter(LIBRARY_PROBES.values())


def test_every_screened_oracle_site_has_one_probe():
    """The same for the screened checks of tests/oracles.py."""
    assert (Counter(call_sites("check", where=passes_a_matrix, paths=[ORACLES]))
            == Counter(ORACLE_PROBES.values()))


RULE = {"opcore.check", "opcore.screened_norm"}   # the rule and its screen
LIMIT_SUFFIXES = ("_TOL", "_tol", "_slack")


def holds_a_limit(operand) -> bool:
    """Whether a comparison operand holds a limit: a name or attribute ending in
    _TOL, _tol or _slack, the name ``limit``, a ``tol[...]`` subscript, or a
    positive float literal below 1e-6."""
    for node in ast.walk(operand):
        if isinstance(node, ast.Name) and (node.id.endswith(LIMIT_SUFFIXES) or node.id == "limit"):
            return True
        if isinstance(node, ast.Attribute) and node.attr.endswith(LIMIT_SUFFIXES):
            return True
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id == "tol"):
            return True
        if isinstance(node, ast.Constant) and type(node.value) is float and 0 < node.value < 1e-6:
            return True
    return False


def test_every_limit_comparison_goes_through_the_rule():
    """Outside opcore.check, no <, <=, > or >= in src/syncsub compares with a limit."""
    def match(node):
        return (isinstance(node, ast.Compare)
                and any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops)
                and any(map(holds_a_limit, [node.left, *node.comparators])))
    found = [(site, ast.unparse(node)) for site, node in source_sites(match)]
    assert [item for item in found if item[0] not in RULE] == []
    assert ("opcore.screened_norm", "fro <= limit") in found   # the scan reads comparisons


@pytest.mark.parametrize("probe", list(LIBRARY_PROBES), ids=_probe_id)
@settings(max_examples=40, deadline=None)
@given(n=DIMS, rank=RANKS, ratio=RATIOS)
@example(n=4, rank="one", ratio=1.0)
@example(n=4, rank="full", ratio=0.9)
@example(n=4, rank="full", ratio=10.0)
def test_site_matches_exact_rule(probe, n, rank, ratio):
    assert_same_as_exact_rule(probe(n, ratio, rank))


@pytest.mark.parametrize("probe", list(ORACLE_PROBES), ids=_probe_id)
@settings(max_examples=40, deadline=None)
@given(n=DIMS, rank=RANKS, ratio=RATIOS)
@example(n=4, rank="one", ratio=1.0)
@example(n=4, rank="full", ratio=0.9)
@example(n=4, rank="full", ratio=10.0)
def test_oracle_site_matches_exact_rule(probe, n, rank, ratio):
    assert_same_as_exact_rule(probe(n, ratio, rank))


@pytest.mark.parametrize("probe", list(LIBRARY_PROBES) + list(ORACLE_PROBES), ids=_probe_id)
def test_site_passes_in_the_gap_and_fails_clearly(probe):
    """The fallback passes ||R|| <= limit < ||R||_F; a clear failure still raises."""
    passed = assert_same_as_exact_rule(probe(4, 0.9, "full"))
    assert passed[0] == "ok"
    assert assert_same_as_exact_rule(probe(4, 50.0, "full")) != passed
