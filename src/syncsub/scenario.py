"""Scenario files, experiment dispatch, and deterministic report emission.

A scenario is a UTF-8 JSON file declaring one experiment kind (compat,
drift, fidelity, kernel, group) plus the operators it needs, written with
the literal formats from ``literals``. Reports carry every number at 17
significant digits and rerunning a scenario reproduces the bytes exactly;
seeded sampling flows through the counter-based Philox generator named in
the report.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_string   # json.dumps(str)'s quoting
from pathlib import Path

import numpy as np

from . import __version__, clocks, grouprep, opcore, sync
from .clocks import ClockObservable, _philox, _random_hermitian
from .literals import (
    SEED_LIMIT,
    ScenarioError,
    _expect_mapping,
    _fail,
    _integer,
    _number,
    _only,
    _pairs,
    _real_list,
    character_table_from_literal,
    clock_from_literal,
    group_from_literal,
    matrix_from_literal,
    representation_from_literal,
)

COMMON_FIELDS = ("name", "kind", "seed", "tolerances", "out", "format")
_SERIES_FIELDS = ("clock_a", "clock_b", "hamiltonian", "times", "initial_state")
KIND_FIELDS = {   # the top-level keys each kind reads besides COMMON_FIELDS
    "compat": ("clock", "hamiltonians"),
    "drift": _SERIES_FIELDS,
    "fidelity": _SERIES_FIELDS,
    "kernel": ("clock_a", "clock_b", "hamiltonian"),
    "group": ("group", "characters", "rep", "rep_a", "rep_b", "class_function_a",
              "class_function_b", "hamiltonian"),
}
KINDS = tuple(KIND_FIELDS)
SERIES_KINDS = ("drift", "fidelity")
GENERATOR_NAME = "philox"

DEFAULT_TOLERANCES = {
    "kernel_tol": opcore.KERNEL_TOL,
    "compat_tol": clocks.COMPAT_TOL,
    "bound_slack": sync.BOUND_SLACK,
    "init_tol": sync.INIT_TOL,
    "equivar_tol": grouprep.EQUIVAR_TOL,
    "schur_tol": grouprep.SCHUR_TOL,
}


# ---------------------------------------------------------------------------
# scenario model

@dataclass(eq=False)
class Scenario:
    """A parsed scenario with every operator built: a Hamiltonian is held in
    the form it was given, an n x n matrix or the unchecked local pair
    (H_A, H_B), and is None where the file gives none."""
    name: str
    kind: str
    digest: str
    seed: int | None = None
    seed_override: int | None = None
    tolerances: dict = field(default_factory=dict)   # defaults, then the file's, then --tol
    out: str | None = None
    format: str | None = None
    # compat
    clock: ClockObservable | None = None
    hamiltonians: list | None = None   # of (name, H)
    # kernel / drift / fidelity
    clock_a: ClockObservable | None = None
    clock_b: ClockObservable | None = None
    hamiltonian: np.ndarray | tuple | None = None
    times: list | None = None
    initial_state: dict | None = None
    seeds: dict | None = None          # series kinds: the seeds used, as reported
    # group
    group: grouprep.FiniteGroup | None = None
    characters: tuple | None = None   # of grouprep.Irrep
    rep_a: grouprep.Representation | None = None
    rep_b: grouprep.Representation | None = None
    class_function_a: list | None = None
    class_function_b: list | None = None


def _read_hamiltonian(obj, path: str, dims: tuple, s: Scenario):
    """H on the scenario's space from the literal at field path ``path``, in the
    form it was given, plus the perturbation seed used (None without a random
    direction).

    ``dims`` is (d_A, d_B) for a product space or (d,) for a compat scenario's
    clock. Local terms come back as the pair (H_A, H_B), unchecked like a
    top-level matrix literal, because each caller checks H once (make_system,
    or _as_matrix and classify_compatibility); a perturbation's base and
    direction are checked here. A random direction draws with ``--seed``, else
    the perturbation's own seed, else the scenario's seed, else 0.
    """
    obj = _expect_mapping(obj, path)
    product = len(dims) == 2
    dim_a, dim_b = dims if product else (dims[0], 1)
    dim = dim_a * dim_b
    space = "product space" if product else "clock space"
    if "local" in obj:
        _only(obj, path, ("local",), "a local Hamiltonian")
        local = _expect_mapping(obj["local"], f"{path}.local")
        for key in ("a", "b"):
            if key not in local:
                _fail(f"{path}.local", f'missing local term "{key}"')
        _only(local, f"{path}.local", ("a", "b"), "local terms")
        h_a = matrix_from_literal(local["a"], f"{path}.local.a")
        h_b = matrix_from_literal(local["b"], f"{path}.local.b")
        if h_a.shape[0] != dim_a or h_b.shape[0] != dim_b:
            _fail(f"{path}.local", "local term dimensions do not match clocks")
        return (h_a, h_b), None
    if "base" in obj:
        _only(obj, path, ("base", "direction", "strength", "seed"), "a perturbation")
        strength = _number(obj.get("strength"), f"{path}.strength")
        if strength < 0:
            _fail(f"{path}.strength", f"strength must be >= 0, got {strength}")
        direction = obj.get("direction", "random")
        direction = (None if direction == "random"
                     else matrix_from_literal(direction, f"{path}.direction"))
        seed = obj.get("seed")
        seed = None if seed is None else _integer(seed, f"{path}.seed", high=SEED_LIMIT)
        base, _ = _read_hamiltonian(obj["base"], f"{path}.base", dims, s)
        # local terms are checked as factors, a matrix literal here; a nested
        # perturbation's sum is not checked
        base = (_as_matrix(base) if isinstance(base, tuple) or "base" in obj["base"]
                else opcore.require_hermitian(base))
        if direction is not None:
            direction = opcore.require_hermitian(direction)
            if direction.shape[0] != dim:
                _fail(f"{path}.direction", f"dimension {direction.shape[0]} does not match {space}")
            seed_used = None
        else:
            seed_used = s.seed_override
            if seed_used is None:
                seed_used = seed if seed is not None else (s.seed or 0)
            direction = _random_hermitian(_philox(seed_used), dim)
            direction = direction / opcore.hermitian_norm(direction)
        return base + strength * direction, seed_used
    if "diag" in obj or "entries" in obj:
        h = matrix_from_literal(obj, path)
        if h.shape[0] != dim:
            size = f"{dim_a}x{dim_b}" if product else f"{dim}-dim"
            _fail(path, f"dimension {h.shape[0]} does not match {size} {space}")
        return h, None
    _fail(path, 'Hamiltonian spec needs a matrix literal, "local", or a perturbation "base"')


def _as_matrix(h) -> np.ndarray:
    """H as a matrix: a local pair's terms are checked and summed, and the sum is not checked."""
    return opcore.kron_sum(*map(opcore.require_hermitian, h)) if isinstance(h, tuple) else h


def _parse_tolerances(obj, path: str) -> dict:
    obj = _expect_mapping(obj, path)
    out = {}
    for name, value in obj.items():
        if name not in DEFAULT_TOLERANCES:
            _fail(f"{path}.{name}", f"unknown tolerance (known: {sorted(DEFAULT_TOLERANCES)})")
        out[name] = _number(value, f"{path}.{name}", message="tolerance must be a finite number")
        if out[name] < 0:
            _fail(f"{path}.{name}", f"tolerance must be >= 0, got {out[name]!r}")
        if out[name] == 0 and name == "kernel_tol":   # the cutoff scales with it
            _fail(f"{path}.{name}", f"kernel tolerance must be positive, got {out[name]!r}")
    return out


def _parse_initial_state(obj, path: str) -> dict:
    obj = _expect_mapping(obj, path)
    if "kernel_seed" in obj:
        _only(obj, path, ("kernel_seed",), "a kernel_seed initial state")
        seed = _integer(obj["kernel_seed"], f"{path}.kernel_seed", high=SEED_LIMIT)
        return {"kernel_seed": seed}
    if "vector" in obj:
        _only(obj, path, ("vector",), "a vector initial state")
        return {"vector": _pairs(obj["vector"], f"{path}.vector")}
    _fail(path, 'initial state needs "kernel_seed" or "vector"')


def parse_scenario(path, seed_override: int | None = None,
                   tol_overrides: dict | None = None, kinds: tuple | None = None) -> Scenario:
    """Load and validate one scenario file and build its operators.

    ``seed_override`` replaces every seed the scenario samples with and is
    checked as the scenario's own seeds are, under the field name ``--seed``;
    ``tol_overrides`` maps tolerance names to values, checked as the file's
    ``tolerances`` are, under ``tol``; ``kinds``, when given, are the kinds a
    CLI subcommand handles. The first failed check raises, in this order: the
    file is read and decoded; ``name``, ``kind``, that ``kinds`` holds it, and
    the top-level keys; the file's ``seed``, ``tolerances``, ``out`` and
    ``format``; then ``--seed`` and ``--tol``; then the kind's fields in the
    order the kind reads them (a series kind: ``clock_a``, ``clock_b``,
    ``hamiltonian``, ``times``, ``initial_state``). Each Hamiltonian is built,
    and checked against its space, where its literal is read.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ScenarioError("", f"cannot read scenario file {path}: {exc}") from exc
    digest = "sha256:" + hashlib.sha256(raw).hexdigest()
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ScenarioError("", f"scenario file {path} is not valid JSON: {exc}") from exc
    obj = _expect_mapping(obj, "scenario")

    name = obj.get("name")
    if not isinstance(name, str) or not name:
        _fail("name", "scenario needs a nonempty string name")
    kind = obj.get("kind")
    if kind not in KINDS:
        _fail("kind", f"unknown kind {kind!r} (known: {', '.join(KINDS)})")
    if kinds is not None and kind not in kinds:
        _fail("kind", f"scenario {name!r} has kind {kind!r}; this subcommand handles "
                      f"{', '.join(kinds)}")
    for key in obj:
        if key not in COMMON_FIELDS and key not in KIND_FIELDS[kind]:
            _fail(key, f"unknown field for kind {kind}")

    s = Scenario(name=name, kind=kind, digest=digest)
    if obj.get("seed") is not None:
        s.seed = _integer(obj["seed"], "seed", high=SEED_LIMIT)
    if "tolerances" in obj:
        s.tolerances = _parse_tolerances(obj["tolerances"], "tolerances")
    out = obj.get("out")
    if out is not None and not isinstance(out, str):
        _fail("out", "output path must be a string")
    s.out = out
    fmt = obj.get("format")
    if fmt is not None and fmt not in ("csv", "json", "text"):
        _fail("format", f"unknown format {fmt!r}")
    s.format = fmt
    if seed_override is not None:
        s.seed_override = _integer(seed_override, "--seed", high=SEED_LIMIT)
    s.tolerances = {**DEFAULT_TOLERANCES, **s.tolerances,
                    **_parse_tolerances(tol_overrides or {}, "tol")}

    if kind == "compat":
        if "clock" not in obj:
            _fail("clock", "compat scenario needs a clock")
        s.clock = clock_from_literal(obj["clock"], "clock")
        hams = obj.get("hamiltonians")
        if not isinstance(hams, list) or not hams:
            _fail("hamiltonians", "compat scenario needs a nonempty hamiltonians list")
        s.hamiltonians = []
        for i, item in enumerate(hams):
            item = _expect_mapping(item, f"hamiltonians[{i}]")
            h_name = item.get("name", f"H{i}")
            spec = {k: v for k, v in item.items() if k != "name"}
            h, _ = _read_hamiltonian(spec, f"hamiltonians[{i}]", (s.clock.dim,), s)
            s.hamiltonians.append((str(h_name), h))
    elif kind in ("kernel",) + SERIES_KINDS:
        for key in ("clock_a", "clock_b"):
            if key not in obj:
                _fail(key, f"{kind} scenario needs {key}")
        s.clock_a = clock_from_literal(obj["clock_a"], "clock_a")
        s.clock_b = clock_from_literal(obj["clock_b"], "clock_b")
        pert_seed = None
        if "hamiltonian" in obj:
            s.hamiltonian, pert_seed = _read_hamiltonian(
                obj["hamiltonian"], "hamiltonian", (s.clock_a.dim, s.clock_b.dim), s)
        elif kind != "kernel":
            _fail("hamiltonian", f"{kind} scenario needs a hamiltonian")
        if kind != "kernel":
            if "times" not in obj:
                _fail("times", f"{kind} scenario needs times")
            s.times = _real_list(obj["times"], "times")
            s.initial_state = (_parse_initial_state(obj["initial_state"], "initial_state")
                               if "initial_state" in obj else {"kernel_seed": s.seed or 0})
            state_seed = s.initial_state.get("kernel_seed")
            if state_seed is not None and s.seed_override is not None:
                state_seed = s.seed_override
            s.seeds = {"perturbation": pert_seed, "initial_state": state_seed}
    elif kind == "group":
        if "group" not in obj:
            _fail("group", "group scenario needs a group")
        s.group, builtin_chars = group_from_literal(obj["group"], "group")
        if "characters" in obj:
            s.characters = character_table_from_literal(s.group, obj["characters"], "characters")
        elif builtin_chars is not None:
            s.characters = builtin_chars
        else:
            _fail("characters", "custom groups need an explicit character table")
        if "rep" in obj and "rep_a" in obj:
            _fail("rep", "rep is an alias of rep_a; give one of them")
        rep_key = "rep" if "rep" in obj else "rep_a"
        if rep_key not in obj:
            _fail("rep_a", "group scenario needs rep_a (or rep)")
        s.rep_a = s.rep_b = representation_from_literal(s.group, obj[rep_key], "rep_a")
        # one analysis per distinct representation: a rep_b literal that reads as
        # rep_a's is rep_a, unparsed; json.dumps tells -0.0 from 0.0
        if "rep_b" in obj and (json.dumps(obj["rep_b"], sort_keys=True)
                               != json.dumps(obj[rep_key], sort_keys=True)):
            s.rep_b = representation_from_literal(s.group, obj["rep_b"], "rep_b")
        n_classes = len(s.group.conjugacy_classes)
        for key in ("class_function_a", "class_function_b"):
            if key in obj:
                values = _real_list(obj[key], key)
                if len(values) != n_classes:
                    _fail(key, f"expected one value per conjugacy class ({n_classes})")
                setattr(s, key, values)
        if s.class_function_b is not None and s.class_function_a is None:
            _fail("class_function_a", "class_function_b given without class_function_a")
        if s.class_function_a is not None and s.class_function_b is None:
            s.class_function_b = list(s.class_function_a)
        if "hamiltonian" in obj:
            if s.class_function_a is None:
                _fail("hamiltonian", "membership checks need class functions to build K")
            s.hamiltonian, _ = _read_hamiltonian(
                obj["hamiltonian"], "hamiltonian", (s.rep_a.dim, s.rep_b.dim), s)
    return s


# ---------------------------------------------------------------------------
# running

def _bundle(s: Scenario, clock_a: ClockObservable, clock_b: ClockObservable):
    """The sync bundle of the two clocks and the scenario's H; no Hamiltonian is the zero pair."""
    h = s.hamiltonian
    if h is None:
        h = (np.zeros((clock_a.dim,) * 2), np.zeros((clock_b.dim,) * 2))
    return sync.sync_bundle(sync.make_system(clock_a, clock_b, h),
                            kernel_tol=s.tolerances["kernel_tol"])


def _run_compat(s: Scenario) -> tuple:
    tol = s.tolerances
    verdicts = [{"name": h_name, **clocks.classify_compatibility(
                    _as_matrix(h), s.clock, compat_tol=tol["compat_tol"],
                    kernel_tol=tol["kernel_tol"])}
                for h_name, h in s.hamiltonians]
    return {"clock_labels": [float(x) for x in s.clock.labels], "verdicts": verdicts}, True


def _run_sync(s: Scenario) -> tuple:
    """Kernel and series kinds: one system and bundle, then the kernel or the trace."""
    bundle = _bundle(s, s.clock_a, s.clock_b)
    if s.kind == "kernel":
        basis = sync.kernel_basis(bundle)
        fields = {"kernel": {
            "ambient_dim": bundle.system.dim, "dim": bundle.kernel_index.size,
            "tol_used": bundle.cutoff,
            "vectors": np.stack((basis.T.real, basis.T.imag), axis=-1).tolist()}}
        if s.hamiltonian is not None:
            fields["epsilon"] = bundle.epsilon
        return fields, True

    if "vector" in s.initial_state:
        psi0 = s.initial_state["vector"]
        if psi0.shape[0] != bundle.system.dim:
            raise ScenarioError("initial_state.vector",
                                f"dimension {psi0.shape[0]} does not match {bundle.system.dim}")
    else:
        psi0 = sync.sample_kernel_state(bundle, s.seeds["initial_state"])
    trace = sync.drift_trace(bundle, psi0, s.times, bound_slack=s.tolerances["bound_slack"],
                             init_tol=s.tolerances["init_tol"])
    fields = {"seeds": s.seeds, "kernel_dim": bundle.kernel_index.size, **trace}
    return fields, trace["drift_bound_ok"] and trace["fidelity_bound_ok"]


def _run_group(s: Scenario) -> tuple:
    """Validation, multiplicities, Schur scalars, containment and membership.

    A representation that fails validation ends the run there: the report holds
    ``group`` and ``validation`` and does not pass. A scenario with one ``rep``,
    or with a ``rep_b`` literal that reads as ``rep_a``'s, has ``rep_b is rep_a``;
    that representation is validated, counted and decomposed once and side B
    reuses the results.
    Each side's clock is its observable in the isotypic basis, so kernel,
    ||K|| and ||[H, K]|| come from one sync bundle.
    """
    def per_side(fn, *args):
        a = fn(s.rep_a, *args)
        return a, (a if s.rep_b is s.rep_a else fn(s.rep_b, *args))

    tol = s.tolerances
    fields = {"group": {"name": s.group.name, "order": s.group.order,
                        "elements": list(s.group.elements)}}
    val_a, val_b = per_side(grouprep.validate_representation)
    fields["validation"] = {"rep_a": val_a, "rep_b": val_b}
    if not (val_a["passed"] and val_b["passed"]):
        return fields, False
    mult_a, mult_b = per_side(grouprep.multiplicities, s.characters)
    fields["multiplicities"] = {"rep_a": [[n, m] for n, m in mult_a],
                                "rep_b": [[n, m] for n, m in mult_b]}
    if s.class_function_a is None:
        return fields, True

    t_a, eq_a = grouprep.observable_from_class_function(s.class_function_a, s.rep_a,
                                                        equivar_tol=tol["equivar_tol"])
    t_b, eq_b = grouprep.observable_from_class_function(s.class_function_b, s.rep_b,
                                                        equivar_tol=tol["equivar_tol"])
    comps_a = grouprep.isotypic_projectors(s.rep_a, s.characters, mult_a)
    comps_b = (comps_a if s.rep_b is s.rep_a
               else grouprep.isotypic_projectors(s.rep_b, s.characters, mult_b))
    schur_a, clock_a = grouprep.isotypic_clock(t_a, eq_a, comps_a)
    schur_b, clock_b = grouprep.isotypic_clock(t_b, eq_b, comps_b)
    fields["schur"] = {"rep_a": schur_a, "rep_b": schur_b}
    schur_ok = all(opcore.check(e["residual"], tol["schur_tol"])[1]
                   for e in schur_a["entries"] + schur_b["entries"])
    bundle = _bundle(s, clock_a, clock_b)
    containment = grouprep.verify_kernel_containment(schur_a, schur_b, s.characters, bundle)
    fields["containment"] = containment
    passed = schur_ok and containment["passed"]
    if s.hamiltonian is not None:
        fields["membership"] = grouprep.hsync_membership(
            bundle, s.rep_a, s.rep_b,
            equivar_tol=tol["equivar_tol"], compat_tol=tol["compat_tol"])
    return fields, passed


_RUNNERS = {"compat": _run_compat, "kernel": _run_sync, "drift": _run_sync,
            "fidelity": _run_sync, "group": _run_group}


def run_scenario(s: Scenario) -> dict:
    """Run a parsed scenario through its kind's runner and return the report's
    payload, which names the ``scenario`` and its ``kind`` and holds the verdict
    ``passed``."""
    fields, passed = _RUNNERS[s.kind](s)
    return {
        "scenario": s.name,
        "kind": s.kind,
        "library_version": __version__,
        "input_digest": s.digest,
        "generator": GENERATOR_NAME,
        "tolerances": s.tolerances,
        **fields,
        "seed_override": s.seed_override,
        "passed": passed,
    }


# ---------------------------------------------------------------------------
# emission

def _json(obj, pad: str = "") -> str:
    """The JSON text of one report value: a dict's keys sorted, one per line,
    indented two spaces past ``pad``; a list or tuple on one line; a float at
    17 significant digits, +-inf as the strings "inf" and "-inf", NaN refused."""
    if isinstance(obj, float):
        if obj != obj:
            raise opcore.NumericalError("cannot serialize NaN")
        if obj in (math.inf, -math.inf):
            return '"inf"' if obj > 0 else '"-inf"'
        return format(obj, ".17g")
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        return ("{\n" + ",\n".join([f"{inner}{_json_string(str(k))}: {_json(v, inner)}"
                                     for k, v in sorted(obj.items())])
                + "\n" + pad + "}")
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join([_json(v, pad) for v in obj]) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, str):
        return _json_string(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, np.floating):
        return _json(float(obj))
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_report(payload: dict) -> str:
    """Deterministic JSON text: sorted keys, floats at 17 significant digits."""
    return _json(payload) + "\n"


def _csv_bytes(p: dict) -> bytes:
    lines = ["t,drift,fidelity,bound_drift,bound_fidelity"]
    for row in zip(p["times"], p["drift"], p["fidelity"], p["bound_drift"], p["bound_fidelity"]):
        lines.append(",".join(format(v, ".17g") for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _text_bytes(p: dict) -> bytes:
    kind = p["kind"]
    tolerances = ", ".join(f"{k}={format(v, '.17g')}" for k, v in sorted(p["tolerances"].items()))
    lines = [f"scenario: {p['scenario']}  (kind: {kind})", f"passed: {p['passed']}",
             f"tolerances: {tolerances}", f"seed_override: {p['seed_override']}"]
    if kind == "compat":
        lines.append(f"{'hamiltonian':<16}{'class':<16}{'residual':<26}off_block_mass")
        for v in p["verdicts"]:
            lines.append(f"{v['name']:<16}{v['class']:<16}"
                         f"{format(v['residual'], '.17g'):<26}"
                         f"{format(v['off_block_mass'], '.17g')}")
    elif kind == "kernel":
        lines.append(f"kernel dimension: {p['kernel']['dim']}")
        if "epsilon" in p:
            lines.append(f"epsilon: {format(p['epsilon'], '.17g')}")
    elif kind in SERIES_KINDS:
        lines.append(f"epsilon: {format(p['epsilon'], '.17g')}")
        lines.append(f"drift_bound_ok: {p['drift_bound_ok']}  "
                     f"fidelity_bound_ok: {p['fidelity_bound_ok']}")
        lines.append(f"{'t':<26}{'drift':<26}fidelity")
        for t, d, f in zip(p["times"], p["drift"], p["fidelity"]):
            lines.append(f"{format(t, '.17g'):<26}{format(d, '.17g'):<26}{format(f, '.17g')}")
    elif kind == "group":
        lines.append(f"group: {p['group']['name']} (order {p['group']['order']})")
        if "multiplicities" in p:
            lines.append(f"rep_a multiplicities: {p['multiplicities']['rep_a']}")
            lines.append(f"rep_b multiplicities: {p['multiplicities']['rep_b']}")
        if "containment" in p:
            c = p["containment"]
            lines.append(f"containment (matched part): {c['contained']}  "
                         f"all matched: {c['all_matched']}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def emit_report(payload: dict, fmt: str = "json") -> bytes:
    """Serialize a report payload; csv only exists for the series kinds."""
    if fmt == "json":
        return dumps_report(payload).encode("utf-8")
    if fmt == "csv":
        if payload["kind"] not in SERIES_KINDS:
            raise ScenarioError("format", f"csv output is only defined for kinds "
                                          f"{SERIES_KINDS}, not {payload['kind']!r}")
        return _csv_bytes(payload)
    if fmt == "text":
        return _text_bytes(payload)
    raise ScenarioError("format", f"unknown format {fmt!r}")
