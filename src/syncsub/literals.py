"""JSON literal formats shared between scenario files and reports.

Matrix literal: {"dim": d, "entries": [[re, im], ...]} row-major, or the
shorthand {"diag": [x0, ...]} for a real diagonal. Clock literal:
{"labels": [...], "basis": optional matrix literal}. Group literal: a
builtin name or {"elements": [...], "mult_table": [[...]], "classes":
optional}. Representation literal: {"generators": {label: matrix}} or
{"elements": [matrix, ...]} in group element order.
"""

from __future__ import annotations

import math

import numpy as np

from . import grouprep, opcore
from .clocks import ClockObservable, make_clock


class ScenarioError(ValueError):
    """Parse or validation failure, carrying the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


def _fail(path: str, message: str):
    raise ScenarioError(path, message)


def _expect_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    return obj


def _to_float(x) -> float:
    """float(x), with an integer too large for a float read as inf."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


def _real_list(obj, path: str) -> list:
    if not isinstance(obj, list) or not obj:
        _fail(path, "expected a nonempty list of numbers")
    out = []
    for i, x in enumerate(obj):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            _fail(f"{path}[{i}]", "expected a number")
        x = _to_float(x)
        if not math.isfinite(x):
            _fail(f"{path}[{i}]", "number must be finite")
        out.append(x)
    return out


def _first_non_pair(entries) -> int:
    """Index of the first entry that is not an [re, im] pair of numbers, else len(entries)."""
    for i, pair in enumerate(entries):
        if not (isinstance(pair, list) and len(pair) == 2):
            return i
        re, im = pair
        if (isinstance(re, bool) or isinstance(im, bool)
                or not isinstance(re, (int, float)) or not isinstance(im, (int, float))):
            return i
    return len(entries)


def matrix_from_literal(obj, path: str = "matrix") -> np.ndarray:
    obj = _expect_mapping(obj, path)
    if "diag" in obj:
        diag = _real_list(obj["diag"], f"{path}.diag")
        return np.diag(np.asarray(diag, dtype=np.complex128))
    if "entries" not in obj or "dim" not in obj:
        _fail(path, 'matrix literal needs "dim" and "entries", or "diag"')
    dim = obj["dim"]
    if not isinstance(dim, int) or dim < 1:
        _fail(f"{path}.dim", "expected a positive integer")
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != dim * dim:
        _fail(f"{path}.entries", f"expected {dim * dim} [re, im] pairs (row-major)")
    # The first bad entry is reported, whether its type or its finiteness is bad.
    bad_type = _first_non_pair(entries)
    try:
        parts = np.array(entries[:bad_type], dtype=np.float64).reshape(bad_type, 2)
    except OverflowError:   # an integer too large for a float counts as not finite
        parts = np.array([[_to_float(x) for x in pair] for pair in entries[:bad_type]],
                         dtype=np.float64).reshape(bad_type, 2)
    finite = np.isfinite(parts).all(axis=1)
    if not finite.all():
        _fail(f"{path}.entries[{int(np.argmin(finite))}]", "entries must be finite")
    if bad_type < len(entries):
        _fail(f"{path}.entries[{bad_type}]", "expected an [re, im] pair")
    try:
        return opcore.as_complex_matrix(parts.view(np.complex128).reshape(dim, dim))
    except ValueError as exc:
        _fail(path, str(exc))


def matrix_to_literal(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=np.complex128)
    return {
        "dim": int(m.shape[0]),
        "entries": [[float(v.real), float(v.imag)] for v in m.reshape(-1)],
    }


def clock_from_literal(obj, path: str = "clock") -> ClockObservable:
    obj = _expect_mapping(obj, path)
    if "labels" not in obj:
        _fail(path, 'clock literal needs "labels"')
    labels = _real_list(obj["labels"], f"{path}.labels")
    basis = None
    if "basis" in obj:
        basis = matrix_from_literal(obj["basis"], f"{path}.basis")
    try:
        return make_clock(labels, basis=basis)
    except ValueError as exc:
        _fail(path, str(exc))


def group_from_literal(obj, path: str = "group"):
    """Builtin name or explicit table; returns (group, table-or-None)."""
    if isinstance(obj, str):
        try:
            return grouprep.builtin_group(obj)
        except ValueError as exc:
            _fail(path, str(exc))
    obj = _expect_mapping(obj, path)
    if "mult_table" not in obj:
        _fail(path, 'group literal needs "mult_table" (or use a builtin name)')
    table = obj["mult_table"]
    if not isinstance(table, list):
        _fail(f"{path}.mult_table", "expected a list of rows")
    n = len(table)
    elements = obj.get("elements", [f"g{i}" for i in range(n)])
    classes = obj.get("classes")
    try:
        group = grouprep.make_group(elements, table, classes=classes,
                                    name=str(obj.get("name", "group")))
    except (ValueError, TypeError) as exc:
        _fail(path, str(exc))
    return group, None


def character_table_from_literal(group, obj, path: str = "characters"):
    obj = _expect_mapping(obj, path)
    if "irreps" not in obj or not isinstance(obj["irreps"], list):
        _fail(path, 'character table literal needs an "irreps" list')
    rows = []
    for i, row in enumerate(obj["irreps"]):
        row = _expect_mapping(row, f"{path}.irreps[{i}]")
        for key in ("name", "dim", "chars"):
            if key not in row:
                _fail(f"{path}.irreps[{i}]", f'missing "{key}"')
        chars = row["chars"]
        if not isinstance(chars, list):
            _fail(f"{path}.irreps[{i}].chars", "expected a list")
        values = []
        for j, c in enumerate(chars):
            if isinstance(c, (int, float)) and not isinstance(c, bool):
                values.append(complex(c))
            elif isinstance(c, list) and len(c) == 2:
                values.append(complex(c[0], c[1]))
            else:
                _fail(f"{path}.irreps[{i}].chars[{j}]", "expected a number or [re, im] pair")
        rows.append((row["name"], row["dim"], values))
    try:
        return grouprep.make_character_table(group, rows)
    except ValueError as exc:
        _fail(path, str(exc))


def representation_from_literal(group, obj, path: str = "rep"):
    obj = _expect_mapping(obj, path)
    if "generators" in obj:
        gens = _expect_mapping(obj["generators"], f"{path}.generators")
        parsed = {label: matrix_from_literal(m, f"{path}.generators[{label!r}]")
                  for label, m in gens.items()}
        try:
            return grouprep.representation_from_generators(group, parsed)
        except ValueError as exc:
            _fail(path, str(exc))
    if "elements" in obj:
        mats = obj["elements"]
        if not isinstance(mats, list) or len(mats) != group.order:
            _fail(f"{path}.elements", f"expected {group.order} matrix literals")
        parsed = [matrix_from_literal(m, f"{path}.elements[{i}]") for i, m in enumerate(mats)]
        try:
            return grouprep.make_representation(group, np.stack(parsed))
        except ValueError as exc:
            _fail(path, str(exc))
    _fail(path, 'representation literal needs "generators" or "elements"')
