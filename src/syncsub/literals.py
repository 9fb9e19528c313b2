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

from . import grouprep
from .clocks import ClockObservable, make_clock

SEED_LIMIT = 2 ** 128   # Philox keys are 128-bit: seeds lie in [0, SEED_LIMIT)


class ScenarioError(ValueError):
    """Parse or validation failure, carrying the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


def _fail(path: str, message: str, *index):
    """Raise for the field ``path[index]...``, a path built only here, on failure."""
    raise ScenarioError(path + "".join(f"[{i}]" for i in index), message)


def _expect_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    return obj


def _only(obj: dict, path: str, allowed: tuple, what: str) -> None:
    """Reject a key of ``obj`` outside ``allowed``, the fields of ``what``: a
    misspelled key, or one of a second form where one form is read."""
    for key in obj:
        if key not in allowed:
            _fail(f"{path}.{key}", f"unexpected field in {what} (allowed: {', '.join(allowed)})")


def _float(x):
    """x as a float if it is a number (not a bool), else None; a huge integer reads as inf."""
    if type(x) is float:   # the common case, decided first
        return x
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return None
    try:
        return float(x)
    except OverflowError:
        return math.inf


def _number(x, path: str, *index, message: str | None = None) -> float:
    """A finite number (not a bool) as a float; an integer too large for a float
    is not finite. ``message`` replaces both failure messages."""
    value = _float(x)
    if value is None:
        _fail(path, message or "expected a number", *index)
    if not math.isfinite(value):
        _fail(path, message or "number must be finite", *index)
    return value


def _integer(x, path: str, *index, low: int = 0, high: float = math.inf) -> int:
    """An int (not a bool) with low <= x < high."""
    if isinstance(x, bool) or not isinstance(x, int):
        _fail(path, "expected an integer", *index)
    if not low <= x < high:
        _fail(path, f"expected an integer in [{low}, {high})", *index)
    return x


def _pairs(obj, path: str) -> np.ndarray:
    """Complex vector from a nonempty list of finite [re, im] pairs; the first
    bad entry is named, whether its shape, its type or its finiteness is bad."""
    if not isinstance(obj, list) or not obj:
        _fail(path, "expected a nonempty list of [re, im] pairs")
    parts = []
    for i, pair in enumerate(obj):
        ok = isinstance(pair, list) and len(pair) == 2
        re, im = (_float(pair[0]), _float(pair[1])) if ok else (None, None)
        if re is None or im is None:
            _fail(path, "expected an [re, im] pair", i)
        if not (math.isfinite(re) and math.isfinite(im)):
            _fail(path, "entries must be finite", i)
        parts += (re, im)
    return np.array(parts).view(np.complex128)


def _list(obj, path: str, *index) -> list:
    if not isinstance(obj, list):
        _fail(path, "expected a list", *index)
    return obj


def _real_list(obj, path: str) -> list:
    if not isinstance(obj, list) or not obj:
        _fail(path, "expected a nonempty list of numbers")
    return [_number(x, path, i) for i, x in enumerate(obj)]


def matrix_from_literal(obj, path: str = "matrix") -> np.ndarray:
    obj = _expect_mapping(obj, path)
    if "diag" in obj:
        _only(obj, path, ("diag",), "a diagonal matrix literal")
        diag = _real_list(obj["diag"], f"{path}.diag")
        return np.diag(np.asarray(diag, dtype=np.complex128))
    if "entries" not in obj or "dim" not in obj:
        _fail(path, 'matrix literal needs "dim" and "entries", or "diag"')
    _only(obj, path, ("dim", "entries"), "a matrix literal")
    dim = _integer(obj["dim"], f"{path}.dim", low=1)
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != dim * dim:
        _fail(f"{path}.entries", f"expected {dim * dim} [re, im] pairs (row-major)")
    return _pairs(entries, f"{path}.entries").reshape(dim, dim)


def clock_from_literal(obj, path: str = "clock") -> ClockObservable:
    obj = _expect_mapping(obj, path)
    if "labels" not in obj:
        _fail(path, 'clock literal needs "labels"')
    _only(obj, path, ("labels", "basis"), "a clock literal")
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
    _only(obj, path, ("elements", "mult_table", "classes", "name"), "a group literal")
    where = f"{path}.mult_table"
    n = len(_list(obj["mult_table"], where))
    table = [[_integer(x, where, i, j, high=n) for j, x in enumerate(_list(row, where, i))]
             for i, row in enumerate(obj["mult_table"])]
    elements = obj.get("elements", [f"g{i}" for i in range(n)])
    classes = obj.get("classes")
    if classes is not None:
        where = f"{path}.classes"
        classes = [[_integer(x, where, i, j, high=n) for j, x in enumerate(_list(c, where, i))]
                   for i, c in enumerate(_list(classes, where))]
    try:
        group = grouprep.make_group(elements, table, classes=classes,
                                    name=str(obj.get("name", "group")))
    except (ValueError, TypeError) as exc:
        _fail(path, str(exc))
    return group, None


def character_table_from_literal(group, obj, path: str = "characters"):
    """Irrep rows {"name", "dim", "chars"}; a character is a number c, read as
    [c, 0], or an [re, im] pair."""
    obj = _expect_mapping(obj, path)
    if "irreps" not in obj or not isinstance(obj["irreps"], list):
        _fail(path, 'character table literal needs an "irreps" list')
    _only(obj, path, ("irreps",), "a character table literal")
    rows = []
    for i, row in enumerate(obj["irreps"]):
        where = f"{path}.irreps[{i}]"
        row = _expect_mapping(row, where)
        for key in ("name", "dim", "chars"):
            if key not in row:
                _fail(where, f'missing "{key}"')
        _only(row, where, ("name", "dim", "chars"), "an irrep row")
        chars = _list(row["chars"], f"{where}.chars")
        values = _pairs([c if isinstance(c, list) else [c, 0] for c in chars], f"{where}.chars")
        rows.append((row["name"], _integer(row["dim"], f"{where}.dim", low=1), values))
    try:
        return grouprep.make_character_table(group, rows)
    except ValueError as exc:
        _fail(path, str(exc))


def representation_from_literal(group, obj, path: str = "rep"):
    obj = _expect_mapping(obj, path)
    if "generators" in obj:
        _only(obj, path, ("generators",), "a representation by generators")
        gens = _expect_mapping(obj["generators"], f"{path}.generators")
        parsed = {label: matrix_from_literal(m, f"{path}.generators[{label!r}]")
                  for label, m in gens.items()}
        try:
            return grouprep.representation_from_generators(group, parsed)
        except ValueError as exc:
            _fail(path, str(exc))
    if "elements" in obj:
        _only(obj, path, ("elements",), "a representation by elements")
        mats = obj["elements"]
        if not isinstance(mats, list) or len(mats) != group.order:
            _fail(f"{path}.elements", f"expected {group.order} matrix literals")
        parsed = [matrix_from_literal(m, f"{path}.elements[{i}]") for i, m in enumerate(mats)]
        try:
            return grouprep.make_representation(group, np.stack(parsed))
        except ValueError as exc:
            _fail(path, str(exc))
    _fail(path, 'representation literal needs "generators" or "elements"')
