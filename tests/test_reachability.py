"""The library is what a scenario reaches.

The bundled scenarios run through ``cli.main`` under a profile hook that
records every Python function entered. A public module-level function of
``syncsub``, or a public method or property getter of one of its classes,
that none of them reaches is either dead code or a test fixture, whose place
is ``tests/oracles.py``. The few kept for another reason are listed in
ALLOWED, each with that reason.
"""

import inspect
import sys
from pathlib import Path

from syncsub import cli, clocks, grouprep, literals, opcore, scenario, sync

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
MODULES = (opcore, clocks, sync, grouprep, literals, scenario, cli)

ALLOWED = {
    "grouprep.commutant_dimension": "to be reported by the group kind (ROADMAP item 1)",
    "literals.character_table_from_literal": "reads a custom group's characters; the "
                                             "bundled group is builtin",
}


def _public(name, obj) -> dict:
    """{name: function} for ``obj`` if it is a public function or property getter."""
    if name.startswith("_"):
        return {}
    if isinstance(obj, property):
        obj = obj.fget
    return {name: obj} if inspect.isfunction(obj) else {}


def public_functions() -> dict:
    """Public module-level functions, and public methods and property getters
    of the classes each module defines, as ``layer.name`` and ``layer.Class.name``."""
    found = {}
    for module in MODULES:
        layer = module.__name__.rsplit(".", 1)[1]
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    for key, fn in _public(attr, member).items():
                        found[f"{layer}.{name}.{key}"] = fn
            else:
                for key, fn in _public(name, obj).items():
                    found[f"{layer}.{key}"] = fn
    return found


def test_every_public_function_is_reached_or_allowed(tmp_path):
    paths = sorted(SCENARIO_DIR.glob("*.json"))
    assert len(paths) == 4
    reached, codes = set(), []

    def hook(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        for i, path in enumerate(paths):
            codes.append(cli.main(["run", str(path), "--out", str(tmp_path / f"{i}.out")]))
    finally:
        sys.setprofile(previous)
    assert codes == [0] * len(paths)

    unreached = {name for name, fn in public_functions().items() if fn.__code__ not in reached}
    extra = sorted(unreached - ALLOWED.keys())
    assert not extra, f"reached by no scenario and not allowed: {extra}"
    # every entry still names a public function that no scenario reaches
    stale = sorted(ALLOWED.keys() - unreached)
    assert not stale, f"stale allow-list entries: {stale}"
