"""The library is what a scenario reaches.

The bundled scenarios run through ``cli.main`` under a profile hook that
records every Python function entered. A public module-level function of
``syncsub`` that none of them reaches is either dead code or a test fixture,
whose place is ``tests/oracles.py``. The few kept for another reason are
listed in ALLOWED, each with that reason.
"""

import inspect
import sys
from pathlib import Path

from syncsub import cli, clocks, grouprep, literals, opcore, scenario, sync

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
MODULES = (opcore, clocks, sync, grouprep, literals, scenario, cli)

ALLOWED = {
    "opcore.null_space": "perfbench/run.py traces it by name",
    "opcore.hermitian_eig": "perfbench/run.py traces it by name",
    "opcore.require_unitary": "checks a clock literal's basis; no bundled clock gives one",
    "grouprep.commutant_dimension": "to be reported by the group kind (ROADMAP item 1)",
    "grouprep.tensor_representation": "hsync_membership's exact fallback, which runs only "
                                      "when the tree bound cannot settle membership",
    "literals.character_table_from_literal": "reads a custom group's characters; the "
                                             "bundled group is builtin",
}


def public_functions() -> dict:
    found = {}
    for module in MODULES:
        layer = module.__name__.rsplit(".", 1)[1]
        for name, fn in vars(module).items():
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and not name.startswith("_")):
                found[f"{layer}.{name}"] = fn
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
