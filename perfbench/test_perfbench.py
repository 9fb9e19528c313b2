"""Tests of the benchmark itself: ``python -m pytest perfbench`` from the repo root."""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import syncsub.cli  # noqa: E402
from checks import check_report  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import COS_EVERY, GENERATORS, POOL_SIZE  # noqa: E402


def _write(pool, directory: Path) -> list:
    files = []
    for j, (doc, _) in enumerate(pool):
        path = directory / f"s{j}.json"
        path.write_text(json.dumps(doc))
        files.append(path)
    return files


def _traced_counts(files, out: Path) -> dict:
    originals = (syncsub.cli.main, syncsub.cli.parse_scenario, np.linalg.norm)
    tracer = Tracer()
    tracer.install()
    try:
        for j, path in enumerate(files):
            tracer.scenario = j
            syncsub.cli.main(["run", str(path), "--out", str(out / f"r{j}.json")])
    finally:
        tracer.uninstall()
    assert (syncsub.cli.main, syncsub.cli.parse_scenario, np.linalg.norm) == originals
    summary = tracer.summary()
    return {key: summary[key] for key in ("calls", "errors", "factorizations")}


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_generators_repeat_per_seed(workload):
    first = GENERATORS[workload](5)
    assert json.dumps(first) == json.dumps(GENERATORS[workload](5))
    assert json.dumps(first) != json.dumps(GENERATORS[workload](6))
    assert len(first) == POOL_SIZE


def test_drift_slots_cost_the_same_for_every_seed():
    first, second = GENERATORS["drift_trace"](1), GENERATORS["drift_trace"](2)
    assert [e["kernel_dim"] for _, e in first] == [e["kernel_dim"] for _, e in second]
    assert [e["labels_a"] for _, e in first] != [e["labels_a"] for _, e in second]


def test_group_pool_has_one_cos_input_in_ten():
    pool = GENERATORS["group_reg"](3)
    cos = [expect["cos_input"] for _, expect in pool]
    assert sum(cos) == POOL_SIZE // COS_EVERY
    for (doc, _), flagged in zip(pool, cos):
        f = doc["class_function_a"]
        asymmetric = any(f[k] != f[len(f) - k] for k in range(1, len(f)))
        assert asymmetric == flagged


def test_traced_counts_repeat_exactly(tmp_path):
    files = []
    for workload, gen in sorted(GENERATORS.items()):
        directory = tmp_path / workload
        directory.mkdir()
        pool = gen(7)
        picks = [pool[0], pool[COS_EVERY - 1]] if workload == "group_reg" else pool[:2]
        files += _write(picks, directory)
    first = _traced_counts(files, tmp_path)
    second = _traced_counts(files, tmp_path)
    assert first == second
    assert first["calls"]["cli.main"] == len(files)
    assert first["calls"]["scenario.parse_scenario"] == len(files)
    assert first["factorizations"]["linalg.svd"] > 0
    assert first["errors"]["grouprep.observable_from_class_function"] == 1


@pytest.mark.parametrize("workload, tamper", [
    ("drift_trace", lambda r: r.update(kernel_dim=r["kernel_dim"] + 1)),
    ("drift_trace", lambda r: r["drift"].__setitem__(-1, 10.0)),
    ("group_reg", lambda r: r["membership"].update(member=not r["membership"]["member"])),
    ("group_reg", lambda r: r["containment"]["entries"][1].update(
        matched=not r["containment"]["entries"][1]["matched"])),
])
def test_checks_accept_reports_and_catch_tampering(tmp_path, workload, tamper):
    doc, expect = GENERATORS[workload](4)[0]
    (path,) = _write([(doc, expect)], tmp_path)
    out = tmp_path / "r.json"
    assert syncsub.cli.main(["run", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_bytes())
    assert check_report(workload, report, doc, expect) == []
    bad = copy.deepcopy(report)
    tamper(bad)
    assert check_report(workload, bad, doc, expect)
