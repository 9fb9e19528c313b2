import contextlib
import importlib.util
import inspect
import io
import json
import logging
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import syncsub
from syncsub import cli, clocks, grouprep, literals, opcore, scenario, sync
from oracles import matrix_to_literal
from syncsub.literals import (
    ScenarioError,
    clock_from_literal,
    matrix_from_literal,
)

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"
GOLDEN_DIR = ROOT / "tests" / "golden"


def write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def run_in_subprocess(path, *args):
    """``syncsub run path *args`` in a fresh interpreter, so that numpy warnings
    reach stderr as they do from the command line."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONWARNINGS", None)
    return subprocess.run(
        [sys.executable, "-c", "import sys\nfrom syncsub import cli\n"
                               "raise SystemExit(cli.main(sys.argv[1:]))",
         "run", str(path), *args],
        env=env, capture_output=True, text=True, timeout=120)


def kernel_projector(report) -> np.ndarray:
    """V V^dag of the kernel report's ``vectors``, each column of V a list of [re, im] pairs."""
    v = np.array([[complex(re, im) for re, im in column]
                  for column in report["kernel"]["vectors"]]).T
    return oracles.span_projector(v)


def drift_payload(**overrides):
    payload = {
        "name": "drift-test",
        "kind": "drift",
        "clock_a": {"labels": [1, -1]},
        "clock_b": {"labels": [1, -1]},
        "hamiltonian": {
            "base": {"local": {"a": {"diag": [0.5, -0.5]}, "b": {"diag": [0.5, -0.5]}}},
            "direction": "random",
            "strength": 0.05,
            "seed": 7,
        },
        "times": [0, 1, 5, 10],
        "initial_state": {"kernel_seed": 3},
    }
    payload.update(overrides)
    return payload


class TestLiterals:
    def test_matrix_literal_roundtrip(self):
        m = np.array([[1 + 2j, 0.5], [-0.5, 3]], dtype=complex)
        np.testing.assert_array_equal(matrix_from_literal(matrix_to_literal(m)), m)

    def test_diag_shorthand(self):
        m = matrix_from_literal({"diag": [1, 2, 3]})
        np.testing.assert_array_equal(m, np.diag([1.0, 2.0, 3.0]))

    def test_entry_count_checked(self):
        with pytest.raises(ScenarioError, match="entries"):
            matrix_from_literal({"dim": 2, "entries": [[1, 0]]})

    @pytest.mark.parametrize("bad, where, message", [
        ({3: [float("nan"), 0.0], 5: [True, 0.0]}, 3, "entries must be finite"),
        ({3: [True, 0.0], 5: [0.0, float("inf")]}, 3, "expected an [re, im] pair"),
        ({5: [0.0, float("-inf")], 7: "1"}, 5, "entries must be finite"),
        ({2: [1.0], 6: [float("nan"), 0.0]}, 2, "expected an [re, im] pair"),
        ({8: [0.0, "1"]}, 8, "expected an [re, im] pair"),
        ({3: [float("nan"), 0.0], 5: [10 ** 400, 0.0]}, 3, "entries must be finite"),
        ({4: [0.0, -10 ** 400], 7: [float("nan"), 0.0]}, 4, "entries must be finite"),
        ({2: [1.0], 6: [10 ** 400, 0.0]}, 2, "expected an [re, im] pair"),
    ])
    def test_first_bad_entry_is_named(self, bad, where, message):
        entries = [[0.5 * i, -0.25 * i] for i in range(9)]
        for i, pair in bad.items():
            entries[i] = pair
        with pytest.raises(ScenarioError) as err:
            matrix_from_literal({"dim": 3, "entries": entries}, "m")
        assert str(err.value) == f"m.entries[{where}]: {message}"

    def test_entries_parse_as_complex_pairs(self):
        pairs = [[1, -0.0], [-0.0, 2], [2**53 + 1, 1e-320], [1e308, -3], [0.1, 0.2],
                 [-7, 0], [2.5, -2.5], [3, 4], [0.0, 0.0]]
        got = matrix_from_literal({"dim": 3, "entries": pairs}).reshape(-1)
        want = np.array([complex(re, im) for re, im in pairs])
        assert np.array_equal(got.view(np.float64), want.view(np.float64))

    def test_clock_literal_with_basis(self):
        h = (np.array([[1, 1], [1, -1]]) / np.sqrt(2)).tolist()
        lit = {"labels": [1, -1],
               "basis": {"dim": 2, "entries": [[v, 0] for row in h for v in row]}}
        clock = clock_from_literal(lit)
        np.testing.assert_allclose(oracles.clock_matrix(clock), [[0, 1], [1, 0]], atol=1e-14)


class TestParseScenario:
    def test_bundled_compat_scenario(self):
        s = scenario.parse_scenario(SCENARIO_DIR / "ex55_compat.json")
        assert s.kind == "compat"
        assert [name for name, _ in s.hamiltonians] == ["H1", "H2", "H3", "H4"]
        assert s.digest.startswith("sha256:")

    def test_empty_file_is_parse_error(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.raises(ScenarioError, match="JSON"):
            scenario.parse_scenario(path)

    def test_negative_strength_names_field(self, tmp_path):
        path = write_scenario(tmp_path, drift_payload(
            hamiltonian={"base": {"diag": [0, 1, 2, 3]}, "strength": -1, "seed": 0}))
        with pytest.raises(ScenarioError, match="strength"):
            scenario.parse_scenario(path)

    def test_unknown_kind(self, tmp_path):
        path = write_scenario(tmp_path, {"name": "x", "kind": "mystery"})
        with pytest.raises(ScenarioError, match="kind"):
            scenario.parse_scenario(path)

    def test_missing_required_field(self, tmp_path):
        path = write_scenario(tmp_path, {"name": "x", "kind": "drift",
                                         "clock_a": {"labels": [1, -1]}})
        with pytest.raises(ScenarioError, match="clock_b"):
            scenario.parse_scenario(path)

    def test_unknown_tolerance_rejected(self, tmp_path):
        path = write_scenario(tmp_path, drift_payload(tolerances={"mystery_tol": 1.0}))
        with pytest.raises(ScenarioError, match="mystery_tol"):
            scenario.parse_scenario(path)

    def test_checks_run_in_the_documented_order(self, tmp_path):
        """A Hamiltonian is built and checked where its literal is read, before
        ``times``; ``--seed`` comes after the file's own seed and before the
        kind's fields; a kind outside ``kinds`` is refused first of all, before
        an unknown top-level key."""
        path = write_scenario(tmp_path, drift_payload(hamiltonian={"diag": [0, 1, 2]},
                                                      times="soon"))
        with pytest.raises(ScenarioError) as err:
            scenario.parse_scenario(path)
        assert str(err.value) == "hamiltonian: dimension 3 does not match 2x2 product space"
        with pytest.raises(ScenarioError) as err:
            scenario.parse_scenario(path, seed_override=-1)
        assert str(err.value) == f"--seed: expected an integer in [0, {2 ** 128})"
        path = write_scenario(tmp_path, drift_payload(hamiltonian={"diag": [0, 1, 2]},
                                                      times="soon", seed=-1))
        with pytest.raises(ScenarioError) as err:
            scenario.parse_scenario(path, seed_override=-1)
        assert str(err.value) == f"seed: expected an integer in [0, {2 ** 128})"
        path = write_scenario(tmp_path, drift_payload(hamiltonian={"diag": [0, 1, 2]},
                                                      times="soon", seed=-1,
                                                      mystery=1))
        with pytest.raises(ScenarioError) as err:
            scenario.parse_scenario(path, seed_override=-1, kinds=("kernel",))
        assert str(err.value) == ("kind: scenario 'drift-test' has kind 'drift'; "
                                  "this subcommand handles kernel")


class TestRunScenario:
    @pytest.mark.parametrize("d_a, d_b", [(2, 3), (3, 2), (1, 4), (4, 1)])
    def test_local_terms_match_local_hamiltonian(self, d_a, d_b):
        # local terms reach make_system as a pair; opcore.kron_sum, the library's
        # only H_A (x) I + I (x) H_B builder, forms the n x n H where it is read
        rng = np.random.default_rng(10 * d_a + d_b)
        g_a, g_b = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for d in (d_a, d_b))
        h_a, h_b = (g_a + g_a.conj().T) / 2, (g_b + g_b.conj().T) / 2
        literal = {"local": {"a": matrix_to_literal(h_a), "b": matrix_to_literal(h_b)}}
        h, seed = scenario._read_hamiltonian(literal, "hamiltonian", (d_a, d_b),
                                             scenario.Scenario("local", "kernel", ""))
        assert seed is None
        h = sync.make_system(clocks.make_clock(np.zeros(d_a)), clocks.make_clock(np.zeros(d_b)),
                             h).hamiltonian
        np.testing.assert_array_equal(h, oracles.local_hamiltonian(h_a, h_b))

    def test_compat_verdicts(self):
        s = scenario.parse_scenario(SCENARIO_DIR / "ex55_compat.json")
        report = scenario.run_scenario(s)
        verdicts = [(v["name"], v["class"]) for v in report["verdicts"]]
        assert verdicts == [("H1", "diagonal"), ("H2", "diagonal"),
                            ("H3", "diagonal"), ("H4", "incompatible")]
        assert report["passed"]

    def test_compat_blocks_follow_the_kernel_rule(self, tmp_path):
        """Labels 4e-10 apart are distinct, as in the kernel kind: H4 couples
        labels 0 and 4e-10, off the blocks, and its off_block_mass is 1 (the
        absolute LABEL_SEP = 1e-9 of the dense classifier merged all three)."""
        doc = json.loads((SCENARIO_DIR / "ex55_compat.json").read_text())
        doc["clock"] = {"labels": [0, 4e-10, 8e-10]}
        report = scenario.run_scenario(scenario.parse_scenario(write_scenario(tmp_path, doc)))
        h4 = report["verdicts"][3]
        assert (h4["class"], h4["off_block_mass"]) == ("incompatible", 1.0)
        assert h4["residual"] == pytest.approx(4e-10, rel=1e-12)

    def test_kernel_report_grows_with_its_vectors_only(self, tmp_path):
        """d = 16 per side, labels 0..15 on both: k = 16 kernel vectors in
        n = 256 dims. No report field holds n^2 numbers, and the report stays
        below 16 bytes per vector entry (each "[0, 0], " here takes 8); an
        n x n projector alone would add n^2 such entries, over 500 KB."""
        labels = list(range(16))
        path = write_scenario(tmp_path, {
            "name": "kernel-16x16", "kind": "kernel",
            "clock_a": {"labels": labels}, "clock_b": {"labels": labels},
            "hamiltonian": {"local": {"a": {"diag": labels}, "b": {"diag": labels}}}})
        report = scenario.run_scenario(scenario.parse_scenario(path))
        n, k = 256, report["kernel"]["dim"]
        assert (report["kernel"]["ambient_dim"], k) == (n, 16)

        def numbers(obj):
            if isinstance(obj, dict):
                return sum(map(numbers, obj.values()))
            if isinstance(obj, list):
                return sum(map(numbers, obj))
            return 1

        assert all(numbers(value) < n * n for value in report.values())
        assert len(scenario.emit_report(report)) < 16 * k * n

    def test_kernel_scenario(self):
        s = scenario.parse_scenario(SCENARIO_DIR / "ex74_kernel.json")
        report = scenario.run_scenario(s)
        assert report["kernel"]["dim"] == 2
        assert report["epsilon"] <= 1e-12
        proj = kernel_projector(report)
        np.testing.assert_allclose(proj, np.diag([1.0, 0, 0, 1.0]), atol=1e-12)

    def test_compatible_drift_passes(self, tmp_path):
        path = write_scenario(tmp_path, drift_payload(
            hamiltonian={"local": {"a": {"diag": [0.5, -0.5]}, "b": {"diag": [0.5, -0.5]}}}))
        report = scenario.run_scenario(scenario.parse_scenario(path))
        assert report["epsilon"] <= 1e-12
        assert all(d <= 1e-10 for d in report["drift"])
        assert report["passed"]

    def test_perturbed_drift(self):
        s = scenario.parse_scenario(SCENARIO_DIR / "drift_perturbed.json")
        report = scenario.run_scenario(s)
        assert report["passed"]
        assert report["epsilon"] > 0
        assert report["drift_bound_ok"]

    def test_seed_override_changes_direction(self):
        path = SCENARIO_DIR / "drift_perturbed.json"
        base = scenario.run_scenario(scenario.parse_scenario(path))
        other = scenario.run_scenario(scenario.parse_scenario(path, seed_override=99))
        assert base["epsilon"] != other["epsilon"]

    def test_group_scenario(self, tmp_path):
        path = write_scenario(tmp_path, {
            "name": "z2-analysis",
            "kind": "group",
            "group": "Z2",
            "rep_a": {"generators": {"g1": {"diag": [1, -1]}}},
            "class_function_a": [0.25, 1.5],
        })
        report = scenario.run_scenario(scenario.parse_scenario(path))
        assert report["passed"]
        assert report["validation"]["rep_a"]["passed"]
        assert report["multiplicities"]["rep_a"] == [["chi0", 1], ["chi1", 1]]
        assert report["containment"]["all_matched"]

    def test_group_scenario_without_class_functions(self, tmp_path):
        path = write_scenario(tmp_path, {
            "name": "z2-rep-only",
            "kind": "group",
            "group": "Z2",
            "rep": {"generators": {"g1": {"diag": [1, -1]}}},
        })
        report = scenario.run_scenario(scenario.parse_scenario(path))
        assert report["passed"]
        assert report["multiplicities"]["rep_b"] == [["chi0", 1], ["chi1", 1]]
        assert not {"schur", "containment", "membership"} & report.keys()

    def test_group_membership(self, tmp_path):
        path = write_scenario(tmp_path, {
            "name": "z2-membership",
            "kind": "group",
            "group": "Z2",
            "rep_a": {"generators": {"g1": {"diag": [1, -1]}}},
            "class_function_a": [1.0, 0.5],
            "hamiltonian": {"diag": [1, 0, 0, -1]},
        })
        report = scenario.run_scenario(scenario.parse_scenario(path))
        assert report["membership"]["member"]

    def test_explicit_direction_on_matrix_base(self, tmp_path):
        """base + strength * direction from literals reports like that sum given
        as one literal, and records no perturbation seed."""
        base = np.diag([0.9, 0.2, -0.3, -0.8]).astype(np.complex128)
        direction = np.zeros((4, 4), dtype=np.complex128)
        direction[0, 3] = direction[3, 0] = 1.0
        direction[1, 2], direction[2, 1] = 0.5j, -0.5j
        perturbed = write_scenario(tmp_path, drift_payload(hamiltonian={
            "base": matrix_to_literal(base), "direction": matrix_to_literal(direction),
            "strength": 0.05}), name="perturbed.json")
        summed = write_scenario(tmp_path, drift_payload(
            hamiltonian=matrix_to_literal(base + 0.05 * direction)), name="summed.json")
        got = scenario.run_scenario(scenario.parse_scenario(perturbed))
        want = scenario.run_scenario(scenario.parse_scenario(summed))
        assert got["seeds"] == {"perturbation": None, "initial_state": 3}
        assert got["epsilon"] > 0
        for key in ("epsilon", "drift", "fidelity", "kernel_dim", "passed"):
            assert got[key] == want[key], key


class TestEmitReport:
    def test_csv_header_and_determinism(self):
        s = scenario.parse_scenario(SCENARIO_DIR / "drift_perturbed.json")
        a = scenario.emit_report(scenario.run_scenario(s), "csv")
        b = scenario.emit_report(scenario.run_scenario(s), "csv")
        assert a == b
        assert a.decode().splitlines()[0] == "t,drift,fidelity,bound_drift,bound_fidelity"

    def test_csv_rejected_for_non_series(self):
        s = scenario.parse_scenario(SCENARIO_DIR / "ex55_compat.json")
        with pytest.raises(ScenarioError, match="csv"):
            scenario.emit_report(scenario.run_scenario(s), "csv")

    def test_json_round_trip(self):
        s = scenario.parse_scenario(SCENARIO_DIR / "drift_perturbed.json")
        report = scenario.run_scenario(s)
        parsed = json.loads(scenario.emit_report(report, "json").decode())
        # .17g preserves doubles exactly; every field must survive
        assert parsed["epsilon"] == report["epsilon"]
        assert parsed["drift"] == report["drift"]
        assert parsed["times"] == report["times"]
        assert parsed["passed"] is True
        assert parsed["input_digest"] == s.digest
        assert parsed["generator"] == "philox"

    def test_text_format(self):
        s = scenario.parse_scenario(SCENARIO_DIR / "ex55_compat.json")
        text = scenario.emit_report(scenario.run_scenario(s), "text").decode()
        assert "incompatible" in text
        assert "H4" in text

    @pytest.mark.parametrize("source", ["ex74_kernel.json", "drift_perturbed.json",
                                        "fidelity", "ex_group_s3.json"])
    def test_text_numbers_match_json(self, tmp_path, source):
        if source == "fidelity":
            path = write_scenario(tmp_path, drift_payload(kind="fidelity"))
        else:
            path = SCENARIO_DIR / source
        report = scenario.run_scenario(scenario.parse_scenario(path))
        p = json.loads(scenario.emit_report(report, "json"))
        lines = scenario.emit_report(report, "text").decode().splitlines()
        assert lines[:2] == [f"scenario: {p['scenario']}  (kind: {p['kind']})",
                             f"passed: {p['passed']}"]
        label, pairs = lines[2].split(": ")
        names = [pair.split("=")[0] for pair in pairs.split(", ")]
        assert (label, names) == ("tolerances", sorted(p["tolerances"]))
        assert {k: float(v) for k, v in (pair.split("=") for pair in pairs.split(", "))} \
            == p["tolerances"]
        assert lines[3] == f"seed_override: {p['seed_override']}"
        body = lines[4:]
        if p["kind"] == "kernel":
            assert body[0] == f"kernel dimension: {p['kernel']['dim']}"
            label, value = body[1].split(": ")
            assert (label, float(value)) == ("epsilon", p["epsilon"])
            assert len(body) == 2
        elif p["kind"] == "group":
            c = p["containment"]
            assert body == [
                f"group: {p['group']['name']} (order {p['group']['order']})",
                f"rep_a multiplicities: {p['multiplicities']['rep_a']}",
                f"rep_b multiplicities: {p['multiplicities']['rep_b']}",
                f"containment (matched part): {c['contained']}  "
                f"all matched: {c['all_matched']}"]
        else:
            label, value = body[0].split(": ")
            assert (label, float(value)) == ("epsilon", p["epsilon"])
            assert body[1] == (f"drift_bound_ok: {p['drift_bound_ok']}  "
                               f"fidelity_bound_ok: {p['fidelity_bound_ok']}")
            assert body[2].split() == ["t", "drift", "fidelity"]
            rows = [[float(x) for x in line.split()] for line in body[3:]]
            assert rows == [list(row) for row in zip(p["times"], p["drift"], p["fidelity"])]


class TestCli:
    def test_run_exit_zero(self, capsys):
        assert cli.main(["run", str(SCENARIO_DIR / "ex55_compat.json")]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["passed"] is True

    def test_kind_gate(self, capsys):
        assert cli.main(["drift", str(SCENARIO_DIR / "ex55_compat.json")]) == 2
        assert "kind" in capsys.readouterr().err

    def test_kind_gate_comes_before_the_operators(self, tmp_path, monkeypatch, capsys):
        """``syncsub kernel`` on a drift file with a bad H reports the kind, and
        no Hamiltonian is read."""
        path = write_scenario(tmp_path, drift_payload(hamiltonian={"diag": [0, 1, 2]}))
        monkeypatch.setattr(scenario, "_read_hamiltonian",
                            lambda *args: pytest.fail("Hamiltonian read"))
        assert cli.main(["kernel", str(path)]) == 2
        assert capsys.readouterr().err == (
            "syncsub: scenario error: kind: scenario 'drift-test' has kind 'drift'; "
            "this subcommand handles kernel\n")

    def test_parse_error_exit_two(self, tmp_path, capsys):
        empty = tmp_path / "broken.json"
        empty.write_text("")
        assert cli.main(["run", str(empty)]) == 2

    def test_bound_violation_exit_one(self, capsys):
        # at zero slack the fidelity bound's roundoff excess (~4e-16) fails the check
        code = cli.main(["drift", str(SCENARIO_DIR / "drift_perturbed.json"),
                         "--tol", "bound_slack=0"])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["max_bound_slack"] > 0

    @pytest.mark.parametrize("scenario_name, tol", [
        ("ex55_compat", "compat_tol"), ("drift_perturbed", "bound_slack"),
        ("ex_group_s3", "equivar_tol"), ("ex74_kernel", "kernel_tol"),
        ("ex_group_s3", "schur_tol"), ("drift_perturbed", "init_tol")])
    def test_negative_tolerance_rejected_before_running(self, tmp_path, capsys,
                                                         scenario_name, tol):
        """A negative tolerance fails every check it limits: exit 2 at parse
        time, naming the field, from --tol or from the scenario file."""
        path = SCENARIO_DIR / f"{scenario_name}.json"
        assert cli.main(["run", str(path), "--tol", f"{tol}=-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"syncsub: scenario error: tol.{tol}: "
                                "tolerance must be >= 0, got -1.0\n")
        doc = json.loads(path.read_text())
        doc["tolerances"] = {tol: -1e-300}
        assert cli.main(["run", str(write_scenario(tmp_path, doc))]) == 2
        assert f"tolerances.{tol}: tolerance must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["tol", "tolerances"])
    def test_zero_kernel_tol_rejected_at_parse_time(self, tmp_path, capsys, source):
        """kernel_tol scales the kernel cutoff, so 0 exits 2 before running,
        naming the field, from --tol or from the scenario file."""
        path = SCENARIO_DIR / "ex74_kernel.json"
        if source == "tol":
            code = cli.main(["kernel", str(path), "--tol", "kernel_tol=0"])
        else:
            doc = json.loads(path.read_text())
            doc["tolerances"] = {"kernel_tol": 0}
            code = cli.main(["kernel", str(write_scenario(tmp_path, doc))])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == (f"syncsub: scenario error: {source}.kernel_tol: "
                                "kernel tolerance must be positive, got 0.0\n")

    def test_repeated_main_calls_match_fresh_processes(self, monkeypatch, capsys):
        """main() builds its parser on the first call and reuses it: calls with
        different flags print what fresh processes print, and no flag of one
        call (the appended --tol, --format) carries over to the next."""
        builds = []
        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "_build_parser",
                            lambda _fn=cli._build_parser: builds.append(1) or _fn())
        drift = str(SCENARIO_DIR / "drift_perturbed.json")
        for args in ((drift, "--tol", "bound_slack=0", "--format", "text"), (drift,),
                     (str(SCENARIO_DIR / "ex55_compat.json"), "--tol", "compat_tol=-1")):
            code = cli.main(["run", *args])
            captured = capsys.readouterr()
            done = run_in_subprocess(*args)
            assert (code, captured.out, captured.err) == (done.returncode, done.stdout,
                                                          done.stderr), args
        assert len(builds) == 1

    def test_zero_tolerance_accepted(self, capsys):
        # zero asks for exact agreement; ex55's diagonal H1 has residual exactly 0
        assert cli.main(["run", str(SCENARIO_DIR / "ex55_compat.json"),
                         "--tol", "compat_tol=0"]) == 0
        verdicts = json.loads(capsys.readouterr().out)["verdicts"]
        assert verdicts[0]["residual"] == 0.0 and verdicts[0]["class"] == "diagonal"

    def test_schur_residual_above_tolerance_exit_one(self, capsys):
        code = cli.main(["run", str(SCENARIO_DIR / "ex_group_s3.json"),
                         "--tol", "schur_tol=1e-300"])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is False
        assert report["containment"]["passed"] and report["validation"]["rep_a"]["passed"]

    @pytest.mark.parametrize("overrides, message", [
        ({"hamiltonian": {"diag": [1, 2, 3]}},
         "hamiltonian: dimension 3 does not match 2x2 product space"),
        ({"hamiltonian": {"local": {"a": {"diag": [1, 2, 3]}, "b": {"diag": [1, 2]}}}},
         "hamiltonian.local: local term dimensions do not match clocks"),
        ({"hamiltonian": {"base": {"diag": [1, 2, 3, 4]}, "direction": {"diag": [1, 2, 3]},
                          "strength": 0.1}},
         "hamiltonian.direction: dimension 3 does not match product space"),
        ({"initial_state": {"vector": [[1, 0], [0, 0]]}},
         "initial_state.vector: dimension 2 does not match 4"),
    ])
    def test_dimension_mismatch_exit_two(self, tmp_path, capsys, overrides, message):
        path = write_scenario(tmp_path, drift_payload(**overrides))
        assert cli.main(["run", str(path)]) == 2
        assert capsys.readouterr().err == f"syncsub: scenario error: {message}\n"

    @pytest.mark.parametrize("payload, message", [
        ({"kind": "compat", "clock": {"labels": [0, 1, 2]},
          "hamiltonians": [{"name": "H1", "diag": [1, 1]}]},
         "hamiltonians[0]: dimension 2 does not match 3-dim clock space"),
        ({"kind": "compat", "clock": {"labels": [0, 1, 2]},
          "hamiltonians": [{"diag": [1, 2, 3]}, {"base": {"diag": [1, 1]}, "strength": 0.1}]},
         "hamiltonians[1].base: dimension 2 does not match 3-dim clock space"),
        ({"kind": "compat", "clock": {"labels": [0, 1, 2]},
          "hamiltonians": [{"base": {"diag": [1, 2, 3]}, "direction": {"diag": [1, 2]},
                            "strength": 0.1}]},
         "hamiltonians[0].direction: dimension 2 does not match clock space"),
        ({"kind": "compat", "clock": {"labels": [0, 1, 2]},
          "hamiltonians": [{"local": {"a": {"diag": [1, 2]}, "b": {"diag": [1]}}}]},
         "hamiltonians[0].local: local term dimensions do not match clocks"),
        (drift_payload(hamiltonian={"base": {"diag": [1, 2, 3]}, "strength": 0.1}),
         "hamiltonian.base: dimension 3 does not match 2x2 product space"),
        (drift_payload(hamiltonian={"base": {"base": {"local": {"a": {"diag": [1]},
                                                               "b": {"diag": [1, 2]}}},
                                             "strength": 0.1}, "strength": 0.1}),
         "hamiltonian.base.base.local: local term dimensions do not match clocks"),
        ({"kind": "group", "group": "Z2", "rep": {"generators": {"g1": {"diag": [1, -1]}}},
          "class_function_a": [0.4, 0.9],
          "hamiltonian": {"base": {"diag": [1, 2, 3, 4]}, "direction": {"diag": [1, 2]},
                          "strength": 0.1}},
         "hamiltonian.direction: dimension 2 does not match product space"),
    ])
    def test_hamiltonian_errors_name_their_field(self, tmp_path, capsys, payload, message):
        path = write_scenario(tmp_path, {"name": "paths", **payload})
        assert cli.main(["run", str(path)]) == 2
        assert capsys.readouterr().err == f"syncsub: scenario error: {message}\n"

    @pytest.mark.parametrize("name, edit, message", [
        # a misspelt class_function_b would be ignored, and B would copy A's values
        ("ex_group_s3.json",
         lambda doc: doc.update(class_fuction_b=doc.pop("class_function_b")),
         "class_fuction_b: unknown field for kind group"),
        ("ex_group_s3.json", lambda doc: doc.update(rep=doc["rep_a"]),
         "rep: rep is an alias of rep_a; give one of them"),
        ("drift_perturbed.json", lambda doc: doc.update(clock={"labels": [0, 1]}),
         "clock: unknown field for kind drift"),
        ("ex74_kernel.json", lambda doc: doc.update(times=[0, 1]),
         "times: unknown field for kind kernel"),
        ("ex55_compat.json", lambda doc: doc.update(clock_a=doc["clock"]),
         "clock_a: unknown field for kind compat"),
        ("drift_perturbed.json", lambda doc: doc.update(kind="fidelity", clock={"labels": [0, 1]}),
         "clock: unknown field for kind fidelity"),
        ("ex_group_s3.json", lambda doc: doc.update(times=[0, 1]),
         "times: unknown field for kind group"),
    ], ids=["misspelt_field", "rep_and_rep_a", "drift", "kernel", "compat", "fidelity", "group"])
    def test_unknown_or_duplicate_top_level_field_exit_two(self, tmp_path, capsys, name, edit,
                                                          message):
        doc = json.loads((SCENARIO_DIR / name).read_text(encoding="utf-8"))
        edit(doc)
        assert cli.main(["run", str(write_scenario(tmp_path, doc))]) == 2
        assert capsys.readouterr().err == f"syncsub: scenario error: {message}\n"

    @pytest.mark.parametrize("clock, message", [
        ({"labels": [0, 1, 10 ** 400]}, "clock.labels[2]: number must be finite"),
        ({"labels": [0, 1], "basis": {"dim": 2, "entries": [[1, 0], [0, 0], [0, -10 ** 400],
                                                            [1, 0]]}},
         "clock.basis.entries[2]: entries must be finite"),
    ])
    def test_integer_too_large_for_a_float_exit_two(self, tmp_path, capsys, clock, message):
        path = write_scenario(tmp_path, {"name": "big", "kind": "compat", "clock": clock,
                                         "hamiltonians": [{"diag": [1, 2]}]})
        assert cli.main(["run", str(path)]) == 2
        assert capsys.readouterr().err == f"syncsub: scenario error: {message}\n"

    def test_integer_beyond_int64_reads_as_float(self):
        clock = clock_from_literal({"labels": [0, 2 ** 70]})
        np.testing.assert_array_equal(np.diag(oracles.clock_matrix(clock)).real,
                                      [0.0, float(2 ** 70)])

    def test_out_file_and_format(self, tmp_path):
        out = tmp_path / "report.csv"
        code = cli.main(["drift", str(SCENARIO_DIR / "drift_perturbed.json"),
                         "--out", str(out), "--format", "csv"])
        assert code == 0
        assert out.read_bytes().startswith(b"t,drift,fidelity")

    def test_multi_scenario_run_matches_separate_runs(self, tmp_path, capsys):
        paths = [str(SCENARIO_DIR / "ex55_compat.json"),
                 str(SCENARIO_DIR / "ex74_kernel.json")]
        assert cli.main(["run"] + paths) == 0
        combined = capsys.readouterr().out
        separate = ""
        for p in paths:
            cli.main(["run", p])
            separate += capsys.readouterr().out
        assert combined == separate

    def test_multi_scenario_with_out_rejected(self, tmp_path, capsys):
        code = cli.main(["run", str(SCENARIO_DIR / "ex55_compat.json"),
                         str(SCENARIO_DIR / "ex74_kernel.json"),
                         "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_bad_tol_flag(self, capsys):
        code = cli.main(["run", str(SCENARIO_DIR / "ex55_compat.json"),
                         "--tol", "bound_slack"])
        assert code == 2

    def test_non_finite_tol_rejected_before_running(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = cli.main(["run", str(SCENARIO_DIR / "drift_perturbed.json"),
                         "--out", str(out), "--tol", "equivar_tol=nan"])
        assert code == 2
        assert "tol.equivar_tol: tolerance must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_tol_rejected_like_scenario_file(self, tmp_path, capsys):
        # ex74's kernel would otherwise run (and pass) with an infinite cutoff
        code = cli.main(["run", str(SCENARIO_DIR / "ex74_kernel.json"),
                         "--tol", "kernel_tol=inf"])
        assert code == 2
        assert "tolerance must be a finite number" in capsys.readouterr().err
        doc = json.loads((SCENARIO_DIR / "ex74_kernel.json").read_text())
        doc["tolerances"] = {"kernel_tol": 1e400}   # json writes Infinity
        assert cli.main(["run", str(write_scenario(tmp_path, doc))]) == 2
        assert "tolerance must be a finite number" in capsys.readouterr().err

    def test_unknown_tol_flag_rejected(self, capsys):
        code = cli.main(["run", str(SCENARIO_DIR / "ex74_kernel.json"), "--tol", "mystery_tol=1"])
        assert code == 2
        assert "tol.mystery_tol: unknown tolerance" in capsys.readouterr().err

    def test_match_tol_is_no_longer_a_tolerance(self, capsys):
        # matched irreps follow the kernel's own rule, kernel_tol with its floor
        code = cli.main(["run", str(SCENARIO_DIR / "ex_group_s3.json"), "--tol", "match_tol=1e-9"])
        assert code == 2
        assert "tol.match_tol: unknown tolerance" in capsys.readouterr().err

    def test_multiplicity_two_group_scenario_runs(self, tmp_path, capsys):
        """S3's regular representation holds std twice: its diagonal block is
        4 x 4 on each side, matched, and exactly the kernel."""
        group, _ = grouprep.builtin_group("S3")
        reg = oracles.regular_representation(group)
        doc = json.loads((SCENARIO_DIR / "ex_group_s3.json").read_text())
        h_a, _ = grouprep.observable_from_class_function([0.2, 0.5, -0.3], reg)
        doc.update(rep_a={"elements": [matrix_to_literal(m) for m in reg.matrices]},
                   hamiltonian={"local": {"a": matrix_to_literal(h_a),
                                          "b": matrix_to_literal(np.eye(6))}})
        assert cli.main(["run", str(write_scenario(tmp_path, doc))]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["multiplicities"]["rep_a"] == [["triv", 1], ["sign", 1], ["std", 2]]
        entries = {e["irrep"]: e for e in report["containment"]["entries"]}
        assert entries["std"]["matched"] and not entries["triv"]["matched"]
        assert report["containment"]["kernel_dim"] == report["containment"]["diagonal_dim"] == 16
        assert report["membership"]["member"] and report["passed"]

    def test_kernel_scenario_floors_the_cutoff(self, tmp_path, capsys):
        # ||K|| = 1e-13: the 1e-13 gap is zero under KERNEL_ABS_FLOOR, as in null_space
        path = write_scenario(tmp_path, {"name": "roundoff-gap", "kind": "kernel",
                                         "clock_a": {"labels": [0, 1e-13]},
                                         "clock_b": {"labels": [0]}})
        assert cli.main(["run", str(path)]) == 0
        kernel = json.loads(capsys.readouterr().out)["kernel"]
        assert (kernel["dim"], kernel["tol_used"]) == (2, opcore.KERNEL_ABS_FLOOR)

    def test_kernel_tol_below_the_floor_exits_zero(self, tmp_path, capsys):
        # 1e-14 * ||K|| is far below KERNEL_ABS_FLOOR, so the 5e-13 gap is zero,
        # as it is for null_space of the dense K at the same tolerance
        labels_a, labels_b = [0, 5e-13], [0]
        path = write_scenario(tmp_path, {"name": "floor-gap", "kind": "kernel",
                                         "clock_a": {"labels": labels_a},
                                         "clock_b": {"labels": labels_b}})
        assert cli.main(["run", str(path), "--tol", "kernel_tol=1e-14"]) == 0
        report = json.loads(capsys.readouterr().out)
        want, cutoff = oracles.null_space(oracles.sync_operator(
            clocks.make_clock(labels_a), clocks.make_clock(labels_b)), tol=1e-14)
        assert report["kernel"]["dim"] == want.shape[1] == 2
        assert report["kernel"]["tol_used"] == cutoff
        np.testing.assert_allclose(kernel_projector(report),
                                   oracles.span_projector(want), atol=1e-15)

    def test_computed_nan_exit_three(self, monkeypatch, capsys):
        def nan_epsilon(*args, **kwargs):
            report = scenario.run_scenario(*args, **kwargs)
            report["epsilon"] = float("nan")
            return report

        monkeypatch.setattr(cli, "run_scenario", nan_epsilon)
        assert cli.main(["run", str(SCENARIO_DIR / "ex74_kernel.json")]) == 3
        assert "numerical failure: cannot serialize NaN" in capsys.readouterr().err

    def test_numerical_failure_exit_three(self, tmp_path, capsys):
        # (1, +-i) rows pass orthogonality but are no Z2 characters; the
        # isotypic projectors they produce fail idempotence mid-run
        path = write_scenario(tmp_path, {
            "name": "bad-table-projectors",
            "kind": "group",
            "group": "Z2",
            "rep": {"elements": [{"diag": [1, 1]}, {"diag": [1, -1]}]},
            "characters": {"irreps": [
                {"name": "x", "dim": 1, "chars": [1, [0, 1]]},
                {"name": "y", "dim": 1, "chars": [1, [0, -1]]},
            ]},
            "class_function_a": [1.0, 0.5],
        })
        code = cli.main(["run", str(path)])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["kernel", "drift", "compat"])
    def test_label_difference_overflow_exit_three(self, tmp_path, capsys, kind):
        # finite labels whose differences a_i - b_j (or l_i - l_j) overflow to +-inf
        payload = {"name": "overflow", "kind": kind,
                   "clock_a": {"labels": [1e308, -1e308]},
                   "clock_b": {"labels": [-1e308, 1e308]},
                   "hamiltonian": {"diag": [0.0, 1.0, 2.0, 3.0]}}
        if kind == "drift":
            payload["times"] = [0.0, 1.0]
        if kind == "compat":
            payload = {"name": "overflow", "kind": kind,
                       "clock": {"labels": [1e308, -1e308]},
                       "hamiltonians": [{"diag": [1.0, 2.0]}]}
        code = cli.main(["run", str(write_scenario(tmp_path, payload))])
        assert code == 3
        assert "numerical failure: clock label differences overflow" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["compat", "kernel"])
    def test_commutator_overflow_exits_three_with_one_line(self, tmp_path, kind):
        """Finite label gaps whose products with H overflow: one named line on
        stderr, no numpy warnings. Run in a subprocess, so that warnings reach
        stderr as they do from the command line."""
        h = {"dim": 2, "entries": [[0, 0], [2, 0], [2, 0], [0, 0]]}
        if kind == "compat":
            payload = {"name": "overflow", "kind": kind,
                       "clock": {"labels": [1e308, 1.5e308]}, "hamiltonians": [h]}
        else:
            payload = {"name": "overflow", "kind": kind,
                       "clock_a": {"labels": [1e308, 1.5e308]},
                       "clock_b": {"labels": [0]}, "hamiltonian": h}
        done = run_in_subprocess(write_scenario(tmp_path, payload))
        assert done.returncode == 3
        assert done.stderr == "syncsub: numerical failure: clock-basis commutator overflows\n"

    def test_overflowing_tolerance_scale_exits_three(self, tmp_path):
        """||H|| ||T|| = 4e300 * 1e8 overflows to inf, and compat_tol * inf would
        pass any ||[H, T]||: the compatibility check exits 3 with one line on
        stderr instead of classifying H."""
        payload = {"name": "scale-overflow", "kind": "compat",
                   "clock": {"labels": [0, 1e8, 2e7, 5e7]},
                   "hamiltonians": [{"dim": 4, "entries": [[1e300, 0.0]] * 16}]}
        done = run_in_subprocess(write_scenario(tmp_path, payload))
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr == "syncsub: numerical failure: tolerance scale is not finite (inf)\n"

    def test_overflowing_check_screen_is_silent(self, tmp_path):
        """A block-diagonal H of 1e160 entries: a Frobenius screen of a matrix
        this size overflows, the exact norm decides, and stderr stays empty."""
        big, zero = [[1e160, 0.0]] * 2, [[0.0, 0.0]] * 2
        entries = (big + zero) * 2 + (zero + big) * 2
        payload = {"name": "screen-overflow", "kind": "compat",
                   "clock": {"labels": [0, 0, 1, 1]},
                   "hamiltonians": [{"dim": 4, "entries": entries}]}
        done = run_in_subprocess(write_scenario(tmp_path, payload))
        assert (done.returncode, done.stderr) == (0, "")
        assert json.loads(done.stdout)["verdicts"][0]["class"] == "block_diagonal"

    def test_local_commutator_overflow_matches_dense_path(self, tmp_path):
        """A local H takes epsilon from its factors, with each side's labels
        shifted by one label of the other side. Labels [1.5e308, 1.4e308]
        against [1.45e308] make h_ij a_j overflow, but not h_ij (a_j - b_0):
        the run exits 0 with the dense path's epsilon, 2e307, to roundoff.
        Labels [1e308, -1e308] against [0] make the commutator entry itself
        overflow: exit 3 with one named line and no numpy warnings."""
        h_a = {"dim": 2, "entries": [[0, 0], [2, 0], [2, 0], [0, 0]]}

        def payload(labels_a, labels_b):
            return {"name": "overflow", "kind": "kernel", "clock_a": {"labels": labels_a},
                    "clock_b": {"labels": labels_b},
                    "hamiltonian": {"local": {"a": h_a, "b": {"diag": [0.0]}}}}

        out = tmp_path / "wide.json.out"
        done = run_in_subprocess(write_scenario(tmp_path, payload([1.5e308, 1.4e308], [1.45e308]),
                                                name="wide.json"), "--out", str(out))
        assert (done.returncode, done.stderr) == (0, "")
        dense = sync.sync_bundle(sync.make_system(
            clocks.make_clock([1.5e308, 1.4e308]), clocks.make_clock([1.45e308]),
            matrix_from_literal(h_a))).epsilon
        assert dense == pytest.approx(2e307, rel=1e-15)
        assert json.loads(out.read_bytes())["epsilon"] == pytest.approx(dense, rel=4e-16)
        done = run_in_subprocess(write_scenario(tmp_path, payload([1e308, -1e308], [0.0])))
        assert done.returncode == 3
        assert done.stderr == "syncsub: numerical failure: clock-basis commutator overflows\n"

    @pytest.mark.parametrize("case", ["overflow", "violation"])
    def test_overflowing_drift_exits_three_and_a_violation_one(self, tmp_path, case):
        """clock_a [1.5e308, 0] against [0, 0], H coupling index 2 to 0 and 1 by
        0.05 and psi0 = e_2: the drift's squares and (epsilon t)^2 overflow, so
        no bound verdict can be read; exit 3 with one named line and no numpy
        warnings. A state 2.5e-9 off the kernel (within init_tol) under a
        diagonal H drifts by 5e-9 at every t while epsilon = 0: a real
        violation of drift <= epsilon |t| + bound_slack, exit 1."""
        if case == "overflow":
            entries = [[0, 0]] * 16
            for i, j in ((2, 0), (2, 1), (0, 2), (1, 2)):
                entries[4 * i + j] = [0.05, 0]
            payload = drift_payload(clock_a={"labels": [1.5e308, 0]},
                                    clock_b={"labels": [0, 0]},
                                    hamiltonian={"dim": 4, "entries": entries},
                                    times=[0, 1, 2],
                                    initial_state={"vector": [[0, 0], [0, 0], [1, 0], [0, 0]]})
        else:
            off = 2.5e-9
            payload = drift_payload(hamiltonian={"diag": [0.5, 0.1, -0.1, -0.5]}, times=[0, 1, 2],
                                    initial_state={"vector": [[float(np.sqrt(1 - off * off)), 0],
                                                              [off, 0], [0, 0], [0, 0]]})
        done = run_in_subprocess(write_scenario(tmp_path, payload))
        if case == "overflow":
            assert done.returncode == 3
            assert done.stderr == ("syncsub: numerical failure: "
                                   "drift series or its bounds overflow\n")
        else:
            assert (done.returncode, done.stderr) == (1, "")
            report = json.loads(done.stdout)
            assert report["epsilon"] == 0 and not report["drift_bound_ok"]
            assert report["drift"] == pytest.approx([5e-9] * 3, rel=1e-6)

    def test_init_check_beyond_squares_range_exits_two_with_finite_value(self, tmp_path):
        """clock_a [1.5e308, 0] on a rotated basis against [0, 0]: the sampled
        kernel state's roundoff off the kernel, ~1e-16, times the 1.5e308 gap
        gives ||K psi0|| ~ 1e292, whose square overflows. The norm is taken on
        entries scaled by a power of two, so the run exits 2 naming a finite
        value, with no numpy warning."""
        q = np.linalg.qr(np.random.default_rng(0).normal(size=(2, 2)))[0]
        payload = drift_payload(
            clock_a={"labels": [1.5e308, 0], "basis": matrix_to_literal(q)},
            clock_b={"labels": [0, 0]}, hamiltonian={"diag": [0.1, 0.2, 0.3, 0.4]},
            times=[0, 1, 2])
        done = run_in_subprocess(write_scenario(tmp_path, payload))
        assert done.returncode == 2
        head = "syncsub: validation error: initial state lies outside the kernel: ||K psi0|| = "
        assert done.stderr.startswith(head) and done.stderr.endswith(" > 1.0e-08\n")
        value = float(done.stderr[len(head):].split(" > ")[0])
        assert 1e280 < value < np.inf

    def test_library_validation_error_exit_two(self, tmp_path, capsys):
        # parses fine but multiplicities do not round to integers
        path = write_scenario(tmp_path, {
            "name": "bad-rep",
            "kind": "group",
            "group": "Z2",
            "rep": {"elements": [{"diag": [1]}, {"diag": [1]}]},
            "characters": {"irreps": [
                {"name": "x", "dim": 1, "chars": [1, [0, 1]]},
                {"name": "y", "dim": 1, "chars": [1, [0, -1]]},
            ]},
        })
        code = cli.main(["run", str(path)])
        assert code == 2
        assert "validation error" in capsys.readouterr().err

    def test_error_messages_print_plain_floats(self, tmp_path, capsys):
        """Values in messages read as Python floats, never as np.float64(...)."""
        asymmetric = write_scenario(tmp_path, {
            "name": "cos-input", "kind": "group", "group": "Z3",
            "rep": {"generators": {"g1": {"diag": [1, 1, 1]}}},
            "class_function_a": [1.0, 0.5, 0.25],
        }, name="group.json")
        unnormalized = write_scenario(tmp_path, drift_payload(
            initial_state={"vector": [[1, 0], [0, 0], [0, 0], [0.5, 0]]}), name="drift.json")
        assert cli.main(["run", str(asymmetric)]) == 2
        assert capsys.readouterr().err == (
            "syncsub: validation error: class function must agree on inverse classes: "
            "classes 1 and 2 carry 0.5 vs 0.25\n")
        assert cli.main(["run", str(unnormalized)]) == 2
        assert capsys.readouterr().err == (
            "syncsub: validation error: initial state is not normalized: "
            "||psi0|| = 1.118033988749895\n")

    def test_group_literal_reads_characters_in_its_class_order(self, tmp_path, capsys):
        """A custom table's classes fix the order of its characters and class
        functions: the swapped D4 literal reports what the builtin D4 does."""
        reports = []
        for swap in (False, True):
            path = write_scenario(tmp_path, d4_payload(swap), name=f"d4_{swap}.json")
            assert cli.main(["run", str(path)]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        builtin, swapped = ({k: r[k] for k in ("multiplicities", "schur", "containment")}
                            for r in reports)
        assert builtin["multiplicities"]["rep_a"][2] == ["B1", 1]
        assert builtin["containment"]["entries"][0]["alpha"] == 2
        assert swapped == builtin

    def test_log_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SYNCSUB_LOG", "info")
        assert cli.main(["run", str(SCENARIO_DIR / "ex74_kernel.json")]) == 0


    def test_main_adds_no_handler_per_call(self, monkeypatch, capsys):
        monkeypatch.delenv("SYNCSUB_LOG", raising=False)
        logger = logging.getLogger("syncsub")
        before = list(logger.handlers)
        for _ in range(3):
            assert cli.main(["run", str(SCENARIO_DIR / "ex74_kernel.json")]) == 0
        assert logger.handlers == before
        assert any(isinstance(h, logging.NullHandler) for h in before)


def custom_z2_payload(edit):
    """A Z2 group scenario given by its table, classes and characters, after ``edit``."""
    payload = {
        "name": "z2-table", "kind": "group",
        "group": {"elements": ["e", "a"], "mult_table": [[0, 1], [1, 0]],
                  "classes": [[0], [1]]},
        "characters": {"irreps": [{"name": "triv", "dim": 1, "chars": [1, 1]},
                                  {"name": "sign", "dim": 1, "chars": [1, -1]}]},
        "rep": {"elements": [{"diag": [1, 1]}, {"diag": [1, -1]}]},
    }
    edit(payload)
    return payload


def d4_payload(swap):
    """A D4 scenario on its 1-dim irrep B1 with the class function 1 on {s, rrs}:
    the builtin group, or a table literal that lists the reflection classes
    swapped and gives its characters and class function in that order."""
    b1 = [1, -1, 1, -1, 1, -1, 1, -1]
    payload = {"name": "d4", "kind": "group", "group": "D4",
               "rep": {"elements": [{"diag": [x]} for x in b1]},
               "class_function_a": [0, 0, 0, 1, 0]}
    if swap:
        group, chars = grouprep.builtin_group("D4")
        order = [0, 1, 2, 4, 3]
        payload["group"] = {"elements": list(group.elements),
                            "mult_table": group.mult_table.tolist(),
                            "classes": [list(group.conjugacy_classes[c]) for c in order]}
        payload["characters"] = {"irreps": [
            {"name": ir.name, "dim": ir.dim, "chars": [ir.characters[c].real for c in order]}
            for ir in chars]}
        payload["class_function_a"] = [payload["class_function_a"][c] for c in order]
    return payload


def vector_payload(first):
    return drift_payload(initial_state={"vector": [first, [0, 0], [0, 0], [0, 0]]})


def set_item(*keys):
    """Edit that stores the last key's value at payload[keys[0]][keys[1]]..."""
    *where, key, value = keys

    def edit(payload):
        for k in where:
            payload = payload[k]
        payload[key] = value
    return edit


class TestNumberFields:
    """Every number in a scenario file goes through one checked reader, so a
    malformed one exits 2 and names its field."""

    @pytest.mark.parametrize("payload, message", [
        (vector_payload(["a", 0]), "initial_state.vector[0]: expected an [re, im] pair"),
        (drift_payload(hamiltonian={"dim": True, "entries": [[1, 0]]}),
         "hamiltonian.dim: expected an integer"),
        (vector_payload([float("nan"), 0]), "initial_state.vector[0]: entries must be finite"),
        (custom_z2_payload(set_item("group", "mult_table", 0, 1, 10 ** 29)),
         "group.mult_table[0][1]: expected an integer in [0, 2)"),
        (vector_payload([True, 0]), "initial_state.vector[0]: expected an [re, im] pair"),
        (custom_z2_payload(set_item("group", "mult_table", 0, 1, 1.9)),
         "group.mult_table[0][1]: expected an integer"),
        (custom_z2_payload(set_item("group", "mult_table", 0, 1, True)),
         "group.mult_table[0][1]: expected an integer"),
        (custom_z2_payload(set_item("group", "classes", 0, 0, 0.4)),
         "group.classes[0][0]: expected an integer"),
        (custom_z2_payload(set_item("characters", "irreps", 1, "dim", "1")),
         "characters.irreps[1].dim: expected an integer"),
        (custom_z2_payload(set_item("characters", "irreps", 1, "chars", 1, float("nan"))),
         "characters.irreps[1].chars[1]: entries must be finite"),
        (drift_payload(hamiltonian={"base": {"diag": [1, 2, 3, 4]}, "direction": "random",
                                    "strength": float("inf")}),
         "hamiltonian.strength: number must be finite"),
        (drift_payload(seed=-5, hamiltonian={"base": {"diag": [1, 2, 3, 4]},
                                             "strength": 0.1}),
         f"seed: expected an integer in [0, {2 ** 128})"),
    ])
    def test_malformed_number_exits_two_naming_its_field(self, tmp_path, capsys,
                                                         payload, message):
        assert cli.main(["run", str(write_scenario(tmp_path, payload))]) == 2
        assert capsys.readouterr().err == f"syncsub: scenario error: {message}\n"

    def test_seed_range_is_philox_key_range(self, tmp_path, capsys):
        top = drift_payload(hamiltonian={"base": {"diag": [1, 2, 3, 4]}, "strength": 0.1},
                            seed=2 ** 128 - 1)
        assert cli.main(["run", str(write_scenario(tmp_path, top))]) == 0
        capsys.readouterr()
        top["seed"] = 2 ** 128
        assert cli.main(["run", str(write_scenario(tmp_path, top))]) == 2
        assert capsys.readouterr().err.startswith("syncsub: scenario error: seed: ")

    @pytest.mark.parametrize("name, seed", [("ex55_compat.json", -5),
                                            ("drift_perturbed.json", -5),
                                            ("drift_perturbed.json", 2 ** 128)])
    def test_seed_override_is_read_as_a_seed(self, tmp_path, capsys, name, seed):
        """--seed takes the scenario seeds' range, also where nothing is sampled."""
        out = tmp_path / "report.json"
        assert cli.main(["run", str(SCENARIO_DIR / name), "--seed", str(seed),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"syncsub: scenario error: --seed: expected an integer in [0, {2 ** 128})\n")
        assert not out.exists()
        assert cli.main(["run", str(SCENARIO_DIR / name), "--seed", str(2 ** 128 - 1),
                         "--out", str(out)]) == 0
        assert json.loads(out.read_bytes())["seed_override"] == 2 ** 128 - 1

    def test_vector_entries_convert_exactly(self, tmp_path):
        state = scenario.parse_scenario(write_scenario(tmp_path, vector_payload([1, -0.0])))
        got = state.initial_state["vector"]
        assert np.array_equal(got.view(np.float64), np.array([1, -0.0, 0, 0, 0, 0, 0, 0.0]))
        assert np.signbit(got[0].imag)


def _numbers(obj, path=()):
    """(key path, value) of every number (not a bool) in a parsed JSON document."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _numbers(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _numbers(value, path + (i,))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield path, obj


def _field_path(doc, keys) -> str:
    """The field path an error names for the number at ``keys``: generator
    labels read as ['label'], and a component of an [re, im] pair (or of a
    character pair) names its pair."""
    parent = doc
    for k in keys[:-1]:
        parent = parent[k]
    if isinstance(parent, list) and len(parent) == 2 and isinstance(keys[-2], int):
        keys = keys[:-1]
    out = ""
    for prev, k in zip((None,) + keys, keys):
        if isinstance(k, int):
            out += f"[{k}]"
        elif prev == "generators":
            out += f"[{k!r}]"
        else:
            out += f".{k}" if out else k
    return out


BUNDLED = {p.name: json.loads(p.read_text()) for p in sorted(SCENARIO_DIR.glob("*.json"))}
NUMBER_SITES = [(name, keys) for name, doc in BUNDLED.items() for keys, _ in _numbers(doc)]
MALFORMED = [True, False, "0.5", float("nan"), float("inf"), float("-inf"), 10 ** 400,
             -10 ** 400, [1, 0]]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(site=st.sampled_from(NUMBER_SITES), bad=st.sampled_from(MALFORMED))
def test_any_malformed_number_in_a_bundled_scenario_exits_two(site, bad):
    name, keys = site
    doc = json.loads(json.dumps(BUNDLED[name]))
    set_item(*keys, bad)(doc)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["run", str(path)])
    assert code == 2, err.getvalue()
    assert err.getvalue().startswith(
        f"syncsub: scenario error: {_field_path(BUNDLED[name], keys)}: "), err.getvalue()


class TestDeterminism:
    @pytest.mark.parametrize("name", ["ex55_compat.json", "ex74_kernel.json",
                                      "drift_perturbed.json", "ex_group_s3.json"])
    def test_byte_identical_json(self, name, tmp_path):
        src = SCENARIO_DIR / name
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert cli.main(["run", str(src), "--out", str(out1)]) == 0
        assert cli.main(["run", str(src), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_byte_identical_csv(self, tmp_path):
        src = SCENARIO_DIR / "drift_perturbed.json"
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert cli.main(["drift", str(src), "--out", str(out1), "--format", "csv"]) == 0
        assert cli.main(["drift", str(src), "--out", str(out2), "--format", "csv"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_blas_thread_count_moves_floats_only_in_the_last_bits(self, tmp_path):
        """Byte identity holds for a fixed BLAS build and thread count. Another
        thread count may reorder BLAS sums: exit codes, verdicts, flags, strings
        and integers stay equal, and every float agrees to 1e-12 absolute.

        A reordered sum of n terms moves by at most about n * eps times the size
        of its terms; the bundled reports' values are below 10 in magnitude, and
        the largest difference seen on the n = 256 benchmark pools is 5.3e-15.
        1e-12 is ~200 times that and 100 times below the 1e-10 tolerances that
        reported residuals are compared with; verdicts are compared exactly.
        """
        names = ["ex55_compat.json", "ex74_kernel.json", "drift_perturbed.json",
                 "ex_group_s3.json"]
        script = ("import sys\nfrom syncsub import cli\n"
                  "for src, out in zip(sys.argv[1::2], sys.argv[2::2]):\n"
                  "    print(cli.main(['run', src, '--out', out, '--format', 'json']))\n")
        runs = {}
        for threads in ("1", "2"):
            outs = [tmp_path / f"{threads}_{name}" for name in names]
            args = [str(p) for name, out in zip(names, outs) for p in (SCENARIO_DIR / name, out)]
            env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=threads)
            done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                                  capture_output=True, text=True, check=True, timeout=120)
            runs[threads] = (done.stdout.split(), [json.loads(o.read_bytes()) for o in outs])
        assert runs["1"][0] == runs["2"][0] == ["0"] * len(names)
        for name, got, want in zip(names, runs["2"][1], runs["1"][1]):
            assert_report_close(got, want, name)


def assert_report_close(got, want, path="report"):
    """Keys, lengths, verdicts, flags, strings and integers exactly; floats to 1e-12."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            assert_report_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_report_close(g, w, f"{path}[{i}]")
    elif float in (type(got), type(want)):
        assert got == pytest.approx(want, rel=0, abs=1e-12), path
    else:
        assert type(got) is type(want) and got == want, path


# golden name -> (bundled scenario, flags): the goldens of runs with --seed and --tol
GOLDEN_OVERRIDES = {
    "drift_perturbed.overrides": ("drift_perturbed", ("--seed", "7", "--tol", "bound_slack=1e-8")),
    "ex55_compat.overrides": ("ex55_compat", ("--tol", "compat_tol=1e-9")),
}


def assert_matches_golden(tmp_path, name, fmt="json"):
    """The report of a bundled scenario in ``fmt`` is its golden file, byte for
    byte; a name in GOLDEN_OVERRIDES runs its scenario with its flags."""
    suffix = "txt" if fmt == "text" else fmt
    out = tmp_path / f"report.{suffix}"
    source, flags = GOLDEN_OVERRIDES.get(name, (name, ()))
    assert cli.main(["run", str(SCENARIO_DIR / f"{source}.json"), "--out", str(out),
                     "--format", fmt, *flags]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / f"{name}.{suffix}").read_bytes()


class TestGolden:
    def test_group_example_matches_golden(self, tmp_path):
        assert_matches_golden(tmp_path, "ex_group_s3")

    @pytest.mark.parametrize("name", ["ex55_compat", "ex74_kernel", "drift_perturbed",
                                      "drift_perturbed.overrides"])
    def test_bundled_example_matches_golden(self, tmp_path, name):
        assert_matches_golden(tmp_path, name)

    @pytest.mark.parametrize("name", [Path(p).stem for p in BUNDLED] + ["ex55_compat.overrides"])
    def test_text_report_matches_golden(self, tmp_path, name):
        assert_matches_golden(tmp_path, name, "text")

    def test_csv_report_matches_golden(self, tmp_path):
        assert_matches_golden(tmp_path, "drift_perturbed", "csv")

    def test_text_override_golden_differs_in_its_tolerance_line(self):
        """ex55_compat's text report under --tol compat_tol=1e-9 differs from the
        plain one in the tolerances line alone, so the golden pins the flag."""
        plain, overridden = ((GOLDEN_DIR / f"{name}.txt").read_text().splitlines()
                             for name in ("ex55_compat", "ex55_compat.overrides"))
        differ = [i for i, (a, b) in enumerate(zip(plain, overridden)) if a != b]
        assert len(plain) == len(overridden) and len(differ) == 1
        assert overridden[differ[0]].startswith("tolerances: ")
        assert "compat_tol=1.0000000000000001e-09" in overridden[differ[0]].split(", ")


def _rename(obj, old, new):
    obj[new] = obj.pop(old)


# (bundled scenario, edit of its document, field path the error names)
NESTED_KEY_ERRORS = [
    ("drift_perturbed", lambda d: _rename(d["hamiltonian"], "seed", "sede"), "hamiltonian.sede"),
    ("drift_perturbed", lambda d: d["clock_a"].update(basiss={"diag": [1, 1]}), "clock_a.basiss"),
    ("drift_perturbed", lambda d: d.update(hamiltonian={
        "diag": [0, 0, 0, 0], "local": d["hamiltonian"]["base"]["local"]}), "hamiltonian.diag"),
    ("drift_perturbed", lambda d: d["initial_state"].update(
        vector=[[1, 0], [0, 0], [0, 0], [0, 0]]), "initial_state.vector"),
    ("ex74_kernel", lambda d: d["hamiltonian"]["local"].update(c={"diag": [0, 0]}),
     "hamiltonian.local.c"),
    ("ex74_kernel", lambda d: d["hamiltonian"]["local"]["a"].update(dim=2),
     "hamiltonian.local.a.dim"),
    ("ex55_compat", lambda d: d["hamiltonians"][0].update(entries=[]), "hamiltonians[0].entries"),
    ("ex_group_s3", lambda d: d["rep_a"].update(elements=[]), "rep_a.elements"),
]


@pytest.mark.parametrize("name, edit, field", NESTED_KEY_ERRORS,
                         ids=[field for _, _, field in NESTED_KEY_ERRORS])
def test_unknown_or_second_form_nested_key_exits_two(tmp_path, capsys, name, edit, field):
    """A nested object takes only its own keys and one form: a misspelled key,
    or a key of a second form, exits 2 naming path.key instead of being dropped."""
    doc = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
    edit(doc)
    assert cli.main(["run", str(write_scenario(tmp_path, doc))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"syncsub: scenario error: {field}: unexpected field in ")


def test_custom_group_literals_reject_unknown_keys():
    """The group, character-table and irrep-row literals of a custom group."""
    table = [[0, 1], [1, 0]]
    group, _ = literals.group_from_literal({"mult_table": table})
    with pytest.raises(ScenarioError, match=r"^group\.order: unexpected field"):
        literals.group_from_literal({"mult_table": table, "order": 2})
    rows = [{"name": "triv", "dim": 1, "chars": [1, 1]},
            {"name": "sign", "dim": 1, "chars": [1, -1]}]
    assert len(literals.character_table_from_literal(group, {"irreps": rows})) == 2
    with pytest.raises(ScenarioError, match=r"^characters\.classes: unexpected field"):
        literals.character_table_from_literal(group, {"irreps": rows, "classes": []})
    rows[1]["degree"] = 1
    with pytest.raises(ScenarioError,
                       match=r"^characters\.irreps\[1\]\.degree: unexpected field"):
        literals.character_table_from_literal(group, {"irreps": rows})


# scenario -> calls of sync.kernel_basis in one run
KERNEL_BASIS_READS = {"ex_group_s3": 0, "drift-vector": 0, "ex74_kernel": 1, "drift_perturbed": 1}


@pytest.mark.parametrize("name", list(KERNEL_BASIS_READS))
def test_kernel_basis_is_built_only_where_read(tmp_path, monkeypatch, name):
    """The n x k kernel basis is formed only by the kernel report and by a
    kernel_seed initial state; the group kind and a vector initial state read
    the kernel as its index set."""
    if name == "drift-vector":
        path = write_scenario(tmp_path, drift_payload(
            initial_state={"vector": [[1, 0], [0, 0], [0, 0], [0, 0]]}))
    else:
        path = SCENARIO_DIR / f"{name}.json"
    calls = []
    monkeypatch.setattr(sync, "kernel_basis",
                        lambda bundle, _fn=sync.kernel_basis: calls.append(1) or _fn(bundle))
    assert scenario.run_scenario(scenario.parse_scenario(path))["passed"]
    assert len(calls) == KERNEL_BASIS_READS[name]


def test_drift_checks_hamiltonian_once(tmp_path, monkeypatch):
    """A drift scenario checks its n x n Hamiltonian once and takes two n x n
    Hermitian norms by eigvalsh, the random direction's scale and epsilon =
    ||i[H', G]||, and no SVD: make_system's Hermiticity residual and the
    eigendecomposition's reconstruction pass on their Frobenius norms, and
    ||H|| is never needed."""
    path = write_scenario(tmp_path, drift_payload(
        clock_a={"labels": [1, -1, 0]},
        hamiltonian={"base": {"local": {"a": {"diag": [0.5, -0.5, 0.1]},
                                        "b": {"diag": [0.5, -0.5]}}},
                     "direction": "random", "strength": 0.05, "seed": 7}))
    n = 6
    shapes = {"require_hermitian": [], "operator_norm": [], "hermitian_norm": []}
    for name, calls in shapes.items():
        def counted(m, *args, _fn=getattr(opcore, name), _calls=calls, **kwargs):
            _calls.append(np.shape(m))
            return _fn(m, *args, **kwargs)
        monkeypatch.setattr(opcore, name, counted)
    svds = record_shapes(monkeypatch, "svd")
    assert scenario.run_scenario(scenario.parse_scenario(path))["passed"]
    assert shapes["require_hermitian"].count((n, n)) == 1
    assert shapes["hermitian_norm"] == [(n, n)] * 2
    assert shapes["operator_norm"] == [] and svds == []


def literal_payload(kind, hamiltonian):
    """A scenario of ``kind`` whose Hamiltonian is a top-level 4 x 4 matrix literal."""
    if kind == "compat":
        return {"name": "literal", "kind": kind, "clock": {"labels": [0, 1, 2, 3]},
                "hamiltonians": [{"name": "H", **hamiltonian}]}
    if kind == "group":
        return {"name": "literal", "kind": kind, "group": "Z2",
                "rep": {"generators": {"g1": {"diag": [1, -1]}}},
                "class_function_a": [0.4, 0.9], "hamiltonian": hamiltonian}
    payload = {"name": "literal", "kind": kind, "clock_a": {"labels": [1, -1]},
               "clock_b": {"labels": [1, -1]}, "hamiltonian": hamiltonian}
    if kind == "drift":
        payload["times"] = [0.0, 1.0]
    return payload


@pytest.mark.parametrize("kind", ["compat", "drift", "kernel", "group"])
def test_matrix_literal_hamiltonian_checked_once(tmp_path, monkeypatch, capsys, kind):
    """A Hermitian literal goes through require_hermitian once; a non-Hermitian
    one exits 2 with the exact spectral norm of M - M^dag in the message."""
    s = scenario.parse_scenario(write_scenario(
        tmp_path, literal_payload(kind, {"diag": [0.1, 0.2, 0.3, 0.4]})))
    literal = s.hamiltonians[0][1] if kind == "compat" else s.hamiltonian
    checked = []

    def counted(m, _fn=opcore.require_hermitian):
        checked.append(m is literal)
        return _fn(m)

    monkeypatch.setattr(opcore, "require_hermitian", counted)
    assert scenario.run_scenario(s)["passed"]
    assert checked.count(True) == 1

    entries = [[0.0, 0.0]] * 16
    entries[0] = entries[5] = [0.5, 0.0]
    entries[3] = [1e-9, 0.0]          # M - M^dag has singular values 1e-9, 1e-9
    path = write_scenario(tmp_path, literal_payload(kind, {"dim": 4, "entries": entries}),
                          name="non_hermitian.json")
    assert cli.main(["run", str(path)]) == 2
    assert capsys.readouterr().err == (
        "syncsub: validation error: matrix is not Hermitian: residual 1.000e-09 "
        "exceeds tolerance\n")


def local_kernel_payload(h_a, h_b):
    return {"name": "local", "kind": "kernel", "clock_a": {"labels": [1, -1]},
            "clock_b": {"labels": [1, -1]},
            "hamiltonian": {"local": {"a": matrix_to_literal(np.asarray(h_a, dtype=complex)),
                                      "b": matrix_to_literal(np.asarray(h_b, dtype=complex))}}}


def test_local_hamiltonian_checked_by_its_factors(tmp_path, capsys):
    """A local H passes when each factor is Hermitian to HERM_TOL of its own
    norm: terms of 1e6 that cancel to a sum of norm 4e-7 carry a 4e-7 asymmetry
    in H_A, within 1e-12 * 1e6, and run. A non-Hermitian factor exits 2 with
    the factor's residual."""
    cancelling = local_kernel_payload([[1e6, 0], [4e-7, 1e6]], np.diag([-1e6, -1e6]))
    assert cli.main(["run", str(write_scenario(tmp_path, cancelling)),
                     "--out", str(tmp_path / "report.json")]) == 0
    assert capsys.readouterr().err == ""
    skewed = local_kernel_payload([[1, 0], [0.5, 1]], np.diag([-1, 1]))
    assert cli.main(["run", str(write_scenario(tmp_path, skewed, name="skewed.json"))]) == 2
    assert capsys.readouterr().err == (
        "syncsub: validation error: matrix is not Hermitian: residual 5.000e-01 "
        "exceeds tolerance\n")


def cyclic_regular_payload(member, n=8, rotation=None):
    """Zn regular (x) regular (Z8 by default) with symmetric class functions;
    the Hamiltonian is local and circulant on both sides (a member) or
    diagonal on side A (not equivariant, since a diagonal matrix does not
    commute with the shift). A unitary ``rotation`` V writes the generator
    and both local terms in the basis V, as V M V^dag."""
    shift = np.zeros((n, n))
    shift[(np.arange(n) + 1) % n, np.arange(n)] = 1.0
    values = [0.5, 0.2, -0.1, 0.3, 0.7, -0.4, 0.15, 0.6, -0.25,
              0.05, 0.35, -0.2, 0.45, 0.1, -0.3, 0.25, 0.4]
    f = [values[min(k, n - k)] for k in range(n)]     # f(k) = f(n - k)
    circulant = np.asarray(f)[(np.arange(n)[:, None] - np.arange(n)[None, :]) % n]
    h_a = circulant if member else np.diag(np.linspace(-1.0, 1.0, n))
    v = np.eye(n) if rotation is None else rotation

    def rotated(m, hermitian=True):
        m = v @ m @ v.conj().T
        return matrix_to_literal((m + m.conj().T) / 2.0 if hermitian else m)

    return {
        "name": f"z{n}-{'member' if member else 'non-member'}",
        "kind": "group",
        "group": f"Z{n}",
        "rep": {"generators": {"g1": rotated(shift, hermitian=False)}},
        "class_function_a": f,
        "class_function_b": [x + 0.25 * (k % 2) for k, x in enumerate(f)],
        "hamiltonian": {"local": {"a": rotated(h_a), "b": rotated(0.5 * circulant)}},
    }


@pytest.mark.parametrize("member", [True, False])
def test_group_membership_takes_two_joint_norms(tmp_path, monkeypatch, member):
    """Membership checks equivariance on the generating set {g1} of Z8: the joint
    64 x 64 spectral norms of a group scenario are r_S and ||[H,K]|| (the full
    group would need one per element, 8, plus ||[H,K]||)."""
    s = scenario.parse_scenario(write_scenario(tmp_path, cyclic_regular_payload(member)))
    shapes = []

    def counted(m, _fn=opcore.operator_norm):
        shapes.append(np.shape(m))
        return _fn(m)

    monkeypatch.setattr(opcore, "operator_norm", counted)
    membership = scenario.run_scenario(s)["membership"]
    assert membership["member"] is member
    assert shapes.count((64, 64)) <= 2
    assert (membership["generators"], membership["word_length"]) == (["g1"], 7)


def record_shapes(monkeypatch, name):
    """Shapes (last two axes) of every np.linalg.<name> call, an SVD also inside
    np.linalg.norm, each with whether sync_bundle is on the stack."""
    calls = []
    real = getattr(np.linalg, name)

    def recorded(a, *args, **kwargs):
        frame, names = sys._getframe(1), set()
        while frame is not None:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        calls.append((np.shape(a)[-2:], "sync_bundle" in names))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, recorded)
    # np.linalg.norm calls the svd of the module that defines it (numpy 2 renamed it)
    monkeypatch.setattr(getattr(np.linalg, "_linalg", None) or np.linalg.linalg, name, recorded)
    return calls


@pytest.mark.parametrize("member", [True, False])
def test_local_group_scenario_takes_no_joint_svd(tmp_path, monkeypatch, member):
    """Z16 regular (x) regular with a local H: epsilon and every r_s come from
    16 x 16 factor spectra, so no SVD runs on a 256 x 256 matrix, for a member
    and for a non-member alike."""
    s = scenario.parse_scenario(write_scenario(tmp_path, cyclic_regular_payload(member, n=16)))
    calls = record_shapes(monkeypatch, "svd")
    membership = scenario.run_scenario(s)["membership"]
    assert membership["member"] is member
    assert (membership["generator_residual"] > 0) is not member
    assert calls and (256, 256) not in [shape for shape, _ in calls]


def count_kron_sums(monkeypatch):
    """Factor dims of every call of opcore.kron_sum, the library's one dense
    H_A (x) I + I (x) H_B builder."""
    calls, real = [], opcore.kron_sum

    def counted(x, y):
        calls.append((x.shape[0], y.shape[0]))
        return real(x, y)

    monkeypatch.setattr(opcore, "kron_sum", counted)
    return calls


@pytest.mark.parametrize("member", [True, False])
def test_local_group_scenario_forms_no_dense_h(tmp_path, monkeypatch, member):
    """Z16 regular (x) regular with a local H, a member and a non-member: every
    check reads the factors, so the 256 x 256 H is never formed."""
    s = scenario.parse_scenario(write_scenario(tmp_path, cyclic_regular_payload(member, n=16)))
    calls = count_kron_sums(monkeypatch)
    assert scenario.run_scenario(s)["membership"]["member"] is member
    assert calls == []


def test_group_example_forms_no_dense_h(tmp_path, monkeypatch):
    """ex_group_s3's rep_a does not permute, and membership still reads its
    local H off the factors: the 16 x 16 H is never formed, and the report
    keeps its golden bytes."""
    calls = count_kron_sums(monkeypatch)
    assert_matches_golden(tmp_path, "ex_group_s3")
    assert calls == []


@pytest.mark.parametrize("member", [True, False])
def test_rotated_z32_membership_stays_on_the_factors(tmp_path, monkeypatch, member):
    """Z32 regular (x) regular in a random unitary basis with a local H, through
    cli.main: no opcore.kron_sum call and no factorization of a matrix larger
    than 32 x 32, for a member and a non-member. Read from the dense 1024 x 1024
    H, the tree bound of a rotated basis exceeds equivar_tol and the exact
    fallback takes 32 SVDs of 1024 x 1024 commutators (tens of seconds)."""
    rng = np.random.default_rng(32)
    q, r = np.linalg.qr(rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32)))
    path = write_scenario(tmp_path, cyclic_regular_payload(member, n=32,
                                                           rotation=q * (np.diag(r) / abs(np.diag(r)))))
    sums = count_kron_sums(monkeypatch)
    recorded = [record_shapes(monkeypatch, name) for name in ("svd", "eigh", "eigvalsh")]
    start = time.perf_counter()
    assert cli.main(["run", str(path), "--out", str(tmp_path / "report.json")]) == 0
    elapsed = time.perf_counter() - start
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["membership"]["member"] is member
    assert report["validation"]["rep_a"]["max_unitarity_residual"] > 0.0
    shapes = [shape for calls in recorded for shape, _ in calls]
    assert sums == [] and shapes and max(max(shape) for shape in shapes) <= 32
    assert elapsed < 2.0


def test_local_system_forms_dense_h_on_first_read(monkeypatch):
    """make_system keeps a local H as its pair; the n x n H is formed on the
    first read of ``hamiltonian`` and the same array is returned after."""
    calls = count_kron_sums(monkeypatch)
    system = sync.make_system(clocks.make_clock([1, -1]), clocks.make_clock([0.5]),
                              (np.diag([1.0, 2.0]), np.eye(1)))
    assert calls == [] and system.local is not None
    h = system.hamiltonian
    assert system.hamiltonian is h and calls == [(2, 1)]
    np.testing.assert_array_equal(h, np.diag([2.0, 3.0]))


def run_bytes(path, out):
    assert cli.main(["run", str(path), "--out", str(out)]) == 0
    return out.read_bytes()


KERNEL_3X2_NO_H = {
    "name": "kernel-no-h", "kind": "kernel",
    "clock_a": {"labels": [1, 0, -1], "basis": matrix_to_literal(
        np.array([[1, 1, 0], [1, -1, 0], [0, 0, np.sqrt(2)]]) / np.sqrt(2))},
    "clock_b": {"labels": [1, -1]}}


def test_group_without_hamiltonian_forms_no_dense_h(tmp_path, monkeypatch):
    doc = json.loads((SCENARIO_DIR / "ex_group_s3.json").read_text())
    del doc["hamiltonian"]
    assert_zero_h_stays_a_pair(tmp_path, monkeypatch, doc, 16)


@pytest.mark.parametrize("local", [False, True])
def test_epsilon_svd_follows_the_hamiltonians_form(tmp_path, monkeypatch, local):
    """The factored epsilon keys on the input's form: drift_perturbed's H is a
    perturbed local base, a dense matrix, so sync_bundle takes one 4 x 4
    eigvalsh of i[H', G]; the same clocks with H given as local terms, sigma_x
    on side A, take two 2 x 2 ones. Neither takes an SVD there."""
    path = SCENARIO_DIR / "drift_perturbed.json"
    if local:
        path = write_scenario(tmp_path, {
            "name": "local", "kind": "kernel", "clock_a": {"labels": [1, -1]},
            "clock_b": {"labels": [1, -1]},
            "hamiltonian": {"local": {"a": {"dim": 2, "entries": [[0, 0], [1, 0], [1, 0], [0, 0]]},
                                      "b": {"diag": [0.4, -0.4]}}}})
    s = scenario.parse_scenario(path)
    svds = record_shapes(monkeypatch, "svd")
    eigvalsh = record_shapes(monkeypatch, "eigvalsh")
    report = scenario.run_scenario(s)
    assert report["passed"] and report["epsilon"] > 0
    assert [shape for shape, in_bundle in eigvalsh if in_bundle] == (
        [(2, 2)] * 2 if local else [(4, 4)])
    assert not [shape for shape, in_bundle in svds if in_bundle]


@pytest.mark.parametrize("payload", [
    drift_payload(clock_a={"labels": [1, -1, 0]}, times=[0.0, 1.0, 2.0],
                  hamiltonian={"base": {"local": {"a": {"diag": [0.5, -0.5, 0.1]},
                                                  "b": {"diag": [0.5, -0.5]}}},
                               "direction": "random", "strength": 0.05, "seed": 7}),
    cyclic_regular_payload(True),
], ids=["drift", "z8_regular"])
def test_scenarios_never_build_dense_k(tmp_path, monkeypatch, payload):
    """K is applied through its factors: no dense K is built by a drift
    scenario or a Z8 regular (x) regular group scenario with membership. The
    dense builders live only in the tests' oracles."""
    assert not hasattr(opcore, "kron_difference") and not hasattr(sync, "sync_operator")
    calls = []
    for name in ("kron_difference", "sync_operator"):
        monkeypatch.setattr(oracles, name, lambda *args, _name=name: calls.append(_name))
    report = scenario.run_scenario(scenario.parse_scenario(write_scenario(tmp_path, payload)))
    assert report["passed"]
    assert calls == []


# The dense compat path: in the oracles only, none of it in the library.
DENSE_CLOCK_NAMES = {
    clocks: ("LABEL_SEP", "_label_groups", "Block", "BlockStructure", "block_structure",
             "compatibility_residual"),
    opcore: ("commutator",),
}


def test_compat_scenario_never_builds_a_dense_clock(monkeypatch):
    """classify_compatibility works on H' = B^dag H B alone: the clock matrix T,
    [H, T] and the per-block projectors, and the LABEL_SEP grouping, exist only
    in the tests' oracles, and ex55 reaches none of them."""
    for module, names in DENSE_CLOCK_NAMES.items():
        for name in names:
            assert not hasattr(module, name) and not hasattr(syncsub, name), name
            assert hasattr(oracles, name), name
    assert not hasattr(clocks.ClockObservable, "matrix")
    calls = []
    for name in ("clock_matrix", "commutator", "block_structure", "compatibility_residual",
                 "classify_compatibility"):
        monkeypatch.setattr(oracles, name, lambda *args, _name=name: calls.append(_name))
    assert scenario.run_scenario(scenario.parse_scenario(SCENARIO_DIR / "ex55_compat.json"))["passed"]
    assert calls == []


def test_group_parse_and_decomposition_take_no_spectral_norm(tmp_path, monkeypatch):
    """A passing Z8 regular scenario settles the identity, unitarity and
    idempotence checks of make_representation and isotypic_projectors on their
    Frobenius norms: no operator_norm call runs inside either."""
    callers = []

    def counted(m, _fn=opcore.operator_norm):
        frame, names = sys._getframe(1), set()
        while frame is not None:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        callers.append(names)
        return _fn(m)

    monkeypatch.setattr(opcore, "operator_norm", counted)
    s = scenario.parse_scenario(write_scenario(tmp_path, cyclic_regular_payload(True)))
    assert scenario.run_scenario(s)["passed"]
    assert callers     # the reported residuals stay exact spectral norms
    assert not [names for names in callers
                if names & {"make_representation", "isotypic_projectors"}]


def assert_group_analyses(tmp_path, monkeypatch, doc, sides):
    """``doc`` runs with ``sides`` validations, multiplicity counts and
    decompositions, one equivariance residual for each of its two observables,
    and gives ex_group_s3's report."""
    s = scenario.parse_scenario(write_scenario(tmp_path, doc))
    assert (s.rep_b is s.rep_a) is (sides == 1)
    calls = dict.fromkeys(("validate_representation", "isotypic_projectors",
                           "multiplicities", "equivariance_residual"), 0)
    for name in calls:
        def counted(*args, _fn=getattr(grouprep, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(grouprep, name, counted)
    payload = scenario.run_scenario(s)
    assert calls == {"validate_representation": sides, "isotypic_projectors": sides,
                     "multiplicities": sides, "equivariance_residual": 2}
    monkeypatch.undo()
    want = scenario.run_scenario(scenario.parse_scenario(SCENARIO_DIR / "ex_group_s3.json"))
    assert {**payload, "input_digest": None} == {**want, "input_digest": None}


@pytest.mark.parametrize("two_sides", [False, True])
def test_one_rep_group_scenario_analyses_it_once(tmp_path, monkeypatch, two_sides):
    """ex_group_s3 gives one ``rep``: it is validated, decomposed and counted
    once. Giving the same literal again as rep_b parses to matrices equal bit
    for bit, so rep_b is rep_a: still one analysis and the same report."""
    doc = json.loads((SCENARIO_DIR / "ex_group_s3.json").read_text())
    if two_sides:
        doc["rep_b"] = doc["rep_a"]
    assert_group_analyses(tmp_path, monkeypatch, doc, sides=1)


def test_rep_b_differing_in_one_bit_is_analysed_again(tmp_path, monkeypatch):
    """A rep_b whose matrices differ from rep_a's only by a -0.0 entry is equal
    in value but not bit for bit: it is a second representation, analysed on
    its own, and the report is the one-rep report. rep_b lists its elements,
    since products of generators would turn the -0.0 into 0.0."""
    doc = json.loads((SCENARIO_DIR / "ex_group_s3.json").read_text())
    rep = scenario.parse_scenario(SCENARIO_DIR / "ex_group_s3.json").rep_a
    elements = [matrix_to_literal(m) for m in rep.matrices]
    assert elements[1]["entries"][1] == [0.0, 0.0]
    elements[1]["entries"][1] = [-0.0, 0.0]
    doc["rep_b"] = {"elements": elements}
    assert_group_analyses(tmp_path, monkeypatch, doc, sides=2)


def test_z1000_replaced_generator_image_exits_one(tmp_path):
    """Z1000 on 5 points, g_k -> c^k for the 5-cycle c, with rho(g1) replaced
    by (01)(234): traces, and so multiplicities, are unchanged and every matrix
    permutes, but rho(g1)^2 != rho(g2). A sample of pairs can miss every pair
    that involves g1; the check on G x S, S = {g1}, cannot."""
    mats = [np.roll(np.eye(5), k, axis=0) for k in range(1000)]
    mats[1] = np.eye(5)[:, [1, 0, 3, 4, 2]]
    doc = {"name": "z1000-replaced-g1", "kind": "group", "group": "Z1000",
           "rep": {"elements": [matrix_to_literal(m) for m in mats]}}
    out = tmp_path / "report.json"
    assert cli.main(["run", str(write_scenario(tmp_path, doc)), "--out", str(out)]) == 1
    validation = json.loads(out.read_bytes())["validation"]
    assert validation["rep_a"]["passed"] is False
    assert validation["rep_a"]["pairs_checked"] == 1000


def assert_zero_h_stays_a_pair(tmp_path, monkeypatch, doc, n):
    """``doc`` has no Hamiltonian, so H = 0 is the zero pair: make_system checks
    its two factors, no n x n H is checked or formed, sync_bundle forms no
    H' = U^dag H U, so no kron_apply runs, and the report is the bytes of a
    dense n x n zero H, whose H' takes two kron_apply passes."""
    path = write_scenario(tmp_path, doc)
    checked, applied = [], []
    real_check, real_apply, real_system = (opcore.require_hermitian, opcore.kron_apply,
                                           sync.make_system)

    def check(m):
        checked.append(np.shape(m))
        return real_check(m)

    def apply(*args):
        applied.append(1)
        return real_apply(*args)

    monkeypatch.setattr(opcore, "require_hermitian", check)
    monkeypatch.setattr(opcore, "kron_apply", apply)
    sums = count_kron_sums(monkeypatch)
    factored = run_bytes(path, tmp_path / "factored.json")
    assert checked and (n, n) not in checked and sums == [] and applied == []
    monkeypatch.setattr(sync, "make_system", lambda a, b, h: real_system(a, b, np.zeros((n, n))))
    assert run_bytes(path, tmp_path / "dense.json") == factored
    assert (n, n) in checked and len(applied) == 2


def test_kernel_without_hamiltonian_forms_no_clock_hamiltonian(tmp_path, monkeypatch):
    assert_zero_h_stays_a_pair(tmp_path, monkeypatch, KERNEL_3X2_NO_H, 6)


def test_compat_takes_norm_of_h_only_for_a_limit(monkeypatch):
    """ex55's diagonal H1-H3 pass both compatibility checks at compat_tol, so
    only the incompatible H4 needs ||H||: classify_compatibility takes that,
    the four residuals and the four off_block_mass norms, and nothing else
    takes a spectral norm. A norm taken in a lambda that opcore.check calls
    counts as taken by check's caller."""
    callers = []

    def counted(m, _fn=opcore.operator_norm):
        frame = sys._getframe(1)
        if frame.f_code.co_name == "<lambda>" and frame.f_back.f_code.co_name == "check":
            frame = frame.f_back.f_back
        callers.append(frame.f_code.co_name)
        return _fn(m)

    monkeypatch.setattr(opcore, "operator_norm", counted)
    report = scenario.run_scenario(scenario.parse_scenario(SCENARIO_DIR / "ex55_compat.json"))
    assert [v["class"] for v in report["verdicts"]] == ["diagonal"] * 3 + ["incompatible"]
    assert callers == ["classify_compatibility"] * 9


# Dense factorizations per scenario run, pinned: a tolerance check that screens
# against a smaller limit, or reads a lazy scale eagerly, adds SVDs here.
FACTORIZATIONS = {
    "drift_perturbed": {"eigh": 1, "eigvalsh": 2},
    "ex55_compat": {"norm2": 3},
    "ex74_kernel": {"eigvalsh": 2},
    "ex_group_s3": {"eigh": 3, "eigvalsh": 4, "norm2": 11},
    "z16-member": {"eigh": 16, "eigvalsh": 4, "norm2": 32},
    "z16-non-member": {"eigh": 16, "eigvalsh": 4, "norm2": 32},
}


@pytest.mark.parametrize("name", list(FACTORIZATIONS))
def test_dense_factorization_counts_are_pinned(tmp_path, monkeypatch, name):
    """Calls of np.linalg.svd, eigh, eigvalsh and norm(., 2) in one run of a
    bundled scenario or of a Z16 regular (x) regular member or non-member."""
    if name.startswith("z16"):
        path = write_scenario(tmp_path, cyclic_regular_payload(name == "z16-member", n=16))
    else:
        path = SCENARIO_DIR / f"{name}.json"
    counts = dict.fromkeys(("svd", "eigh", "eigvalsh", "norm2"), 0)
    for fn in ("svd", "eigh", "eigvalsh", "norm"):
        def counted(*args, _fn=getattr(np.linalg, fn), _name=fn, **kwargs):
            if _name != "norm" or (args[1:2] or [kwargs.get("ord")])[0] == 2:
                counts["norm2" if _name == "norm" else _name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, fn, counted)
    assert cli.main(["run", str(path), "--out", str(tmp_path / "report.json")]) == 0
    assert {k: v for k, v in counts.items() if v} == FACTORIZATIONS[name]


# Traced by name in perfbench/run.py but moved to tests/oracles.py, so their
# per-layer metrics read 0 until the benchmark's next revision renames them.
TRACED_NAMES_MOVED = {
    "opcore.null_space": "no scenario reaches it; the kernel is read off the labels",
    "opcore.hermitian_eig": "no scenario reaches it; H is checked once, then opcore.spectrum",
    "grouprep.tensor_representation": "membership's exact fallback forms joint commutators "
                                      "batch by batch",
    "literals.matrix_to_literal": "the kernel report carries no projector; only the tests "
                                  "write matrix literals",
}


def test_benchmark_traced_names_resolve(monkeypatch):
    """Every function the benchmark traces by name still exists in syncsub, so a
    rename cannot silently turn a per-layer metric into 0. The names in
    TRACED_NAMES_MOVED are the exception, and each of them must be gone."""
    monkeypatch.setattr(sys, "path", list(sys.path))   # run.py prepends its directory
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    names = run.TIMED_FUNCTIONS + run.COUNTED_FUNCTIONS
    assert names and TRACED_NAMES_MOVED.keys() <= set(names)
    for name in names:
        layer, attr = name.split(".")
        module = importlib.import_module(f"syncsub.{layer}")
        fn = getattr(module, attr, None)
        if name in TRACED_NAMES_MOVED:
            assert fn is None and inspect.isfunction(getattr(oracles, attr)), name
        else:
            assert inspect.isfunction(fn) and fn.__module__ == module.__name__, name


def test_package_loads_no_scipy():
    """numpy is the only runtime dependency: importing the CLI pulls in no scipy."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", 'import sys, syncsub.cli; print("scipy" in sys.modules)'],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout.strip() == "False"


FAILING_GIVEN_THEN_PASSING = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=5, database=None)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    pass
'''


def test_failing_given_test_does_not_end_the_session(tmp_path):
    """Under pyproject.toml's pytest settings, which turn every warning into an
    error, a failing @given test is one failure and the test after it still
    runs: hypothesis's failure report raises a DeprecationWarning
    (mypy_extensions.TypedDict) that, as an error, ended the session."""
    (tmp_path / "test_pair.py").write_text(FAILING_GIVEN_THEN_PASSING)
    env = dict(os.environ)
    env.pop("PYTHONWARNINGS", None)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir",
         str(tmp_path), "-p", "no:cacheprovider", "-q", "test_pair.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
