"""syncsub benchmark: one workload, measured end to end or per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload drift_trace --seed 1 --seconds 40 --trace 0

The command generates the workload's scenario pool from ``--seed`` into a
temporary directory inside the checkout, measures set-up time in fresh
interpreters, and starts one child process (``worker.py``) that runs the
scenarios through ``syncsub.cli.main`` in a closed loop with one client.
Every report is then checked against expectations rebuilt from the inputs
(``checks.py``). The command prints each metric by name with its unit and
sample count, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` makes a separate
run that traces the library's layers from outside and reports per-layer
metrics, with spans written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import check_report  # noqa: E402
from tracer import FACTORIZATIONS, LAYERS  # noqa: E402
from workloads import GENERATORS  # noqa: E402

# One BLAS thread: at most nproc on any machine, and steadier than two on a
# shared two-core box. Both commits of a comparison run with the same value.
BLAS_THREADS = 1
SETUP_SAMPLES = 7
IMPORT_PROBE = ("import time\nt = time.perf_counter()\nimport syncsub.cli\n"
                "print(time.perf_counter() - t)\n")
CHILD_GRACE_S = 120

# Functions named by the roadmap's optimisation items, traced individually.
TIMED_FUNCTIONS = ("opcore.null_space", "opcore.hermitian_eig", "sync.sync_bundle",
                   "sync.drift_trace", "grouprep.validate_representation",
                   "grouprep.tensor_representation", "scenario.emit_report",
                   "literals.matrix_to_literal")
COUNTED_FUNCTIONS = ("opcore.operator_norm", "grouprep.isotypic_projectors",
                     "grouprep.equivariance_residual")


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("SYNCSUB_LOG", None)
    return env


def _setup_samples(env: dict) -> list:
    """Import time of syncsub.cli in fresh interpreters, taken after the timed
    phase so that every run probes an equally warm machine. The first sample
    is discarded because it also writes the bytecode cache of a new checkout."""
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=CHILD_GRACE_S,
                              check=True)
        samples.append(float(done.stdout.strip()))
    return samples[1:]


def _write_pool(pool, directory: Path) -> None:
    directory.mkdir(parents=True)
    for j, (doc, _) in enumerate(pool):
        (directory / f"s{j}.json").write_text(json.dumps(doc))


def _check_outputs(workload, pool, out_dir: Path, indices) -> dict:
    """Problems per pool index, from the last report each index wrote."""
    problems = {}
    for j in sorted(set(indices)):
        path = out_dir / f"r{j}.json"
        if not path.exists():
            continue
        doc, expect = pool[j]
        problems[j] = check_report(workload, json.loads(path.read_bytes()), doc, expect)
        for p in problems[j]:
            print(f"check failed: {doc['name']}: {p}", file=sys.stderr)
    return problems


def _failed(j, code, size, sizes, pool, problems) -> bool:
    """An attempt fails on a bad exit code, a failed check, or a report that
    differs in size from the one that was checked."""
    if code != pool[j][1]["exit"]:
        return True
    return bool(problems.get(j)) or size != sizes.get(j)


def _by_scenario(indices, failed) -> tuple:
    """Attempted and failed scenarios of the pool. A scenario fails if any of
    its runs fails, so the counts do not depend on how many passes fit."""
    bad = {j for j, f in zip(indices, failed) if f}
    print(f"scenarios: {len(bad)} of {len(set(indices))} in the pool failed")
    return len(set(indices)), len(bad)


def _line(name, value, unit, note) -> None:
    print(f"{name:<34} {value:>14.6g} {unit:<15} {note}")


def _end_to_end(pool, result, problems, setup) -> tuple:
    out_sizes = {j: size for j, _, _, size in result["attempts"]}
    attempts = result["attempts"]
    failed = [_failed(j, code, size, out_sizes, pool, problems)
              for j, code, _, size in attempts]
    ok_latency = [lat for (_, _, lat, _), bad in zip(attempts, failed) if not bad]
    n_fail = sum(failed)
    if len(ok_latency) >= 2:
        p90 = statistics.quantiles(ok_latency, n=10)[8]
    else:
        p90 = ok_latency[0] if ok_latency else float("nan")
    metrics = {
        "setup_s": (statistics.median(setup), "s", f"n={len(setup)} fresh interpreters"),
        "latency_p50_s": (statistics.median(ok_latency) if ok_latency else float("nan"), "s",
                          f"n={len(ok_latency)} scenarios"),
        "latency_p90_s": (p90, "s", f"n={len(ok_latency)} scenarios, "
                                    f"{sum(x > p90 for x in ok_latency)} beyond"),
        "throughput_sps": (len(ok_latency) / result["wall_s"], "1/s",
                           f"n={len(ok_latency)} in {result['wall_s']:.3f} s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB", "n=1 child, ru_maxrss"),
    }
    for name, (value, unit, note) in metrics.items():
        _line(name, value, unit, note)
    cos = sum(1 for j, *_ in attempts if pool[j][1].get("cos_input"))
    _line("error_rate", n_fail / len(attempts), "share",
          f"{n_fail} of {len(attempts)} attempted; cos(2*pi*k/n) inputs {cos} of {len(attempts)}")
    return ({k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
            *_by_scenario([j for j, *_ in attempts], failed))


def _per_layer(pool, result, problems) -> tuple:
    passes = result["passes"]
    n_scen = len(passes) * len(pool)
    calls, self_s, incl_s, errors, fact = {}, {}, {}, {}, {}
    for p in passes:
        s = p["summary"]
        for src, dst in ((s["calls"], calls), (s["self_s"], self_s),
                         (s["inclusive_s"], incl_s), (s["errors"], errors),
                         (s["factorizations"], fact)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v

    def layer_sum(table, layer):
        return sum(v for k, v in table.items() if k.split(".")[0] == layer)

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (layer_sum(calls, layer) / n_scen, "count/scenario")
        metrics[f"{layer}.self_s"] = (layer_sum(self_s, layer) / n_scen, "s")
        metrics[f"{layer}.errors"] = (layer_sum(errors, layer) / n_scen, "count/scenario")
    for fn in COUNTED_FUNCTIONS:
        metrics[f"{fn}.calls"] = (calls.get(fn, 0) / n_scen, "count/scenario")
    for fn in TIMED_FUNCTIONS:
        metrics[f"{fn}_s"] = (incl_s.get(fn, 0.0) / n_scen, "s")
    for key in FACTORIZATIONS:
        metrics[key] = (fact.get(key, 0) / n_scen, "count/scenario")
    sizes = [size for p in passes for size in p["sizes"] if size >= 0]
    metrics["scenario.report_bytes"] = (sum(sizes) / len(sizes), "bytes/scenario")
    overhead = sum(p["traced_s"] - p["untraced_s"] for p in passes) / n_scen
    metrics["trace.overhead_s"] = (overhead, "s")

    note = f"n={n_scen} traced scenarios ({len(passes)} passes)"
    ranked = sorted(LAYERS, key=lambda layer: -metrics[f"{layer}.self_s"][0])
    for name, (value, unit) in metrics.items():
        _line(name, value, unit, note)
    print("layers by self time: " + ", ".join(ranked))

    out_sizes = dict(enumerate(passes[-1]["sizes"]))
    indices, failed = [], []
    for p in passes:
        for k, code in enumerate(p["codes"]):
            j = k % len(pool)
            indices.append(j)
            failed.append(_failed(j, code, p["sizes"][j], out_sizes, pool, problems))
    return ({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            *_by_scenario(indices, failed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="syncsub benchmark (one workload per run)")
    parser.add_argument("--workload", choices=sorted(GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "syncsub" / "cli.py").is_file():
        print(f"perfbench: no syncsub sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    pool = GENERATORS[args.workload](args.seed)
    env = _child_env()
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        _write_pool(pool, tmp / "pool")
        spans = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.json"
        subprocess.run([sys.executable, str(HERE / "worker.py"),
                        "--pool", str(tmp / "pool"), "--out", str(tmp / "out"),
                        "--seconds", str(args.seconds), "--trace", str(args.trace),
                        "--result", str(tmp / "result.json"), "--spans", str(spans)],
                       env=env, cwd=ROOT, stdout=sys.stderr, check=True,
                       timeout=args.seconds + CHILD_GRACE_S)
        result = json.loads((tmp / "result.json").read_text())
        setup = [] if args.trace else _setup_samples(env)

        if args.trace:
            indices = range(len(pool))
        else:
            indices = [j for j, *_ in result["attempts"]]
        problems = _check_outputs(args.workload, pool, tmp / "out", indices)

        v = result["versions"]
        print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
              f"trace {args.trace}  closed loop, 1 client, pool of {len(pool)} scenarios")
        why = {w["name"]: w["why"] for w in
               json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
        print(f"why: {why[args.workload]}")
        print(f"env: python {v['python']}  numpy {v['numpy']}  scipy {v['scipy']}  "
              f"openblas {v['openblas']}  nproc {len(os.sched_getaffinity(0))}  "
              f"blas_threads {result['blas_threads']}")
        if args.trace:
            metrics, attempted, n_fail = _per_layer(pool, result, problems)
            print(f"spans: {spans.relative_to(ROOT)}")
        else:
            metrics, attempted, n_fail = _end_to_end(pool, result, problems, setup)
        deterministic = result["probe_match"]
        print(f"determinism probe: scenario 0 emitted twice, bytes "
              f"{'identical' if deterministic else 'DIFFER'}")
        correct = deterministic and not any(problems.values())
        print(json.dumps({"correct": bool(correct),
                          "attempted": attempted,
                          "failed": n_fail + (0 if deterministic else 1),
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
