"""Child process of the benchmark: runs one workload's scenarios in-process.

Started by ``run.py`` with a pinned BLAS thread count and ``src`` on the
import path. One client runs the scenario pool in a closed loop, each call
being ``syncsub.cli.main(["run", <file>, "--out", <file>])``, and the raw
samples go to a JSON result file for the parent to check and summarize.

Both modes first emit scenario 0 twice and keep both outputs for the
byte-determinism probe, then warm up by cycling through the pool, untimed,
for ``WARMUP_S`` seconds: the first seconds of a fresh process run slower.

Untraced mode (``--trace 0``): run whole passes over the pool until
``--seconds`` have passed.

Traced mode (``--trace 1``): repeat pairs of whole passes over the pool,
one untraced and one under the outside-in tracer, while another pair fits
in ``--seconds``. Whole passes make the per-scenario counts exact. The spans of every traced pass are written out at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import syncsub.cli as cli
from tracer import Tracer

WARMUP_S = 6.0


def _run(scenario: Path, out: Path) -> int:
    try:
        return cli.main(["run", str(scenario), "--out", str(out)])
    except Exception:   # a crash is a failed attempt, not the end of the run
        traceback.print_exc()
        return -1


def _size(path: Path) -> int:
    return path.stat().st_size if path.exists() else -1


def _openblas_version() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return str(deps["blas"].get("version", "unknown"))
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def _warm_up(pool, outs, seconds: float) -> None:
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        _run(pool[i % len(pool)], outs[i % len(pool)])
        i += 1


def _timed(pool, outs, seconds: float) -> dict:
    """Whole passes over the pool until ``seconds`` have passed, so that every
    scenario is run equally often and each statistic weighs them alike."""
    attempts = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for j in range(len(pool)):
            t = time.perf_counter()
            code = _run(pool[j], outs[j])
            latency = time.perf_counter() - t
            attempts.append([j, code, latency, _size(outs[j])])
    return {"attempts": attempts, "wall_s": time.perf_counter() - start}


def _traced(pool, outs, seconds: float, spans_path: Path) -> dict:
    passes = []
    spans = []
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        codes = [_run(pool[j], outs[j]) for j in range(len(pool))]
        untraced_s = time.perf_counter() - pair_start
        tracer = Tracer()
        tracer.install()
        try:
            t = time.perf_counter()
            for j in range(len(pool)):
                tracer.scenario = f"{len(passes)}:{j}"
                codes.append(_run(pool[j], outs[j]))
            traced_s = time.perf_counter() - t
        finally:
            tracer.uninstall()
        passes.append({"untraced_s": untraced_s, "traced_s": traced_s, "codes": codes,
                       "sizes": [_size(o) for o in outs], "summary": tracer.summary()})
        spans.extend(tracer.spans)
        pair_s = time.perf_counter() - pair_start
        if time.perf_counter() - start + pair_s > seconds:
            break
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "scenario"], "spans": spans}, fh)
    return {"passes": passes}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pool", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args()

    pool = sorted(args.pool.glob("s*.json"), key=lambda p: int(p.stem[1:]))
    args.out.mkdir(parents=True, exist_ok=True)
    outs = [args.out / f"r{j}.json" for j in range(len(pool))]

    probe = [args.out / "probe_a.json", args.out / "probe_b.json"]
    probe_codes = [_run(pool[0], p) for p in probe]
    probe_match = probe[0].exists() and probe[0].read_bytes() == probe[1].read_bytes()
    _warm_up(pool, outs, WARMUP_S)

    if args.trace:
        result = _traced(pool, outs, args.seconds, args.spans)
    else:
        result = _timed(pool, outs, args.seconds)
    result.update({
        "probe_codes": probe_codes,
        "probe_match": bool(probe_match),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__, "openblas": _openblas_version()},
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    })
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
