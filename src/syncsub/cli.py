"""Command-line front-end.

Subcommands check-compat, drift, kernel, and group-analyze each run one
scenario file of the matching kind; run dispatches on the kind declared in
the file and accepts several files at once. Exit codes: 0 all verdicts
pass, 1 a bound or invariant was violated (a reportable result, not a
crash), 2 parse/validation error, 3 numerical failure. Set SYNCSUB_LOG to
info or debug for progress logging.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .literals import ScenarioError
from .opcore import NumericalError
from .scenario import SERIES_KINDS, emit_report, parse_scenario, run_scenario

log = logging.getLogger("syncsub")
log.addHandler(logging.NullHandler())   # at import, so repeated main() calls add none
_parser = None   # built by the first main() call, not at import, and reused

_KIND_FOR_COMMAND = {
    "check-compat": ("compat",),
    "drift": SERIES_KINDS,
    "kernel": ("kernel",),
    "group-analyze": ("group",),
    "run": None,
}


def _configure_logging() -> None:
    level = os.environ.get("SYNCSUB_LOG", "off").lower()
    if level == "info":
        logging.basicConfig(level=logging.INFO, format="%(name)s: %(message)s")
    elif level == "debug":
        logging.basicConfig(level=logging.DEBUG, format="%(name)s: %(message)s")


def _parse_tol(pairs) -> dict:
    out = {}
    for item in pairs or ():
        name, sep, value = item.partition("=")
        if not sep:
            raise ScenarioError("tol", f"expected name=value, got {item!r}")
        try:
            out[name] = float(value)
        except ValueError:
            raise ScenarioError("tol", f"tolerance {name!r} needs a numeric value, "
                                       f"got {value!r}") from None
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syncsub",
        description="Synchronization subspaces for bipartite quantum clocks: "
                    "compatibility checks, drift traces, kernel extraction, "
                    "and group-symmetry analysis.")
    parser.add_argument("--version", action="version", version=f"syncsub {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text in (
        ("check-compat", "classify Hamiltonians against a clock"),
        ("drift", "drift/fidelity trace with bound verdicts"),
        ("kernel", "extract the synchronization kernel"),
        ("group-analyze", "representation validation, Schur scalars, containment"),
        ("run", "run scenario files, dispatching on their declared kind"),
    ):
        cmd = sub.add_parser(command, help=help_text)
        cmd.add_argument("scenarios", nargs="+", metavar="SCENARIO",
                         help="scenario file (JSON)")
        cmd.add_argument("--out", type=Path, default=None,
                         help="output path (default: scenario's own 'out', else stdout)")
        cmd.add_argument("--format", choices=("csv", "json", "text"), default=None,
                         help="output format (default: scenario's own, else json)")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override every seed in the scenario")
        cmd.add_argument("--tol", action="append", metavar="NAME=VALUE",
                         help="override a named tolerance (repeatable)")
    return parser


def _run_one(path, args, allowed_kinds) -> int:
    scenario = parse_scenario(path, seed_override=args.seed, tol_overrides=_parse_tol(args.tol))
    if allowed_kinds is not None and scenario.kind not in allowed_kinds:
        raise ScenarioError("kind", f"scenario {scenario.name!r} has kind "
                                    f"{scenario.kind!r}; this subcommand handles "
                                    f"{', '.join(allowed_kinds)}")
    log.info("running scenario %s (kind %s)", scenario.name, scenario.kind)
    report = run_scenario(scenario)
    fmt = args.format or scenario.format or "json"
    payload = emit_report(report, fmt)
    out = args.out if args.out is not None else scenario.out
    if out is None:
        sys.stdout.write(payload.decode("utf-8"))
    else:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_bytes(payload)
        log.info("wrote %s report to %s", fmt, out)
    return 0 if report["passed"] else 1


def main(argv=None) -> int:
    global _parser
    _configure_logging()
    if _parser is None:
        _parser = _build_parser()
    args = _parser.parse_args(argv)
    allowed = _KIND_FOR_COMMAND[args.command]
    if args.out is not None and len(args.scenarios) > 1:
        print("syncsub: --out cannot be combined with multiple scenarios", file=sys.stderr)
        return 2
    code = 0
    for path in args.scenarios:
        try:
            code = max(code, _run_one(path, args, allowed))
        except (NumericalError, np.linalg.LinAlgError, ArithmeticError) as exc:
            print(f"syncsub: numerical failure: {exc}", file=sys.stderr)
            return 3
        except ScenarioError as exc:
            print(f"syncsub: scenario error: {exc}", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"syncsub: validation error: {exc}", file=sys.stderr)
            return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
