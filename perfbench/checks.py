"""Independent checks of syncsub reports.

Every expectation is rebuilt here from the scenario's own inputs with plain
numpy, never from library code and never from frozen report bytes, so a
change that alters report bytes on purpose (for example a canonical kernel
basis) still passes while a wrong verdict or number does not.
"""

from __future__ import annotations

import numpy as np

from workloads import dft_scalars

EXACT = 1e-10       # agreement for quantities built exactly in both places
ROUNDOFF = 1e-8     # agreement for quantities that go through an evolution
SCALAR_EQUAL = 1e-6  # DFT scalars are built either equal or >= 0.2 apart


def _series(report: dict, doc: dict, expect: dict) -> list:
    problems = []
    times = np.asarray(report["times"], dtype=np.float64)
    drift = np.asarray(report["drift"], dtype=np.float64)
    fid = np.asarray(report["fidelity"], dtype=np.float64)
    eps = float(report["epsilon"])
    if report["kernel_dim"] != expect["kernel_dim"]:
        problems.append(f"kernel_dim {report['kernel_dim']} != label matches {expect['kernel_dim']}")
    if not np.array_equal(times, np.asarray(doc["times"], dtype=np.float64)):
        problems.append("times differ from the scenario")
    if not (report["drift_bound_ok"] and report["fidelity_bound_ok"] and report["passed"]):
        problems.append("a drift or fidelity bound verdict failed")
    if not (np.isfinite(eps) and eps > 0):
        problems.append(f"epsilon {eps!r} is not a positive number")
    zero = times == 0.0
    if abs(drift[zero]).max(initial=0.0) > ROUNDOFF or abs(fid[zero] - 1).max(initial=0.0) > ROUNDOFF:
        problems.append("drift(0) != 0 or F(0) != 1")
    if np.any(drift > eps * np.abs(times) + 1e-9) or np.any(fid < 1 - (eps * times) ** 2 - 1e-9):
        problems.append("a sample breaks ||K psi(t)|| <= eps|t| or F >= 1 - eps^2 t^2")
    if np.any(np.abs(np.asarray(report["bound_drift"]) - eps * np.abs(times)) > EXACT * max(1, eps)):
        problems.append("bound_drift is not eps*|t|")
    # K is diag(a_i - b_j): off the kernel its singular values lie in [g_min, g_max],
    # so g_min^2 (1-F) <= ||K psi||^2 <= g_max^2 (1-F) at every sample. Compared
    # squared, because sqrt(1-F) amplifies the roundoff in F near 1.
    gaps = np.abs(np.subtract.outer(expect["labels_a"], expect["labels_b"])).reshape(-1)
    g_min, g_max = gaps[gaps > 0].min(), gaps.max()
    slack = g_max ** 2 * 1e-12
    if (np.any(drift ** 2 < g_min ** 2 * (1.0 - fid) - slack)
            or np.any(drift ** 2 > g_max ** 2 * (1.0 - fid) + slack)):
        problems.append("drift and fidelity series are inconsistent with the label gaps")
    return problems


def _group(report: dict, doc: dict, expect: dict) -> list:
    problems = []
    n = len(expect["class_function_a"])
    for side in ("rep_a", "rep_b"):
        if not report["validation"][side]["passed"]:
            problems.append(f"{side} failed validation")
        if report["multiplicities"][side] != [[f"chi{j}", 1] for j in range(n)]:
            problems.append(f"{side}: regular-rep multiplicities are not all 1")
    alpha = dft_scalars(expect["class_function_a"])
    beta = dft_scalars(expect["class_function_b"])
    for side, want in (("rep_a", alpha), ("rep_b", beta)):
        got = {e["irrep"]: complex(*e["scalar"]) for e in report["schur"][side]["entries"]}
        if any(abs(got.get(f"chi{j}", np.inf) - want[j]) > ROUNDOFF for j in range(n)):
            problems.append(f"{side}: Schur scalars differ from the DFT of the class function")
    entries = {e["irrep"]: e for e in report["containment"]["entries"]}
    for j in range(n):
        e = entries.get(f"chi{j}")
        if e is None or e["matched"] != bool(abs(alpha[j] - beta[j]) <= SCALAR_EQUAL):
            problems.append(f"containment matched flag for chi{j} disagrees with the DFT scalars")
            break
    if not report["containment"]["passed"]:
        problems.append("kernel containment failed")
    if report["membership"]["member"] != expect["member"]:
        problems.append(f"membership {report['membership']['member']} != built {expect['member']}")
    if not report["passed"]:
        problems.append("report did not pass")
    return problems


CHECKS = {"drift_trace": _series, "group_reg": _group}


def check_report(workload: str, report: dict, doc: dict, expect: dict) -> list:
    """Problems found in one report; an empty list means it is correct."""
    try:
        return CHECKS[workload](report, doc, expect)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]
