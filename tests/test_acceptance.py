"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import oracles
from syncsub import cli, clocks, grouprep, opcore, sync

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
H4 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)


def _criterion(number, description, failures):
    status = "PASS" if not failures else "FAIL"
    suffix = "" if not failures else f"  [{len(failures)} violation(s)]"
    print(f"ACCEPTANCE {number:02d} {status}: {description}{suffix}")
    assert not failures, f"criterion {number}: first failures: {failures[:5]}"


def _random_hermitian(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (g + g.conj().T) / 2.0


def test_criterion_01_three_level_clock_compatibility():
    failures = []
    t = clocks.make_clock([0, 1, 2])
    for name, h in (("H1", np.diag([1.0, 1.0, 1.0])),
                    ("H2", np.diag([np.pi, -np.pi, 0.0])),
                    ("H3", np.diag([0.0, np.sqrt(2), -1.0]))):
        res = oracles.compatibility_residual(h.astype(complex), t)
        if res > 1e-12:
            failures.append(f"{name} residual {res:.3e}")
        if clocks.classify_compatibility(h.astype(complex), t)["class"] != "diagonal":
            failures.append(f"{name} not classified diagonal")
    res4 = oracles.compatibility_residual(H4, t)
    verdict4 = clocks.classify_compatibility(H4, t)
    if abs(res4 - 1.0) > 1e-12:
        failures.append(f"H4 residual {res4!r} != 1")
    if verdict4["class"] != "incompatible":
        failures.append(f"H4 verdict {verdict4['class']}")
    _criterion(1, "three-level clock: H1-H3 compatible, H4 incompatible with residual 1",
               failures)


def test_criterion_02_pauli_z_kernel_and_membership():
    failures = []
    za = clocks.make_clock([1, -1])
    k = oracles.sync_operator(za, za)
    kernel, _ = oracles.null_space(k)
    if kernel.shape[1] != 2:
        failures.append(f"kernel dim {kernel.shape[1]}")
    proj_err = opcore.operator_norm(oracles.span_projector(kernel) - np.diag([1.0, 0, 0, 1.0]))
    if proj_err > 1e-12:
        failures.append(f"projector error {proj_err:.3e}")

    eye = np.eye(2)
    hams = [np.kron(SIGMA_Z, eye), np.kron(eye, SIGMA_Z), np.kron(SIGMA_Z, SIGMA_Z)]
    rng = np.random.default_rng(2024)
    for _ in range(20):
        a, b = rng.normal(size=2)
        hams.append(a * np.kron(SIGMA_Z, eye) + b * np.kron(eye, SIGMA_Z))
    for i, h in enumerate(hams):
        res = opcore.operator_norm(oracles.commutator(h, k))
        if res > 1e-12:
            failures.append(f"H[{i}] commutator {res:.3e}")

    group, _ = grouprep.builtin_group("Z2xZ2")
    rho = grouprep.representation_from_generators(group, {"a": SIGMA_Z, "b": SIGMA_Z})
    system = sync.make_system(za, za, np.kron(SIGMA_X, eye))
    if grouprep.hsync_membership(sync.sync_bundle(system), rho, rho)["member"]:
        failures.append("X(x)I passed membership")
    _criterion(2, "Pauli-Z qubits: kernel span{|00>,|11>}, Z-type members, X(x)I rejected",
               failures)


def test_criterion_03_compatible_systems_preserve_kernel_and_spectra():
    failures = []
    rng = np.random.default_rng(3)
    times = [0.1, 1.0, 10.0, 100.0]
    for trial in range(200):
        da, db = rng.integers(2, 5, size=2)
        ta = clocks.make_clock(rng.integers(0, 3, size=da).astype(float))
        tb = clocks.make_clock(rng.integers(0, 3, size=db).astype(float))
        system = sync.make_system(ta, tb, oracles.local_hamiltonian(
            oracles.random_compatible(ta, 2 * trial), oracles.random_compatible(tb, 2 * trial + 1)))
        k = oracles.sync_operator(ta, tb)
        comm = opcore.operator_norm(oracles.commutator(k, system.hamiltonian))
        if comm > 1e-11:
            failures.append(f"trial {trial}: ||[K,H]|| = {comm:.3e}")
            continue
        bundle = sync.sync_bundle(system)
        leak = oracles.preservation_residual(bundle, times)
        if leak > 1e-10:
            failures.append(f"trial {trial}: leakage {leak:.3e}")
        ta_full = np.kron(oracles.clock_matrix(ta), np.eye(db))
        before = np.sort(np.linalg.eigvalsh(ta_full))
        evals, evecs = oracles.hermitian_eig(system.hamiltonian)
        for t in times:
            u = (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T
            evolved = u.conj().T @ ta_full @ u
            after = np.sort(np.linalg.eigvalsh((evolved + evolved.conj().T) / 2))
            if np.max(np.abs(after - before)) > 1e-10:
                failures.append(f"trial {trial}: spectrum moved at t={t}")
                break
    _criterion(3, "200 locally compatible systems: [K,H]=0, kernel preserved, spectra stable",
               failures)


@pytest.fixture(scope="module")
def epsilon_sweep():
    """Shared sweep for criteria 4-6: 3 epsilons x 50 seeds, dims 2..6."""
    runs = []
    times = np.linspace(-50.0, 50.0, 64)
    for eps in (0.001, 0.01, 0.1):
        for seed in range(50):
            d = 2 + seed % 5
            ta = clocks.make_clock(np.arange(d, dtype=float))
            base = oracles.local_hamiltonian(oracles.random_compatible(ta, 7000 + seed),
                                             oracles.random_compatible(ta, 8000 + seed))
            k = oracles.sync_operator(ta, ta)
            rng = np.random.Generator(np.random.Philox(key=9000 + seed))
            g = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
            v = (g + g.conj().T) / 2.0
            scale = eps / opcore.operator_norm(oracles.commutator(v, k))
            system = sync.make_system(ta, ta, base + scale * v)
            bundle = sync.sync_bundle(system)
            psi0 = sync.sample_kernel_state(bundle, seed)
            report = sync.drift_trace(bundle, psi0, times)

            # decomposition residual max |F + ||(I-Pi)psi||^2 - 1| on the grid
            evals, evecs = oracles.hermitian_eig(system.hamiltonian)
            eye = np.eye(system.dim)
            projector = oracles.span_projector(sync.kernel_basis(bundle))
            decomp_err = 0.0
            for t in times:
                u = (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T
                psi_t = u @ psi0
                fid = float(np.linalg.norm(projector @ psi_t) ** 2)
                leak = float(np.linalg.norm((eye - projector) @ psi_t) ** 2)
                decomp_err = max(decomp_err, abs(fid + leak - 1.0))

            delta = 0.1
            t_win = 0.9 * delta / bundle.epsilon
            window_report = sync.drift_trace(bundle, psi0, [t_win])
            runs.append({
                "eps": eps,
                "seed": seed,
                "epsilon": bundle.epsilon,
                "report": report,
                "decomp_err": decomp_err,
                "window_drift": window_report["drift"][0],
                "delta": delta,
            })
    return runs


def test_criterion_04_drift_bound(epsilon_sweep):
    failures = []
    for run in epsilon_sweep:
        r = run["report"]
        excess = np.asarray(r["drift"]) - run["epsilon"] * np.abs(r["times"])
        worst = float(np.max(excess))
        if worst > 1e-9:
            failures.append(f"eps={run['eps']} seed={run['seed']}: excess {worst:.3e}")
    _criterion(4, "drift <= realized epsilon * |t| + 1e-9 across the full sweep", failures)


def test_criterion_05_fidelity_bound(epsilon_sweep):
    failures = []
    for run in epsilon_sweep:
        r = run["report"]
        shortfall = (1.0 - (run["epsilon"] * np.asarray(r["times"])) ** 2) - r["fidelity"]
        worst = float(np.max(shortfall))
        if worst > 1e-9:
            failures.append(f"eps={run['eps']} seed={run['seed']}: shortfall {worst:.3e}")
        if run["decomp_err"] > 1e-10:
            failures.append(f"eps={run['eps']} seed={run['seed']}: "
                            f"F + leak^2 - 1 = {run['decomp_err']:.3e}")
    _criterion(5, "fidelity >= 1 - epsilon^2 t^2 - 1e-9 and F + ||(I-Pi)psi||^2 = 1", failures)


def test_criterion_06_stability_window(epsilon_sweep):
    failures = []
    for run in epsilon_sweep:
        if run["window_drift"] > run["delta"] + 1e-9:
            failures.append(f"eps={run['eps']} seed={run['seed']}: "
                            f"drift {run['window_drift']:.3e} at 0.9*delta/epsilon")
    _criterion(6, "drift at t = 0.9 * delta/epsilon stays below delta = 0.1", failures)


def test_criterion_07_regular_representations():
    failures = []
    for name in ("Z2", "Z2xZ2", "S3", "D4"):
        group, chars = grouprep.builtin_group(name)
        reg = oracles.regular_representation(group)
        comps = oracles.isotypic_components(reg, chars)
        total = sum(c.projector for c in comps)
        if opcore.operator_norm(total - np.eye(group.order)) > 1e-10:
            failures.append(f"{name}: completeness")
        for i, a in enumerate(comps):
            if opcore.operator_norm(a.projector @ a.projector - a.projector) > 1e-10:
                failures.append(f"{name}/{a.irrep}: idempotence")
            for b in comps[i + 1:]:
                if opcore.operator_norm(a.projector @ b.projector) > 1e-10:
                    failures.append(f"{name}: {a.irrep} vs {b.irrep} not orthogonal")
            if a.isotypic_dim != a.irrep_dim ** 2:
                failures.append(f"{name}/{a.irrep}: rank {a.isotypic_dim} != d^2")
        expected_commutant = sum(c.multiplicity ** 2 for c in comps)
        found = grouprep.commutant_dimension(reg)
        if found != expected_commutant:
            failures.append(f"{name}: commutant dim {found} != {expected_commutant}")
        for seed in range(20):
            t = oracles.random_equivariant_observable(reg, seed)
            report, _ = oracles.schur_clock(t, reg, comps)
            bad = [e["irrep"] for e in report["entries"]   # Schur's lemma: multiplicity one
                   if e["multiplicity"] == 1 and e["residual"] > 1e-9]
            if bad:
                failures.append(f"{name} seed {seed}: schur residuals {bad}")
    _criterion(7, "regular reps of Z2, Z2xZ2, S3, D4: projectors, ranks d^2, "
                  "commutant = sum m^2, Schur residuals", failures)


def test_criterion_08_s3_kernel_containment():
    failures = []
    group, chars = grouprep.builtin_group("S3")
    theta = 2 * np.pi / 3
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    r = np.zeros((4, 4), dtype=complex)
    r[0, 0] = 1.0
    r[1, 1] = 1.0
    r[2:, 2:] = rot
    s = np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex)
    rho = grouprep.representation_from_generators(group, {"r": r, "s": s})
    dec = oracles.isotypic_components(rho, chars)

    def contained(side_a, side_b):
        (schur_a, clock_a), (schur_b, clock_b) = side_a, side_b
        system = sync.make_system(clock_a, clock_b, np.zeros((16, 16)))
        return grouprep.verify_kernel_containment(schur_a, schur_b, chars,
                                                  sync.sync_bundle(system))

    def block_norms(t_a, t_b):
        # ||K b|| on each diagonal block's columns, from the dense K
        k = oracles.kron_difference(t_a, t_b)
        return {c.irrep: np.linalg.norm(k @ np.kron(c.basis, c.basis), axis=0)
                for c in dec}

    rng = np.random.default_rng(8)
    for trial in range(20):
        f = rng.uniform(-1, 1, size=3)
        t, equivariance = grouprep.observable_from_class_function(f, rho)
        side = grouprep.isotypic_clock(t, equivariance, dec)
        report = contained(side, side)
        if not report["all_matched"]:
            failures.append(f"trial {trial}: scalars diverged on equal inputs")
        norms = block_norms(t, t)
        for entry in report["entries"]:
            if np.max(norms[entry["irrep"]]) > 1e-9:
                failures.append(f"trial {trial}/{entry['irrep']}: "
                                f"||K b|| = {np.max(norms[entry['irrep']]):.3e}")

        g = f.copy()
        g[trial % 3] += rng.uniform(0.1, 1.0)
        t_b, eq_b = grouprep.observable_from_class_function(g, rho)
        perturbed = contained(side, grouprep.isotypic_clock(t_b, eq_b, dec))
        norms = block_norms(t, t_b)
        for entry in perturbed["entries"]:
            gap = abs(entry["alpha"] - entry["beta"])
            kb = norms[entry["irrep"]]
            left = np.max(kb) > 1e-6
            if left != (gap > 1e-6):
                failures.append(f"trial {trial}/{entry['irrep']}: left={left} but gap={gap:.3e}")
            if gap > 1e-6 and (entry["max_deviation"] > 1e-9 or np.max(np.abs(kb - gap)) > 1e-9):
                failures.append(f"trial {trial}/{entry['irrep']}: "
                                f"||K b|| off by {np.max(np.abs(kb - gap)):.3e}")
            if gap <= 1e-6 and np.max(kb) > 1e-9:
                failures.append(f"trial {trial}/{entry['irrep']}: matched residual "
                                f"{np.max(kb):.3e}")
    _criterion(8, "S3 class-function clocks: kernel containment exact, perturbed "
                  "classes leave by |alpha - beta|", failures)


def _kernel_oracle(a, tol=opcore.KERNEL_TOL):
    # eigh resolves eigenvalues to eps * lam_max, so the tol^2 cutoff is floored
    gram = a.conj().T @ a
    w, v = np.linalg.eigh((gram + gram.conj().T) / 2)
    lam_max = max(float(w[-1]), 0.0)
    rel_cut = max(tol ** 2, gram.shape[0] * np.finfo(float).eps)
    keep = w <= rel_cut * lam_max if lam_max > 0 else np.ones_like(w, dtype=bool)
    return v[:, keep]


def test_criterion_09_null_space_oracle_equivalence():
    failures = []
    rng = np.random.default_rng(9)
    for trial in range(100):
        n = int(rng.integers(2, 17))
        r = int(rng.integers(1, n + 1))
        x = rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))
        y = rng.normal(size=(r, n)) + 1j * rng.normal(size=(r, n))
        a = x @ y
        basis, _ = oracles.null_space(a)
        oracle = _kernel_oracle(a)
        if basis.shape[1] != oracle.shape[1]:
            failures.append(f"trial {trial}: dims {basis.shape[1]} vs {oracle.shape[1]}")
            continue
        if basis.shape[1]:
            residual = oracle - basis @ (basis.conj().T @ oracle)
            sine = float(np.linalg.norm(residual, 2))
            if sine > 1e-8:
                failures.append(f"trial {trial}: principal angle sin {sine:.3e}")
    _criterion(9, "SVD null space matches the Gram eigendecomposition oracle on "
                  "100 random matrices", failures)


def test_criterion_10_bundled_scenario_determinism(tmp_path):
    failures = []
    cases = [("ex55_compat.json", "json"), ("ex74_kernel.json", "json"),
             ("drift_perturbed.json", "json"), ("drift_perturbed.json", "csv")]
    for idx, (name, fmt) in enumerate(cases):
        src = SCENARIO_DIR / name
        outputs = []
        for attempt in range(2):
            out = tmp_path / f"{idx}_{attempt}.{fmt}"
            code = cli.main(["run", str(src), "--out", str(out), "--format", fmt])
            if code != 0:
                failures.append(f"{name} ({fmt}): exit code {code}")
            outputs.append(out.read_bytes())
        if outputs[0] != outputs[1]:
            failures.append(f"{name} ({fmt}): outputs differ between runs")
        if fmt == "json":
            json.loads(outputs[0].decode())
    _criterion(10, "bundled scenarios emit byte-identical CSV and JSON on reruns", failures)
