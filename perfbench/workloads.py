"""Seeded scenario generators for the benchmark workloads.

Each generator turns a workload seed into a pool of scenario documents plus
the expectations the checker holds their reports to. The expectations are
derived here from how each scenario was built, never from the library under
test. Every scenario of one workload has the same operator size, so its
latencies stay inside one cost mode. The label structure of each pool slot
(kernel dimension, label gaps) is fixed by the slot alone, and the seed only
relabels it and draws the numbers, so every seed's pool costs the same.
"""

from __future__ import annotations

import math

import numpy as np

D = 16                 # labels per side for drift_trace (n = 256)
N_TIMES = 50
GROUP_ORDER = 16       # Z16 regular (x) regular, joint dim 256
POOL_SIZE = 20
COS_EVERY = 10         # one group scenario in ten carries a cos(2*pi*k/n) class function


def _label_pair(rng, mode: str):
    """Clock labels for both sides on a 0.25 grid, so label gaps stay >= 0.25."""
    grid = np.arange(64) * 0.25 - 8.0
    if mode == "matched":
        a = rng.choice(grid, size=D, replace=False)
        b = rng.permutation(a)
    elif mode == "partial":
        shared = int(rng.integers(3, 13))
        picks = rng.choice(grid, size=2 * D - shared, replace=False)
        a = picks[:D]
        b = np.concatenate([a[:shared], picks[D:]])
        b = rng.permutation(b)
    elif mode == "degenerate":
        values = rng.choice(grid, size=int(rng.integers(3, 7)), replace=False)
        a = rng.choice(values, size=D)
        a[: values.size] = values                 # every value appears on side A
        b = rng.choice(values, size=D)
    else:  # pragma: no cover - internal modes only
        raise ValueError(mode)
    return [float(x) for x in a], [float(x) for x in b]


def _relabel(rng, labels_a, labels_b, step: float = 0.25):
    """Shift both sides by one grid multiple and reorder each side. Equal
    labels stay equal and every gap is kept, so the kernel dimension and the
    cost of the scenario do not change; the shift is exact on the grid."""
    c = step * int(rng.integers(-8, 9))
    return ([float(x) + c for x in rng.permutation(labels_a)],
            [float(y) + c for y in rng.permutation(labels_b)])


def _kernel_dim(labels_a, labels_b) -> int:
    return sum(1 for x in labels_a for y in labels_b if x == y)


def _matrix_literal(m: np.ndarray) -> dict:
    return {"dim": int(m.shape[0]),
            "entries": [[float(v.real), float(v.imag)] for v in m.reshape(-1)]}


def drift_trace(seed: int) -> list:
    rng = np.random.default_rng([seed, 1])
    modes = ("matched", "partial", "degenerate")
    pool = []
    for i in range(POOL_SIZE):
        labels_a, labels_b = _label_pair(np.random.default_rng([i, 1]), modes[i % 3])
        labels_a, labels_b = _relabel(rng, labels_a, labels_b)
        strength = float(10.0 ** rng.uniform(-3.0, -1.0))
        t_max = float(rng.uniform(5.0, 20.0))
        doc = {
            "name": f"drift-{seed}-{i}",
            "kind": "drift" if i % 2 == 0 else "fidelity",
            "clock_a": {"labels": labels_a},
            "clock_b": {"labels": labels_b},
            "hamiltonian": {
                "base": {"local": {"a": {"diag": [float(x) for x in rng.uniform(-1, 1, D)]},
                                   "b": {"diag": [float(x) for x in rng.uniform(-1, 1, D)]}}},
                "direction": "random",
                "strength": strength,
                "seed": int(rng.integers(0, 2**31)),
            },
            "times": [float(t) for t in np.linspace(0.0, t_max, N_TIMES)],
            "initial_state": {"kernel_seed": int(rng.integers(0, 2**31))},
        }
        expect = {"exit": 0, "labels_a": labels_a, "labels_b": labels_b,
                  "kernel_dim": _kernel_dim(labels_a, labels_b)}
        pool.append((doc, expect))
    return pool


def _symmetric_class_function(spectrum: np.ndarray) -> list:
    """Real class function on Z_n with f(k) == f(n-k) exactly, from DFT scalars.

    ``spectrum[j]`` for j <= n/2 is the scalar on irreps j and n-j; values
    for k > n/2 are copied from n-k, so the inverse-class test passes bitwise.
    """
    n = GROUP_ORDER
    half = n // 2
    full = np.concatenate([spectrum, spectrum[1:half][::-1]])
    k = np.arange(half + 1)
    f_half = (full[None, :] * np.cos(2 * np.pi * np.outer(k, np.arange(n)) / n)).sum(axis=1) / n
    return [float(f_half[min(k, n - k)]) for k in range(n)]


def dft_scalars(values) -> np.ndarray:
    """Schur scalar of sum_g f(g) rho(g) on irrep chi_j of Z_n: sum_k f(k) w^(jk)."""
    f = np.asarray(values, dtype=np.float64)
    n = f.size
    k = np.arange(n)
    return (f[None, :] * np.exp(2j * np.pi * np.outer(k, k) / n)).sum(axis=1)


def _circulant(values) -> np.ndarray:
    n = len(values)
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return np.asarray(values, dtype=np.float64)[idx]


def group_reg(seed: int) -> list:
    rng = np.random.default_rng([seed, 2])
    n = GROUP_ORDER
    half = n // 2
    shift = np.zeros((n, n))
    shift[(np.arange(n) + 1) % n, np.arange(n)] = 1.0   # rho(g1)|h> = |g1 h>
    rep = {"generators": {"g1": _matrix_literal(shift.astype(np.complex128))}}
    pool = []
    for i in range(POOL_SIZE):
        spec_a = rng.uniform(-2.0, 2.0, half + 1)
        differ = rng.random(half + 1) < 0.4
        differ[int(rng.integers(0, half + 1))] = True      # at least one mismatch
        differ[int(rng.integers(0, half + 1))] = False     # at least one match
        spec_b = spec_a + np.where(differ, rng.uniform(0.2, 1.0, half + 1), 0.0)
        f_a = _symmetric_class_function(spec_a)
        f_b = _symmetric_class_function(spec_b)
        cos_input = i % COS_EVERY == COS_EVERY - 1
        if cos_input:
            # A user's literal: each value rounded on its own, so f(k) and
            # f(n-k) may differ in the last bit.
            f_a = [math.cos(2 * math.pi * k / n) for k in range(n)]
            assert any(f_a[k] != f_a[n - k] for k in range(1, n))
            # B moves the scalars of irreps j and n-j by 1/2 (by 1 when j = n/2).
            j = int(rng.integers(2, half + 1))
            f_b = [f + math.cos(2 * math.pi * j * min(k, n - k) / n) / n
                   for k, f in enumerate(f_a)]
        member = i % 2 == 0
        if member:
            h_a = _circulant(_symmetric_class_function(rng.uniform(-1, 1, half + 1)))
            h_b = _circulant(_symmetric_class_function(rng.uniform(-1, 1, half + 1)))
        else:
            h_a = np.diag(rng.uniform(-1, 1, n))
            h_b = _circulant(_symmetric_class_function(rng.uniform(-1, 1, half + 1)))
        doc = {
            "name": f"group-{seed}-{i}",
            "kind": "group",
            "group": f"Z{n}",
            "rep_a": rep,
            "rep_b": rep,
            "class_function_a": f_a,
            "class_function_b": f_b,
            "hamiltonian": {"local": {"a": _matrix_literal(h_a.astype(np.complex128)),
                                      "b": _matrix_literal(h_b.astype(np.complex128))}},
        }
        expect = {"exit": 0, "member": member, "cos_input": cos_input,
                  "class_function_a": f_a, "class_function_b": f_b}
        pool.append((doc, expect))
    return pool


GENERATORS = {
    "drift_trace": drift_trace,
    "group_reg": group_reg,
}
