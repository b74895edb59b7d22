"""Reference kernels that gauge the host's current speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to 2x over seconds to minutes, because other tenants compete for the
same cores, caches and memory bandwidth. Raw wall times of the same
program then spread 15-25% between runs. A reference kernel is fixed work
of the same character as the layer that dominates a workload, built from a
fixed seed and from numpy alone, so no change to the program changes it.
Each run starts with one untimed repetition, so that the reference's own
data is back in cache whatever the call before it touched. The runner
times the reference between consecutive ``estimate`` calls and
rescales each call's times by ``NOMINAL_S[kind] / reference time``: the
time the call would have taken on a host on which the reference takes its
nominal time. Raw times stay in the run record. The host's speed also
changes within a second, so this works only while a call is short: each
workload's call takes 0.15-0.8 s.

Three kinds, each close to one workload's blocking steps, each about
0.05-0.1 s, so the reference sits close in time to the call it rescales:

* ``dense``: ``A @ x`` with a dense 1000 x 1000 matrix (8 MB, beyond the
  per-core L2), like the dense operator's matvec on dense-eval.
* ``gather``: ``bincount(rows, weights=data * x[cols])`` over a 1000-row
  pattern with 20 entries per row, the sparse operator's own matvec shape.
* ``recurrence``: a Python-level three-term recurrence with 200 x 200
  matvecs and dot products, bound by per-call overhead like the evaluators
  on small matrices.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

SEED = 20150706

# Median time of each reference over five 15 s runs on an Intel Xeon host
# (2 vCPUs, 2 MiB L2 per core, 105 MiB shared L3), numpy 2.4 with one
# OpenBLAS thread. Only scales the reported times; any fixed value would
# compare two commits alike.
NOMINAL_S = {"dense": 0.06, "gather": 0.07, "recurrence": 0.04}


def dense(reps: int = 150, dim: int = 1000):
    rng = np.random.default_rng(SEED)
    A = rng.standard_normal((dim, dim))
    x = rng.standard_normal(dim)

    def run() -> float:
        A @ x
        t0 = perf_counter()
        for _ in range(reps):
            A @ x
        return perf_counter() - t0

    return run


def gather(reps: int = 600, dim: int = 1000, degree: int = 20):
    rng = np.random.default_rng(SEED)
    rows = np.repeat(np.arange(dim, dtype=np.int64), degree)
    cols = rng.integers(0, dim, size=rows.size)
    data = rng.standard_normal(rows.size)
    x = rng.standard_normal(dim)

    def run() -> float:
        np.bincount(rows, weights=data * x[cols], minlength=dim)
        t0 = perf_counter()
        for _ in range(reps):
            np.bincount(rows, weights=data * x[cols], minlength=dim)
        return perf_counter() - t0

    return run


def recurrence(reps: int = 300, dim: int = 200, steps: int = 10):
    rng = np.random.default_rng(SEED)
    A = rng.standard_normal((dim, dim)) / dim
    z = rng.standard_normal(dim)

    def sweep() -> float:
        total = 0.0
        u, v = z, A @ z
        for _ in range(steps):
            u, v = v, 2.0 * (A @ v) - u
            total += float(np.dot(v, z))
        return total

    def run() -> float:
        sweep()
        t0 = perf_counter()
        for _ in range(reps):
            sweep()
        return perf_counter() - t0

    return run


# Each builds a zero-argument callable that runs the reference once and
# returns its wall time in seconds.
KINDS = {"dense": dense, "gather": gather, "recurrence": recurrence}
