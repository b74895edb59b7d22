"""Workload definitions and seeded input generation.

Each workload is one ``twosided estimate`` invocation. The seed given to
the benchmark is the only source of randomness: it is passed to the CLI as
``--seed`` (synthetic matrices, probes and the power-iteration start) and,
for ``sparse-power``, seeds the Matrix Market file the benchmark writes
before timing starts. Why each workload exists is recorded in
``BENCHMARK.json``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

ALL_EVALUATORS = ("one_sided_standard", "two_sided_standard",
                  "one_sided_chebyshev", "two_sided_chebyshev")
CHEBYSHEV_PAIR = ("one_sided_chebyshev", "two_sided_chebyshev")


@dataclass(frozen=True)
class Workload:
    name: str
    function: str          # CLI --function spec
    f: object              # the same function, vectorised, for the oracle
    degree: int
    probes: int
    evaluators: tuple
    interval: str
    reference: str         # host-speed reference kind, see reference.py
    synthetic_dim: int = 0     # > 0: the CLI generates the matrix (--synthetic)
    sparse_dim: int = 0        # > 0: the benchmark writes a coordinate file
    sparse_degree: int = 0     # random permutation patterns in that file
    extra_args: tuple = ()

    @property
    def dim(self) -> int:
        return self.synthetic_dim or self.sparse_dim

    def argv(self, seed: int, inputs: dict, out: str) -> list[str]:
        source = (["--synthetic", str(self.synthetic_dim)] if self.synthetic_dim
                  else ["--matrix", inputs["path"]])
        return ["estimate", *source, "--seed", str(seed),
                "--function", self.function, "--degree", str(self.degree),
                "--probes", str(self.probes), "--evaluators", ",".join(self.evaluators),
                "--interval", self.interval, *self.extra_args, "--out", out]


WORKLOADS = {w.name: w for w in (
    Workload("dense-eval", "exp_scaled:0.16", lambda x: np.exp(0.16 * x),
             degree=20, probes=40, evaluators=CHEBYSHEV_PAIR, interval="exact",
             reference="dense", synthetic_dim=1000),
    Workload("sparse-power", "log_shifted", lambda x: np.log(x + 1.01),
             degree=20, probes=40, evaluators=CHEBYSHEV_PAIR, interval="power",
             reference="gather", sparse_dim=1000, sparse_degree=10),
    Workload("small-many", "exp_scaled:0.5", lambda x: np.exp(0.5 * x),
             degree=20, probes=100, evaluators=ALL_EVALUATORS, interval="exact",
             reference="recurrence", synthetic_dim=200, extra_args=("--terms", "--format", "both")),
)}

SPARSE_DIAGONAL = 10.0
SPARSE_WEIGHT = 0.75


def sparse_spd(dim: int, degree: int, seed: int):
    """Seeded SPD matrix as lower-triangle triplets (0-based rows >= cols).

    A diagonal of 10 plus the union of ``degree`` random permutation
    patterns, i.e. about ``degree`` stored off-diagonal entries per row of
    random sign and magnitude 0.75 to 0.825. The near-regular pattern keeps
    the extreme eigenvalues clustered, so the power iteration does not
    converge within its 1000 iterations (seeds 0-39 at d = 1000, 2000 and
    4000, degree 10) and every seed costs the same 3000 matvecs.
    """
    rng = np.random.default_rng(seed)
    i = np.tile(np.arange(dim, dtype=np.int64), degree)
    j = np.concatenate([rng.permutation(dim) for _ in range(degree)])
    off = i != j
    keys = np.unique(np.maximum(i, j)[off] * dim + np.minimum(i, j)[off])
    signs = rng.choice([-1.0, 1.0], size=keys.size)
    rows = np.concatenate([np.arange(dim, dtype=np.int64), keys // dim])
    cols = np.concatenate([np.arange(dim, dtype=np.int64), keys % dim])
    vals = np.concatenate([np.full(dim, SPARSE_DIAGONAL),
                           SPARSE_WEIGHT * signs * (1.0 + 0.1 * rng.random(keys.size))])
    return rows, cols, vals


def write_matrix_market(path: str, dim: int, rows, cols, vals) -> None:
    """Write lower-triangle triplets as ``coordinate real symmetric``."""
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real symmetric\n")
        fh.write(f"{dim} {dim} {len(vals)}\n")
        fh.writelines(f"{r} {c} {v!r}\n" for r, c, v in
                      zip((rows + 1).tolist(), (cols + 1).tolist(), vals.tolist()))


def make_inputs(w: Workload, seed: int, workdir: str) -> dict:
    """Generate a workload's input files; return what the run should record."""
    if not w.sparse_dim:
        return {"synthetic_dim": w.synthetic_dim}
    rows, cols, vals = sparse_spd(w.sparse_dim, w.sparse_degree, seed)
    path = os.path.join(workdir, f"{w.name}-{seed}.mtx")
    write_matrix_market(path, w.sparse_dim, rows, cols, vals)
    return {"path": path, "file_bytes": os.path.getsize(path),
            "stored_nnz": int(vals.size),
            "nnz": int(2 * vals.size - w.sparse_dim),
            "triplets": (rows, cols, vals)}
