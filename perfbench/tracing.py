"""Outside-in tracing of one ``twosided estimate`` call.

Spans are recorded around the public calls the CLI and ``bench`` make into
each module, by swapping module and class attributes for timing wrappers
for the duration of one call. Nothing inside ``src/`` is edited.

Two instrumentation levels exist:

* ``setup`` (every run): matrix acquisition, the spectral interval and
  Chebyshev interpolation, the three calls that make up ``setup_s``. Each
  happens once per call, so the cost is a handful of clock reads.
* ``full`` (traced runs only): additionally the ``bench`` pipeline, result
  writing, every operator matvec, every probe vector and every evaluator
  call, which gives per-layer self times and exact counts.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter

import numpy as np

from twosided import bench, cli, quadform
from twosided.hutchinson import ProbeSequence
from twosided.operators import DenseSymmetric, SparseSymmetric

ROOT = "cli"
ACQUIRE = "operators.acquire"
INTERVAL = "spectrum.interval"
INTERPOLATE = "chebyshev.interpolate"
BENCH = "bench"
WRITE = "bench.write"
MATVEC = "operators.matvec"
PROBE = "hutchinson.probe"
QUADFORM = "quadform."
SETUP_SPANS = (ACQUIRE, INTERVAL, INTERPOLATE)

UNITS = {
    "operators.acquire_s": "s",
    "operators.matvec_calls": "count",
    "operators.matvec_s": "s",
    "operators.matvec_gbs_computed": "GB/s",
    "spectrum.interval_s": "s",
    "spectrum.self_s": "s",
    "spectrum.interval_matvecs": "count",
    "spectrum.converged": "bool",
    "chebyshev.interpolate_s": "s",
    "chebyshev.fn_evals": "count",
    "hutchinson.probe_s": "s",
    "hutchinson.probe_vectors": "count",
    "hutchinson.probe_reuse": "ratio",
    **{f"quadform.{name}.{field}": unit
       for name in sorted(quadform.EVALUATORS)
       for field, unit in (("self_s", "s"), ("matvecs", "count"))},
    "quadform.matvec_ratio": "ratio",
    "bench.self_s": "s",
    "bench.write_s": "s",
    "bench.result_bytes": "bytes",
    "cli.self_s": "s",
    "trace.total_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class Tracer:
    """Spans (name, start, end, parent index) held in parallel lists."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.fn_evals = 0
        self.probe_keys: set = set()
        self.operator = None

    def wrap(self, name, fn):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()

        return traced

    def durations(self) -> np.ndarray:
        return np.asarray(self.ends) - np.asarray(self.starts)

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        dur = self.durations()
        own = dur.copy()
        parents = np.asarray(self.parents, dtype=np.int64)
        child = parents >= 0
        np.subtract.at(own, parents[child], dur[child])
        return own

    def by_name(self, values) -> dict:
        out = defaultdict(float)
        for name, v in zip(self.names, values):
            out[name] += float(v)
        return out

    def setup_seconds(self) -> float:
        dur = self.by_name(self.durations())
        return sum(dur.get(name, 0.0) for name in SETUP_SPANS)

    def dump(self) -> dict:
        """Span table in column form, for writing when the run ends."""
        return {"names": self.names, "start": self.starts, "end": self.ends,
                "parent": self.parents}


def _patch(stack: contextlib.ExitStack, owner, attr, replacement):
    """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) until the stack unwinds."""
    if isinstance(owner, dict):
        stack.callback(owner.__setitem__, attr, owner[attr])
        owner[attr] = replacement
    else:
        stack.callback(setattr, owner, attr, getattr(owner, attr))
        setattr(owner, attr, replacement)


@contextlib.contextmanager
def instrument(tracer: Tracer, full: bool):
    """Install the tracer's wrappers for the duration of the block."""
    with contextlib.ExitStack() as stack:
        for attr in ("load_matrix_market", "random_symmetric"):
            original = getattr(bench, attr)

            def acquire(*args, _original=original, **kwargs):
                op = _original(*args, **kwargs)
                tracer.operator = op
                return op

            _patch(stack, bench, attr, tracer.wrap(ACQUIRE, acquire))
        _patch(stack, bench, "estimate_interval",
               tracer.wrap(INTERVAL, bench.estimate_interval))
        _patch(stack, np.linalg, "eigvalsh", tracer.wrap(INTERVAL, np.linalg.eigvalsh))
        original_interpolate = bench.interpolate

        def interpolate(f, *args, **kwargs):
            if not full:
                return original_interpolate(f, *args, **kwargs)

            def counted(t):
                tracer.fn_evals += 1
                return f(t)

            return original_interpolate(counted, *args, **kwargs)

        _patch(stack, bench, "interpolate", tracer.wrap(INTERPOLATE, interpolate))
        if full:
            _patch(stack, cli, "run_estimate", tracer.wrap(BENCH, cli.run_estimate))
            for attr in ("write_result", "write_probe_csv"):
                _patch(stack, cli, attr, tracer.wrap(WRITE, getattr(cli, attr)))
            for cls in (DenseSymmetric, SparseSymmetric):
                _patch(stack, cls, "matvec", tracer.wrap(MATVEC, cls.matvec))
            original_vector = ProbeSequence.vector

            def vector(seq, i):
                tracer.probe_keys.add((seq.seed, seq.dim, int(i)))
                return original_vector(seq, i)

            _patch(stack, ProbeSequence, "vector", tracer.wrap(PROBE, vector))
            for name, ev in list(quadform.EVALUATORS.items()):
                _patch(stack, quadform.EVALUATORS, name, tracer.wrap(QUADFORM + name, ev))
        yield tracer


def computed_matvec_bytes(op) -> float:
    """Bytes one matvec must move under a plain storage model: the stored
    matrix once (dense entries, or CSR data, indices and indptr) plus the
    input and output vectors. A computed figure, not a hardware counter;
    0 for an operator type without a model."""
    vectors = 16.0 * op.dim
    if isinstance(op, DenseSymmetric):
        return float(op.entries.nbytes) + vectors
    if isinstance(op, SparseSymmetric):
        return float(op.data.nbytes + op.indices.nbytes + op.indptr.nbytes) + vectors
    return 0.0


def layer_metrics(tracer: Tracer, result_bytes: int) -> dict:
    """Per-layer figures of one fully traced call."""
    dur = tracer.durations()
    own = tracer.self_times()
    incl = tracer.by_name(dur)
    self_by = tracer.by_name(own)
    counts = defaultdict(int)
    matvecs_under = defaultdict(int)
    for name, parent in zip(tracer.names, tracer.parents):
        counts[name] += 1
        if name == MATVEC:
            matvecs_under[tracer.names[parent]] += 1
    (root,) = [i for i, p in enumerate(tracer.parents) if p < 0]
    total = float(dur[root])
    unattributed = total - float(own.sum())
    if abs(unattributed) > 1e-9 * max(total, 1.0):
        raise AssertionError(f"self times miss {unattributed!r} s of the traced call")

    matvec_calls = counts[MATVEC]
    matvec_s = incl[MATVEC]
    per_matvec = computed_matvec_bytes(tracer.operator)
    out = {
        "operators.acquire_s": incl[ACQUIRE],
        "operators.matvec_calls": matvec_calls,
        "operators.matvec_s": matvec_s,
        "operators.matvec_gbs_computed":
            matvec_calls * per_matvec / matvec_s / 1e9 if matvec_s > 0 else 0.0,
        "spectrum.interval_s": incl[INTERVAL],
        "spectrum.self_s": self_by[INTERVAL],
        "spectrum.interval_matvecs": matvecs_under[INTERVAL],
        "chebyshev.interpolate_s": incl[INTERPOLATE],
        "chebyshev.fn_evals": tracer.fn_evals,
        "hutchinson.probe_s": incl[PROBE],
        "hutchinson.probe_vectors": counts[PROBE],
        "hutchinson.probe_reuse":
            len(tracer.probe_keys) / counts[PROBE] if counts[PROBE] else 0.0,
    }
    for name in sorted(quadform.EVALUATORS):
        out[f"quadform.{name}.self_s"] = self_by[QUADFORM + name]
        out[f"quadform.{name}.matvecs"] = matvecs_under[QUADFORM + name]
    two = out["quadform.two_sided_chebyshev.matvecs"]
    out["quadform.matvec_ratio"] = out["quadform.one_sided_chebyshev.matvecs"] / two if two else 0.0
    out.update({
        "bench.self_s": self_by[BENCH],
        "bench.write_s": incl[WRITE],
        "bench.result_bytes": result_bytes,
        "cli.self_s": self_by[ROOT],
        "trace.total_s": total,
        "trace.spans": len(tracer.names),
    })
    return out
