"""Benchmark of ``twosided estimate``, the package's user path.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dense-eval --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1
    python3 -m pytest perfbench          # the benchmark's own tests

Each run generates its inputs from ``--seed`` (untimed), then calls
``twosided.cli.main(["estimate", ...])`` in-process, repeatedly, for
``--seconds`` seconds (at least ``MIN_CALLS`` calls after one untimed
warm-up call), checks every result document, and prints one JSON object as
the last line of stdout:

* ``--trace 0``: the end-to-end metrics (medians over the calls), with only
  the three set-up calls timed from outside. Times are host-normalised: a
  reference kernel of the workload's character runs between calls, and
  each call's times are rescaled by the reference's nominal time over its
  measured time (see ``reference.py``), which cancels the shared host's
  speed drift. Raw times are in the run record.
* ``--trace 1``: the per-layer metrics. Calls alternate untraced and fully
  traced; layer figures are medians over the traced calls and
  ``trace.overhead_s`` is the median traced-minus-untraced wall time.

A readable summary, the environment and the failed checks go to stderr.
The run record (and, when traced, the span table of the last traced call)
is written under ``.perfbench_out/``. BLAS is pinned to one thread, so
kernel timings do not depend on how busy the other core is.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
if __name__ == "__main__":
    # BLAS reads its thread count once, when numpy is first imported.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import ctypes
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, make_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_CALLS = 3   # timed untraced calls per run; a traced run makes at least one pair

END_TO_END_UNITS = {
    "total_s": "s",
    "setup_s": "s",
    "probes_per_s.two_sided_chebyshev": "1/s",
    "probes_per_s.one_sided_chebyshev": "1/s",
    "peak_rss_mb": "MB",
}


def use_checkout_program() -> None:
    """Import ``twosided`` from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "twosided" / "__init__.py").is_file():
        raise FileNotFoundError(f"{SRC / 'twosided'} not found: run from a checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import twosided
    if Path(twosided.__file__).resolve().parent != SRC / "twosided":
        raise ImportError(f"twosided was imported from {twosided.__file__}, not {SRC}")


def openblas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None."""
    import numpy
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}" + ("" if kind == "Unified" else kind[0].lower())] = size
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
    }


def one_call(argv: list[str], out: str, full: bool, extra_files: tuple) -> dict:
    """One in-process ``estimate`` call, instrumented at the given level."""
    import tracing
    from twosided import cli

    tracer = tracing.Tracer()
    entry = tracer.wrap(tracing.ROOT, cli.main)
    crash = None
    with tracing.instrument(tracer, full), contextlib.redirect_stdout(io.StringIO()):
        t0 = perf_counter()
        try:
            rc = entry(argv)
        except Exception:  # an uncaught error is a failed call, as a crashed CLI would be
            rc, crash = 1, traceback.format_exc(limit=-3)
        total = perf_counter() - t0
    call = {"traced": full, "rc": rc, "total_s": total,
            "setup_s": tracer.setup_seconds(), "failures": [], "doc": None}
    if rc != 0:
        call["failures"].append(f"estimate exited with code {rc}" + (f": {crash}" if crash else ""))
        return call
    with open(out) as fh:
        call["doc"] = json.load(fh)
    call["evaluator_s"] = {name: rec.get("wall_time_seconds")
                           for name, rec in call["doc"].get("evaluators", {}).items()}
    result_bytes = sum(os.path.getsize(p) for p in (out, *extra_files))
    if full:
        call["layers"] = tracing.layer_metrics(tracer, result_bytes)
        call["layers"]["spectrum.converged"] = float(call["doc"]["spectral_interval"]["converged"])
        call["spans"] = tracer
    return call


def oracle_for(w, seed: int, inputs: dict) -> dict:
    """Exact spectral facts of the workload's matrix, computed untimed."""
    import numpy as np
    if w.synthetic_dim:
        from twosided.operators import random_symmetric
        eigs = np.linalg.eigvalsh(random_symmetric(w.synthetic_dim, seed).entries)
        return {"eigenvalues": eigs, "eig_min": float(eigs[0]), "eig_max": float(eigs[-1])}
    import scipy.sparse as sp
    from scipy.sparse.linalg import eigsh
    rows, cols, vals = inputs["triplets"]
    off = rows != cols
    A = sp.csr_matrix((np.concatenate([vals, vals[off]]),
                       (np.concatenate([rows, cols[off]]), np.concatenate([cols, rows[off]]))),
                      shape=(w.sparse_dim, w.sparse_dim))
    lo = eigsh(A, k=1, which="SA", tol=1e-10, return_eigenvectors=False)[0]
    hi = eigsh(A, k=1, which="LA", tol=1e-10, return_eigenvectors=False)[0]
    return {"eig_min": float(lo), "eig_max": float(hi)}


def run_workload(w, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Measure one workload; return the run record including the result line."""
    import checks
    import reference

    workdir.mkdir(parents=True, exist_ok=True)
    inputs = make_inputs(w, seed, str(workdir))
    out = str(workdir / "result.json")
    csv = out + ".csv" if "both" in w.extra_args else None
    argv = w.argv(seed, inputs, out)
    expected = checks.probe_checksum(seed, w.dim, w.probes)
    oracle = oracle_for(w, seed, inputs)

    def check(call: dict, doc: dict) -> list:
        failures = checks.check_csv(csv, doc) if csv else []
        try:
            failures += checks.check_document(doc, w, expected, oracle)
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            return failures + [f"malformed result document: {exc!r}"]
        for name, rec in doc["evaluators"].items():
            if "layers" in call and call["layers"][f"quadform.{name}.matvecs"] != rec["total_matvecs"]:
                failures.append(f"{name}: traced matvecs differ from the document")
        return failures

    calls = []
    spans = None

    def measure(full: bool) -> dict:
        """One call, checked at once. Its document and spans are then
        dropped, so memory does not grow with the number of calls."""
        nonlocal spans
        call = one_call(argv, out, full, (csv,) if csv else ())
        doc = call.pop("doc")
        if doc is not None:
            call["failures"] += check(call, doc)
        spans = call.pop("spans", spans)
        calls.append(call)
        return call

    # Warm-up: first-call costs (lazy imports, page faults, cold caches) are
    # checked but not timed.
    host = reference.KINDS[w.reference]()
    host()
    measure(False)["warmup"] = True
    before = host()
    start = perf_counter()
    while len(calls) - 1 < (2 if trace else MIN_CALLS) or perf_counter() - start < seconds:
        for full in ((False, True) if trace else (False,)):
            call = measure(full)
            after = host()
            call["ref_before_s"], call["ref_after_s"] = before, after
            before = after
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ok = [c for c in calls if not c["failures"] and "warmup" not in c]
    if trace:
        metrics = traced_metrics([c for c in calls if "warmup" not in c])
    else:
        metrics = untraced_metrics(ok, w.probes, reference.NOMINAL_S[w.reference], peak_rss_mb)
    failed = sum(1 for c in calls if c["failures"])
    record = {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "argv": argv,
        "inputs": {k: v for k, v in inputs.items() if k not in ("path", "triplets")},
        "oracle": {k: v for k, v in oracle.items() if k != "eigenvalues"},
        "calls": calls,
        "error_rate": failed / len(calls),
        "nominal_ref_s": reference.NOMINAL_S[w.reference],
        "result": {"correct": failed == 0, "attempted": len(calls), "failed": failed,
                   "metrics": metrics},
    }
    if spans is not None:
        record["spans"] = spans.dump()
    return record


def untraced_metrics(ok: list, m: int, nominal_s: float, peak_rss_mb: float) -> dict:
    """Medians over the calls of host-normalised times: each time is
    multiplied by ``nominal_s`` over the reference time nearest to it, so
    a call made while the host runs slow counts as it would on a host of
    nominal speed (see reference.py). The evaluators close a call, so
    they take the reference that follows it; the whole call and its
    set-up take the mean of the references on either side."""
    if not ok:
        return {}

    def around(c):
        return (c["ref_before_s"] + c["ref_after_s"]) / 2

    values = {
        "total_s": statistics.median(c["total_s"] * nominal_s / around(c) for c in ok),
        "setup_s": statistics.median(c["setup_s"] * nominal_s / around(c) for c in ok),
        "peak_rss_mb": peak_rss_mb,
    }
    for name in ("two_sided_chebyshev", "one_sided_chebyshev"):
        values[f"probes_per_s.{name}"] = statistics.median(
            m / c["evaluator_s"][name] * c["ref_after_s"] / nominal_s
            for c in ok)
    return {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END_UNITS.items()}


def traced_metrics(calls: list) -> dict:
    import tracing
    pairs = [(a, b) for a, b in zip(calls[::2], calls[1::2])
             if not a["failures"] and not b["failures"]]
    if not pairs:
        return {}
    values = {name: statistics.median(b["layers"][name] for _, b in pairs)
              for name in pairs[0][1]["layers"]}
    values["trace.overhead_s"] = statistics.median(b["total_s"] - a["total_s"] for a, b in pairs)
    return {k: {"value": values[k], "unit": unit} for k, unit in tracing.UNITS.items()}


def summary(record: dict, env: dict) -> str:
    lines = [f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']}",
             "environment: " + json.dumps(env, sort_keys=True),
             "inputs: " + json.dumps(record["inputs"], sort_keys=True)]
    result = record["result"]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    timed = [c for c in record["calls"] if "ref_after_s" in c]
    refs = [c["ref_after_s"] for c in timed]
    if refs:
        lines.append(f"  {'raw total_s (median)':<40} "
                     f"{statistics.median(c['total_s'] for c in timed):>16.6g} s")
        lines.append(f"  {'reference_s (median)':<40} {statistics.median(refs):>16.6g} s "
                     f"(nominal {record['nominal_ref_s']:g} s)")
    lines.append(f"  {'error_rate':<40} {record['error_rate']:>16.6g} ratio "
                 f"({result['failed']} of {result['attempted']} calls failed)")
    for i, call in enumerate(record["calls"]):
        for failure in call["failures"]:
            lines.append(f"  call {i}: {failure}")
    return "\n".join(lines)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                   help="one workload, or 'all' to run each in its own process")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args) -> int:
    """Run every workload in turn, each in a fresh process so that each
    ``peak_rss_mb`` covers one workload only."""
    worst = 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        use_checkout_program()
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    env = environment()
    if env["blas_threads"] not in (None, BLAS_THREADS):
        print(f"perfbench: BLAS runs {env['blas_threads']} threads, expected {BLAS_THREADS}",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    workdir = OUT / f"run-{w.name}-{args.seed}-{os.getpid()}"
    try:
        record = run_workload(w, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["environment"] = env
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans", None)
    if spans is not None:
        with open(OUT / f"{stem}-spans.json", "w") as fh:
            json.dump(spans, fh)
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(summary(record, env), file=sys.stderr)
    if not record["result"]["metrics"]:
        print("perfbench: no call succeeded", file=sys.stderr)
        return 1
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
