"""Command-line interface.

Subcommands: ``interpolate`` (write a coefficient file), ``estimate`` (run
selected evaluators over a shared probe sequence and write a result file),
``reproduce`` (the ``estimate`` preset ``bench.reproduce_config``, printing the
exact and polynomial traces and how closely the two Chebyshev routes agree), and
``matvec-count`` (count the matvecs each evaluator spends at a degree).

Exit codes: 0 success, 1 usage error, 2 numerical or validation error.
"""

from __future__ import annotations

import json
import sys

import click
import numpy as np

from .bench import BenchConfig, reproduce_config, run_estimate, \
    write_probe_csv, write_result
from .chebyshev import Interval, eval_scalar, function_values, interpolate, save_coefficients
from .functions import resolve
from .quadform import EVALUATORS, matvec_count


def _validated_run(cfg: BenchConfig) -> dict:
    try:
        cfg.validate()
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    return run_estimate(cfg)


@click.group()
def cli():
    """Trace estimation with half-cost two-sided quadratic-form evaluation."""


@cli.command("interpolate")
@click.option("--function", "func_spec", required=True,
              help="Scalar function spec, e.g. exp_scaled:10 or power:2.")
@click.option("--degree", "-n", type=int, required=True, help="Interpolation degree.")
@click.option("--interval", default="-1,1", show_default=True, help="Domain 'a,b'.")
@click.option("--out", type=click.Path(), required=True, help="Coefficient file to write.")
def cmd_interpolate(func_spec, degree, interval, out):
    """Interpolate a registry function at Chebyshev nodes and save the coefficients."""
    if degree < 1:
        raise click.UsageError("degree must be >= 1")
    try:
        fspec = resolve(func_spec)
        domain = Interval.parse(interval)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    p = interpolate(fspec.fn, degree, domain)
    grid = np.linspace(domain.a, domain.b, 1000)
    residual = np.max(np.abs(np.array([eval_scalar(p, x) for x in grid])
                             - function_values(fspec.fn, grid, "grid point")))
    save_coefficients(p, out)
    click.echo(f"wrote {degree + 1} coefficients to {out}")
    click.echo(f"max interpolation residual on 1000-point grid: {residual:.6e}")


@cli.command("estimate")
@click.option("--matrix", "matrix_path", type=click.Path(), default=None,
              help="Matrix Market input file.")
@click.option("--synthetic", "synthetic_dim", type=int, default=None,
              help="Generate a seeded random symmetric matrix of this dimension.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for matrix synthesis and probe generation.")
@click.option("--function", "func_spec", default="exp_scaled:10", show_default=True)
@click.option("--degree", "-n", type=int, default=20, show_default=True)
@click.option("--probes", "-m", type=int, default=100, show_default=True)
@click.option("--evaluators", default="one_sided_chebyshev,two_sided_chebyshev",
              show_default=True, help="Comma-separated evaluator names.")
@click.option("--interval", default="exact", show_default=True,
              help="Spectral interval: 'exact', 'power', or 'lo,hi'.")
@click.option("--terms", is_flag=True, help="Record per-term breakdowns.")
@click.option("--out", type=click.Path(), required=True, help="Result file to write.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "both"]),
              default="json", show_default=True)
def cmd_estimate(matrix_path, synthetic_dim, seed, func_spec, degree, probes,
                 evaluators, interval, terms, out, fmt):
    """Estimate trace p(A) with the selected evaluators over shared probes."""
    names = tuple(t.strip().replace("-", "_") for t in evaluators.split(",") if t.strip())
    cfg = BenchConfig(matrix_path=matrix_path, synthetic_dim=synthetic_dim,
                      seed=seed, function=func_spec, degree=degree, probes=probes,
                      evaluators=names, interval=interval, terms=terms)
    doc = _validated_run(cfg)
    if not doc["spectral_interval"]["converged"]:
        click.echo("warning: power iteration did not converge; the spectral interval "
                   "rests on its 1% safety margin and may not contain the spectrum", err=True)
    if fmt in ("json", "both"):
        write_result(doc, out)
        click.echo(f"wrote result to {out}")
    if fmt in ("csv", "both"):
        csv_path = out if fmt == "csv" else out + ".csv"
        write_probe_csv(doc, csv_path)
        click.echo(f"wrote per-probe table to {csv_path}")
    for name in names:
        rec = doc["evaluators"][name]
        click.echo(f"{name}: mean={rec['mean']:.12e} matvecs={rec['total_matvecs']}")


@cli.command("reproduce")
@click.option("--full", is_flag=True, help="Run at dimension 5000 (slow, memory heavy).")
@click.option("--dim", type=int, default=200, show_default=True,
              help="Desk-scale dimension (ignored with --full).")
@click.option("--trials", type=int, default=100, show_default=True)
@click.option("--degree", type=int, default=20, show_default=True)
@click.option("--out", type=click.Path(), default=None, help="Optional JSON report path.")
def cmd_reproduce(full, dim, trials, degree, out):
    """Paired Chebyshev run of tr exp(10 A / sqrt(2 dim)) on a seeded random matrix."""
    d = 5000 if full else dim
    if d < 50:
        raise click.UsageError("desk-scale dimension must be >= 50")
    doc = _validated_run(reproduce_config(d, trials, degree))
    click.echo(f"dimension {d}, degree {degree}, {trials} trials, f = {doc['function']}")
    click.echo(f"exact trace f(A):        {doc['exact_trace']:.6e}")
    click.echo(f"polynomial trace p(A):   {doc['polynomial_trace']:.6e}")
    for name, rec in doc["evaluators"].items():
        click.echo(f"estimate [{name}]: {rec['mean']:.6e} "
                   f"(matvecs {rec['total_matvecs']}, {rec['wall_time_seconds']:.2f} s)")
    for key, value in doc["comparisons"]["one_sided_chebyshev|two_sided_chebyshev"].items():
        click.echo(f"{key.replace('_', ' ')}: {value:.3e}")
    if out:
        write_result(doc, out)
        click.echo(f"wrote result to {out}")


@cli.command("matvec-count")
@click.option("--degree", "-n", type=int, required=True)
@click.option("--evaluator", default=None,
              help="Evaluator name; omit for all four.")
def cmd_matvec_count(degree, evaluator):
    """Print the matvecs each evaluator spends on a degree-n polynomial."""
    if degree < 0:
        raise click.UsageError("degree must be >= 0")
    names = [evaluator.replace("-", "_")] if evaluator else sorted(EVALUATORS)
    for name in names:
        if name not in EVALUATORS:
            raise click.UsageError(
                f"unknown evaluator {name!r}; choose from {', '.join(sorted(EVALUATORS))}")
        click.echo(f"{name}: {matvec_count(name, degree)}")


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 2
    except click.Abort:
        return 1
    except (ValueError, OSError, np.linalg.LinAlgError, MemoryError,
            json.JSONDecodeError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    return 0


def entry():  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
