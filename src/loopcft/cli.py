"""Command-line entry point.

Every verification subcommand prints a JSON report (schema_version 1) to
stdout or ``--output`` and exits 0 when all checks pass, 1 when any check
fails, and 2 on usage or configuration errors.  A flat JSON config file can
seed any knob; explicit flags always win over the file.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path

import click

from . import __version__
from .reports import (
    Report,
    RunConfig,
    report_all,
    suite_bubble,
    suite_commutators,
    suite_gram,
    suite_kac,
    suite_loewner,
    suite_operators,
    suite_reflection,
    suite_singular,
)

_CONFIG_HELP = "JSON config file with flat keys; explicit flags override it."


def _config(ctx: click.Context, **overrides) -> RunConfig:
    return RunConfig.from_sources(ctx.obj.get("config_path"), overrides)


def _emit(ctx: click.Context, report: Report, output: str | None) -> None:
    destination = output if output is not None else report.params.get("output", "-")
    text = report.to_json()
    if destination in (None, "-"):
        click.echo(text)
    else:
        Path(destination).write_text(text + "\n")
        click.echo(f"report written to {destination}", err=True)
    ctx.exit(0 if report.overall == "pass" else 1)


def _run_suite(ctx: click.Context, suite, output: str | None, **overrides) -> None:
    """Parse the config, run ``suite`` and emit its report: the one error
    boundary.  A ``ValueError`` (bad config, refused knob) or an ``OSError``
    (unwritable report or export path) exits 2; click exits 1 on a closed stdout."""
    try:
        _emit(ctx, suite(_config(ctx, **overrides)), output)
    except BrokenPipeError:
        raise
    except (ValueError, OSError) as exc:
        raise click.UsageError(str(exc)) from exc


_output_option = click.option(
    "--output", "-o", default=None, help="Write the report here instead of stdout."
)
_kappa_option = click.option(
    "--kappa", default=None, help="Curve parameter as an exact rational, e.g. 8/3."
)
_lambda_option = click.option(
    "--lambda", "weight", default=None, help="Conformal weight as an exact rational."
)


@click.group()
@click.version_option(version=__version__, prog_name="loopcft")
@click.option("--config", "config_path", default=None, help=_CONFIG_HELP)
@click.pass_context
def main(ctx: click.Context, config_path: str | None) -> None:
    """Exact Virasoro-on-coefficients checks, spectra, and Loewner demos."""
    ctx.ensure_object(dict)
    ctx.obj["config_path"] = config_path


@main.command("verify-commutators")
@click.option("--max-mode", type=int, default=None, help="Largest |n| to bracket.")
@click.option("--max-degree", type=int, default=None, help="State degree to certify.")
@_output_option
@click.pass_context
def verify_commutators(ctx, max_mode, max_degree, output):
    """Check every bracket relation on a shared operator window."""
    _run_suite(ctx, suite_commutators, output, max_mode=max_mode, max_degree=max_degree)


@main.command("gram")
@click.option("--level", type=int, default=None, help="Highest level to compare.")
@_kappa_option
@_lambda_option
@_output_option
@click.pass_context
def gram(ctx, level, kappa, weight, output):
    """Geometric pairings against the abstract Gram form, plus an inverse."""
    _run_suite(ctx, suite_gram, output, level=level, kappa=kappa, weight=weight)


@main.command("kac")
@click.option("--level", type=int, default=None, help="Level of the determinant.")
@_kappa_option
@_output_option
@click.pass_context
def kac(ctx, level, kappa, output):
    """Determinant of the Gram form and its degenerate-weight roots."""
    _run_suite(ctx, suite_kac, output, level=level, kappa=kappa)


@main.command("singular")
@click.option("--level", type=int, default=None, help="Cap on the levels examined.")
@_kappa_option
@_output_option
@click.pass_context
def singular(ctx, level, kappa, output):
    """Null states along the degenerate families and their rank drops."""
    _run_suite(ctx, suite_singular, output, level=level, kappa=kappa)


@main.command("operators")
@click.option("--max-mode", type=int, default=None, help="Largest |n| to inspect.")
@click.option("--max-degree", type=int, default=None, help="Index window margin.")
@_output_option
@click.pass_context
def operators(ctx, max_mode, max_degree, output):
    """Degree structure, scalar anchors, and duality of the mode operators."""
    _run_suite(ctx, suite_operators, output, max_mode=max_mode, max_degree=max_degree)


@main.command("reflection")
@_kappa_option
@_lambda_option
@_output_option
@click.pass_context
def reflection(ctx, kappa, weight, output):
    """Reflection coefficient: normalization, first pole, spot values."""
    _run_suite(ctx, suite_reflection, output, kappa=kappa, weight=weight)


@main.command("bubble-limit")
@click.option("--csv", "csv_path", default=None, help="Write a convergence scan CSV.")
@_output_option
@click.pass_context
def bubble_limit(ctx, csv_path, output):
    """Bubble masses: kernel-difference limits against the closed forms."""
    _run_suite(ctx, partial(suite_bubble, csv_path=csv_path), output)


@main.command("loewner-demo")
@_kappa_option
@click.option("--dt", type=float, default=None, help="Solver and sampler time step.")
@click.option("--seeds", type=int, default=None, help="Sample size for the variance check.")
@click.option("--seed", type=int, default=None, help="Base seed.")
@click.option("--trace-csv", default=None, help="Also write one sampled trace here.")
@_output_option
@click.pass_context
def loewner_demo(ctx, kappa, dt, seeds, seed, trace_csv, output):
    """Forward map, trace, and driver statistics for the random driver."""
    # numpy loads here, before _config, so start-up rather than the run pays for it
    from . import loewner  # noqa: F401

    _run_suite(
        ctx, partial(suite_loewner, csv_path=trace_csv), output,
        kappa=kappa, loewner_dt=dt, loewner_seeds=seeds, seed=seed,
    )


@main.command("report-all")
@click.option("--level", type=int, default=None, help="Cap for the algebraic suites.")
@click.option("--max-mode", type=int, default=None, help="Largest |n| to bracket.")
@click.option("--seeds", type=int, default=None, help="Loewner variance sample size.")
@click.option("--seed", type=int, default=None, help="Base seed.")
@_kappa_option
@_output_option
@click.pass_context
def report_all_cmd(ctx, level, max_mode, seeds, seed, kappa, output):
    """Every suite back to back, merged into one report."""
    # numpy loads here, before _config, so start-up rather than the run pays for it
    from . import loewner  # noqa: F401

    _run_suite(
        ctx, report_all, output,
        level=level, max_mode=max_mode, loewner_seeds=seeds, seed=seed, kappa=kappa,
    )


if __name__ == "__main__":
    main()
