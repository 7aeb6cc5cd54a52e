"""Command-line entry point.

Every verification subcommand prints a JSON report (schema_version 1) to
stdout or ``--output`` and exits 0 when all checks pass, 1 when any check
fails, and 2 on usage or configuration errors.  A flat JSON config file can
seed any knob; explicit flags always win over the file.
"""

from __future__ import annotations

from pathlib import Path

import click

from . import __version__
from .reports import (
    Report,
    RunConfig,
    kappa_in_range,
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
    try:
        return RunConfig.from_sources(ctx.obj.get("config_path"), overrides)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


def _emit(ctx: click.Context, report: Report, output: str | None) -> None:
    destination = output if output is not None else report.params.get("output", "-")
    text = report.to_json()
    if destination in (None, "-"):
        click.echo(text)
    else:
        try:
            Path(destination).write_text(text + "\n")
        except OSError as exc:
            raise click.UsageError(f"cannot write the report: {exc}") from exc
        click.echo(f"report written to {destination}", err=True)
    ctx.exit(0 if report.overall == "pass" else 1)


def _run_suite(ctx: click.Context, suite, cfg: RunConfig, output: str | None, **kw):
    try:
        report = suite(cfg, **kw)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    _emit(ctx, report, output)


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
    cfg = _config(ctx, max_mode=max_mode, max_degree=max_degree)
    _run_suite(ctx, suite_commutators, cfg, output)


@main.command("gram")
@click.option("--level", type=int, default=None, help="Highest level to compare.")
@_kappa_option
@_lambda_option
@_output_option
@click.pass_context
def gram(ctx, level, kappa, weight, output):
    """Geometric pairings against the abstract Gram form, plus an inverse."""
    cfg = _config(ctx, level=level, kappa=kappa, weight=weight)
    _run_suite(ctx, suite_gram, cfg, output)


@main.command("kac")
@click.option("--level", type=int, default=None, help="Level of the determinant.")
@_kappa_option
@_output_option
@click.pass_context
def kac(ctx, level, kappa, output):
    """Determinant of the Gram form and its degenerate-weight roots."""
    cfg = _config(ctx, level=level, kappa=kappa)
    _run_suite(ctx, suite_kac, cfg, output)


@main.command("singular")
@click.option("--level", type=int, default=None, help="Cap on the levels examined.")
@_kappa_option
@_output_option
@click.pass_context
def singular(ctx, level, kappa, output):
    """Null states along the degenerate families and their rank drops."""
    cfg = _config(ctx, level=level, kappa=kappa)
    _run_suite(ctx, suite_singular, cfg, output)


@main.command("operators")
@click.option("--max-mode", type=int, default=None, help="Largest |n| to inspect.")
@click.option("--max-degree", type=int, default=None, help="Index window margin.")
@_output_option
@click.pass_context
def operators(ctx, max_mode, max_degree, output):
    """Degree structure, scalar anchors, and duality of the mode operators."""
    cfg = _config(ctx, max_mode=max_mode, max_degree=max_degree)
    _run_suite(ctx, suite_operators, cfg, output)


@main.command("reflection")
@_kappa_option
@_lambda_option
@_output_option
@click.pass_context
def reflection(ctx, kappa, weight, output):
    """Reflection coefficient: normalization, first pole, spot values."""
    cfg = _config(ctx, kappa=kappa, weight=weight)
    _run_suite(ctx, suite_reflection, cfg, output)


@main.command("bubble-limit")
@click.option("--csv", "csv_path", default=None, help="Write a convergence scan CSV.")
@_output_option
@click.pass_context
def bubble_limit(ctx, csv_path, output):
    """Bubble masses: kernel-difference limits against the closed forms."""
    cfg = _config(ctx)
    if csv_path is not None:
        # checked here: the scan is written inside a check, where an error is a failure
        try:
            open(csv_path, "a").close()
        except OSError as exc:
            raise click.UsageError(f"cannot write the scan: {exc}") from exc
    _run_suite(ctx, suite_bubble, cfg, output, csv_path=csv_path)


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
    from . import loewner

    cfg = _config(ctx, kappa=kappa, loewner_dt=dt, loewner_seeds=seeds, seed=seed)
    if trace_csv is not None:
        try:
            kappa = kappa_in_range(cfg, "loewner")
        except ValueError as exc:
            raise click.UsageError(str(exc)) from exc
        driver = loewner.sample_sle_driving(kappa, 1.0, cfg.loewner_dt, seed=cfg.seed)
        sampled = loewner.trace(driver)
        try:
            rows = loewner.write_trace_csv(trace_csv, sampled)
        except OSError as exc:
            raise click.UsageError(f"cannot write the trace: {exc}") from exc
        click.echo(f"trace with {rows} points written to {trace_csv}", err=True)
    _run_suite(ctx, suite_loewner, cfg, output)


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

    cfg = _config(
        ctx, level=level, max_mode=max_mode, loewner_seeds=seeds, seed=seed, kappa=kappa
    )
    _run_suite(ctx, report_all, cfg, output)


if __name__ == "__main__":
    main()
