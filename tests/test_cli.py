"""CLI contract: exit codes, report schema, config precedence, where numpy
loads."""

import ast
import hashlib
import importlib
import json
import logging
import os
import pkgutil
import subprocess
import sys
import tempfile
import textwrap
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import loopcft
from loopcft.cli import main
from loopcft.reports import _CAPS, RunConfig, parse_rational, report_all, suite_kac


@pytest.fixture()
def runner():
    return CliRunner()


def _report(result):
    return json.loads(result.output)


# ---------------------------------------------------------------------------
# configuration parsing
# ---------------------------------------------------------------------------


def test_parse_rational_accepts_exact_forms():
    assert parse_rational("8/3") == Fraction(8, 3)
    assert parse_rational("3") == Fraction(3)
    assert parse_rational(Fraction(1, 2)) == Fraction(1, 2)


def test_parse_rational_rejects_floats_and_garbage():
    with pytest.raises(ValueError):
        parse_rational(0.5)
    with pytest.raises(ValueError):
        parse_rational("not-a-number")
    with pytest.raises(ValueError):
        parse_rational("1/0")


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"max_mod": 2}))
    with pytest.raises(ValueError, match="unknown config key"):
        RunConfig.from_sources(path)


def test_config_lambda_alias_and_caps(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"lambda": "5/16", "level": 2}))
    cfg = RunConfig.from_sources(path)
    assert cfg.weight == Fraction(5, 16)
    assert cfg.level == 2
    with pytest.raises(ValueError):
        RunConfig(level=-1)
    with pytest.raises(ValueError):
        RunConfig(loewner_dt=0.0)


def test_params_echo_uses_rational_strings():
    params = RunConfig(kappa=Fraction(8, 3), weight=Fraction(0)).params()
    assert params["kappa"] == "8/3"
    assert params["lambda"] == "0/1"
    assert "weight" not in params


# ---------------------------------------------------------------------------
# exit codes and the three documented invocations
# ---------------------------------------------------------------------------


def test_kac_prints_determinant_and_roots(runner):
    result = runner.invoke(main, ["kac", "--level", "2", "--kappa", "3/1"])
    assert result.exit_code == 0
    report = _report(result)
    assert report["overall"] == "pass"
    roots = next(
        c for c in report["checks"] if c["name"].startswith("degenerate roots")
    )
    assert "roots: 0, 1/16, 1/2" in roots["witness"]
    assert "lambda^3" in roots["witness"]


def test_reflection_at_origin_prints_unity(runner):
    result = runner.invoke(main, ["reflection", "--kappa", "8/3", "--lambda", "0"])
    assert result.exit_code == 0
    report = _report(result)
    spot = next(c for c in report["checks"] if c["name"] == "requested evaluation")
    assert "= 1.0" in spot["witness"]


def test_reflection_at_pole_exits_one(runner):
    result = runner.invoke(main, ["reflection", "--kappa", "3/1", "--lambda", "5/16"])
    assert result.exit_code == 1
    report = _report(result)
    assert report["overall"] == "fail"
    spot = next(c for c in report["checks"] if c["name"] == "requested evaluation")
    assert spot["status"] == "fail"
    assert "Pole" in spot["witness"]


def test_unknown_command_is_usage_error(runner):
    for command in ("no-such-thing", "cache"):
        result = runner.invoke(main, [command])
        assert result.exit_code == 2, command
        assert f"No such command '{command}'" in result.output


def test_bad_rational_is_usage_error(runner):
    result = runner.invoke(main, ["kac", "--kappa", "zero"])
    assert result.exit_code == 2


# just above 4, but 4.0 as a float: the range check must compare exactly
_OUT_OF_RANGE_KAPPAS = ("5/1", "4000000000000000001/1000000000000000000")


def test_out_of_range_kappa_is_usage_error(runner):
    for kappa in _OUT_OF_RANGE_KAPPAS:
        result = runner.invoke(main, ["reflection", "--kappa", kappa])
        assert result.exit_code == 2, kappa
        assert "reflection suite needs kappa in (0, 4]" in result.output


def test_missing_config_file_is_usage_error(runner):
    result = runner.invoke(main, ["--config", "/no/such/file.json", "kac"])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "config, message",
    [
        ({"level": "3"}, "level must be an integer"),
        ({"level": 2.5}, "level must be an integer"),
        ({"level": True}, "level must be an integer"),
        ({"tol_bubble": "x"}, "unknown config key"),
        ({"seed": -1}, "seed must be non-negative"),
        ({"cache_dir": "/tmp/x"}, "unknown config key"),
    ],
)
@pytest.mark.parametrize("command", ["kac", "report-all"])
def test_mistyped_config_is_usage_error(runner, tmp_path, config, message, command):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    result = runner.invoke(main, ["--config", str(path), command])
    assert result.exit_code == 2
    assert message in result.output
    assert "Traceback" not in result.output


def test_config_fields_are_type_checked():
    for bad in (
        {"max_mode": 1.0},
        {"loewner_seeds": False},
        {"loewner_dt": float("inf")},
        {"kappa": 3},
        {"weight": "1/2"},
        {"output": None},
    ):
        with pytest.raises(ValueError):
            RunConfig(**bad)
    # the pinned tolerances and cache_dir are no longer fields
    for bad in (
        {"tol_pole": float("nan")},
        {"cache_dir": 7},
        {"cache_dir": "/tmp/x"},
    ):
        with pytest.raises(TypeError):
            RunConfig(**bad)
    for bad in (True, [1], None):
        with pytest.raises(ValueError):
            parse_rational(bad)
    assert RunConfig(loewner_dt=1).loewner_dt == 1


def test_each_knob_has_one_type_rule():
    # every field is checked by exactly one rule: a count, the real loewner_dt,
    # or its entry in _OTHER_TYPES
    rules = [*RunConfig._INT_KEYS, "loewner_dt", *RunConfig._OTHER_TYPES]
    assert sorted(rules) == sorted(f.name for f in fields(RunConfig))
    assert len(fields(RunConfig)) == 9


_RETIRED_KEYS = {
    "tol_reflection": 1e-300,
    "tol_pole": 1e-300,
    "tol_bubble": 1e300,
    "tol_loewner": 1e300,
    "cache_dir": None,
}


@pytest.mark.parametrize("key", sorted(_RETIRED_KEYS))
def test_retired_knob_in_a_config_file_is_usage_error(runner, tmp_path, monkeypatch, key):
    # the float checks' tolerances are pinned; no config can move them
    from loopcft import reports

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: _RETIRED_KEYS[key]}))
    ran = []
    monkeypatch.setattr(reports.Report, "run", lambda report, name, fn: ran.append(name))
    result = runner.invoke(main, ["--config", str(path), "reflection"])
    assert result.exit_code == 2
    assert f"unknown config key: {key!r}" in result.output
    assert "Traceback" not in result.output
    assert ran == []


def test_params_echo_every_knob_and_the_pinned_tolerances():
    # perfbench/digests.json pins these bytes in every report
    assert RunConfig().params() == {
        "max_mode": 3,
        "max_degree": 4,
        "level": 3,
        "kappa": "3/1",
        "lambda": None,
        "seed": 0,
        "tol_reflection": 1e-12,
        "tol_pole": 1e-9,
        "tol_bubble": 1e-4,
        "tol_loewner": 1e-6,
        "loewner_dt": 1e-3,
        "loewner_seeds": 2000,
        "cache_dir": None,
        "output": "-",
    }


def _without_timing(value):
    if isinstance(value, dict):
        return {k: _without_timing(v) for k, v in value.items() if k != "timing"}
    if isinstance(value, list):
        return [_without_timing(v) for v in value]
    return value


@pytest.mark.parametrize(
    "run, workload, sample",
    [
        (lambda: report_all(RunConfig(level=5, max_mode=4, seed=0)), "report-all", "seed=0"),
        (lambda: suite_kac(RunConfig(level=6, kappa=Fraction(3))), "kac", "kappa=3/1"),
    ],
    ids=["report-all", "kac"],
)
def test_reports_match_the_benchmark_digests(run, workload, sample):
    # the digest perfbench/run.py certifies (SHA-256 of the report without its
    # timings), so a report whose bytes drift fails tier-1, not only the benchmark
    doc = _without_timing(json.loads(run().to_json()))
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    digests = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"
    recorded = json.loads(digests.read_text())
    assert digest == recorded[workload][sample]["digests"]["report"]


@pytest.mark.parametrize(
    "text, knob",
    [
        ('{"lambda": "1/3", "weight": "1/2"}', "weight"),
        ('{"weight": "1/3", "lambda": "1/2"}', "weight"),
        ('{"level": 2, "level": 9}', "level"),
    ],
    ids=["lambda-weight", "weight-lambda", "level-level"],
)
def test_config_file_naming_one_knob_twice_is_usage_error(runner, tmp_path, text, knob):
    # such a file used to run at whichever value came last
    path = tmp_path / "cfg.json"
    path.write_text(text)
    result = runner.invoke(main, ["--config", str(path), "reflection"])
    assert result.exit_code == 2
    assert f"names knob {knob!r} twice" in result.output
    assert "Traceback" not in result.output


def _loewner_dt_argv(dt: str, source: str, tmp_path) -> list[str]:
    """loewner-demo with ``dt`` given by the --dt flag or by a config file."""
    if source == "flag":
        return ["loewner-demo", "--dt", dt, "--seeds", "2"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"loewner_dt": float(dt), "loewner_seeds": 2}))
    return ["--config", str(path), "loewner-demo"]


@pytest.mark.parametrize("dt", ["0.0003", "0.0007", "0.3", "1e9", "1e10"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_off_grid_loewner_dt_is_usage_error(runner, tmp_path, dt, source):
    # 1/dt must be a whole number of steps: 0.0003 used to stop the grid at
    # t = 0.9999 (exit 1) and 0.0007 to sample W at t = 1.0003 (exit 0);
    # 1e9 and 1e10 round 1/dt to zero steps and used to run an empty grid
    result = runner.invoke(main, _loewner_dt_argv(dt, source, tmp_path))
    assert result.exit_code == 2
    assert "loewner_dt must divide the horizon 1 into whole steps" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("dt", ["2e-5", "1e-5", "1e-6"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_too_fine_loewner_dt_is_usage_error(runner, tmp_path, dt, source):
    # the sampled trace costs (1/dt)^2: 1/dt = 4e4 already took 15 s
    result = runner.invoke(main, _loewner_dt_argv(dt, source, tmp_path))
    assert result.exit_code == 2
    assert "loewner_dt must be at least 1/20000 (at most 20000 steps)" in result.output
    assert "Traceback" not in result.output


def test_grid_loewner_dt_is_accepted(runner, tmp_path):
    path = tmp_path / "cfg.json"
    for dt in (1e-3, 1e-4, 5e-5):
        path.write_text(json.dumps({"loewner_dt": dt}))
        assert RunConfig.from_sources(path).loewner_dt == dt
        assert RunConfig.from_sources(None, {"loewner_dt": dt}).loewner_dt == dt
    result = runner.invoke(main, ["loewner-demo", "--dt", "1e-3", "--seeds", "2"])
    assert result.exit_code == 0
    # dt = 0.5 tiles the horizon in two steps, and the coarse grid passes its checks
    result = runner.invoke(main, ["loewner-demo", "--dt", "0.5", "--seeds", "2"])
    assert result.exit_code == 0
    assert _report(result)["overall"] == "pass"


@pytest.mark.parametrize("steps", [1, 2, 3, 5, 10, 19, 20, 21])
def test_coarse_loewner_grid_passes(runner, steps):
    # a 10 sqrt(dt) swallow radius used to fail "zero driver forward map" at
    # every 1/dt <= 20, where |g_1(3i)| = sqrt(5) lies inside it
    result = runner.invoke(main, ["loewner-demo", "--dt", repr(1 / steps), "--seeds", "2"])
    assert result.exit_code == 0, result.output
    assert _report(result)["overall"] == "pass"


@pytest.mark.parametrize("command", ["loewner-demo", "report-all"])
def test_single_loewner_seed_is_usage_error(runner, command):
    # the variance check divides by seeds - 1
    result = runner.invoke(main, [command, "--seeds", "1"])
    assert result.exit_code == 2
    assert "loewner_seeds must be at least 2" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("csv", [False, True])
def test_loewner_kappa_out_of_range_is_usage_error(runner, tmp_path, csv):
    # the suite checks kappa before it samples the trace, so no CSV is written
    target = tmp_path / "trace.csv"
    for kappa in _OUT_OF_RANGE_KAPPAS:
        argv = ["loewner-demo", "--kappa", kappa, "--seeds", "2"]
        result = runner.invoke(main, argv + (["--trace-csv", str(target)] if csv else []))
        assert result.exit_code == 2, kappa
        assert "loewner suite needs kappa in (0, 4]" in result.output
        assert "Traceback" not in result.output
        assert not target.exists()


def test_report_all_rejects_kappa_before_any_suite(runner, monkeypatch):
    from loopcft import reports

    calls = []
    monkeypatch.setattr(reports, "suite_commutators", lambda *args: calls.append(args))
    for kappa in _OUT_OF_RANGE_KAPPAS:
        result = runner.invoke(main, ["report-all", "--kappa", kappa])
        assert result.exit_code == 2, kappa
        assert "reflection suite needs kappa in (0, 4]" in result.output
        assert "Traceback" not in result.output
    assert calls == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["kac", "--level", "11"], "kac suite needs level <= 10, got 11"),
        (["gram", "--level", "13"], "gram suite needs level <= 12, got 13"),
        (["verify-commutators", "--max-mode", "9", "--max-degree", "0"],
         "verify-commutators suite needs max_mode <= 8, got 9"),
        (["verify-commutators", "--max-mode", "8", "--max-degree", "12"],
         "verify-commutators suite needs max_mode + max_degree <= 19, got 20"),
        (["operators", "--max-mode", "17", "--max-degree", "0"],
         "operators suite needs max_mode <= 16, got 17"),
        (["operators", "--max-mode", "16", "--max-degree", "13"],
         "operators suite needs max_mode + max_degree <= 28, got 29"),
        (["--config", {"level": 29}, "operators"], "operators suite needs level <= 28, got 29"),
        (["report-all", "--level", "10"], "report-all suite needs level <= 9, got 10"),
        (["report-all", "--max-mode", "9"], "verify-commutators suite needs max_mode <= 8, got 9"),
    ],
    ids=[
        "kac-level", "gram-level", "commutators-mode", "commutators-window",
        "operators-mode", "operators-window", "operators-level", "report-all-level",
        "report-all-mode",
    ],
)
def test_above_cap_config_is_usage_error_before_any_check(
    runner, tmp_path, monkeypatch, argv, message
):
    # a dict in argv is a config file (operators has no --level flag)
    from loopcft import reports

    path = tmp_path / "cfg.json"
    for item in argv:
        if isinstance(item, dict):
            path.write_text(json.dumps(item))
    ran = []
    monkeypatch.setattr(reports.Report, "run", lambda report, name, fn: ran.append(name))
    result = runner.invoke(main, [str(path) if isinstance(item, dict) else item for item in argv])
    assert result.exit_code == 2
    assert message in result.output
    assert "Traceback" not in result.output
    assert ran == []


def test_ci_and_benchmark_configs_are_inside_the_caps():
    from loopcft.reports import _check_caps

    for suite, cfg in [
        ("operators", RunConfig(max_mode=11, max_degree=0)),
        ("operators", RunConfig(max_mode=12, max_degree=4)),
        ("kac", RunConfig(level=6)),
        ("kac", RunConfig(level=10)),
        ("gram", RunConfig(level=12)),
    ]:
        _check_caps(cfg, suite)
    # report-all checks every cap: the benchmark config, and the corner where
    # its own level cap and both verify-commutators caps are reached together
    for cfg in (RunConfig(level=5, max_mode=4), RunConfig(level=9, max_mode=8, max_degree=11)):
        for suite in _CAPS:
            _check_caps(cfg, suite)


def test_operators_window_covers_the_duality_level():
    # the duality check raises to level 9, past the default window of 8
    from loopcft.reports import suite_operators

    report = suite_operators(RunConfig(level=9))
    assert report.overall == "pass", [c.witness for c in report.checks if c.status == "fail"]


def test_exception_inside_a_check_becomes_a_failure(runner, monkeypatch):
    from loopcft import reports

    def broken(level):
        raise AssertionError("gram matrix unavailable")

    monkeypatch.setattr(reports, "gram_matrix", broken)
    result = runner.invoke(main, ["kac", "--level", "2", "--kappa", "3/1"])
    assert result.exit_code == 1
    report = _report(result)
    assert report["schema_version"] == "1"
    assert report["overall"] == "fail"
    check = next(c for c in report["checks"] if c["name"].startswith("level-2 matrix"))
    assert check["status"] == "fail"
    assert check["witness"] == "AssertionError: gram matrix unavailable"
    # the remaining checks still ran
    assert any(c["status"] == "pass" for c in report["checks"])


def test_a_raising_check_logs_its_traceback_at_debug(runner, monkeypatch, caplog):
    from loopcft import reports

    def broken(level):
        raise AssertionError("gram matrix unavailable")

    monkeypatch.setattr(reports, "gram_matrix", broken)
    with caplog.at_level(logging.DEBUG, logger="loopcft.reports"):
        result = runner.invoke(main, ["kac", "--level", "2", "--kappa", "3/1"])
    assert result.exit_code == 1
    records = [r for r in caplog.records if r.name == "loopcft.reports"]
    assert records and all(r.levelno == logging.DEBUG for r in records)
    assert "level-2 matrix" in records[0].getMessage()
    assert records[0].exc_info[0] is AssertionError


@pytest.mark.parametrize("error", [RuntimeError, ValueError])
def test_failing_kac_determinant_is_a_check_failure(runner, monkeypatch, error):
    from loopcft import reports

    def broken(level, charge):
        raise error("determinant unavailable")

    monkeypatch.setattr(reports, "kac_determinant_at", broken)
    result = runner.invoke(main, ["kac", "--level", "3"])
    # a ValueError here is a program fault, not a usage error (exit 2)
    assert result.exit_code == 1
    report = _report(result)
    assert report["schema_version"] == "1"
    assert report["overall"] == "fail"
    check = next(c for c in report["checks"] if c["name"] == "degenerate roots at level 3")
    assert check["status"] == "fail"
    assert check["witness"] == f"{error.__name__}: determinant unavailable"
    assert any(c["status"] == "pass" for c in report["checks"])


def test_nonzero_bracket_defect_fails_and_names_its_parts(runner, monkeypatch):
    from loopcft import reports
    from loopcft.operators import ModeOperator
    from loopcft.symbolic import LAMBDA, CoeffPoly, a

    one = CoeffPoly.one()
    defect = ModeOperator(
        mode=0, bar=False, max_index=3, e_coeff=CoeffPoly.generator(LAMBDA),
        id_coeff=one, d_a={3: one, 1: CoeffPoly.generator(a(2))}, d_abar={2: one},
    )
    monkeypatch.setattr(reports, "commutator_defect", lambda u, t, table: defect)
    result = runner.invoke(main, ["verify-commutators", "--max-mode", "1"])
    assert result.exit_code == 1
    report = _report(result)
    assert report["overall"] == "fail"
    witnesses = {c["witness"] for c in report["checks"] if c["name"].startswith("bracket L(")}
    assert witnesses == {"nonzero defect components at [1, 3, 'bar2', 'id', 'euler']"}


def test_gram_inverse_check_reports():
    from loopcft.reports import suite_gram

    for level, weight, status in [
        (2, Fraction(1, 3), "identity"),
        (2, Fraction(1, 2), "singular"),
        (0, None, "identity"),
    ]:
        check = suite_gram(RunConfig(level=level, weight=weight)).checks[-1]
        assert check.name == "exact inverse sanity"
        assert check.status == ("pass" if status == "identity" else "fail")
        shown = weight if weight is not None else Fraction(5, 7)
        assert check.witness == f"B * B^-1 at level {min(level, 2)}, lambda={shown}: {status}"


_COMMANDS = [
    "verify-commutators", "gram", "kac", "singular", "operators",
    "reflection", "bubble-limit", "loewner-demo", "report-all",
]


def _above_caps(command):
    """Configs one step past a cap in the reports' cap table, others small.

    A command with its own entry draws only from it, so every draw must exit
    2 and none runs the command at another suite's cap edge; report-all,
    which checks every cap, and the commands without an entry draw from all.
    """
    own = command in _CAPS and command != "report-all"
    tables = [_CAPS[command]] if own else _CAPS.values()
    over = []
    for caps in tables:
        for knob, cap in caps.items():
            if knob == "max_mode + max_degree":
                over.append({"max_mode": 0, "max_degree": cap + 1})
            else:
                over.append({knob: cap + 1})
    return over


@st.composite
def _contract_configs(draw, command):
    """(config, whether it was bent past one of the command's caps)."""
    denominator = draw(st.integers(1, 6))
    config = {
        "level": draw(st.integers(0, 4)),
        "max_mode": draw(st.integers(0, 3)),
        "max_degree": draw(st.integers(0, 4)),
        "kappa": f"{draw(st.integers(1, 5 * denominator))}/{denominator}",
        "seed": draw(st.integers(0, 2**31 - 1)),
        "loewner_seeds": draw(st.integers(2, 20)),
        "loewner_dt": draw(st.sampled_from([0.5, 0.1, 0.01])),
    }
    if draw(st.booleans()):
        config["lambda"] = str(draw(st.fractions(-1, 2, max_denominator=16)))
    above = draw(st.integers(0, 3)) == 0
    if above:
        config.update(draw(st.sampled_from(_above_caps(command))))
    return config, above


@pytest.mark.parametrize("command", _COMMANDS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_cli_contract_holds_over_the_accepted_domain(command, data):
    # exit 0 or 1 with a schema-1 report whose verdict matches, or exit 2 with
    # a usage error; never a traceback or an uncaught exception
    config, above = data.draw(_contract_configs(command), label="config")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(config))
        result = CliRunner().invoke(main, ["--config", str(path), command])
    assert result.exit_code in (0, 1, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), config
    assert "Traceback" not in result.output
    if above and command in _CAPS:
        assert result.exit_code == 2, config
    if result.exit_code == 2:
        assert "Error: " in result.output
    else:
        report = _report(result)
        assert report["schema_version"] == "1"
        assert report["overall"] == ("pass" if result.exit_code == 0 else "fail")


# ---------------------------------------------------------------------------
# report schema and determinism
# ---------------------------------------------------------------------------


def test_report_schema_fields(runner):
    result = runner.invoke(main, ["singular", "--level", "2", "--kappa", "3/1"])
    report = _report(result)
    assert set(report) == {"schema_version", "suite", "params", "checks", "overall"}
    assert report["schema_version"] == "1"
    assert report["suite"] == "singular"
    assert report["params"]["kappa"] == "3/1"
    for check in report["checks"]:
        assert set(check) == {"name", "status", "witness", "timing"}
        assert check["status"] in {"pass", "fail"}


def test_overall_fails_iff_any_check_fails(runner):
    good = _report(runner.invoke(main, ["reflection", "--kappa", "2/1"]))
    assert good["overall"] == "pass"
    assert all(c["status"] == "pass" for c in good["checks"])
    bad = _report(
        runner.invoke(main, ["reflection", "--kappa", "2/1", "--lambda", "3/8"])
    )
    statuses = {c["status"] for c in bad["checks"]}
    assert statuses == {"pass", "fail"}
    assert bad["overall"] == "fail"


def _strip_timing(report):
    for check in report["checks"]:
        check["timing"] = 0.0
    return report


def test_reports_deterministic_up_to_timing(runner):
    args = [
        "report-all",
        "--level", "1",
        "--max-mode", "1",
        "--seeds", "60",
        "--seed", "11",
    ]
    first = _strip_timing(_report(runner.invoke(main, args)))
    second = _strip_timing(_report(runner.invoke(main, args)))
    assert first == second


def test_commutator_report_lists_every_pair(runner):
    result = runner.invoke(
        main, ["verify-commutators", "--max-mode", "2", "--max-degree", "3"]
    )
    assert result.exit_code == 0
    report = _report(result)
    names = [c["name"] for c in report["checks"]]
    for n in range(-2, 3):
        for m in range(n + 1, 3):
            assert f"bracket L({n}) L({m})" in names
        for m in range(-2, 3):
            assert f"bracket L({n}) Lbar({m})" in names


@pytest.mark.parametrize("level, kappa", [("7", "8/3"), ("8", "3/1")])
def test_kac_reaches_levels_seven_and_eight(runner, level, kappa):
    result = runner.invoke(main, ["kac", "--level", level, "--kappa", kappa])
    assert result.exit_code == 0, result.output
    report = _report(result)
    assert report["schema_version"] == "1"
    assert report["overall"] == "pass"
    assert [c["status"] for c in report["checks"]] == ["pass"] * 3
    assert f"degenerate roots at level {level}" in [c["name"] for c in report["checks"]]


def test_output_flag_writes_file(runner, tmp_path):
    target = tmp_path / "report.json"
    result = runner.invoke(
        main, ["kac", "--level", "2", "--kappa", "3/1", "--output", str(target)]
    )
    assert result.exit_code == 0
    report = json.loads(target.read_text())
    assert report["suite"] == "kac"


def test_lambda_flag_beats_the_lambda_key_of_the_file(runner, tmp_path):
    # a flag overrides the file; it is not a second spelling of the knob
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"lambda": "1/3"}))
    result = runner.invoke(main, ["--config", str(path), "reflection", "--lambda", "1/2"])
    assert result.exit_code == 0, result.output
    assert _report(result)["params"]["lambda"] == "1/2"


def test_report_echoes_the_output_it_went_to(runner, tmp_path):
    target = tmp_path / "r.json"
    result = runner.invoke(main, ["reflection", "--output", str(target)])
    assert result.exit_code == 0
    assert json.loads(target.read_text())["params"]["output"] == str(target)
    # the flag beats the file, and the report names where it went
    cfg, first, second = (tmp_path / name for name in ("cfg.json", "a.json", "b.json"))
    cfg.write_text(json.dumps({"output": str(first)}))
    result = runner.invoke(main, ["--config", str(cfg), "reflection", "--output", str(second)])
    assert result.exit_code == 0
    assert not first.exists()
    assert json.loads(second.read_text())["params"]["output"] == str(second)


@pytest.mark.parametrize(
    "argv",
    [
        ["kac", "--level", "2", "--output"],
        ["loewner-demo", "--seeds", "2", "--trace-csv"],
        ["bubble-limit", "--csv"],
    ],
    ids=["output", "trace-csv", "csv"],
)
def test_unwritable_output_path_is_usage_error(runner, tmp_path, argv):
    target = tmp_path / "missing" / "out"
    result = runner.invoke(main, argv + [str(target)])
    assert result.exit_code == 2
    assert str(target) in result.output
    assert "Traceback" not in result.output
    assert not target.parent.exists()


_EXPORTS = {
    "trace-csv": ["loewner-demo", "--seeds", "2", "--trace-csv"],
    "csv": ["bubble-limit", "--csv"],
}


@pytest.mark.parametrize("export", sorted(_EXPORTS))
def test_suites_write_their_export_before_the_first_check(runner, tmp_path, monkeypatch, export):
    from loopcft import reports

    target = tmp_path / "export.csv"
    seen = []
    run = reports.Report.run

    def run_after_export(report, name, fn):
        seen.append(target.exists())
        return run(report, name, fn)

    monkeypatch.setattr(reports.Report, "run", run_after_export)
    result = runner.invoke(main, _EXPORTS[export] + [str(target)])
    assert result.exit_code == 0, result.output
    assert seen and all(seen)
    # the export is not a check of its own
    names = [c["name"] for c in _report(result)["checks"]]
    assert len(names) == len(seen) and not any("export" in name for name in names)


@pytest.mark.parametrize("export", sorted(_EXPORTS))
def test_unwritable_export_leaves_no_report(runner, tmp_path, export):
    report = tmp_path / "report.json"
    target = tmp_path / "missing" / "export.csv"
    result = runner.invoke(main, _EXPORTS[export] + [str(target), "--output", str(report)])
    assert result.exit_code == 2
    assert str(target) in result.output
    assert not report.exists()


def test_usage_errors_come_from_one_boundary():
    # _run_suite is the only code in the CLI that turns an error into exit 2
    tree = ast.parse(Path(loopcft.__file__).with_name("cli.py").read_text())
    raisers = [
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Attribute) and node.attr == "UsageError"
    ]
    assert raisers == ["_run_suite"]


def test_closed_stdout_is_not_a_usage_error():
    # click exits 1 when stdout is a closed pipe; the boundary must not make it 2
    package_root = str(Path(loopcft.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": package_root + (os.pathsep + path if path else "")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "loopcft.cli", "kac", "--level", "0"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 1
    assert "Error" not in stderr and "Traceback" not in stderr


def test_config_file_feeds_flags_and_flags_win(runner, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"kappa": "8/3", "level": 2}))
    result = runner.invoke(main, ["--config", str(cfg), "kac", "--kappa", "3/1"])
    assert result.exit_code == 0
    report = _report(result)
    assert report["params"]["kappa"] == "3/1"  # flag beats file
    assert report["params"]["level"] == 2  # file beats default


# ---------------------------------------------------------------------------
# public names
# ---------------------------------------------------------------------------

_MODULES = ["loopcft"] + sorted(
    info.name for info in pkgutil.walk_packages(loopcft.__path__, "loopcft.")
)


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_resolves(name):
    # perfbench/tracer.py looks up every name in spectral.__all__ and linalg.__all__
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_every_public_name_has_a_caller_or_is_a_named_oracle():
    # Every name in a module's __all__, and every public method or property
    # of an exported class, must be referenced (as a Name or an Attribute)
    # in src/, demos/ or perfbench/ outside its own definition.  An oracle
    # that only tests call lives in tests/oracles.py, not in src/.  Matching
    # is by name, so this is a floor, not a proof: a member that shares its
    # name with an attribute used elsewhere passes.
    root = Path(__file__).resolve().parents[1]
    trees = {
        path: ast.parse(path.read_text())
        for folder in ("src", "demos", "perfbench")
        for path in sorted((root / folder).rglob("*.py"))
    }
    references = [
        (node.id if isinstance(node, ast.Name) else node.attr, path, node.lineno)
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]

    def referenced(name, path, definition):
        return any(
            ref == name
            and not (where == path and definition.lineno <= line <= definition.end_lineno)
            for ref, where, line in references
        )

    def bound(node):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            return {node.name}
        return {target.id for target in getattr(node, "targets", ()) if isinstance(target, ast.Name)}

    unreferenced = set()
    for path, tree in trees.items():
        if not path.is_relative_to(root / "src"):
            continue
        exported = set()
        for node in tree.body:
            if "__all__" in bound(node):
                exported = set(ast.literal_eval(node.value))
        for node in tree.body:
            for name in exported & bound(node):
                if not referenced(name, path, node):
                    unreferenced.add(name)
            if isinstance(node, ast.ClassDef) and node.name in exported:
                for member in node.body:
                    if (
                        isinstance(member, ast.FunctionDef)
                        and not member.name.startswith("_")
                        and not referenced(member.name, path, member)
                    ):
                        unreferenced.add(member.name)
    assert unreferenced == set()


def test_src_holds_no_assert_statement():
    # python -O strips assert statements, so a check in src/ raises instead
    root = Path(__file__).resolve().parents[1] / "src"
    asserts = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def test_src_imports_no_private_name_of_another_module():
    # a module's underscore names are its own; other modules read its public API
    root = Path(__file__).resolve().parents[1] / "src"
    private = [
        f"{path.relative_to(root)}:{node.lineno} {alias.name}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "loopcft")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert private == []


def test_src_sets_frozen_attributes_only_in_post_init():
    # derived state is a cached_property; object.__setattr__ only normalizes fields
    root = Path(__file__).resolve().parents[1] / "src"
    outside = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = {
            id(inner)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
            for inner in ast.walk(fn)
        }
        outside += [
            f"{path.relative_to(root)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr == "__setattr__"
            and isinstance(node.value, ast.Name)
            and node.value.id == "object"
            and id(node) not in allowed
        ]
    assert outside == []


# ---------------------------------------------------------------------------
# where numpy loads
# ---------------------------------------------------------------------------


def _fresh_python(script: str):
    """Run ``script`` in a new interpreter that imports this loopcft; parse its stdout."""
    package_root = str(Path(loopcft.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": package_root + (os.pathsep + path if path else "")}
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_importing_the_cli_leaves_logging_unloaded():
    # reports imports logging only when a check raises
    loaded = _fresh_python("""
        import json, sys
        import loopcft.cli
        json.dump("logging" in sys.modules, sys.stdout)
    """)
    assert loaded is False


def test_exact_subcommands_run_without_numpy():
    # numpy is blocked outright: any import of it raises ImportError
    commands = [
        ["verify-commutators", "--max-mode", "2", "--max-degree", "2"],
        ["gram", "--level", "2"],
        ["kac", "--level", "3"],
        ["singular", "--level", "2"],
        ["operators", "--max-mode", "2", "--max-degree", "2"],
        ["reflection"],
        ["bubble-limit"],
    ]
    results = _fresh_python(f"""
        import json, sys
        sys.modules["numpy"] = None
        from click.testing import CliRunner
        from loopcft.cli import main
        runs = [CliRunner().invoke(main, argv) for argv in {commands!r}]
        json.dump([[run.exit_code, run.stdout] for run in runs], sys.stdout)
    """)
    assert len(results) == len(commands)
    for argv, (code, output) in zip(commands, results):
        assert code == 0, (argv, output)
        assert json.loads(output)["schema_version"] == "1", argv


@pytest.mark.parametrize("command", ["loewner-demo", "report-all"])
def test_loewner_commands_load_numpy_before_config_returns(command):
    # the same wrapper as perfbench/child.py, which marks the end of start-up there
    loaded = _fresh_python(f"""
        import json, sys
        from click.testing import CliRunner
        from loopcft import cli
        assert "numpy" not in sys.modules
        parse = cli._config
        loaded = []

        def parse_then_stop(ctx, **overrides):
            parse(ctx, **overrides)
            loaded.append("numpy" in sys.modules)
            ctx.exit(0)

        cli._config = parse_then_stop
        assert CliRunner().invoke(cli.main, [{command!r}]).exit_code == 0
        json.dump(loaded, sys.stdout)
    """)
    assert loaded == [True]
