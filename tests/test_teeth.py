"""The exact report checks have teeth: each mutant below fails a known set of checks.

Every case monkeypatches one formula, runs ``report_all`` at level 4 and
max_mode 3 (108 checks, all passing unmutated), and pins the overall verdict
and the names of the checks that fail.  The Verma caches are cleared before
and after each mutant, so no mutant value is read from a cache or left in one.
"""

from fractions import Fraction

import pytest

from loopcft import operators, reports, verma
from loopcft.reports import RunConfig, report_all
from loopcft.verma import central_charge, cocycle, kac_lambda

_CACHES = (verma._apply_mode_to_basis, verma.gram_entry, verma.gram_matrix)


def _clear_caches():
    for cached in _CACHES:
        cached.cache_clear()


def _moved_cocycle(n, m):
    """cocycle(2, -2) moved by +1 and cocycle(-2, 2) by -1, so it stays antisymmetric."""
    return cocycle(n, m) + {(2, -2): 1, (-2, 2): -1}.get((n, m), 0)


def _shifted_kac_lambda(r0, s0):
    def shifted(r, s, kappa):
        return kac_lambda(r, s, kappa) + (Fraction(1, 9) if (r, s) == (r0, s0) else 0)

    return shifted


def _shifted_central_charge(kappa):
    return central_charge(kappa) + 1


# the checks that read the central charge
_CHARGE_CHECKS = {
    "kac: degenerate roots at level 4",
    "kac: level-2 matrix and factorization",
    "singular: rank drop at level 2 family (1,2)",
    "singular: rank drop at level 2 family (2,1)",
    "singular: rank drop at level 3 family (1,3)",
}

_CASES = {
    "cocycle-in-verma-and-operators": (
        [(verma, "cocycle"), (operators, "cocycle")],
        _moved_cocycle,
        _CHARGE_CHECKS
        | {
            "gram: geometric matches abstract, level 2",
            "gram: geometric matches abstract, level 3",
            "gram: geometric matches abstract, level 4",
            "verify-commutators: bracket L(-2) L(2)",
        },
    ),
    "cocycle-in-operators-only": (
        [(operators, "cocycle")],
        _moved_cocycle,
        {"verify-commutators: bracket L(-2) L(2)"},
    ),
    "central-charge-plus-1": (
        [(reports, "central_charge")],
        _shifted_central_charge,
        _CHARGE_CHECKS,
    ),
    "kac-lambda-1-3-plus-1/9": (
        [(reports, "kac_lambda")],
        _shifted_kac_lambda(1, 3),
        {"kac: degenerate roots at level 4", "singular: rank drop at level 3 family (1,3)"},
    ),
    "kac-lambda-2-2-plus-1/9": (
        [(reports, "kac_lambda")],
        _shifted_kac_lambda(2, 2),
        {"kac: degenerate roots at level 4"},
    ),
}


@pytest.mark.parametrize("case", list(_CASES))
def test_report_checks_fail_under_a_mutant(monkeypatch, case):
    targets, mutant, expected = _CASES[case]
    _clear_caches()
    try:
        with monkeypatch.context() as patch:
            for module, name in targets:
                patch.setattr(module, name, mutant)
            report = report_all(RunConfig(level=4, max_mode=3))
    finally:
        _clear_caches()
    assert report.overall == "fail"
    assert {check.name for check in report.checks if check.status == "fail"} == expected


def test_report_checks_pass_unmutated():
    report = report_all(RunConfig(level=4, max_mode=3))
    assert len(report.checks) == 108
    assert report.overall == "pass"
