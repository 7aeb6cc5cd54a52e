"""Verification suites and the JSON report they emit.

Every suite takes a :class:`RunConfig` and returns a :class:`Report` — a flat
list of named pass/fail checks with witnesses, plus an echo of the parameters
that produced them.  Reports are deterministic for a fixed (config, seed)
pair with one deliberate exception: the per-check ``timing`` field records
wall-clock seconds and is excluded from any determinism guarantee.
"""

from __future__ import annotations

import cmath
import json
import logging
import math
import time
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable

from . import spectral
from .operators import (
    OperatorTable,
    commutator_defect,
    duality_pairing,
    geometric_pairing,
    state_family_residuals,
    vacuum_state,
    varpi,
    vartheta,
)
from .symbolic import CC, LAMBDA, CoeffPoly, partition_count, partitions_of
from .verma import (
    central_charge,
    gram_entry,
    gram_matrix,
    gram_rank_at,
    kac_determinant_at,
    kac_lambda,
    singular_vectors,
)

__all__ = [
    "SCHEMA_VERSION",
    "CheckRecord",
    "Report",
    "RunConfig",
    "parse_rational",
    "suite_commutators",
    "suite_gram",
    "suite_kac",
    "suite_singular",
    "suite_operators",
    "suite_reflection",
    "suite_bubble",
    "suite_loewner",
    "kappa_in_range",
    "report_all",
]

SCHEMA_VERSION = "1"

log = logging.getLogger("loopcft.reports")

_LAM = CoeffPoly.generator(LAMBDA)
_C = CoeffPoly.generator(CC)
_ZERO = CoeffPoly.zero()


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def parse_rational(text: str | int | Fraction) -> Fraction:
    """Exact rational from a ``p/q`` string (or an int / Fraction as-is)."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if isinstance(text, float):
        raise ValueError(
            f"refusing float {text!r} where an exact rational is required; "
            "write it as p/q"
        )
    if not isinstance(text, str):
        raise ValueError(f"not a rational: {text!r}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def _frac_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class RunConfig:
    """Flat bag of knobs shared by every suite.

    Rational parameters arrive as exact ``p/q`` strings; ``weight`` is the
    conformal weight (the ``lambda`` key in config files, since ``lambda``
    is not a valid attribute name).  Counts are ints (not bools) and must
    be non-negative; tolerances and ``loewner_dt`` are finite and positive.
    ``loewner_dt`` must also tile the Loewner suite's unit horizon: 1/dt is
    an integer to within 1e-9, so every driver grid ends at exactly t = 1.
    A value of the wrong type is a ``ValueError``, as is one out of range.
    """

    max_mode: int = 3
    max_degree: int = 4
    level: int = 3
    kappa: Fraction = Fraction(3)
    weight: Fraction | None = None
    seed: int = 0
    tol_reflection: float = 1e-12
    tol_pole: float = 1e-9
    tol_bubble: float = 1e-4
    tol_loewner: float = 1e-6
    loewner_dt: float = 1e-3
    loewner_seeds: int = 2000
    # always None; kept because perfbench/digests.json pins "cache_dir": null in params
    cache_dir: None = None
    output: str = "-"

    # JSON config files use ``lambda`` for the weight knob.
    _KEY_ALIASES = {"lambda": "weight"}
    _RATIONAL_KEYS = {"kappa", "weight"}
    _INT_KEYS = ("max_mode", "max_degree", "level", "seed", "loewner_seeds")
    _REAL_KEYS = ("tol_reflection", "tol_pole", "tol_bubble", "tol_loewner", "loewner_dt")
    _OTHER_TYPES = (
        ("kappa", Fraction),
        ("weight", (Fraction, type(None))),
        ("output", str),
        ("cache_dir", type(None)),
    )

    def __post_init__(self):
        for name in self._INT_KEYS:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be non-negative")
        for name in self._REAL_KEYS:
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value) or value <= 0:
                raise ValueError(f"{name} must be finite and positive")
        for name, kinds in self._OTHER_TYPES:
            value = getattr(self, name)
            if not isinstance(value, kinds):
                raise ValueError(f"{name} has the wrong type: {value!r}")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.loewner_seeds < 2:
            raise ValueError("loewner_seeds must be at least 2")
        steps = 1 / self.loewner_dt
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError(
                f"loewner_dt must divide the horizon 1 into whole steps, but 1/dt = {steps!r}"
            )

    @classmethod
    def from_sources(
        cls, config_path: str | Path | None = None, overrides: dict | None = None
    ) -> "RunConfig":
        """Defaults, then config-file values, then explicit overrides.

        The file is a flat JSON object; unknown keys are an error so typos
        fail loudly instead of silently running with defaults.
        """
        known = {f.name for f in fields(cls) if not f.name.startswith("_")}
        merged: dict = {}
        if config_path is not None:
            try:
                raw = json.loads(Path(config_path).read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise ValueError(f"cannot read config {config_path}: {exc}") from exc
            if not isinstance(raw, dict):
                raise ValueError("config file must hold a flat JSON object")
            merged.update(raw)
        for key, value in (overrides or {}).items():
            if value is not None:
                merged[key] = value
        kwargs: dict = {}
        for key, value in merged.items():
            name = cls._KEY_ALIASES.get(key, key)
            if name not in known:
                raise ValueError(f"unknown config key: {key!r}")
            if name in cls._RATIONAL_KEYS and value is not None:
                value = parse_rational(value)
            kwargs[name] = value
        return cls(**kwargs)

    def params(self) -> dict:
        """JSON-safe echo of every knob, rationals as p/q strings."""
        out = {}
        for f in fields(self):
            if f.name.startswith("_"):
                continue
            value = getattr(self, f.name)
            if isinstance(value, Fraction):
                value = _frac_str(value)
            key = "lambda" if f.name == "weight" else f.name
            out[key] = value
        return out


# ---------------------------------------------------------------------------
# report schema
# ---------------------------------------------------------------------------


@dataclass
class CheckRecord:
    name: str
    status: str  # "pass" or "fail"
    witness: str
    timing: float


@dataclass
class Report:
    suite: str
    params: dict
    checks: list[CheckRecord] = field(default_factory=list)
    schema_version: str = SCHEMA_VERSION

    @property
    def overall(self) -> str:
        return "fail" if any(c.status == "fail" for c in self.checks) else "pass"

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "suite": self.suite,
            "params": self.params,
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "witness": c.witness,
                    "timing": c.timing,
                }
                for c in self.checks
            ],
            "overall": self.overall,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def run(self, name: str, fn: Callable[[], tuple[bool, str]]) -> bool:
        """Execute one check, timing it; any exception it raises becomes a failure."""
        start = time.perf_counter()
        try:
            ok, witness = fn()
        except Exception as exc:
            log.debug("check %r of suite %s raised", name, self.suite, exc_info=True)
            ok, witness = False, f"{type(exc).__name__}: {exc}"
        self.checks.append(
            CheckRecord(
                name=name,
                status="pass" if ok else "fail",
                witness=witness,
                timing=round(time.perf_counter() - start, 6),
            )
        )
        return ok


def _defect_is_zero(defect: dict) -> bool:
    return (
        not defect["d_a"]
        and not defect["d_abar"]
        and defect["id_coeff"].is_zero
        and defect["e_coeff"].is_zero
    )


def _describe_defect(defect: dict) -> str:
    bad = sorted(defect["d_a"]) + [f"bar{m}" for m in sorted(defect["d_abar"])]
    if not defect["id_coeff"].is_zero:
        bad.append("id")
    if not defect["e_coeff"].is_zero:
        bad.append("euler")
    return f"nonzero defect components at {bad}"


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _suite_table(window: int, shared: OperatorTable | None) -> OperatorTable:
    """A fresh table at the suite's window, or ``shared`` narrowed to it."""
    if shared is None:
        return OperatorTable(max_index=window)
    return shared.restricted(window)


def _commutators_window(cfg: RunConfig) -> int:
    return max(cfg.max_degree + cfg.max_mode, 2 * cfg.max_mode + 1, 2)


def suite_commutators(cfg: RunConfig, table: OperatorTable | None = None) -> Report:
    """Bracket relations as operator identities on a shared index window.

    An operator-level identity on window ``w`` certifies the action on every
    state of index at most ``w``, so the window is sized to cover all
    monomials up to ``max_degree``.  A ``table`` passed in is narrowed to
    that window, as in every suite that takes one.
    """
    report = Report("verify-commutators", cfg.params())
    k = cfg.max_mode
    table = _suite_table(_commutators_window(cfg), table)

    def bracket(n: int, m: int, mixed: bool) -> Callable[[], tuple[bool, str]]:
        def check() -> tuple[bool, str]:
            u = table.L(n)
            t = table.Lbar(m) if mixed else table.L(m)
            defect = commutator_defect(u, t, table)
            if _defect_is_zero(defect):
                kind = "zero" if mixed else "algebra value"
                return True, f"[{n},{m}] equals {kind} on window {defect['max_index']}"
            return False, _describe_defect(defect)

        return check

    for n in range(-k, k + 1):
        for m in range(n + 1, k + 1):
            report.run(f"bracket L({n}) L({m})", bracket(n, m, mixed=False))
    for n in range(-k, k + 1):
        for m in range(-k, k + 1):
            report.run(f"bracket L({n}) Lbar({m})", bracket(n, m, mixed=True))

    def mirror_family() -> tuple[bool, str]:
        defect = commutator_defect(table.Lbar(1), table.Lbar(-1), table)
        ok = _defect_is_zero(defect)
        return ok, "barred family closes identically (mirror construction)"

    report.run("bracket Lbar(1) Lbar(-1)", mirror_family)
    return report


def _gram_window(cfg: RunConfig) -> int:
    return max(2 * cfg.level, 2)


def suite_gram(cfg: RunConfig, table: OperatorTable | None = None) -> Report:
    """Geometric pairings against the abstract Shapovalov form."""
    report = Report("gram", cfg.params())
    top = cfg.level
    table = _suite_table(_gram_window(cfg), table)

    def level_match(n: int) -> Callable[[], tuple[bool, str]]:
        def check() -> tuple[bool, str]:
            parts_list = partitions_of(n)
            for k in parts_list:
                for kp in parts_list:
                    got = geometric_pairing(k.parts, kp.parts, table)
                    want = gram_entry(k.parts, kp.parts)
                    if got != want:
                        return False, f"mismatch at <{k.parts}|{kp.parts}>"
            size = len(parts_list)
            return True, f"all {size}x{size} entries agree exactly"

        return check

    for n in range(top + 1):
        report.run(f"geometric matches abstract, level {n}", level_match(n))

    def inverse_check() -> tuple[bool, str]:
        weight = cfg.weight if cfg.weight is not None else Fraction(5, 7)
        result = spectral.gram_inverse_check(min(top, 2), weight, cfg.kappa)
        ok = result["status"] == "identity"
        return ok, (
            f"B * B^-1 at level {result['level']}, lambda={result['weight']}: "
            f"{result['status']}"
        )

    report.run("exact inverse sanity", inverse_check)
    return report


def suite_kac(cfg: RunConfig) -> Report:
    """Determinant of the Gram form and its degenerate-weight roots."""
    report = Report("kac", cfg.params())
    level = cfg.level
    charge = central_charge(cfg.kappa)

    def golden_level_two() -> tuple[bool, str]:
        matrix = gram_matrix(2)
        expect = [
            [4 * _LAM * (2 * _LAM + 1), 6 * _LAM],
            [6 * _LAM, 4 * _LAM + _C * Fraction(1, 2)],
        ]
        for i in range(2):
            for j in range(2):
                if matrix[i][j] != expect[i][j]:
                    return False, f"entry ({i},{j}) differs"
        det2 = kac_determinant_at(2, charge)
        product = (
            32
            * _LAM
            * (_LAM - CoeffPoly.constant(kac_lambda(1, 2, cfg.kappa)))
            * (_LAM - CoeffPoly.constant(kac_lambda(2, 1, cfg.kappa)))
        )
        if det2 != product:
            return False, "determinant does not factor through the two weights"
        return True, "matrix and factored determinant agree exactly"

    if level >= 2:
        report.run("level-2 matrix and factorization", golden_level_two)

    def roots() -> tuple[bool, str]:
        det = kac_determinant_at(level, charge)
        candidates = sorted(
            {
                kac_lambda(r, s, cfg.kappa)
                for r in range(1, level + 1)
                for s in range(1, level + 1)
                if r * s <= level
            }
        )
        for w in candidates:
            residue = det.substitute({LAMBDA: w})
            if not residue.is_zero:
                return False, f"lambda={w} is not a root"
        shown = ", ".join(str(w) for w in candidates)
        return True, f"det = {det.canonical_text()}; roots: {shown}"

    report.run(f"degenerate roots at level {level}", roots)

    def ranks() -> tuple[bool, str]:
        off_kac = cfg.weight if cfg.weight is not None else Fraction(5, 7)
        observed = []
        for n in range(min(level, 4) + 1):
            rank = gram_rank_at(n, off_kac, charge)
            if rank != partition_count(n):
                return False, f"rank {rank} != p({n}) at generic weight"
            observed.append(rank)
        return True, f"full ranks {observed} at lambda={_frac_str(off_kac)}"

    report.run("generic weights keep full rank", ranks)
    return report


def _singular_window(cfg: RunConfig) -> int:
    return max(2 * cfg.level, 6)


def suite_singular(cfg: RunConfig, table: OperatorTable | None = None) -> Report:
    """Null combinations along the degenerate-weight families."""
    report = Report("singular", cfg.params())
    table = _suite_table(_singular_window(cfg), table)
    charge = central_charge(cfg.kappa)

    def level_two_family(r: int, s: int) -> Callable[[], tuple[bool, str]]:
        def check() -> tuple[bool, str]:
            v = vacuum_state()
            quad = table.L(-1).apply(table.L(-1).apply(v))
            combo = quad - table.L(-2).apply(v).scale(
                Fraction(2, 3) * (2 * _LAM + 1)
            )
            residuals = state_family_residuals(combo.poly, r, s)
            if residuals:
                return False, f"{len(residuals)} residual monomials survive"
            return True, "vanishes identically along the family"

        return check

    for r, s in [(1, 2), (2, 1)]:
        report.run(f"level-2 null state on family ({r},{s})", level_two_family(r, s))

    def kernel(r: int, s: int) -> Callable[[], tuple[bool, str]]:
        def check() -> tuple[bool, str]:
            n = r * s
            weight = kac_lambda(r, s, cfg.kappa)
            basis = singular_vectors(n, weight, charge)
            if not basis:
                return False, "no kernel vector at the degenerate weight"
            rank = gram_rank_at(n, weight, charge)
            return True, (
                f"kernel dim {len(basis)}, rank {rank} of {partition_count(n)} "
                f"at lambda={_frac_str(weight)}"
            )

        return check

    for r, s in [(1, 2), (2, 1), (1, 3)]:
        if r * s <= max(cfg.level, 2):
            report.run(f"rank drop at level {r * s} family ({r},{s})", kernel(r, s))
    return report


def _operators_window(cfg: RunConfig) -> int:
    return max(cfg.max_degree + cfg.max_mode, 8)


def suite_operators(cfg: RunConfig, table: OperatorTable | None = None) -> Report:
    """Shape constraints and scalar anchors of the mode operators."""
    report = Report("operators", cfg.params())
    k = cfg.max_mode
    table = _suite_table(_operators_window(cfg), table)

    def shape(n: int) -> Callable[[], tuple[bool, str]]:
        def check() -> tuple[bool, str]:
            op = table.L(n)
            for m in range(1, table.max_index + 1):
                p = op.d_a.get(m, _ZERO)
                if n >= 1:
                    if m < n and not p.is_zero:
                        return False, f"d_a[{m}] should vanish"
                    if m == n and p != CoeffPoly.constant(-1):
                        return False, f"d_a[{n}] should be -1"
                if not p.is_zero and p.weighted_monomial_degrees() != {(m - n, 0)}:
                    return False, f"d_a[{m}] has the wrong weighted degree"
                q = op.d_abar.get(m, _ZERO)
                if n >= 1 and not q.is_zero:
                    return False, f"d_abar[{m}] should vanish for positive modes"
                for left, right in q.weighted_monomial_degrees():
                    if left - right != -(n + m) or left + right > m - n:
                        return False, f"d_abar[{m}] breaks the degree constraint"
            return True, f"all coefficients up to index {table.max_index} well-shaped"

        return check

    for n in range(-k, k + 1):
        report.run(f"degree structure of mode {n}", shape(n))

    def scalars(n: int) -> Callable[[], tuple[bool, str]]:
        def check() -> tuple[bool, str]:
            op = table.L(n)
            if op.e_coeff != -varpi(n):
                return False, "Euler coefficient disagrees with the residue route"
            if op.id_coeff != -(_C * vartheta(n)) * Fraction(1, 12):
                return False, "identity coefficient disagrees with the residue route"
            return True, "scalar parts match the independent residue computation"

        return check

    for n in range(-k, k + 1):
        report.run(f"scalar anchors of mode {n}", scalars(n))

    def duality() -> tuple[bool, str]:
        cap = max(cfg.level, 2)
        for n in range(1, cap + 1):
            for part in partitions_of(n):
                got = duality_pairing(part.parts, table)
                expect = Fraction(1)
                for value in set(part.parts):
                    mult = part.parts.count(value)
                    expect *= Fraction(-1) ** mult * math.factorial(mult)
                if got != CoeffPoly.constant(expect):
                    return False, f"pairing off at partition {part.parts}"
        return True, f"signed factorials reproduced for all |k| <= {cap}"

    report.run("coefficient duality", duality)
    return report


def kappa_in_range(cfg: RunConfig, suite: str) -> float:
    """The config's kappa as a float, checked against the range (0, 4] that
    the reflection and Loewner suites accept; ``suite`` names the one asking."""
    kappa = float(cfg.kappa)
    if not 0 < kappa <= 4:
        raise ValueError(f"{suite} suite needs kappa in (0, 4]")
    return kappa


def suite_reflection(cfg: RunConfig) -> Report:
    """Reflection coefficient normalization, poles, and spot values."""
    report = Report("reflection", cfg.params())
    kappa = kappa_in_range(cfg, "reflection")

    def unit_at_zero() -> tuple[bool, str]:
        value = spectral.reflection_R(0.0, kappa)
        ok = abs(value - 1.0) <= cfg.tol_reflection
        return ok, f"R(0) = {value!r}"

    report.run("normalization R(0) = 1", unit_at_zero)

    def first_pole() -> tuple[bool, str]:
        found = spectral.reflection_smallest_pole(kappa)
        expect = 0.5 * (1 - kappa / 8)
        ok = abs(found - expect) <= cfg.tol_pole
        return ok, f"pole located at {found!r}, closed form {expect!r}"

    report.run("smallest real pole", first_pole)

    if cfg.weight is not None:
        def spot() -> tuple[bool, str]:
            value = spectral.reflection_R(float(cfg.weight), kappa)
            return True, f"R({_frac_str(cfg.weight)}) = {value!r}"

        report.run("requested evaluation", spot)
    return report


def suite_bubble(
    cfg: RunConfig, csv_path: str | Path | None = None
) -> Report:
    """Annulus function, kernel-difference limits, and the off-center mass."""
    report = Report("bubble-limit", cfg.params())

    def centered_limit() -> tuple[bool, str]:
        q, gap = 0.3, 1e-3
        diff = math.pi * (
            spectral.poisson_disc(1.0 + 0j, cmath.exp(1j * gap))
            - spectral.poisson_annulus(q, 0.0, gap)
        )
        want = spectral.U_of_q(q)
        rel = abs(diff - want) / want
        ok = rel <= cfg.tol_bubble
        return ok, f"kernel difference {diff!r} vs U(q) {want!r}, rel {rel:.3e}"

    report.run("centered annulus kernel limit", centered_limit)

    def off_center() -> tuple[bool, str]:
        amap = spectral.mobius_annulus(0.3, 0.25)
        theta, gap = 0.7, 1e-3
        closed = spectral.bubble_mass(amap, theta)
        straddle = spectral.bubble_mass_limit(
            amap, theta - gap / 2, theta + gap / 2
        )
        rel = abs(straddle - closed) / abs(closed)
        ok = rel <= cfg.tol_bubble
        return ok, f"straddle {straddle!r} vs closed form {closed!r}, rel {rel:.3e}"

    report.run("off-center bubble mass", off_center)

    def small_q() -> tuple[bool, str]:
        q = 1e-30
        u = spectral.U_of_q(q)
        product = u * abs(math.log(q))
        ok = u < 0.01 and 0.45 < product < 0.55
        return ok, f"U(q) = {u!r}, U(q)|log q| = {product!r}"

    report.run("small-q decay of the annulus function", small_q)

    if csv_path is not None:
        def scan() -> tuple[bool, str]:
            amap = spectral.mobius_annulus(0.3, 0.25)
            theta = 0.7
            angles = [theta + g for g in (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)]
            rows = spectral.write_bubble_limit_scan(csv_path, amap, theta, angles)
            return True, f"wrote {rows} rows to {csv_path}"

        report.run("convergence scan export", scan)
    return report


def suite_loewner(cfg: RunConfig) -> Report:
    """Forward map, trace tip, and driver variance for the random driver."""
    from . import loewner

    report = Report("loewner-demo", cfg.params())
    kappa = kappa_in_range(cfg, "loewner")
    dt = cfg.loewner_dt

    def closed_form_map() -> tuple[bool, str]:
        w = loewner.DrivingFunction.zero(total_time=1.0, dt=dt)
        got = loewner.forward_map(w, 3j, 1.0)
        want = (3j**2 + 4) ** 0.5
        want = want if want.imag >= 0 else -want
        err = abs(got - want)
        ok = err <= cfg.tol_loewner
        return ok, f"|g_1(3i) - sqrt(9i^2+4)| = {err:.3e}"

    report.run("zero driver forward map", closed_form_map)

    def tip() -> tuple[bool, str]:
        w = loewner.DrivingFunction.zero(total_time=1.0, dt=dt)
        got = loewner.trace_tip(w)
        err = abs(got - 2j)
        ok = err <= 1e-3
        return ok, f"|tip - 2i| = {err:.3e} at dt = {dt!r}"

    report.run("vertical trace tip", tip)

    def variance() -> tuple[bool, str]:
        n = cfg.loewner_seeds
        total = 0.0
        total_sq = 0.0
        for s in range(cfg.seed, cfg.seed + n):
            w_final = loewner.sle_driving_endpoint(kappa, 1.0, dt, seed=s)
            total += w_final
            total_sq += w_final * w_final
        mean = total / n
        var = (total_sq - n * mean * mean) / (n - 1)
        se = kappa * (2.0 / (n - 1)) ** 0.5
        ok = abs(var - kappa) <= 3 * se
        return ok, f"sample variance {var:.4f} vs kappa {kappa}, 3 SE = {3 * se:.4f}"

    report.run("driver variance across seeds", variance)
    return report


def report_all(cfg: RunConfig) -> Report:
    """Every suite in sequence, merged into one flat report.

    The suites that use operators share one table at the widest of their
    windows, and each narrows it to its own, so every mode is built once.
    Kappa is checked against the reflection suite's range before any suite
    runs, so an out-of-range kappa costs no exact work.
    """
    kappa_in_range(cfg, "reflection")
    merged = Report("all", cfg.params())
    windows = (_commutators_window, _gram_window, _singular_window, _operators_window)
    table = OperatorTable(max_index=max(window(cfg) for window in windows))
    for suite, shares_table in (
        (suite_commutators, True),
        (suite_gram, True),
        (suite_kac, False),
        (suite_singular, True),
        (suite_operators, True),
        (suite_reflection, False),
        (suite_bubble, False),
        (suite_loewner, False),
    ):
        part = suite(cfg, table) if shares_table else suite(cfg)
        for check in part.checks:
            merged.checks.append(replace(check, name=f"{part.suite}: {check.name}"))
    return merged
